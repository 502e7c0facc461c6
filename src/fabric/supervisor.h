// A fork-based worker supervisor for sharded sweeps.
//
// run_supervised() leases shards from a ShardLedger (fabric/ledger.h) and
// runs each in one of up to `workers` child processes. A child executes
// the caller's ShardWorker, which runs the shard through BatchRunner and
// writes it with CheckpointStore::write_shard, the shard's commit, then
// _exit()s. The parent reaps it, validates the shard file, and handles the
// failure modes of a real fleet:
//
//   * CRASH (nonzero exit or a signal, including --chaos-kill-prob): the
//     shard is requeued behind the policy's doubling backoff, up to
//     `retry_budget` retries.
//   * HANG (the policy's `timeout_seconds` exceeded): the child is
//     SIGKILLed and treated as a crash.
//   * BUDGET SPENT: the shard lands in SweepOutcome::incomplete_shards and
//     every other shard still completes: a partial summary, gaps explicit.
//
// Process-model contract: the parent must be effectively single-threaded
// when it calls run_supervised (fork() in a multithreaded process clones
// only the calling thread; a child could then deadlock on a lock held by a
// thread that no longer exists). Children may spawn BatchRunner threads
// freely — they fork before threading. Windows has no fork(); there the
// fabric runs shards in-process, serially (still checkpointed).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fabric/checkpoint.h"
#include "fabric/ledger.h"
#include "sched/batch.h"

namespace cil::fabric {

/// One unit of supervised work: shard `index` of the sweep, covering
/// `range` (== store.shard_range(index)).
struct ShardTask {
  int index = 0;
  SeedRange range;
};

struct SupervisorOptions {
  int workers = 2;      ///< max concurrent child processes
  ShardPolicy policy;   ///< timeout, retry budget and backoff per shard
  bool verbose = false;  ///< per-event lines on stderr
};

/// What happened to one shard across all its attempts.
struct ShardOutcome {
  int index = 0;
  int attempts = 0;      ///< launches; 0 when resumed from checkpoint
  bool completed = false;
  bool resumed = false;  ///< satisfied by the checkpoint, never launched
  std::string last_error;  ///< "exit=N" | "signal=N" | "timeout" |
                           ///< "shard file invalid" | "" on clean first try
};

struct SweepOutcome {
  std::vector<ShardOutcome> shards;  ///< one per task, task order
  std::int64_t retries = 0;          ///< total relaunches across all shards
  std::vector<int> incomplete_shards;  ///< indexes that spent the budget

  bool complete() const { return incomplete_shards.empty(); }
};

/// The shard body, run INSIDE the forked child. Must compute the shard and
/// persist it with store.write_shard(task.index, ...), then return the
/// child's exit code (0 = success). `attempt` is 0 on the first try and
/// increments per retry — chaos injection uses it so a retried shard draws
/// a fresh kill decision. Never returns to the parent's control flow: the
/// supervisor _exit()s with the returned code immediately after.
using ShardWorker = std::function<int(const ShardTask& task, int attempt)>;

/// Drive `tasks` to completion (or budget exhaustion) with at most
/// options.workers concurrent forked children, leasing shards in task
/// order (the ledger numbers them by position). Tasks already complete in
/// `store` are skipped and marked resumed. Successful children's shard
/// files are validated as they are reaped. The files are the commits, so a
/// SIGKILL of the SUPERVISOR itself loses nothing a worker finished
/// writing: the next open() counts every valid shard file.
SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store, const ShardWorker& worker);

}  // namespace cil::fabric
