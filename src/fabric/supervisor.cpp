#include "fabric/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "util/check.h"

namespace cil::fabric {

namespace {

/// Run the shard body and return its exit code; a throw exits 71.
int run_worker(const ShardWorker& worker, const ShardTask& task,
               int attempt) {
  try {
    return worker(task, attempt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fabric: shard %d attempt %d threw: %s\n",
                 task.index, attempt, e.what());
  } catch (...) {
  }
  return 71;
}

#ifndef _WIN32
struct Running {
  int slot = 0;  ///< position in the task list, the ledger's shard number
  ShardClock::time_point deadline;  ///< time_point::max() when no timeout
  bool timed_out = false;           ///< SIGKILL sent; awaiting the reap
};
#endif

}  // namespace

SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store,
                            const ShardWorker& worker) {
  CIL_EXPECTS(options.workers >= 1);
  CIL_EXPECTS(worker != nullptr);

  SweepOutcome out;
  out.shards.resize(tasks.size());
  std::vector<int> resumed;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ShardOutcome& so = out.shards[i];
    so.index = tasks[i].index;
    if (!store.is_complete(so.index)) continue;
    so.completed = so.resumed = true;
    resumed.push_back(static_cast<int>(i));
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d resumed from checkpoint\n",
                   so.index);
  }
  ShardLedger ledger(static_cast<int>(tasks.size()), resumed, options.policy);

  // An attempt ended: `error` is "" when the worker exited 0. A valid
  // shard file commits the shard; anything else goes back to the ledger.
  const auto finish = [&](int slot, const std::string& error) {
    ShardOutcome& so = out.shards[static_cast<std::size_t>(slot)];
    if (error.empty() && store.commit_shard(so.index)) {
      ledger.commit(slot);
      so.completed = true;
      if (options.verbose)
        std::fprintf(stderr, "fabric: shard %d committed\n", so.index);
      return;
    }
    // Exit 0 without a valid shard file counts as a crash.
    so.last_error = error.empty() ? "shard file invalid" : error;
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d attempt %d failed (%s)\n",
                   so.index, ledger.failures(slot), so.last_error.c_str());
    if (ledger.fail(slot, ShardClock::now()))
      ++out.retries;
    else if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d retry budget exhausted\n",
                   so.index);
  };

#ifdef _WIN32
  // No fork(): run each shard in-process, serially, leasing gate-free.
  // Checkpointing and the retry budget hold; chaos-kill and timeouts do
  // not apply.
  for (int slot; (slot = ledger.lease(ShardClock::time_point::max())) >= 0;) {
    ++out.shards[static_cast<std::size_t>(slot)].attempts;
    const int code = run_worker(worker, tasks[static_cast<std::size_t>(slot)],
                                ledger.failures(slot));
    finish(slot, code == 0 ? "" : "exit=" + std::to_string(code));
  }
#else
  std::map<pid_t, Running> running;
  const auto launch = [&](int slot) {
    const ShardTask& task = tasks[static_cast<std::size_t>(slot)];
    const int attempt = ledger.failures(slot);
    ++out.shards[static_cast<std::size_t>(slot)].attempts;
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d attempt %d launching\n",
                   task.index, attempt);
    std::fflush(nullptr);  // don't let children replay buffered output
    const pid_t pid = ::fork();
    CIL_CHECK_MSG(pid >= 0, "fabric: fork() failed");
    if (pid == 0) {
      // Child. Run the shard body and leave without unwinding the parent's
      // state (no atexit handlers, no static destructors).
      const int code = run_worker(worker, task, attempt);
      std::fflush(nullptr);
      ::_exit(code);
    }
    running.emplace(pid, Running{slot, attempt_deadline(options.policy,
                                                         ShardClock::now())});
  };

  while (!ledger.settled()) {
    // Launch every shard whose backoff has elapsed, up to the worker cap.
    const ShardClock::time_point now = ShardClock::now();
    while (running.size() < static_cast<std::size_t>(options.workers)) {
      const int slot = ledger.lease(now);
      if (slot < 0) break;
      launch(slot);
    }

    // Enforce timeouts: SIGKILL, then reap through the normal path below.
    for (auto& [pid, r] : running) {
      if (!r.timed_out && ShardClock::now() >= r.deadline) {
        r.timed_out = true;
        ::kill(pid, SIGKILL);
      }
    }

    // Reap without blocking; a child may finish while others still run.
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      const auto it = running.find(pid);
      if (it != running.end()) {
        const Running r = it->second;
        running.erase(it);
        if (r.timed_out)
          finish(r.slot, "timeout");
        else if (WIFEXITED(status))
          finish(r.slot, WEXITSTATUS(status) == 0
                             ? ""
                             : "exit=" + std::to_string(WEXITSTATUS(status)));
        else if (WIFSIGNALED(status))
          finish(r.slot, "signal=" + std::to_string(WTERMSIG(status)));
        else
          finish(r.slot, "unknown wait status");
      }
      continue;  // drain further finished children before sleeping
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
#endif

  for (const int slot : ledger.spent())
    out.incomplete_shards.push_back(
        tasks[static_cast<std::size_t>(slot)].index);
  std::sort(out.incomplete_shards.begin(), out.incomplete_shards.end());
  return out;
}

}  // namespace cil::fabric
