// The shard ledger: the lease -> retry -> backoff -> budget bookkeeping of
// a sharded sweep, shared by the forked-worker supervisor
// (fabric/supervisor.h) and the fleet's data plane (fleet/fleet.h). Only
// the bookkeeping is shared: a timeout is a SIGKILL in one and a socket
// deadline in the other, and a spent shard is "incomplete" in one and "run
// locally" in the other.
//
// Shards 0..n-1 are each pending, leased or done. A failed attempt requeues
// its shard behind a gate of backoff_seconds(policy, failures - 1); the
// failure after the last retry leaves it pending but spent. The ledger is
// passive: no threads, no I/O, no clock. Callers pass `now` and hold
// whatever lock guards it.
#pragma once

#include <chrono>
#include <vector>

namespace cil::fabric {

struct ShardPolicy {
  double timeout_seconds = 120.0;        ///< per attempt; <= 0: none
  int retry_budget = 3;                  ///< retries after the first attempt
  double backoff_initial_seconds = 0.1;  ///< gate before the first retry
  double backoff_max_seconds = 5.0;      ///< the gate doubles up to this
};

using ShardClock = std::chrono::steady_clock;

/// The gate after failed attempt `attempt`: min(max, initial * 2^attempt).
double backoff_seconds(const ShardPolicy& policy, int attempt);

/// When an attempt started at `now` times out; time_point::max(): never.
ShardClock::time_point attempt_deadline(const ShardPolicy& policy,
                                        ShardClock::time_point now);

class ShardLedger {
 public:
  /// Shards 0..num_shards-1; those in `resumed` are done, never leased.
  ShardLedger(int num_shards, const std::vector<int>& resumed,
              ShardPolicy policy);

  /// Lease the lowest pending shard whose gate has passed at `now` and
  /// whose budget is not spent; -1 if none. time_point::max() passes every
  /// gate.
  int lease(ShardClock::time_point now);
  int lease_spent();  ///< lease the lowest spent shard; -1 if none
  /// A leased shard's attempt failed at `now`: requeue it behind its gate
  /// (true), or leave it spent (false).
  bool fail(int shard, ShardClock::time_point now);
  bool commit(int shard);  ///< false for a late duplicate

  int failures(int shard) const { return shards_.at(shard).failures; }
  std::vector<int> spent() const;  ///< pending shards out of budget
  bool settled() const;  ///< nothing leased or leasable: all done or spent
  bool complete() const;  ///< every shard done

 private:
  enum class State { kPending, kLeased, kDone };
  struct Shard {
    State state = State::kPending;
    int failures = 0;
    ShardClock::time_point ready_at;  ///< backoff gate
  };
  bool is_spent(const Shard& s) const {
    return s.state == State::kPending && s.failures > policy_.retry_budget;
  }

  ShardPolicy policy_;
  std::vector<Shard> shards_;
};

}  // namespace cil::fabric
