#include "fabric/ledger.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cil::fabric {

namespace {

ShardClock::duration seconds(double s) {
  return std::chrono::duration_cast<ShardClock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

double backoff_seconds(const ShardPolicy& policy, int attempt) {
  return std::min(policy.backoff_max_seconds,
                  std::ldexp(policy.backoff_initial_seconds, attempt));
}

ShardClock::time_point attempt_deadline(const ShardPolicy& policy,
                                        ShardClock::time_point now) {
  if (policy.timeout_seconds <= 0.0) return ShardClock::time_point::max();
  return now + seconds(policy.timeout_seconds);
}

ShardLedger::ShardLedger(int num_shards, const std::vector<int>& resumed,
                         ShardPolicy policy)
    : policy_(policy) {
  CIL_EXPECTS(num_shards >= 0 && policy_.retry_budget >= 0);
  shards_.resize(static_cast<std::size_t>(num_shards));
  for (const int i : resumed) shards_.at(i).state = State::kDone;
}

int ShardLedger::lease(ShardClock::time_point now) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.state != State::kPending || is_spent(s) || s.ready_at > now)
      continue;
    s.state = State::kLeased;
    return static_cast<int>(i);
  }
  return -1;
}

int ShardLedger::lease_spent() {
  const std::vector<int> out = spent();
  if (out.empty()) return -1;
  shards_[out.front()].state = State::kLeased;
  return out.front();
}

bool ShardLedger::fail(int shard, ShardClock::time_point now) {
  Shard& s = shards_.at(shard);
  CIL_EXPECTS(s.state == State::kLeased);
  s.state = State::kPending;
  ++s.failures;
  if (is_spent(s)) return false;
  s.ready_at = now + seconds(backoff_seconds(policy_, s.failures - 1));
  return true;
}

bool ShardLedger::commit(int shard) {
  Shard& s = shards_.at(shard);
  if (s.state == State::kDone) return false;
  s.state = State::kDone;
  return true;
}

std::vector<int> ShardLedger::spent() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    if (is_spent(shards_[i])) out.push_back(static_cast<int>(i));
  return out;
}

bool ShardLedger::settled() const {
  return std::all_of(shards_.begin(), shards_.end(), [this](const Shard& s) {
    return s.state == State::kDone || is_spent(s);
  });
}

bool ShardLedger::complete() const {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const Shard& s) { return s.state == State::kDone; });
}

}  // namespace cil::fabric
