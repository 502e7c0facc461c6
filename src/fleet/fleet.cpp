#include "fleet/fleet.h"

#ifndef _WIN32

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "obs/json.h"
#include "sched/batch.h"
#include "util/check.h"

namespace cil::fleet {

namespace {

using Clock = std::chrono::steady_clock;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  if (left > 3600'000) return 3600'000;
  return static_cast<int>(left);
}

}  // namespace

/// Shared state of the one running fleet sweep. Lives on run_fleet_sweep's
/// stack; workers reach it via sweep_frame_ under shard_mu_, and it is
/// unpublished before the frame unwinds.
struct FleetService::SweepFrame {
  std::vector<SeedRange> ranges;  ///< shard index -> seed range
  fabric::ShardLedger ledger;
  std::map<int, fabric::ShardSummary> results;  ///< done shards
  fabric::CheckpointStore* store = nullptr;
  const svc::EmitFrame* emit = nullptr;
  std::int64_t done_runs = 0;
  std::int64_t decided = 0;
  std::int64_t total_steps = 0;
};

FleetService::FleetService(FleetOptions options, svc::JobLimits limits)
    : options_(std::move(options)), limits_(limits) {
  const int n = static_cast<int>(options_.peers.size());
  CIL_EXPECTS(n >= 1 && n <= 254);
  CIL_EXPECTS(options_.self >= 0 && options_.self < n);
  CIL_EXPECTS(options_.hb_interval_ms > 0 && options_.hb_timeout_ms > 0);
  CIL_EXPECTS(options_.hb_miss_limit >= 1);
  CIL_EXPECTS(options_.policy.retry_budget >= 0);
  CIL_EXPECTS(options_.chaos_drop_prob >= 0.0 &&
              options_.chaos_drop_prob <= 1.0);
  peers_.assign(static_cast<std::size_t>(n), PeerStatus{});
  peer_announced_.assign(static_cast<std::size_t>(n), kNoLeader);
  if (!options_.election_log.empty())
    sink_ = std::make_unique<obs::JsonlStreamSink>(options_.election_log);
  chaos_rng_ =
      std::make_unique<Xoshiro256>(SplitMix64(options_.chaos_seed).next());
  if (n >= 2) {
    ElectionConfig ec;
    ec.n = n;
    ec.self = options_.self;
    ec.seed = options_.election_seed;
    engine_ = std::make_unique<ElectionEngine>(ec, sink_.get());
  } else {
    // Degenerate fleet: the only daemon is the leader by definition.
    leader_ = options_.self;
  }
}

FleetService::~FleetService() { stop(); }

void FleetService::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  control_ = std::thread([this] { control_loop(); });
}

void FleetService::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  sweep_abort_.store(true, std::memory_order_relaxed);
  shard_cv_.notify_all();
  if (control_.joinable()) control_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
    if (sink_) sink_->close();
  }
}

int FleetService::leader() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_;
}

std::int64_t FleetService::round() const {
  std::lock_guard<std::mutex> lock(mu_);
  return round_;
}

bool FleetService::is_leader() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leader_ == options_.self;
}

int FleetService::alive_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (int q = 0; q < size(); ++q)
    if (q == options_.self || peers_[static_cast<std::size_t>(q)].alive) ++n;
  return n;
}

std::int64_t FleetService::elections_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return elections_;
}

obs::Json FleetService::status_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::Json info = obs::Json::object();
  info["self"] = obs::Json(options_.self);
  info["n"] = obs::Json(size());
  info["elections"] = obs::Json(elections_);
  obs::Json alive = obs::Json::array();
  for (int q = 0; q < size(); ++q)
    alive.push_back(obs::Json(q == options_.self ||
                              peers_[static_cast<std::size_t>(q)].alive));
  info["alive"] = std::move(alive);
  info["leader_alive"] =
      obs::Json(leader_ != kNoLeader &&
                (leader_ == options_.self ||
                 peers_[static_cast<std::size_t>(leader_)].alive));
  return info;
}

void FleetService::note(const std::string& what) {
  if (!options_.verbose) return;
  std::fprintf(stderr, "[fleet %d] %s\n", options_.self, what.c_str());
}

// ---------------------------------------------------------------------------
// Control plane: epoll-thread side (inbound peer frames).

std::string FleetService::handle_peer_frame(const obs::Json& doc) {
  const PeerMsg msg = peer_msg_from_json(doc);
  std::lock_guard<std::mutex> lock(mu_);
  const bool known_sender =
      msg.from >= 0 && msg.from < size() && msg.from != options_.self;
  if (known_sender) {
    // Any inbound frame is proof of life — passive detection alongside the
    // active heartbeats, so a one-way link partition heals from either end.
    peers_[static_cast<std::size_t>(msg.from)].misses = 0;
    set_alive_locked(msg.from, true);
  }

  PeerMsg resp;
  resp.from = options_.self;

  if (msg.type == "hb") {
    if (msg.round > round_) {
      // Gossip: the sender is in a later round. Adopt its decided leader,
      // or join its still-running election.
      round_ = msg.round;
      leader_ = msg.leader;
      conflict_ = false;
      std::fill(peer_announced_.begin(), peer_announced_.end(), kNoLeader);
      if (leader_ == kNoLeader) join_round_ = std::max(join_round_, msg.round);
      cv_.notify_all();
    }
    resp.type = "hb_ack";
    resp.round = round_;
    resp.leader = leader_;
    return peer_frame(resp);
  }

  if (msg.type == "read_req") {
    resp.type = "read_resp";
    resp.leader = leader_;
    if (engine_ && msg.round > 0 && engine_->round() == msg.round) {
      resp.ok = true;
      resp.round = msg.round;
      resp.word = engine_->own_word();
    } else {
      resp.ok = false;
      resp.round = engine_ ? engine_->round() : 0;
      if (msg.round > (engine_ ? engine_->round() : 0) &&
          msg.round >= round_) {
        // We lag the requester's election; ask the control thread to join.
        join_round_ = std::max(join_round_, msg.round);
        cv_.notify_all();
      }
    }
    return peer_frame(resp);
  }

  if (msg.type == "elect") {
    if (msg.round > (engine_ ? engine_->round() : 0)) {
      join_round_ = std::max(join_round_, msg.round);
      cv_.notify_all();
    }
    resp.type = "ok";
    return peer_frame(resp);
  }

  if (msg.type == "leader") {
    if (msg.round > round_) {
      round_ = msg.round;
      leader_ = msg.leader;
      conflict_ = false;
      std::fill(peer_announced_.begin(), peer_announced_.end(), kNoLeader);
    } else if (msg.round == round_ && known_sender) {
      peer_announced_[static_cast<std::size_t>(msg.from)] = msg.leader;
      const int mine =
          leader_ != kNoLeader
              ? leader_
              : (engine_ && engine_->decided() && engine_->round() == round_
                     ? engine_->leader()
                     : kNoLeader);
      if (mine != kNoLeader && msg.leader != kNoLeader && mine != msg.leader) {
        // The dead-owner read fallback let two daemons decide differently
        // (the Theorem 8 gap, see election.h). Resolve by a fresh round.
        conflict_ = true;
        cv_.notify_all();
      } else if (leader_ == kNoLeader && mine == kNoLeader &&
                 msg.leader != kNoLeader) {
        leader_ = msg.leader;
      }
    }
    resp.type = "ok";
    return peer_frame(resp);
  }

  if (msg.type == "status_req") {
    resp.type = "status";
    resp.round = round_;
    resp.leader = leader_;
    obs::Json info = obs::Json::object();
    info["self"] = obs::Json(options_.self);
    info["n"] = obs::Json(size());
    info["elections"] = obs::Json(elections_);
    obs::Json alive = obs::Json::array();
    for (int q = 0; q < size(); ++q)
      alive.push_back(obs::Json(q == options_.self ||
                                peers_[static_cast<std::size_t>(q)].alive));
    info["alive"] = std::move(alive);
    resp.extra = std::move(info);
    return peer_frame(resp);
  }

  if (msg.type == "roster_req") {
    resp.type = "roster";
    obs::Json info = obs::Json::object();
    obs::Json peers = obs::Json::array();
    for (const std::string& p : options_.peers) peers.push_back(obs::Json(p));
    info["peers"] = std::move(peers);
    info["self"] = obs::Json(options_.self);
    resp.extra = std::move(info);
    return peer_frame(resp);
  }

  throw ContractViolation("peer frame type '" + msg.type + "' is reply-only");
}

// ---------------------------------------------------------------------------
// Control plane: the background thread.

void FleetService::control_loop() {
  std::vector<LineClient> links(static_cast<std::size_t>(size()));
  std::vector<Clock::time_point> hb_due(static_cast<std::size_t>(size()),
                                        Clock::now());
  const auto grace_end =
      Clock::now() + std::chrono::milliseconds(options_.startup_grace_ms);

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
      cv_.wait_for(lock, std::chrono::milliseconds(20));
      if (stop_) return;
    }
    const auto now = Clock::now();
    for (int q = 0; q < size(); ++q) {
      if (q == options_.self) continue;
      if (now < hb_due[static_cast<std::size_t>(q)]) continue;
      hb_due[static_cast<std::size_t>(q)] =
          now + std::chrono::milliseconds(options_.hb_interval_ms);
      heartbeat_peer(q, links[static_cast<std::size_t>(q)]);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
      }
    }
    if (Clock::now() < grace_end) continue;
    tick(links);
  }
}

void FleetService::heartbeat_peer(int q, LineClient& link) {
  PeerMsg req;
  req.type = "hb";
  req.from = options_.self;
  {
    std::lock_guard<std::mutex> lock(mu_);
    req.round = round_;
    req.leader = leader_;
    ++peers_[static_cast<std::size_t>(q)].hb_sent;
  }
  PeerMsg resp;
  const bool ok = exchange(link, q, req, resp) && resp.type == "hb_ack";
  std::lock_guard<std::mutex> lock(mu_);
  PeerStatus& ps = peers_[static_cast<std::size_t>(q)];
  if (ok) {
    ++ps.hb_acked;
    ps.misses = 0;
    set_alive_locked(q, true);
    if (resp.round > round_) {
      round_ = resp.round;
      leader_ = resp.leader;
      conflict_ = false;
      std::fill(peer_announced_.begin(), peer_announced_.end(), kNoLeader);
      if (leader_ == kNoLeader) join_round_ = std::max(join_round_, resp.round);
    }
  } else {
    if (++ps.misses >= options_.hb_miss_limit) set_alive_locked(q, false);
  }
}

void FleetService::set_alive_locked(int q, bool alive) {
  PeerStatus& ps = peers_[static_cast<std::size_t>(q)];
  if (ps.alive == alive) return;
  ps.alive = alive;
  emit_liveness_locked(
      alive ? obs::EventKind::kRecover : obs::EventKind::kCrash, q);
  note((alive ? "peer up: " : "peer down: ") + std::to_string(q));
  shard_cv_.notify_all();  // data-plane workers gate on liveness
  cv_.notify_all();
}

void FleetService::emit_liveness_locked(obs::EventKind kind, int q) {
  if (!sink_) return;
  obs::Event e;
  e.kind = kind;
  e.pid = q;
  e.arg = round_;
  sink_->on_event(e);
}

void FleetService::tick(std::vector<LineClient>& links) {
  std::int64_t elect_round = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (size() < 2) return;
    const std::int64_t engine_round = engine_->round();
    if (join_round_ > engine_round && join_round_ >= round_) {
      // A peer asked us to (at least) join a newer election.
      start_election_locked(join_round_);
      elect_round = round_;
    } else if (conflict_) {
      note("leader conflict at round " + std::to_string(round_) +
           "; forcing a new round");
      conflict_ = false;
      start_election_locked(round_ + 1);
      elect_round = round_;
    } else if (leader_ == kNoLeader && !engine_->active() &&
               (engine_round < round_ || round_ == 0 ||
                (engine_round == round_ && !engine_->decided()))) {
      // No leader known and no usable election: first boot, or a gossiped
      // round whose decision we never learned.
      start_election_locked(round_ + 1);
      elect_round = round_;
    } else if (leader_ != kNoLeader && leader_ != options_.self &&
               !peers_[static_cast<std::size_t>(leader_)].alive) {
      note("leader " + std::to_string(leader_) + " is dead; re-electing");
      start_election_locked(round_ + 1);
      elect_round = round_;
    }
  }
  if (elect_round > 0) {
    // Invite everyone alive into the round — the protocol needs its
    // writers writing, and laggards answer reads ok=false until they join.
    PeerMsg req;
    req.type = "elect";
    req.from = options_.self;
    req.round = elect_round;
    for (int q = 0; q < size(); ++q) {
      if (q == options_.self) continue;
      bool alive;
      {
        std::lock_guard<std::mutex> lock(mu_);
        alive = peers_[static_cast<std::size_t>(q)].alive;
      }
      if (!alive) continue;
      PeerMsg resp;
      exchange(links[static_cast<std::size_t>(q)], q, req, resp);
    }
  }
  drive_election(links);

  // Adopt our automaton's decision — unless anyone (us included, via an
  // earlier announcement we adopted) disagrees, which reopens the round.
  std::int64_t decided_round = 0;
  int decided_leader = kNoLeader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (size() >= 2 && engine_->decided() && engine_->round() == round_ &&
        !conflict_) {
      const int mine = engine_->leader();
      bool disagree = leader_ != kNoLeader && leader_ != mine;
      for (int q = 0; q < size(); ++q)
        if (peer_announced_[static_cast<std::size_t>(q)] != kNoLeader &&
            peer_announced_[static_cast<std::size_t>(q)] != mine)
          disagree = true;
      if (disagree) {
        conflict_ = true;
      } else if (leader_ == kNoLeader) {
        leader_ = mine;
        decided_round = round_;
        decided_leader = mine;
        note("round " + std::to_string(round_) + " elected " +
             std::to_string(mine));
      }
    }
  }
  if (decided_leader != kNoLeader)
    announce_leader(links, decided_round, decided_leader);
}

void FleetService::start_election_locked(std::int64_t target_round) {
  const std::int64_t target = std::max(target_round, round_);
  if (engine_->round() >= target) return;  // already ran / running it
  round_ = target;
  leader_ = kNoLeader;
  conflict_ = false;
  join_round_ = std::max(join_round_, target);
  std::fill(peer_announced_.begin(), peer_announced_.end(), kNoLeader);
  ++elections_;
  engine_->start_round(target);
  note("election round " + std::to_string(target) + " started");
}

void FleetService::drive_election(std::vector<LineClient>& links) {
  // How long to keep re-asking a live peer that has not joined the round
  // yet before degrading that one read to the cached/⊥ fallback.
  constexpr int kJoinRetries = 25;
  int lag_retries = 0;
  for (;;) {
    int pending;
    std::int64_t r;
    Word cached;
    bool owner_alive;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || size() < 2 || !engine_->active() ||
          engine_->round() != round_)
        return;
      pending = engine_->pending_read();
      if (pending < 0) return;
      r = round_;
      cached = engine_->seen_word(pending);
      owner_alive = peers_[static_cast<std::size_t>(pending)].alive;
    }

    bool got = false;
    PeerMsg resp;
    if (owner_alive) {
      PeerMsg req;
      req.type = "read_req";
      req.from = options_.self;
      req.round = r;
      req.target = pending;
      if (exchange(links[static_cast<std::size_t>(pending)], pending, req,
                   resp) &&
          resp.type == "read_resp") {
        if (resp.ok && resp.round == r) {
          got = true;
        } else if (resp.round > r) {
          // The owner moved past this round — abandon ours and join.
          std::lock_guard<std::mutex> lock(mu_);
          join_round_ = std::max(join_round_, resp.round);
          return;
        } else if (lag_retries++ < kJoinRetries) {
          // Alive but not (yet) in the round — it just got our elect, or
          // is about to via a heartbeat. Brief pause, then re-ask.
          std::unique_lock<std::mutex> lock(mu_);
          if (stop_) return;
          cv_.wait_for(lock, std::chrono::milliseconds(10));
          continue;
        }
      } else if (lag_retries++ < kJoinRetries / 5) {
        // Transient link failure to a peer the heartbeats still call
        // alive: a couple of quick retries before degrading the read.
        continue;
      }
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || !engine_->active() || engine_->round() != round_ ||
        round_ != r)
      return;
    if (got) {
      engine_->supply(resp.word, /*fresh=*/true);
    } else {
      // Dead (or unreachable-past-patience) owner: fall back to the last
      // word seen this round, or the register's initial ⊥ — election.h
      // explains why Figure 2 tolerates exactly this.
      engine_->supply(cached, /*fresh=*/false);
    }
    lag_retries = 0;
  }
}

void FleetService::announce_leader(std::vector<LineClient>& links,
                                   std::int64_t round, int leader) {
  PeerMsg req;
  req.type = "leader";
  req.from = options_.self;
  req.round = round;
  req.leader = leader;
  for (int q = 0; q < size(); ++q) {
    if (q == options_.self) continue;
    bool alive;
    {
      std::lock_guard<std::mutex> lock(mu_);
      alive = peers_[static_cast<std::size_t>(q)].alive;
    }
    if (!alive) continue;
    PeerMsg resp;
    exchange(links[static_cast<std::size_t>(q)], q, req, resp);
  }
}

bool FleetService::chaos_gate() {
  if (options_.chaos_delay_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.chaos_delay_ms));
  if (options_.chaos_drop_prob <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const double u = static_cast<double>(chaos_rng_->next() >> 11) * 0x1.0p-53;
  return u < options_.chaos_drop_prob;
}

bool FleetService::connect_peer(LineClient& link, int q, int timeout_ms) {
  if (link.connected()) return true;
  std::string host;
  int port = 0;
  return split_host_port(options_.peers[static_cast<std::size_t>(q)], host,
                         port) &&
         link.connect(host, port, timeout_ms);
}

bool FleetService::exchange(LineClient& link, int q, const PeerMsg& req,
                            PeerMsg& resp) {
  if (chaos_gate()) {
    link.close();  // an injected drop looks like a broken connection
    return false;
  }
  const int budget = options_.hb_timeout_ms;
  if (!connect_peer(link, q, budget)) return false;
  if (!link.send_line(peer_frame(req), budget)) return false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget);
  // The server greets fresh connections with a hello frame and may batch
  // it with our reply; skip any non-peer line (bounded, so a chatty or
  // confused endpoint can't pin this thread).
  for (int skip = 0; skip < 8; ++skip) {
    std::string line;
    if (!link.read_line(line, ms_until(deadline))) return false;
    try {
      const obs::Json doc =
          obs::Json::parse(line, obs::ParseLimits::untrusted());
      if (!is_peer_frame(doc)) continue;
      resp = peer_msg_from_json(doc);
      return true;
    } catch (const ContractViolation&) {
      link.close();
      return false;
    }
  }
  link.close();
  return false;
}

// ---------------------------------------------------------------------------
// Data plane: fleet sweep fan-out.

void FleetService::run_fleet_sweep(const svc::JobSpec& spec,
                                   const std::atomic<bool>& cancel,
                                   const svc::EmitFrame& emit) {
  std::lock_guard<std::mutex> sweep_lock(sweep_mu_);
  sweep_abort_.store(false, std::memory_order_relaxed);

  const std::int64_t shard_size =
      options_.shard_size > 0
          ? options_.shard_size
          : (spec.chunk > 0 ? spec.chunk : limits_.default_chunk);
  const SeedRange full{spec.first_seed, spec.seeds};
  std::vector<SeedRange> ranges = shard_seed_range(full, shard_size);

  // Optional durable progress: resume committed shards from a previous
  // frontend incarnation instead of recomputing them. A checkpoint dir
  // holding a DIFFERENT sweep's manifest disables checkpointing for this
  // run rather than failing the sweep.
  std::unique_ptr<fabric::CheckpointStore> store;
  std::map<int, fabric::ShardSummary> results;
  if (!options_.checkpoint_dir.empty()) {
    try {
      store =
          std::make_unique<fabric::CheckpointStore>(options_.checkpoint_dir);
      for (const int idx : store->open(svc::sweep_config(spec, shard_size)))
        results[idx] = store->load_shard(idx);
      if (!results.empty())
        note("resumed " + std::to_string(results.size()) +
             " committed shard(s) from checkpoint");
    } catch (const std::exception& e) {
      note(std::string("checkpoint dir unusable, running without: ") +
           e.what());
      store.reset();
      results.clear();
    }
  }

  std::vector<int> resumed;
  for (const auto& [idx, shard] : results) resumed.push_back(idx);
  const int num_shards = static_cast<int>(ranges.size());
  SweepFrame frame{std::move(ranges),
                   fabric::ShardLedger(num_shards, resumed, options_.policy),
                   std::move(results), store.get(), &emit};
  for (const auto& [idx, shard] : frame.results) {
    frame.done_runs += shard.range.num_runs;
    frame.decided += shard.summary.decided_runs;
    frame.total_steps += shard.summary.total_steps;
  }

  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    sweep_frame_ = &frame;
  }

  // One dispatcher per remote peer; each leases shards while its peer is
  // alive. This thread is the local rung of the degradation ladder.
  std::vector<std::thread> workers;
  for (int q = 0; q < size(); ++q) {
    if (q == options_.self) continue;
    workers.emplace_back(
        [this, q, &spec, &cancel] { peer_worker(q, spec, cancel); });
  }

  const auto unpublish_and_join = [&] {
    sweep_abort_.store(true, std::memory_order_relaxed);
    shard_cv_.notify_all();
    for (std::thread& w : workers) w.join();
    std::lock_guard<std::mutex> lock(shard_mu_);
    sweep_frame_ = nullptr;
  };

  bool cancelled = false;
  try {
    for (;;) {
      int local_idx = -1;
      SeedRange range;
      {
        std::unique_lock<std::mutex> lock(shard_mu_);
        if (cancel.load(std::memory_order_relaxed) ||
            sweep_abort_.load(std::memory_order_relaxed)) {
          cancelled = true;
          break;
        }
        if (frame.ledger.complete()) break;
        // Local execution never fails, so it takes a shard whose remote
        // budget is spent, or, when no peer is alive to take one, any
        // pending shard with its backoff gate ignored.
        local_idx = frame.ledger.lease_spent();
        if (local_idx < 0 && alive_count() == 1)  // this daemon alone
          local_idx = frame.ledger.lease(Clock::time_point::max());
        if (local_idx < 0) {
          shard_cv_.wait_for(lock, std::chrono::milliseconds(50));
          continue;
        }
        range = frame.ranges[static_cast<std::size_t>(local_idx)];
      }
      note("shard " + std::to_string(local_idx) + " running locally");
      const fabric::ShardSummary out =
          svc::run_sweep_shard(spec, range, cancel);
      {
        std::lock_guard<std::mutex> lock(shard_mu_);
        commit_shard_result(local_idx, out, spec);
        shard_cv_.notify_all();
      }
    }
  } catch (...) {
    unpublish_and_join();
    throw;
  }
  unpublish_and_join();

  if (cancelled || cancel.load(std::memory_order_relaxed))
    throw svc::JobCancelled();

  fabric::SweepSummary merged;
  for (const auto& [idx, shard] : frame.results) merged.add(shard);
  CIL_CHECK(merged.contiguous());
  emit(svc::frame_result(spec.id, "summary",
                         fabric::shard_summary_to_json(merged.to_shard())));
}

void FleetService::peer_worker(int q, const svc::JobSpec& spec,
                               const std::atomic<bool>& cancel) {
  LineClient link;
  for (;;) {
    int idx = -1;
    SeedRange range;
    int attempt = 0;
    {
      std::unique_lock<std::mutex> lock(shard_mu_);
      for (;;) {
        if (cancel.load(std::memory_order_relaxed) ||
            sweep_abort_.load(std::memory_order_relaxed) ||
            sweep_frame_ == nullptr)
          return;
        const bool peer_alive = [this, q] {
          std::lock_guard<std::mutex> l(mu_);
          return peers_[static_cast<std::size_t>(q)].alive;
        }();
        if (peer_alive) {
          idx = sweep_frame_->ledger.lease(Clock::now());
          if (idx >= 0) break;
        }
        shard_cv_.wait_for(lock, std::chrono::milliseconds(25));
      }
      range = sweep_frame_->ranges[static_cast<std::size_t>(idx)];
      attempt = sweep_frame_->ledger.failures(idx);
    }

    fabric::ShardSummary out;
    const bool ok = dispatch_shard(link, q, spec, idx, range, attempt, out);

    std::lock_guard<std::mutex> lock(shard_mu_);
    if (sweep_frame_ == nullptr) return;
    if (ok) {
      commit_shard_result(idx, out, spec);
    } else {
      (void)sweep_frame_->ledger.fail(idx, Clock::now());
      note("shard " + std::to_string(idx) + " failed on peer " +
           std::to_string(q) + " (attempt " + std::to_string(attempt + 1) +
           ")");
    }
    shard_cv_.notify_all();
  }
}

bool FleetService::dispatch_shard(LineClient& link, int q,
                                  const svc::JobSpec& spec, int index,
                                  const SeedRange& range, int attempt,
                                  fabric::ShardSummary& out) {
  // A failure closes the link, so a late reply cannot reach the next
  // shard; an injected drop looks the same.
  const auto drop = [&link] {
    link.close();
    return false;
  };
  if (chaos_gate()) return drop();
  const auto deadline = fabric::attempt_deadline(options_.policy, Clock::now());
  if (!connect_peer(link, q, std::min(ms_until(deadline), 2000))) return false;

  // A shard is a plain single-chunk sweep job on the peer — the same
  // cilcoord.job.v1 any client speaks, so peers need no fleet-specific
  // data path and the shard result is the standard summary artifact.
  svc::JobSpec request = spec;
  request.id = "fs" + std::to_string(index) + "a" + std::to_string(attempt);
  request.first_seed = range.first_seed;
  request.seeds = range.num_runs;
  request.chunk = range.num_runs;
  request.fleet = false;
  const std::string& id = request.id;
  if (!link.send_line(svc::job_spec_to_json(request).dump() + "\n",
                      ms_until(deadline)))
    return false;

  bool got_result = false;
  for (;;) {
    const int left = ms_until(deadline);
    if (left == 0) return drop();
    std::string line;
    if (!link.read_line(line, left)) return false;
    try {
      const obs::Json doc =
          obs::Json::parse(line, obs::ParseLimits::untrusted());
      const obs::Json* ev = doc.find("event");
      if (ev == nullptr || !ev->is_string()) continue;
      const std::string& event = ev->as_string();
      if (event == "hello" || event == "progress") continue;
      // A frame for a job we never sent means a broken link state.
      const obs::Json* jid = doc.find("id");
      if (jid == nullptr || !jid->is_string() || jid->as_string() != id ||
          event == "error")
        return drop();
      if (event == "result") {
        const obs::Json* summary = doc.find("summary");
        if (summary == nullptr) return drop();
        out = fabric::shard_summary_from_json(*summary);
        got_result = true;
      }
      if (event == "done") break;
    } catch (const ContractViolation&) {
      return drop();
    }
  }
  // The peer computed what we asked for, or it does not count.
  if (!got_result || !(out.range == range)) return drop();
  return true;
}

void FleetService::commit_shard_result(int index,
                                       const fabric::ShardSummary& shard,
                                       const svc::JobSpec& spec) {
  SweepFrame* frame = sweep_frame_;
  CIL_CHECK(frame != nullptr);
  if (!frame->ledger.commit(index)) return;  // late duplicate
  frame->results[index] = shard;
  frame->done_runs += shard.range.num_runs;
  frame->decided += shard.summary.decided_runs;
  frame->total_steps += shard.summary.total_steps;
  // The atomically written shard file is the checkpoint's commit.
  if (frame->store != nullptr) (void)frame->store->write_shard(index, shard);
  (*frame->emit)(svc::frame_progress(spec.id, frame->done_runs, spec.seeds,
                                     frame->decided, frame->total_steps));
}

}  // namespace cil::fleet

#endif  // _WIN32
