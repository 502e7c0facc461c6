// The sweep fleet: crash-tolerant fan-out of one sweep across coordd
// daemons, with the merge leader elected by the paper's own protocol.
//
// An n-daemon fleet is n coordd processes, each knowing the full roster
// (daemon id -> host:port) and each running one FleetService. The service
// owns two planes:
//
//   CONTROL PLANE (one background thread + the server's epoll thread):
//   every daemon heartbeats every other over cilcoord.peer.v1 control
//   links (fleet/wire.h). Misses accumulate per peer; crossing
//   hb_miss_limit marks the peer dead (obs kCrash in the election log),
//   a later success resurrects it (kRecover). On startup, whenever no
//   leader is known, and whenever the known leader dies, the live daemons
//   run one round of the Figure 2 unbounded-register consensus — each
//   daemon one processor, input = its own id — with register reads
//   bridged over read_req/read_resp exchanges (fleet/election.h). The
//   decided id is the merge leader. Rounds are monotone and gossiped on
//   heartbeats; conflicting decisions for one round (possible only via
//   the dead-owner read fallback, see election.h) trigger a fresh round,
//   so the fleet converges to one live leader.
//
//   DATA PLANE (run_fleet_sweep, on a JobQueue worker thread): a sweep
//   tagged "fleet":true is cut into shards (the fabric's SeedRange unit),
//   leased from one fabric::ShardLedger (fabric/ledger.h), the bookkeeping
//   the forked-worker supervisor uses too. One dispatcher thread per peer
//   leases while its peer is alive and runs each shard as a plain
//   cilcoord.job.v1 sweep there, under the policy's per-shard deadline.
//   Shard summaries fold through the fabric merge monoid, so the final
//   batch_summary.v2 is bit-identical to one serial BatchRunner run of the
//   whole range (what `sweep --serial --verify-against` checks). With
//   checkpoint_dir set, each finished shard's atomically written file is
//   its commit (fabric::CheckpointStore), and a restarted frontend
//   resumes.
//
// Degradation ladder (README "Fleet mode"), every rung bit-identical:
//   all peers up -> each dispatcher leases shards as their gates pass
//   a peer dies, times out or answers garbage -> ledger.fail requeues the
//     shard behind its doubling backoff gate, for any live peer
//   a shard's budget is spent (policy.retry_budget retries after its
//     first remote attempt) -> the local rung leases it and runs it here
//   zero peers alive -> the local rung leases any pending shard, at
//     time_point::max() so no gate holds it
#pragma once

#ifndef _WIN32

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabric/ledger.h"
#include "fleet/client.h"
#include "fleet/election.h"
#include "fleet/wire.h"
#include "obs/export.h"
#include "obs/json.h"
#include "svc/job.h"
#include "util/rng.h"

namespace cil::fleet {

struct FleetOptions {
  int self = 0;  ///< this daemon's id = index into `peers`
  /// Roster: host:port per daemon id, in fleet-wide agreed order.
  /// peers[self] is this daemon's own advertised address. A 1-entry roster
  /// is a degenerate fleet: self is leader, no elections, no fan-out.
  std::vector<std::string> peers;

  std::string election_log;    ///< JSONL election transcript ("" = none)
  std::string checkpoint_dir;  ///< fleet-sweep shard checkpoints ("" = none)

  // Failure detection.
  int hb_interval_ms = 200;  ///< heartbeat period per peer
  int hb_timeout_ms = 400;   ///< deadline for one control exchange
  int hb_miss_limit = 3;     ///< consecutive misses before a peer is dead
  int startup_grace_ms = 300;  ///< settle time before the first election

  // Shard dispatch.
  std::int64_t shard_size = 0;  ///< 0 = request chunk / server default
  /// Per-shard remote deadline, and the remote retries (after the first
  /// attempt) before a shard goes local.
  fabric::ShardPolicy policy{.timeout_seconds = 15.0,
                             .retry_budget = 2,
                             .backoff_initial_seconds = 0.05,
                             .backoff_max_seconds = 2.0};

  // Fabric-level chaos injection (frontend side; peer-side kills are the
  // server's JobLimits chaos knobs). Deterministic from chaos_seed.
  double chaos_drop_prob = 0.0;  ///< drop a control/dispatch exchange
  int chaos_delay_ms = 0;        ///< extra latency before each exchange
  std::uint64_t chaos_seed = 1;

  std::uint64_t election_seed = 1;  ///< coin-stream base (election.h)
  bool verbose = false;             ///< per-event notes on stderr
};

/// Mutable per-peer view owned by the control plane.
struct PeerStatus {
  bool alive = true;  ///< optimistic start; misses prove death
  int misses = 0;
  std::int64_t hb_sent = 0;
  std::int64_t hb_acked = 0;
};

class FleetService final : public svc::FleetRunner {
 public:
  /// `limits` mirrors the owning server's job limits (shard sizing).
  FleetService(FleetOptions options, svc::JobLimits limits);
  ~FleetService() override;

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Launch the control thread. Idempotent.
  void start();
  /// Stop the control thread and any in-flight sweep dispatch.
  void stop();

  /// Handle one inbound cilcoord.peer.v1 request (already parsed) and
  /// return the complete reply line. Called on the server's epoll thread;
  /// never blocks on I/O. Malformed frames throw ContractViolation — the
  /// server turns that into its usual error frame.
  std::string handle_peer_frame(const obs::Json& doc);

  /// svc::FleetRunner: execute a fleet-mode sweep (see header comment).
  /// Serialized — one fleet sweep at a time per daemon.
  void run_fleet_sweep(const svc::JobSpec& spec,
                       const std::atomic<bool>& cancel,
                       const svc::EmitFrame& emit) override;

  // Introspection (tests, status frames).
  int self() const { return options_.self; }
  int size() const { return static_cast<int>(options_.peers.size()); }
  int leader() const;
  std::int64_t round() const;
  bool is_leader() const;
  int alive_count() const;  ///< live daemons including self
  std::int64_t elections_run() const;
  obs::Json status_info() const;  ///< the status frame's `info` payload

 private:
  struct SweepFrame;  ///< one running sweep's ledger and results

  void control_loop();
  /// One control-plane tick: due heartbeats, then election work.
  void tick(std::vector<LineClient>& links);
  void heartbeat_peer(int q, LineClient& link);
  /// Drive the active election engine until it parks or decides.
  void drive_election(std::vector<LineClient>& links);
  void start_election_locked(std::int64_t target_round);
  void announce_leader(std::vector<LineClient>& links, std::int64_t round,
                       int leader);
  /// Connect `link` to peer q unless it is connected already.
  bool connect_peer(LineClient& link, int q, int timeout_ms);
  /// Send req and read the matching peer reply within hb_timeout_ms.
  /// Applies chaos. Returns false on drop/timeout/parse failure.
  bool exchange(LineClient& link, int q, const PeerMsg& req, PeerMsg& resp);
  bool chaos_gate();  ///< true = this exchange is chaos-dropped
  void set_alive_locked(int q, bool alive);
  void emit_liveness_locked(obs::EventKind kind, int q);
  void note(const std::string& what);  ///< verbose stderr line

  // Data plane.
  void peer_worker(int q, const svc::JobSpec& spec,
                   const std::atomic<bool>& cancel);
  /// Run shard `index` (seeds `range`, `attempt` failures so far)
  /// remotely on q. False on any failure (caller requeues).
  bool dispatch_shard(LineClient& link, int q, const svc::JobSpec& spec,
                      int index, const SeedRange& range, int attempt,
                      fabric::ShardSummary& out);
  /// Record a finished shard: ledger, totals, shard file, progress frame.
  /// Caller holds shard_mu_.
  void commit_shard_result(int index, const fabric::ShardSummary& shard,
                           const svc::JobSpec& spec);

  FleetOptions options_;
  svc::JobLimits limits_;

  mutable std::mutex mu_;  ///< everything below; also serializes sink use
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread control_;

  std::unique_ptr<obs::JsonlStreamSink> sink_;  ///< election transcript
  std::unique_ptr<ElectionEngine> engine_;
  std::vector<PeerStatus> peers_;

  std::int64_t round_ = 0;        ///< highest round seen or run
  int leader_ = kNoLeader;        ///< decided leader for round_
  std::int64_t join_round_ = 0;   ///< a peer asked us to (at least) join this
  bool conflict_ = false;         ///< same-round disagreement observed
  std::vector<int> peer_announced_;  ///< per-peer announced leader for round_
  std::int64_t elections_ = 0;
  std::unique_ptr<Xoshiro256> chaos_rng_;

  // Data plane state (valid while a fleet sweep is running).
  std::mutex sweep_mu_;  ///< one fleet sweep at a time
  std::mutex shard_mu_;  ///< guards sweep_frame_ and what it points to
  std::condition_variable shard_cv_;
  SweepFrame* sweep_frame_ = nullptr;  ///< owned by run_fleet_sweep
  std::atomic<bool> sweep_abort_{false};
};

}  // namespace cil::fleet

#endif  // _WIN32
