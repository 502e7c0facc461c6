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
//   tagged "fleet":true is cut into shards (the fabric's SeedRange unit);
//   one dispatcher thread per peer leases shards and runs each as a plain
//   cilcoord.job.v1 sweep on that peer over a dedicated job link, with a
//   per-shard wall-clock deadline. Failures (dead peer, timeout, error
//   frame, malformed summary) requeue the shard with exponential backoff;
//   a shard that exhausts its retry budget — or any shard when zero peers
//   are alive — runs locally, so the sweep completes under arbitrary peer
//   churn, degrading at worst to the serial path. Shard summaries fold
//   through the fabric merge monoid, so the final batch_summary.v2 is
//   bit-identical to one serial BatchRunner run of the whole range
//   (what `sweep --serial --verify-against` checks). When checkpoint_dir
//   is set, committed shards persist through a fabric::CheckpointStore
//   and a restarted frontend resumes instead of recomputing.
//
// Degradation ladder (documented in README "Fleet mode"):
//   all peers up -> full fan-out
//   some peers dead/slow -> retry + reassignment to surviving peers
//   retry budget exhausted on a shard -> that shard runs locally
//   zero peers alive -> the whole remainder runs locally
//   (every rung preserves the bit-identical merged summary)
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
  int shard_timeout_ms = 15'000;  ///< per-shard wall-clock deadline
  int retry_budget = 3;  ///< remote attempts before a shard goes local
  int backoff_ms = 50;   ///< base requeue backoff (doubles per attempt)
  int backoff_max_ms = 2'000;

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
  struct Shard;       ///< data-plane work item (fleet.cpp)
  struct SweepFrame;  ///< one running sweep's shared commit state

  void control_loop();
  /// One control-plane tick: due heartbeats, then election work.
  void tick(std::vector<LineClient>& links);
  void heartbeat_peer(int q, LineClient& link);
  /// Drive the active election engine until it parks or decides.
  void drive_election(std::vector<LineClient>& links);
  void start_election_locked(std::int64_t target_round);
  void announce_leader(std::vector<LineClient>& links, std::int64_t round,
                       int leader);
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
  /// Run one shard remotely on q. False on any failure (caller requeues).
  bool dispatch_shard(LineClient& link, int q, const svc::JobSpec& spec,
                      const Shard& shard, fabric::ShardSummary& out);
  /// Record a finished shard: totals, checkpoint, progress frame. Caller
  /// holds shard_mu_.
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
  std::mutex shard_mu_;
  std::condition_variable shard_cv_;
  std::vector<Shard>* shards_ = nullptr;     ///< owned by run_fleet_sweep
  SweepFrame* sweep_frame_ = nullptr;        ///< likewise; guarded by shard_mu_
  std::atomic<bool> sweep_abort_{false};
};

}  // namespace cil::fleet

#endif  // _WIN32
