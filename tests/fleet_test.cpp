// Fleet pins: the crash-tolerant sweep fan-out (src/fleet) and its
// wire-bridged leader election.
//
//   * the cilcoord.peer.v1 codec round-trips and rejects garbage;
//   * a mesh of ElectionEngines — exchanges simulated in memory — always
//     converges to ONE leader, including with dead daemons (whose
//     registers degrade to the cached/⊥ fallback) and with message-level
//     interleaving; fresh rounds elect a LIVE daemon;
//   * three real FleetServices on real sockets elect one leader, survive
//     killing that leader (re-election among the survivors), and record a
//     transcript whose every line is valid JSON carrying the obs schema;
//   * a "fleet":true sweep fans across the daemons and merges to a summary
//     bit-identical to one serial in-process run; killing a peer mid-sweep
//     reassigns its shards; a single-member fleet degrades to purely local
//     execution; link-level chaos (drop probability) delays but never
//     corrupts either plane.
//
// Linux-only, like the libraries under test.
#ifndef _WIN32

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/unbounded.h"
#include "fabric/summary.h"
#include "fleet/client.h"
#include "fleet/election.h"
#include "fleet/fleet.h"
#include "fleet/wire.h"
#include "obs/json.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "util/check.h"

namespace cil::fleet {
namespace {

using obs::Json;

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 20'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(PeerWire, RoundTripsEveryMessageShape) {
  PeerMsg hb;
  hb.type = "hb";
  hb.from = 2;
  hb.round = 7;
  hb.leader = 1;
  const PeerMsg hb2 = peer_msg_from_json(Json::parse(peer_frame(hb)));
  EXPECT_EQ(hb2.type, "hb");
  EXPECT_EQ(hb2.from, 2);
  EXPECT_EQ(hb2.round, 7);
  EXPECT_EQ(hb2.leader, 1);

  PeerMsg rr;
  rr.type = "read_resp";
  rr.from = 0;
  rr.round = 3;
  rr.ok = true;
  rr.word = UINT64_MAX;  // the widest word must survive the decimal trip
  const PeerMsg rr2 = peer_msg_from_json(Json::parse(peer_frame(rr)));
  EXPECT_TRUE(rr2.ok);
  EXPECT_EQ(rr2.word, UINT64_MAX);

  PeerMsg st;
  st.type = "status";
  st.from = 1;
  st.leader = kNoLeader;
  Json info = Json::object();
  info["elections"] = Json(4);
  st.extra = std::move(info);
  const PeerMsg st2 = peer_msg_from_json(Json::parse(peer_frame(st)));
  EXPECT_EQ(st2.leader, kNoLeader);
  ASSERT_TRUE(st2.extra.is_object());
  EXPECT_EQ(st2.extra.at("elections").as_number(), 4.0);
}

TEST(PeerWire, RejectsGarbage) {
  EXPECT_THROW(peer_msg_from_json(Json::parse(R"({"peer":"wrong"})")),
               ContractViolation);
  EXPECT_THROW(peer_msg_from_json(Json::parse(
                   R"({"peer":"cilcoord.peer.v1","type":"launch_missiles"})")),
               ContractViolation);
  EXPECT_THROW(
      peer_msg_from_json(Json::parse(
          R"({"peer":"cilcoord.peer.v1","type":"hb","from":999999})")),
      ContractViolation);
  EXPECT_THROW(
      peer_msg_from_json(Json::parse(
          R"({"peer":"cilcoord.peer.v1","type":"read_resp","word":"99999999999999999999999"})")),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Election mesh: N engines, exchanges simulated in memory. `alive[q]`
// false means q never starts the round and every read of its register is
// served from the reader's cache (⊥, here) — exactly the dead-owner path
// the wire layer takes.

struct Mesh {
  std::vector<std::unique_ptr<ElectionEngine>> engines;
  std::vector<bool> alive;

  explicit Mesh(int n, std::uint64_t seed = 1) : alive(n, true) {
    for (int i = 0; i < n; ++i) {
      ElectionConfig ec;
      ec.n = n;
      ec.self = i;
      ec.seed = seed;
      engines.push_back(std::make_unique<ElectionEngine>(ec, nullptr));
    }
  }

  /// Run round `round` to completion, serving reads round-robin (a fair
  /// interleaving). Returns false if any live engine failed to decide
  /// within the step bound.
  bool run_round(std::int64_t round, std::int64_t max_services = 100'000) {
    for (std::size_t i = 0; i < engines.size(); ++i)
      if (alive[i]) engines[i]->start_round(round);
    for (std::int64_t served = 0; served < max_services; ++served) {
      bool any_pending = false;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (!alive[i] || !engines[i]->active()) continue;
        const int owner = engines[i]->pending_read();
        if (owner < 0) continue;
        any_pending = true;
        if (alive[static_cast<std::size_t>(owner)]) {
          const Word w =
              engines[static_cast<std::size_t>(owner)]->own_word();
          engines[i]->note_seen(owner, w);
          engines[i]->supply(w, true);
        } else {
          engines[i]->supply(engines[i]->seen_word(owner), false);
        }
      }
      if (!any_pending) break;
    }
    for (std::size_t i = 0; i < engines.size(); ++i)
      if (alive[i] && !engines[i]->decided()) return false;
    return true;
  }

  /// The agreed leader, or -1 on disagreement / no live decision.
  int agreed_leader() const {
    int leader = -1;
    for (std::size_t i = 0; i < engines.size(); ++i) {
      if (!alive[i]) continue;
      if (!engines[i]->decided()) return -1;
      const int l = engines[i]->leader();
      if (leader == -1) leader = l;
      if (l != leader) return -1;
    }
    return leader;
  }
};

TEST(ElectionMesh, AllAliveConvergeToOneLeader) {
  for (int n : {2, 3, 5}) {
    for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
      Mesh mesh(n, seed);
      ASSERT_TRUE(mesh.run_round(1)) << "n=" << n << " seed=" << seed;
      const int leader = mesh.agreed_leader();
      EXPECT_GE(leader, 0) << "n=" << n << " seed=" << seed;
      EXPECT_LT(leader, n);
    }
  }
}

TEST(ElectionMesh, DeadDaemonsNeverWinAFreshRound) {
  // Validity: in a fresh round only live daemons write their inputs, so
  // the decided id must belong to a live daemon — the dead ones' registers
  // read as ⊥, which can never satisfy the protocol's agreement-on-a-value
  // conditions.
  for (std::uint64_t seed : {1ull, 5ull, 23ull, 77ull}) {
    Mesh mesh(5, seed);
    mesh.alive[1] = false;
    mesh.alive[3] = false;
    ASSERT_TRUE(mesh.run_round(1)) << "seed=" << seed;
    const int leader = mesh.agreed_leader();
    ASSERT_GE(leader, 0) << "seed=" << seed;
    EXPECT_TRUE(leader == 0 || leader == 2 || leader == 4)
        << "dead daemon " << leader << " elected (seed=" << seed << ")";
  }
}

TEST(ElectionMesh, TwoOfThreeSurviveAndRerunRounds) {
  Mesh mesh(3);
  ASSERT_TRUE(mesh.run_round(1));
  const int first = mesh.agreed_leader();
  ASSERT_GE(first, 0);
  // The elected leader dies; the survivors run round 2 and elect one of
  // themselves.
  mesh.alive[static_cast<std::size_t>(first)] = false;
  ASSERT_TRUE(mesh.run_round(2));
  const int second = mesh.agreed_leader();
  ASSERT_GE(second, 0);
  EXPECT_NE(second, first);
  EXPECT_TRUE(mesh.alive[static_cast<std::size_t>(second)]);
}

TEST(ElectionEngineTest, TranscriptNarratesTheRound) {
  obs::RecordingSink sink;
  ElectionConfig ec;
  ec.n = 2;
  ec.self = 0;
  ElectionEngine a(ec, &sink);
  ElectionEngine b({2, 1, 1}, nullptr);
  a.start_round(1);
  b.start_round(1);
  for (int guard = 0; guard < 10'000; ++guard) {
    bool pending = false;
    if (a.active() && a.pending_read() >= 0) {
      pending = true;
      a.supply(b.own_word(), true);
    }
    if (b.active() && b.pending_read() >= 0) {
      pending = true;
      b.supply(a.own_word(), true);
    }
    if (!pending) break;
  }
  ASSERT_TRUE(a.decided());
  ASSERT_TRUE(b.decided());
  EXPECT_EQ(a.leader(), b.leader());

  const auto& events = sink.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, obs::EventKind::kPhaseChange);
  EXPECT_EQ(events.front().arg, 1);  // the round number
  EXPECT_EQ(events.back().kind, obs::EventKind::kDecision);
  EXPECT_EQ(events.back().arg, a.leader());
  bool saw_write = false, saw_read = false, saw_coin = false;
  for (const auto& e : events) {
    saw_write |= e.kind == obs::EventKind::kRegisterWrite;
    saw_read |= e.kind == obs::EventKind::kRegisterRead;
    saw_coin |= e.kind == obs::EventKind::kCoinFlip;
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_coin);
}

// ---------------------------------------------------------------------------
// Real services on real sockets.

std::string temp_path(const std::string& stem) {
  const std::string p = testing::TempDir() + "/" + stem;
  std::filesystem::remove_all(p);
  return p;
}

/// Forwards a server's fleet sweeps to the FleetService that Node::start
/// builds after the server has bound its port.
struct FleetForwarder final : svc::FleetRunner {
  FleetService* target = nullptr;
  void run_fleet_sweep(const svc::JobSpec& spec,
                       const std::atomic<bool>& cancel,
                       const svc::EmitFrame& emit) override {
    target->run_fleet_sweep(spec, cancel, emit);
  }
};

/// One fleet member: a FleetService wired into a real svc::Server, loop on
/// a background thread — what tools/coordd assembles, in-process. Built in
/// two steps, so a fleet's roster can name ports the kernel already bound:
/// the constructor binds a server on port 0, and start() builds the
/// FleetService and runs both. The loop serves no frame before start().
struct Node {
  FleetForwarder forward;
  std::unique_ptr<FleetService> fleet;
  std::unique_ptr<svc::Server> server;
  std::thread loop;

  Node() {
    svc::ServerOptions so;
    so.port = 0;
    so.job_workers = 2;
    so.fleet = &forward;
    so.peer_handler = [this](const Json& doc) {
      return fleet->handle_peer_frame(doc);
    };
    server = std::make_unique<svc::Server>(std::move(so));
    EXPECT_TRUE(server->start());
  }

  Node(const Node&) = delete;  // the server and the loop hold `this`
  Node& operator=(const Node&) = delete;

  int port() const { return server->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  void start(FleetOptions fopt) {
    fleet = std::make_unique<FleetService>(std::move(fopt), svc::JobLimits{});
    forward.target = fleet.get();
    loop = std::thread([this] { server->run(); });
    fleet->start();
  }

  ~Node() { kill(); }

  /// Stop everything, abruptly from the peers' point of view. The server
  /// goes too, so its listener refuses connections as a dead daemon's
  /// would; a live listener would accept a shard and never answer.
  void kill() {
    if (!loop.joinable()) return;
    fleet->stop();
    server->stop();
    loop.join();
    server.reset();
  }
};

/// Bind `k` nodes on port 0; the roster is their bound addresses.
std::vector<std::unique_ptr<Node>> bind_nodes(int k) {
  std::vector<std::unique_ptr<Node>> nodes;
  for (int i = 0; i < k; ++i) nodes.push_back(std::make_unique<Node>());
  return nodes;
}

std::vector<std::string> roster_of(
    const std::vector<std::unique_ptr<Node>>& nodes) {
  std::vector<std::string> r;
  for (const auto& n : nodes) r.push_back(n->address());
  return r;
}

FleetOptions fast_fleet(int self, const std::vector<std::string>& roster) {
  FleetOptions f;
  f.self = self;
  f.peers = roster;
  f.hb_interval_ms = 50;
  f.hb_timeout_ms = 250;
  f.hb_miss_limit = 2;
  f.startup_grace_ms = 100;
  f.policy.timeout_seconds = 20.0;
  return f;
}

/// All live nodes agree on one live leader.
bool converged(const std::vector<std::unique_ptr<Node>>& nodes) {
  int leader = kNoLeader;
  for (const auto& n : nodes) {
    if (!n) continue;
    const int l = n->fleet->leader();
    if (l == kNoLeader) return false;
    if (leader == kNoLeader) leader = l;
    if (l != leader) return false;
  }
  if (leader == kNoLeader) return false;
  for (const auto& n : nodes)
    if (n && n->fleet->self() == leader) return true;
  return false;
}

TEST(FleetService, TrioElectsOneLiveLeaderAndLogsTranscript) {
  std::vector<std::unique_ptr<Node>> nodes = bind_nodes(3);
  const auto roster = roster_of(nodes);
  std::vector<std::string> logs;
  for (int i = 0; i < 3; ++i) {
    FleetOptions f = fast_fleet(i, roster);
    logs.push_back(temp_path("fleet_elect" + std::to_string(i) + ".jsonl"));
    f.election_log = logs.back();
    nodes[static_cast<std::size_t>(i)]->start(std::move(f));
  }
  ASSERT_TRUE(wait_until([&] { return converged(nodes); }))
      << "leaders: " << nodes[0]->fleet->leader() << " "
      << nodes[1]->fleet->leader() << " " << nodes[2]->fleet->leader();
  EXPECT_TRUE(wait_until(
      [&] { return nodes[0]->fleet->alive_count() == 3; }));

  // Every daemon ran at least one election.
  for (const auto& n : nodes) EXPECT_GE(n->fleet->elections_run(), 1);

  nodes.clear();  // stops every node and flushes its sink

  // Each transcript is line-framed JSON with the obs event schema, and node
  // 0's election events open with its round's phase event. Peer liveness
  // events (crash/recover on heartbeat misses and acks) share the
  // transcript, and under load a peer that is slow to come up can miss two
  // heartbeats before node 0's first round starts. A daemon may adopt the
  // leader from a peer's announcement before its own automaton decides, and
  // stop before it does; but every announced leader comes from some
  // automaton's decision, logged after the writes and reads of its round.
  int deciding_lines = 0;  // longest transcript holding a decision
  for (std::size_t i = 0; i < logs.size(); ++i) {
    std::ifstream in(logs[i]);
    ASSERT_TRUE(in.is_open()) << logs[i];
    std::string line;
    int lines = 0, decisions = 0;
    std::string first_ev;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const Json doc = Json::parse(line);  // throws on a torn line
      ASSERT_TRUE(doc.is_object());
      const std::string ev = doc.at("ev").as_string();
      if (first_ev.empty() && ev != "crash" && ev != "recover") first_ev = ev;
      if (ev == "decision") ++decisions;
      ++lines;
    }
    if (i == 0) EXPECT_EQ(first_ev, "phase");
    if (decisions > 0) deciding_lines = std::max(deciding_lines, lines);
  }
  EXPECT_GT(deciding_lines, 3);
}

TEST(FleetService, KillingTheLeaderTriggersReelectionAmongSurvivors) {
  std::vector<std::unique_ptr<Node>> nodes = bind_nodes(3);
  const auto roster = roster_of(nodes);
  for (int i = 0; i < 3; ++i)
    nodes[static_cast<std::size_t>(i)]->start(fast_fleet(i, roster));
  ASSERT_TRUE(wait_until([&] { return converged(nodes); }));

  const int first = nodes[0]->fleet->leader();
  const std::int64_t round_before = nodes[0]->fleet->round();
  nodes[static_cast<std::size_t>(first)]->kill();
  nodes[static_cast<std::size_t>(first)].reset();

  ASSERT_TRUE(wait_until([&] { return converged(nodes); }, 30'000));
  int second = kNoLeader;
  for (const auto& n : nodes)
    if (n) second = n->fleet->leader();
  EXPECT_NE(second, first);
  for (const auto& n : nodes) {
    if (!n) continue;
    EXPECT_GT(n->fleet->round(), round_before);
    EXPECT_EQ(n->fleet->leader(), second);
  }
}

// The in-process reference for fleet-sweep bit-identity: the same recipe
// svc/job.cpp uses (UnboundedProtocol(3), alternating inputs,
// RandomScheduler reseeded with seed ^ 0x1234).
BatchSummary reference_run(std::uint64_t first_seed, std::int64_t seeds,
                           std::int64_t steps) {
  UnboundedProtocol protocol(3, 1, {});
  BatchRunner runner(protocol, {Value(0), Value(1), Value(0)});
  BatchOptions bo;
  bo.first_seed = first_seed;
  bo.num_runs = seeds;
  bo.max_total_steps = steps;
  return runner.run(bo, [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  });
}

/// Submit a fleet sweep to `port` over a blocking client; returns the
/// result frame's summary and asserts the protocol order.
fabric::ShardSummary submit_fleet_sweep(int port, std::uint64_t first_seed,
                                        std::int64_t seeds,
                                        std::int64_t steps,
                                        std::int64_t chunk) {
  LineClient c;
  EXPECT_TRUE(c.connect("127.0.0.1", port, 5'000));
  Json j = Json::object();
  j["job"] = Json("cilcoord.job.v1");
  j["kind"] = Json("sweep");
  j["id"] = Json("ft");
  j["protocol"] = Json("unbounded");
  j["n"] = Json(3.0);
  j["adversary"] = Json("random");
  j["first_seed"] = Json(std::to_string(first_seed));
  j["seeds"] = Json(static_cast<double>(seeds));
  j["steps"] = Json(static_cast<double>(steps));
  if (chunk > 0) j["chunk"] = Json(static_cast<double>(chunk));
  j["fleet"] = Json(true);
  EXPECT_TRUE(c.send_line(j.dump() + "\n", 5'000));

  fabric::ShardSummary out;
  bool got_result = false;
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!c.read_line(line, 1'000)) {
      if (c.connected()) continue;
      ADD_FAILURE() << "connection died mid-sweep";
      return out;
    }
    const Json doc = Json::parse(line);
    const std::string ev = doc.at("event").as_string();
    if (ev == "error") {
      ADD_FAILURE() << "server error: " << doc.at("what").as_string();
      return out;
    }
    if (ev == "result") {
      out = fabric::shard_summary_from_json(doc.at("summary"));
      got_result = true;
    }
    if (ev == "done") break;
  }
  EXPECT_TRUE(got_result) << "no result frame before done/timeout";
  return out;
}

TEST(FleetSweep, FansOutAndMergesBitIdentically) {
  std::vector<std::unique_ptr<Node>> nodes = bind_nodes(3);
  const auto roster = roster_of(nodes);
  for (int i = 0; i < 3; ++i)
    nodes[static_cast<std::size_t>(i)]->start(fast_fleet(i, roster));
  ASSERT_TRUE(wait_until([&] { return converged(nodes); }));

  constexpr std::uint64_t kFirst = 11;
  constexpr std::int64_t kSeeds = 500, kSteps = 20'000, kChunk = 40;
  const fabric::ShardSummary got =
      submit_fleet_sweep(nodes[0]->port(), kFirst, kSeeds, kSteps, kChunk);
  EXPECT_EQ(got.range.first_seed, kFirst);
  EXPECT_EQ(got.range.num_runs, kSeeds);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      got.summary, reference_run(kFirst, kSeeds, kSteps)));
}

TEST(FleetSweep, PeerDeathMidSweepReassignsItsShards) {
  std::vector<std::unique_ptr<Node>> nodes = bind_nodes(3);
  const auto roster = roster_of(nodes);
  for (int i = 0; i < 3; ++i) {
    FleetOptions f = fast_fleet(i, roster);
    f.policy.retry_budget = 1;  // two remote attempts, then local
    f.policy.backoff_initial_seconds = 0.02;
    nodes[static_cast<std::size_t>(i)]->start(std::move(f));
  }
  ASSERT_TRUE(wait_until([&] { return converged(nodes); }));

  constexpr std::uint64_t kFirst = 1;
  constexpr std::int64_t kSeeds = 1'000, kSteps = 20'000, kChunk = 25;
  // Kill peer 1 shortly after the sweep starts dispatching.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    nodes[1]->kill();
  });
  const fabric::ShardSummary got =
      submit_fleet_sweep(nodes[0]->port(), kFirst, kSeeds, kSteps, kChunk);
  killer.join();
  EXPECT_EQ(got.range.num_runs, kSeeds);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      got.summary, reference_run(kFirst, kSeeds, kSteps)));
}

TEST(FleetSweep, SingleMemberFleetDegradesToLocalExecution) {
  auto node = std::make_unique<Node>();
  node->start(fast_fleet(0, {node->address()}));
  EXPECT_TRUE(node->fleet->is_leader());  // leader by definition
  EXPECT_EQ(node->fleet->elections_run(), 0);

  const fabric::ShardSummary got =
      submit_fleet_sweep(node->port(), 5, 200, 20'000, 30);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      got.summary, reference_run(5, 200, 20'000)));
}

TEST(FleetSweep, CheckpointedSweepRestartsFromCommittedShards) {
  const std::string ckpt = temp_path("fleet_ckpt");
  // A one-member fleet on whatever port it binds.
  const auto start_member = [&ckpt] {
    auto node = std::make_unique<Node>();
    FleetOptions f = fast_fleet(0, {node->address()});
    f.checkpoint_dir = ckpt;
    node->start(std::move(f));
    return node;
  };
  {
    auto node = start_member();
    const fabric::ShardSummary got =
        submit_fleet_sweep(node->port(), 3, 300, 20'000, 50);
    EXPECT_EQ(got.range.num_runs, 300);
  }
  // The shard files and manifest landed.
  EXPECT_TRUE(std::filesystem::exists(ckpt + "/manifest.json"));
  EXPECT_TRUE(std::filesystem::exists(ckpt + "/shard_0.json"));

  // A fresh daemon (a restart) over the same checkpoint dir resumes: the
  // sweep completes with the identical summary without recomputing the
  // committed shards (observable as an instant, still-correct result).
  auto node = start_member();
  const fabric::ShardSummary again =
      submit_fleet_sweep(node->port(), 3, 300, 20'000, 50);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      again.summary, reference_run(3, 300, 20'000)));
}

TEST(FleetSweep, LinkChaosDelaysButNeverCorrupts) {
  std::vector<std::unique_ptr<Node>> nodes = bind_nodes(3);
  const auto roster = roster_of(nodes);
  for (int i = 0; i < 3; ++i) {
    FleetOptions f = fast_fleet(i, roster);
    f.chaos_drop_prob = 0.25;  // a quarter of all exchanges just vanish
    f.chaos_seed = 17 + static_cast<std::uint64_t>(i);
    f.hb_miss_limit = 4;  // drops masquerade as misses; be tolerant
    f.policy.retry_budget = 4;  // five remote attempts, then local
    nodes[static_cast<std::size_t>(i)]->start(std::move(f));
  }
  ASSERT_TRUE(wait_until([&] { return converged(nodes); }, 40'000));

  const fabric::ShardSummary got =
      submit_fleet_sweep(nodes[0]->port(), 21, 300, 20'000, 30);
  EXPECT_EQ(got.range.num_runs, 300);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      got.summary, reference_run(21, 300, 20'000)));
}

}  // namespace
}  // namespace cil::fleet

#endif  // _WIN32
