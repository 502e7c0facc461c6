// End-to-end tests for the coordination service (src/svc): a real Server on
// an ephemeral localhost port, driven by real blocking-socket clients.
//
// The headline pin is SweepBitIdentity: a sweep streamed through the
// service in chunks must merge (via the fabric summary monoid) to a
// batch_summary bit-identical to the same seed range run through an
// in-process BatchRunner — the service adds transport, not arithmetic.
//
// The session-lifecycle battery covers the ways a connection can go wrong:
// malformed requests (connection survives), half-close (results still
// delivered), mid-job disconnect (job cancelled, pooled Simulation
// unwound), slow consumers (bounded write buffer -> eviction), and framing
// overflow (eviction).
#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/summary.h"
#include "obs/json.h"
#include "sched/adversary.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "svc/server.h"
#include "util/net.h"

namespace cil::svc {
namespace {

using obs::Json;

/// Server on an ephemeral port with its loop on a background thread.
class TestServer {
 public:
  explicit TestServer(ServerOptions options = {}) : server_(std::move(options)) {
    EXPECT_TRUE(server_.start());
    thread_ = std::thread([this] { server_.run(); });
  }
  ~TestServer() {
    server_.stop();
    thread_.join();
  }

  int port() const { return server_.port(); }
  ServerStats stats() const { return server_.stats(); }

 private:
  Server server_;
  std::thread thread_;
};

/// Blocking client with a receive timeout (no test can hang on a dead
/// server) and buffered line reads.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{};
    tv.tv_sec = 30;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) (void)net::close_retry(fd_);
    fd_ = -1;
  }

  void half_close() { (void)::shutdown(fd_, SHUT_WR); }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_TRUE(net::write_all(fd_, framed));
  }

  /// Next complete line, or empty string on EOF/timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = net::read_retry(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::string();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Parsed next frame; {} on EOF.
  Json read_frame() {
    const std::string line = read_line();
    if (line.empty()) return Json();
    return Json::parse(line);
  }

  /// Read frames until `event` (returning it), failing on EOF.
  Json read_until(const std::string& event) {
    for (;;) {
      const Json f = read_frame();
      if (f.is_null()) {
        ADD_FAILURE() << "EOF while waiting for event '" << event << "'";
        return Json();
      }
      if (f.at("event").as_string() == event) return f;
    }
  }

  void expect_hello() {
    const Json hello = read_frame();
    ASSERT_TRUE(hello.is_object());
    EXPECT_EQ(hello.at("event").as_string(), "hello");
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string sweep_request(const std::string& id, std::uint64_t first_seed,
                          std::int64_t seeds, std::int64_t steps,
                          std::int64_t chunk, int threads = 1,
                          const std::string& protocol = "unbounded") {
  Json j = Json::object();
  j["job"] = Json("cilcoord.job.v1");
  j["kind"] = Json("sweep");
  j["id"] = Json(id);
  j["protocol"] = Json(protocol);
  j["n"] = Json(protocol == "two" ? 2.0 : 3.0);
  j["adversary"] = Json("random");
  j["first_seed"] = Json(std::to_string(first_seed));
  j["seeds"] = Json(static_cast<double>(seeds));
  j["steps"] = Json(static_cast<double>(steps));
  j["chunk"] = Json(static_cast<double>(chunk));
  j["threads"] = Json(static_cast<double>(threads));
  return j.dump();
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 20000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(SvcTest, HelloAndPingPong) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();
  c.send_line(R"({"job":"cilcoord.job.v1","kind":"ping","id":"p1"})");
  const Json pong = c.read_frame();
  EXPECT_EQ(pong.at("event").as_string(), "pong");
  EXPECT_EQ(pong.at("id").as_string(), "p1");
}

// The acceptance pin: a chunked, multi-threaded sweep streamed through the
// service merges to the exact summary an in-process BatchRunner produces
// for the same seed range.
TEST(SvcTest, SweepBitIdentity) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();

  constexpr std::uint64_t kFirstSeed = 42;
  constexpr std::int64_t kSeeds = 100;
  constexpr std::int64_t kSteps = 20'000;
  c.send_line(sweep_request("bit", kFirstSeed, kSeeds, kSteps, /*chunk=*/7,
                            /*threads=*/2));

  const Json accepted = c.read_until("accepted");
  EXPECT_EQ(accepted.at("id").as_string(), "bit");
  const Json result = c.read_until("result");
  const fabric::ShardSummary streamed =
      fabric::shard_summary_from_json(result.at("summary"));
  c.read_until("done");

  EXPECT_EQ(streamed.range.first_seed, kFirstSeed);
  EXPECT_EQ(streamed.range.num_runs, kSeeds);

  // The reference: one un-chunked in-process run, same substrate recipe as
  // svc/job.cpp (UnboundedProtocol(3), alternating inputs, RandomScheduler
  // reseeded seed ^ 0x1234).
  UnboundedProtocol protocol(3, 1, {});
  BatchRunner runner(protocol, {Value(0), Value(1), Value(0)});
  BatchOptions bo;
  bo.first_seed = kFirstSeed;
  bo.num_runs = kSeeds;
  bo.threads = 2;
  bo.max_total_steps = kSteps;
  const BatchSummary local = runner.run(bo, [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  });

  EXPECT_TRUE(fabric::deterministic_fields_equal(streamed.summary, local));
  // And byte-level: with the wall-clock block (explicitly outside the
  // deterministic contract) neutralized, the serialized documents must be
  // identical down to the last sample.
  Json remote_doc = fabric::shard_summary_to_json(streamed);
  Json local_doc = fabric::shard_summary_to_json({streamed.range, local});
  remote_doc["wall"] = Json::object();
  local_doc["wall"] = Json::object();
  EXPECT_EQ(remote_doc.dump(), local_doc.dump());
}

// Figure 1 under random scheduling takes the lane engine's bitsliced
// kernel in the service; the streamed summary must still equal the
// in-process per-seed reference (a factory keeps BatchRunner on the
// pooled-Simulation path) down to the last sample.
TEST(SvcTest, LaneKernelSweepMatchesPerSeedReference) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();

  constexpr std::uint64_t kFirstSeed = 9;
  constexpr std::int64_t kSeeds = 300;
  constexpr std::int64_t kSteps = 20'000;
  c.send_line(sweep_request("lane", kFirstSeed, kSeeds, kSteps, /*chunk=*/64,
                            /*threads=*/2, "two"));
  const Json result = c.read_until("result");
  const fabric::ShardSummary streamed =
      fabric::shard_summary_from_json(result.at("summary"));
  c.read_until("done");

  TwoProcessProtocol protocol;
  BatchRunner runner(protocol, {Value(0), Value(1)});
  BatchOptions bo;
  bo.first_seed = kFirstSeed;
  bo.num_runs = kSeeds;
  bo.max_total_steps = kSteps;
  const BatchSummary local = runner.run(bo, [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  });
  ASSERT_EQ(local.simd_width, 1);  // the reference ran per seed

  EXPECT_EQ(streamed.range.first_seed, kFirstSeed);
  EXPECT_EQ(streamed.range.num_runs, kSeeds);
  EXPECT_TRUE(fabric::deterministic_fields_equal(streamed.summary, local));
}

TEST(SvcTest, PipelinedJobsRunInOrder) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();
  // Three requests in one write; frames must come back strictly j0 -> j1
  // -> j2 with no interleaving.
  c.send_line(sweep_request("j0", 1, 5, 2000, 0) + "\n" +
              sweep_request("j1", 100, 5, 2000, 0) + "\n" +
              sweep_request("j2", 200, 5, 2000, 0));
  std::vector<std::string> order;
  for (int i = 0; i < 3; ++i) {
    const Json done = c.read_until("done");
    order.push_back(done.at("id").as_string());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"j0", "j1", "j2"}));
}

TEST(SvcTest, MalformedRequestKeepsConnectionUsable) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();

  const char* bad[] = {
      "this is not json",
      "{\"no\":\"tag\"}",
      R"({"job":"cilcoord.job.v1","kind":"warp"})",
      R"({"job":"cilcoord.job.v1","kind":"sweep","seeds":99999999999})",
      R"({"job":"cilcoord.job.v1","kind":"sweep","protocol":"quantum"})",
      R"({"job":"cilcoord.job.v1","kind":"sweep","seeds":{"a":1}})",
      // A seed range that runs past 2^64.
      R"({"job":"cilcoord.job.v1","kind":"sweep","protocol":"two",)"
      R"("first_seed":"18446744073709551600","seeds":50})",
  };
  for (const char* line : bad) {
    c.send_line(line);
    const Json err = c.read_frame();
    ASSERT_TRUE(err.is_object()) << line;
    EXPECT_EQ(err.at("event").as_string(), "error") << line;
  }

  // The connection survived all of it.
  c.send_line(R"({"job":"cilcoord.job.v1","kind":"ping","id":"still-here"})");
  EXPECT_EQ(c.read_until("pong").at("id").as_string(), "still-here");
  EXPECT_EQ(server.stats().bad_requests, 7);
  EXPECT_EQ(server.stats().sessions_evicted, 0);
}

TEST(SvcTest, HalfCloseStillDeliversResults) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();
  c.send_line(sweep_request("hc", 7, 20, 5000, 5));
  // Client is done talking; the read side stays open for the answer.
  c.half_close();
  c.read_until("result");
  c.read_until("done");
  // After the final frame the server closes; we see EOF, not a hang.
  EXPECT_TRUE(c.read_line().empty());
  EXPECT_TRUE(wait_until([&] { return server.stats().active_sessions == 0; }));
  EXPECT_EQ(server.stats().sessions_evicted, 0);
  EXPECT_EQ(server.stats().jobs_completed, 1);
}

TEST(SvcTest, MidJobDisconnectCancelsWithoutLeak) {
  ServerOptions options;
  options.job_workers = 1;
  TestServer server(options);
  auto c = std::make_unique<Client>(server.port());
  c->expect_hello();
  // A sweep big enough to still be running when the client vanishes:
  // 200k seeds in chunk-1 batches.
  c->send_line(sweep_request("orphan", 1, 200'000, 100'000, 1));
  c->read_until("progress");  // the job is definitely executing now
  c->close();                 // abrupt disconnect, no half-close

  // The server must notice, cancel the ticket, and the worker must unwind
  // (BatchCancelled) without completing the job.
  EXPECT_TRUE(wait_until([&] {
    const ServerStats st = server.stats();
    return st.jobs_cancelled == 1 && st.active_sessions == 0 &&
           st.jobs_active == 0;
  }));
  EXPECT_EQ(server.stats().jobs_completed, 0);

  // The worker pool is healthy afterwards: a fresh client's job completes
  // on the same (sole) worker, proving the pooled runner unwound cleanly.
  Client c2(server.port());
  c2.expect_hello();
  c2.send_line(sweep_request("after", 1, 5, 2000, 0));
  c2.read_until("done");
  EXPECT_EQ(server.stats().jobs_completed, 1);
}

TEST(SvcTest, BackpressureEvictsSlowConsumer) {
  ServerOptions options;
  options.max_write_buffer = 16 * 1024;  // tiny: fills within one job
  TestServer server(options);
  Client c(server.port());
  c.expect_hello();
  // chunk=1 -> one progress frame per seed; the client never reads, so
  // socket buffer + 16KiB server buffer fill and the server must evict
  // rather than buffer the sweep without bound.
  c.send_line(sweep_request("flood", 1, 50'000, 2000, 1));
  EXPECT_TRUE(wait_until([&] { return server.stats().sessions_evicted == 1; },
                         60'000));
  EXPECT_TRUE(wait_until([&] {
    const ServerStats st = server.stats();
    return st.active_sessions == 0 && st.jobs_active == 0;
  }));
}

TEST(SvcTest, OversizedRequestLineEvicts) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  TestServer server(options);
  Client c(server.port());
  c.expect_hello();
  // 8KiB with no newline: framing is unrecoverable past the cap.
  c.send_line(std::string(8192, 'x'));
  EXPECT_TRUE(wait_until([&] { return server.stats().sessions_evicted == 1; }));
  EXPECT_TRUE(c.read_line().empty());  // EOF
}

TEST(SvcTest, HuntThenReplayRoundTrip) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();

  // Hunt the planted literal-cond2 bug with a small budget; whether or not
  // a violation surfaces, the job must return a worst_plan artifact.
  Json hunt = Json::object();
  hunt["job"] = Json("cilcoord.job.v1");
  hunt["kind"] = Json("hunt");
  hunt["id"] = Json("h");
  hunt["protocol"] = Json("unbounded");
  hunt["n"] = Json(3.0);
  hunt["ablation"] = Json("literal-cond2");
  hunt["search"] = Json("uniform");
  hunt["budget"] = Json(60.0);
  hunt["search_seed"] = Json(3.0);
  hunt["eval_steps"] = Json(4000.0);
  c.send_line(hunt.dump());
  const Json hunt_result = c.read_until("result");
  const Json& plan = hunt_result.at("worst_plan");
  EXPECT_EQ(plan.at("artifact").as_string(), "cilcoord.worst_plan.v1");
  c.read_until("done");

  // Feed the artifact straight back as a replay job; the replayed fitness
  // must match the artifact's recorded fitness.
  Json replay = Json::object();
  replay["job"] = Json("cilcoord.job.v1");
  replay["kind"] = Json("replay");
  replay["id"] = Json("r");
  replay["worst_plan"] = plan;
  replay["stream_events"] = Json(true);
  c.send_line(replay.dump());
  bool saw_trace = false;
  Json replay_result;
  for (;;) {
    const Json f = c.read_frame();
    ASSERT_TRUE(f.is_object());
    const std::string ev = f.at("event").as_string();
    if (ev == "trace") saw_trace = true;
    if (ev == "result") {
      replay_result = f;
      break;
    }
    ASSERT_NE(ev, "done") << "result frame must precede done";
  }
  EXPECT_TRUE(saw_trace);  // stream_events=true streamed the replay
  EXPECT_TRUE(replay_result.at("replay").at("matches").as_bool());
  c.read_until("done");
}

TEST(SvcTest, FailedJobErrorNamesRepoRelativeSource) {
  // A replay whose worst_plan lacks the artifact tag passes the decoder
  // (which checks only that the object is there) and fails the artifact
  // reader's contract when the job runs. The error frame carries that
  // contract text to the client: it names the source file as the
  // repository does, not the build host's absolute path.
  TestServer server;
  Client c(server.port());
  c.expect_hello();
  Json replay = Json::object();
  replay["job"] = Json("cilcoord.job.v1");
  replay["kind"] = Json("replay");
  replay["id"] = Json("untagged");
  replay["worst_plan"] = Json::object();
  c.send_line(replay.dump());
  const Json err = c.read_until("error");
  EXPECT_EQ(err.at("id").as_string(), "untagged");
  const std::string what = err.at("what").as_string();
  EXPECT_NE(what.find("src/search/artifact.cpp:"), std::string::npos) << what;
  EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  c.read_until("done");
}

TEST(SvcTest, ManyConcurrentSessions) {
  ServerOptions options;
  options.job_workers = 4;
  TestServer server(options);
  constexpr int kSessions = 64;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(std::make_unique<Client>(server.port()));
    clients.back()->expect_hello();
  }
  for (int i = 0; i < kSessions; ++i)
    clients[static_cast<std::size_t>(i)]->send_line(
        sweep_request("c" + std::to_string(i),
                      static_cast<std::uint64_t>(1 + i * 100), 10, 2000, 0));
  for (int i = 0; i < kSessions; ++i) {
    const Json done = clients[static_cast<std::size_t>(i)]->read_until("done");
    EXPECT_EQ(done.at("id").as_string(), "c" + std::to_string(i));
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.jobs_completed, kSessions);
  EXPECT_EQ(st.sessions_evicted, 0);
}

TEST(SvcTest, IdleTimeoutReapsJoblessSessions) {
  ServerOptions options;
  options.idle_timeout_seconds = 0.3;
  TestServer server(options);

  // An idle session: hello, then silence. The reaper must close it with a
  // courtesy error frame.
  Client idle(server.port());
  idle.expect_hello();
  const Json err = idle.read_frame();  // blocks until the reaper fires
  ASSERT_TRUE(err.is_object());
  EXPECT_EQ(err.at("event").as_string(), "error");
  EXPECT_NE(err.at("what").as_string().find("idle"), std::string::npos);
  EXPECT_TRUE(idle.read_line().empty());  // then EOF

  EXPECT_TRUE(wait_until(
      [&] { return server.stats().sessions_idle_closed >= 1; }, 5000));

  // A session with a job in flight is never reaped, no matter how long the
  // job runs past the idle deadline; the done frame restarts its clock.
  Client busy(server.port());
  busy.expect_hello();
  busy.send_line(sweep_request("long", 1, 100'000, 2000, 0));
  const Json done = busy.read_until("done");
  EXPECT_EQ(done.at("id").as_string(), "long");
  // After the job, the connection is jobless again and gets reaped in turn.
  const Json err2 = busy.read_frame();
  ASSERT_TRUE(err2.is_object());
  EXPECT_EQ(err2.at("event").as_string(), "error");
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().sessions_idle_closed >= 2; }, 5000));
  EXPECT_EQ(server.stats().sessions_evicted, 0);
}

TEST(SvcTest, AcceptBackoffSurvivesFdExhaustion) {
  TestServer server;
  // A healthy session proves the server works before the squeeze.
  Client before(server.port());
  before.expect_hello();

  // Clamp the process fd limit to just past the next free descriptor: the
  // client's socket() gets the last fd, so the server's accept() fails with
  // EMFILE and must back off instead of spinning on the ready listener.
  rlimit old_lim{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_lim), 0);
  const int probe = ::dup(0);
  ASSERT_GE(probe, 0);
  ASSERT_EQ(::close(probe), 0);
  rlimit squeezed = old_lim;
  squeezed.rlim_cur = static_cast<rlim_t>(probe + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);

  Client starved(server.port());  // connect lands in the backlog
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().accept_backoffs >= 1; }, 10000));

  // Lift the limit: the paused listener re-arms after its backoff and the
  // queued connection finally gets its session and hello frame.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_lim), 0);
  starved.expect_hello();
  const ServerStats st = server.stats();
  EXPECT_GE(st.accept_backoffs, 1);
  EXPECT_GE(st.sessions_accepted, 2);

  // And the server is still fully functional.
  starved.send_line(R"({"job":"cilcoord.job.v1","kind":"ping","id":"p"})");
  EXPECT_EQ(starved.read_until("pong").at("id").as_string(), "p");
}

TEST(SvcTest, PeerFrameWithoutHandlerGetsErrorNotEviction) {
  TestServer server;
  Client c(server.port());
  c.expect_hello();
  c.send_line(R"({"peer":"cilcoord.peer.v1","type":"status_req","from":-1})");
  const Json err = c.read_frame();
  ASSERT_TRUE(err.is_object());
  EXPECT_EQ(err.at("event").as_string(), "error");
  // The connection survives: a peer frame at a non-fleet daemon is a bad
  // request, not a protocol break.
  c.send_line(R"({"job":"cilcoord.job.v1","kind":"ping","id":"p"})");
  EXPECT_EQ(c.read_until("pong").at("id").as_string(), "p");
}

}  // namespace
}  // namespace cil::svc

#endif  // _WIN32
