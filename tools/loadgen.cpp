// loadgen — client-fleet bench and correctness harness for coordd.
//
// Opens a fleet of concurrent sessions against a running coordd, drives
// each through a sequence of sweep jobs, and validates every byte coming
// back: each received line must parse as JSON, carry a known event tag, and
// arrive in the protocol order hello -> (accepted -> progress* -> result ->
// done)* — one accepted/result/done triple per job, demultiplexed by id.
// Any violation is a dropped or corrupted frame and fails the run.
//
//   ./tools/loadgen --port=7077 --sessions=5000 --jobs=1 --seeds=10
//   ./tools/loadgen --port=7077 --sessions=200 --churn=50 --capture=f.jsonl
//
// --churn=K kills the first K sessions mid-job (after their first progress
// frame) and reconnects them — the kill/reconnect cycle CI soaks with; the
// server must cancel the orphaned job and serve the reconnect. --capture
// appends every received line to a file for `traceview --check`.
//
// The whole fleet runs on one epoll loop (the client mirrors the server's
// architecture), so 5k sessions cost 5k fds, not 5k threads. Job latency
// (request written -> done frame) lands in the run report as
// samples.latency_us; throughput headlines under values. The process exits
// nonzero on any validation failure or unfinished session.
#ifndef _WIN32

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include "bench/bench_util.h"
#include "fleet/client.h"
#include "fleet/wire.h"
#include "obs/export.h"
#include "obs/json.h"
#include "svc/wire.h"
#include "tools/cli_util.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace cil;
using Clock = std::chrono::steady_clock;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: loadgen --port=P [--addr=127.0.0.1] [--sessions=N] [--jobs=K]\n"
      "               [--seeds=S] [--steps=T] [--chunk=C] [--protocol=NAME]\n"
      "               [--adversary=NAME] [--churn=K] [--capture=FILE]\n"
      "               [--connect-burst=N] [--timeout-sec=S] [--quiet]\n"
      "  fleet soak:  --fleet=HOST:PORT,HOST:PORT,... [--jobs=K] [--seeds=S]\n"
      "               [--first-seed=N] [--fleet-frontend=K]\n"
      "               [--result-out=FILE] [--kill-pids=F1,F2,...]\n"
      "               [--kill-prob=P] [--max-kills=N] [--kill-seed=N]\n");
  return 2;
}

struct Config {
  std::string addr = "127.0.0.1";
  int port = 0;
  std::int64_t sessions = 100;
  std::int64_t jobs = 1;
  std::int64_t seeds = 10;
  std::int64_t steps = 2000;
  std::int64_t chunk = 0;
  std::string protocol = "unbounded";
  std::string adversary = "random";
  std::int64_t churn = 0;
  std::string capture;
  std::int64_t connect_burst = 256;
  std::int64_t timeout_sec = 180;
  bool quiet = false;

  // Fleet soak mode (--fleet): drive "fleet":true sweeps at a fleet of
  // coordd daemons instead of fanning sessions at one. The roster order
  // must match the daemons' --peers order (ids index it).
  std::string fleet_csv;
  std::uint64_t first_seed = 1;
  std::int64_t fleet_frontend = -1;  ///< fixed submit target; -1 = leader
  std::string result_out;            ///< last result's summary artifact
  std::string kill_pids_csv;         ///< pid files of kill-eligible daemons
  double kill_prob = 0.0;            ///< per (job, pidfile) SIGKILL chance
  std::int64_t max_kills = 1 << 30;
  std::uint64_t kill_seed = 1;
};

/// One sweep request line, written by the service's own job.v1 encoder.
std::string sweep_request(const Config& cfg, std::string id,
                          std::uint64_t first_seed, bool fleet) {
  svc::JobSpec spec;
  spec.kind = "sweep";
  spec.id = std::move(id);
  spec.protocol = cfg.protocol;
  spec.adversary = cfg.adversary;
  spec.first_seed = first_seed;
  spec.seeds = cfg.seeds;
  spec.steps = cfg.steps;
  spec.chunk = std::max<std::int64_t>(cfg.chunk, 0);  // 0: server default
  spec.fleet = fleet;
  return svc::job_spec_to_json(spec).dump() + "\n";
}

struct Conn {
  enum class State { kIdle, kConnecting, kRunning, kFinished };

  int fd = -1;
  std::uint32_t idx = 0;
  State state = State::kIdle;
  std::string inbuf;
  std::string outbuf;
  std::size_t out_off = 0;
  std::uint32_t epoll_mask = 0;

  bool saw_hello = false;
  std::int64_t jobs_done = 0;
  bool job_inflight = false;
  std::string expect_id;
  bool got_accepted = false;
  bool got_result = false;
  Clock::time_point job_start;

  bool churn_armed = false;  ///< kill this conn at its next progress frame
  bool measure = true;       ///< latency sample valid (false after a churn)
};

class Fleet {
 public:
  explicit Fleet(Config cfg) : cfg_(std::move(cfg)) {}

  ~Fleet() {
    for (auto& c : conns_)
      if (c->fd >= 0) (void)net::close_retry(c->fd);
    if (epoll_fd_ >= 0) (void)net::close_retry(epoll_fd_);
    if (capture_ != nullptr) std::fclose(capture_);
  }

  int run();

  // Validation + throughput counters (public for the report writer).
  std::int64_t frames = 0;
  std::int64_t bytes_in = 0;
  std::int64_t corrupt = 0;     ///< unparseable or out-of-protocol lines
  std::int64_t job_errors = 0;  ///< server-reported error frames
  std::int64_t churn_kills = 0;
  std::int64_t finished = 0;
  std::int64_t connects = 0;
  Tally latency_us;

 private:
  bool start_connect(Conn& c);
  void on_connect_ready(Conn& c);
  void on_readable(Conn& c);
  void on_writable(Conn& c);
  void handle_line(Conn& c, const std::string& line);
  void send_next_job(Conn& c);
  void queue(Conn& c, std::string data);
  void flush(Conn& c);
  void fail_conn(Conn& c, const char* why);
  void kill_and_reconnect(Conn& c);
  void set_mask(Conn& c, std::uint32_t mask);

  Config cfg_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::int64_t next_to_start_ = 0;
  std::int64_t connecting_ = 0;
  std::FILE* capture_ = nullptr;
};

bool Fleet::start_connect(Conn& c) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.addr.c_str(), &addr.sin_addr) != 1) {
    (void)net::close_retry(fd);
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    (void)net::close_retry(fd);
    return false;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  c.fd = fd;
  c.state = Conn::State::kConnecting;
  c.inbuf.clear();
  c.outbuf.clear();
  c.out_off = 0;
  c.saw_hello = false;
  c.job_inflight = false;
  c.got_accepted = false;
  c.got_result = false;
  c.epoll_mask = 0;
  ++connects;
  ++connecting_;

  epoll_event ev{};
  ev.events = EPOLLOUT;  // connect completion
  ev.data.u32 = c.idx;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    (void)net::close_retry(fd);
    c.fd = -1;
    --connecting_;
    return false;
  }
  c.epoll_mask = EPOLLOUT;
  return true;
}

void Fleet::set_mask(Conn& c, std::uint32_t mask) {
  if (mask == c.epoll_mask || c.fd < 0) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u32 = c.idx;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0)
    c.epoll_mask = mask;
}

void Fleet::on_connect_ready(Conn& c) {
  int err = 0;
  socklen_t len = sizeof err;
  (void)::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  --connecting_;
  if (err != 0) {
    // Connect refused/reset under burst; retry this slot from scratch.
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    (void)net::close_retry(c.fd);
    c.fd = -1;
    c.state = Conn::State::kIdle;
    if (!start_connect(c)) fail_conn(c, "reconnect");
    return;
  }
  c.state = Conn::State::kRunning;
  set_mask(c, EPOLLIN);
  send_next_job(c);
}

void Fleet::send_next_job(Conn& c) {
  c.expect_id =
      "s" + std::to_string(c.idx) + "-j" + std::to_string(c.jobs_done);
  // Distinct seed ranges per (session, job) so the server actually sweeps
  // rather than serving one hot cache line.
  const std::uint64_t first_seed =
      1 + static_cast<std::uint64_t>(c.idx) * 1000 +
      static_cast<std::uint64_t>(c.jobs_done) * 100;
  c.job_inflight = true;
  c.got_accepted = false;
  c.got_result = false;
  c.job_start = Clock::now();
  queue(c, sweep_request(cfg_, c.expect_id, first_seed, /*fleet=*/false));
}

void Fleet::queue(Conn& c, std::string data) {
  c.outbuf.append(data);
  flush(c);
}

void Fleet::flush(Conn& c) {
  while (c.out_off < c.outbuf.size()) {
    const ssize_t n = net::send_nosignal(c.fd, c.outbuf.data() + c.out_off,
                                         c.outbuf.size() - c.out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_conn(c, "write");
      return;
    }
    c.out_off += static_cast<std::size_t>(n);
  }
  if (c.out_off == c.outbuf.size()) {
    c.outbuf.clear();
    c.out_off = 0;
    set_mask(c, EPOLLIN);
  } else {
    set_mask(c, EPOLLIN | EPOLLOUT);
  }
}

void Fleet::on_writable(Conn& c) { flush(c); }

void Fleet::on_readable(Conn& c) {
  char buf[65536];
  for (;;) {
    const ssize_t n = net::read_retry(c.fd, buf, sizeof buf);
    if (n == 0) {
      fail_conn(c, "unexpected EOF");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail_conn(c, "read");
      return;
    }
    bytes_in += n;
    std::size_t start = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      if (buf[i] != '\n') continue;
      std::string line = std::move(c.inbuf);
      c.inbuf.clear();
      line.append(buf + start, i - start);
      start = i + 1;
      handle_line(c, line);
      if (c.fd < 0 || c.state != Conn::State::kRunning) return;
    }
    c.inbuf.append(buf + start, static_cast<std::size_t>(n) - start);
    if (c.inbuf.size() > (1u << 20)) {
      ++corrupt;
      fail_conn(c, "oversized frame");
      return;
    }
  }
}

void Fleet::handle_line(Conn& c, const std::string& line) {
  ++frames;
  if (capture_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), capture_);
    std::fputc('\n', capture_);
  }

  std::string event;
  std::string id;
  try {
    const obs::Json doc = obs::Json::parse(line, obs::ParseLimits::untrusted());
    const obs::Json* ev = doc.find("event");
    if (ev == nullptr || !ev->is_string()) throw ContractViolation("no event");
    event = ev->as_string();
    if (const obs::Json* idv = doc.find("id"); idv != nullptr)
      id = idv->is_string() ? idv->as_string() : "";
  } catch (const std::exception&) {
    ++corrupt;
    fail_conn(c, "corrupt frame");
    return;
  }

  if (event == "hello") {
    if (c.saw_hello) ++corrupt;
    c.saw_hello = true;
    return;
  }
  if (!c.saw_hello) {
    ++corrupt;  // anything before hello is out of protocol
    fail_conn(c, "frame before hello");
    return;
  }
  if (event == "error") {
    ++job_errors;
    return;  // done follows; let the normal teardown run
  }
  if (!c.job_inflight || id != c.expect_id) {
    ++corrupt;
    fail_conn(c, "frame for unknown job");
    return;
  }
  if (event == "accepted") {
    if (c.got_accepted) ++corrupt;
    c.got_accepted = true;
    return;
  }
  if (event == "progress") {
    if (c.churn_armed) {
      c.churn_armed = false;
      kill_and_reconnect(c);
    }
    return;
  }
  if (event == "result") {
    if (!c.got_accepted || c.got_result) ++corrupt;
    c.got_result = true;
    return;
  }
  if (event == "done") {
    if (!c.got_accepted || !c.got_result) {
      ++corrupt;
      fail_conn(c, "done without accepted+result");
      return;
    }
    if (c.measure) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now() - c.job_start)
                          .count();
      latency_us.add(us);
    }
    c.measure = true;
    c.job_inflight = false;
    ++c.jobs_done;
    if (c.jobs_done >= cfg_.jobs) {
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
      (void)net::close_retry(c.fd);
      c.fd = -1;
      c.state = Conn::State::kFinished;
      ++finished;
    } else {
      send_next_job(c);
    }
    return;
  }
  ++corrupt;  // unknown event tag
}

void Fleet::kill_and_reconnect(Conn& c) {
  ++churn_kills;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  (void)net::close_retry(c.fd);
  c.fd = -1;
  c.state = Conn::State::kIdle;
  c.job_inflight = false;
  c.measure = false;  // the rerun after reconnect measures a cold server
  if (!start_connect(c)) fail_conn(c, "churn reconnect");
}

void Fleet::fail_conn(Conn& c, const char* why) {
  if (!cfg_.quiet)
    std::fprintf(stderr, "loadgen: conn %u failed: %s (%s)\n", c.idx, why,
                 errno != 0 ? std::strerror(errno) : "-");
  if (c.fd >= 0) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    (void)net::close_retry(c.fd);
    c.fd = -1;
  }
  if (c.state == Conn::State::kConnecting) --connecting_;
  c.state = Conn::State::kFinished;  // counted, but not as success
}

int Fleet::run() {
  net::ignore_sigpipe();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    std::perror("loadgen: epoll_create1");
    return 1;
  }
  if (!cfg_.capture.empty()) {
    capture_ = std::fopen(cfg_.capture.c_str(), "w");
    if (capture_ == nullptr) {
      std::perror("loadgen: capture file");
      return 1;
    }
  }

  conns_.reserve(static_cast<std::size_t>(cfg_.sessions));
  for (std::int64_t i = 0; i < cfg_.sessions; ++i) {
    auto c = std::make_unique<Conn>();
    c->idx = static_cast<std::uint32_t>(i);
    c->churn_armed = i < cfg_.churn;
    conns_.push_back(std::move(c));
  }

  const auto deadline =
      Clock::now() + std::chrono::seconds(cfg_.timeout_sec);
  std::array<epoll_event, 512> events;
  std::int64_t settled = 0;
  while (settled < cfg_.sessions) {
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "loadgen: timeout with %lld/%lld sessions done\n",
                   static_cast<long long>(finished),
                   static_cast<long long>(cfg_.sessions));
      return 1;
    }
    // Pace the connect storm: the server's listen backlog is finite.
    while (next_to_start_ < cfg_.sessions && connecting_ < cfg_.connect_burst) {
      Conn& c = *conns_[static_cast<std::size_t>(next_to_start_)];
      ++next_to_start_;
      if (!start_connect(c)) fail_conn(c, "connect");
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::perror("loadgen: epoll_wait");
      return 1;
    }
    for (int i = 0; i < n; ++i) {
      Conn& c = *conns_[events[i].data.u32];
      if (c.fd < 0) continue;
      if (c.state == Conn::State::kConnecting) {
        on_connect_ready(c);
        continue;
      }
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(c);
      if (c.fd >= 0 && (events[i].events & EPOLLOUT)) on_writable(c);
    }
    settled = 0;
    for (const auto& c : conns_)
      if (c->state == Conn::State::kFinished) ++settled;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Fleet soak mode: submit "fleet":true sweeps at the elected merge leader,
// optionally SIGKILLing peer daemons between jobs (the CI chaos soak). The
// client is deliberately synchronous — one sweep at a time, resubmitted from
// scratch whenever the serving daemon dies — because the property under test
// is the fleet's, not the client's: every job must eventually complete with
// the bit-identical merged summary no matter which daemons it outlives.

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      if (start < csv.size()) out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// One status_req round-robin over the roster: the first daemon that
/// answers reports the fleet's current leader (-1 while an election runs).
int discover_leader(const std::vector<std::string>& roster, int timeout_ms) {
  for (const std::string& addr : roster) {
    std::string host;
    int port = 0;
    if (!fleet::split_host_port(addr, host, port)) continue;
    fleet::LineClient link;
    if (!link.connect(host, port, timeout_ms)) continue;
    fleet::PeerMsg req;
    req.type = "status_req";
    if (!link.send_line(fleet::peer_frame(req), timeout_ms)) continue;
    std::string line;
    for (int skip = 0; skip < 8; ++skip) {  // the hello frame precedes
      if (!link.read_line(line, timeout_ms)) break;
      try {
        const obs::Json doc =
            obs::Json::parse(line, obs::ParseLimits::untrusted());
        if (!fleet::is_peer_frame(doc)) continue;
        const fleet::PeerMsg resp = fleet::peer_msg_from_json(doc);
        if (resp.type == "status") return resp.leader;
      } catch (const std::exception&) {
        break;
      }
    }
  }
  return fleet::kNoLeader;
}

struct FleetJobResult {
  bool ok = false;
  std::string summary_json;  ///< the result frame's summary payload
  std::int64_t attempts = 0;
  long long latency_us = 0;  ///< first successful submit -> done
};

FleetJobResult run_fleet_job(const Config& cfg,
                             const std::vector<std::string>& roster,
                             std::int64_t job_idx) {
  FleetJobResult out;
  const auto deadline = Clock::now() + std::chrono::seconds(cfg.timeout_sec);
  const int io_ms = 2'000;
  while (Clock::now() < deadline) {
    ++out.attempts;
    int target = static_cast<int>(cfg.fleet_frontend);
    if (target < 0) target = discover_leader(roster, io_ms);
    if (target < 0 || target >= static_cast<int>(roster.size())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    std::string host;
    int port = 0;
    if (!fleet::split_host_port(roster[static_cast<std::size_t>(target)],
                                host, port))
      return out;  // roster is malformed; retrying cannot help
    fleet::LineClient link;
    if (!link.connect(host, port, io_ms)) continue;

    const std::string id = "fleet-j" + std::to_string(job_idx) + "-a" +
                           std::to_string(out.attempts);
    const std::string request =
        sweep_request(cfg, id, cfg.first_seed, /*fleet=*/true);

    const auto t0 = Clock::now();
    if (!link.send_line(request, io_ms)) continue;

    std::string summary;
    bool done = false, failed = false;
    std::string line;
    while (!done && !failed && Clock::now() < deadline) {
      if (!link.read_line(line, 1'000)) {
        if (link.connected()) continue;  // pure timeout; keep waiting
        failed = true;                   // serving daemon died mid-sweep
        break;
      }
      try {
        const obs::Json doc =
            obs::Json::parse(line, obs::ParseLimits::untrusted());
        const obs::Json* ev = doc.find("event");
        if (ev == nullptr || !ev->is_string()) continue;
        const std::string& event = ev->as_string();
        if (event == "error") {
          failed = true;
        } else if (event == "result") {
          if (const obs::Json* s = doc.find("summary"); s != nullptr)
            summary = s->dump();
        } else if (event == "done") {
          const obs::Json* idv = doc.find("id");
          if (idv != nullptr && idv->is_string() && idv->as_string() == id)
            done = true;
        }
      } catch (const std::exception&) {
        failed = true;
      }
    }
    if (done && !summary.empty()) {
      out.ok = true;
      out.summary_json = std::move(summary);
      out.latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - t0)
                           .count();
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return out;
}

/// Between jobs: SIGKILL each kill-eligible daemon with probability
/// kill_prob (deterministic in kill_seed). Pid files are re-read every
/// time — a supervisor restart loop rewrites them with the fresh pid.
std::int64_t maybe_kill_peers(const Config& cfg,
                              const std::vector<std::string>& pid_files,
                              Xoshiro256& rng, std::int64_t kills_so_far) {
  std::int64_t kills = 0;
  for (const std::string& pf : pid_files) {
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    if (u >= cfg.kill_prob) continue;
    if (kills_so_far + kills >= cfg.max_kills) break;
    std::FILE* f = std::fopen(pf.c_str(), "rb");
    if (f == nullptr) continue;
    long long pid = 0;
    const bool got = std::fscanf(f, "%lld", &pid) == 1;
    std::fclose(f);
    if (!got || pid <= 1) continue;
    if (::kill(static_cast<pid_t>(pid), SIGKILL) == 0) {
      ++kills;
      if (!cfg.quiet)
        std::fprintf(stderr, "loadgen: chaos-killed daemon pid %lld (%s)\n",
                     pid, pf.c_str());
    }
  }
  return kills;
}

int run_fleet_mode(const Config& cfg) {
  const std::vector<std::string> roster = split_csv(cfg.fleet_csv);
  if (roster.empty()) return usage();
  const std::vector<std::string> pid_files = split_csv(cfg.kill_pids_csv);
  Xoshiro256 kill_rng(SplitMix64(cfg.kill_seed).next());

  Tally latency_us;
  std::int64_t kills = 0, attempts = 0, completed = 0;
  std::string last_summary;
  const auto t0 = Clock::now();
  for (std::int64_t job = 0; job < cfg.jobs; ++job) {
    if (job > 0) kills += maybe_kill_peers(cfg, pid_files, kill_rng, kills);
    const FleetJobResult r = run_fleet_job(cfg, roster, job);
    attempts += r.attempts;
    if (!r.ok) {
      std::fprintf(stderr,
                   "loadgen: FAILED fleet job %lld after %lld attempts\n",
                   static_cast<long long>(job),
                   static_cast<long long>(r.attempts));
      return 1;
    }
    latency_us.add(r.latency_us);
    last_summary = r.summary_json;
    ++completed;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (!cfg.result_out.empty() &&
      !obs::write_text_file_atomic(cfg.result_out, last_summary + "\n")) {
    std::fprintf(stderr, "loadgen: cannot write %s\n",
                 cfg.result_out.c_str());
    return 1;
  }

  std::printf(
      "loadgen: fleet soak %lld/%lld jobs (%lld submit attempts, "
      "%lld chaos kills), %.2fs\n",
      static_cast<long long>(completed), static_cast<long long>(cfg.jobs),
      static_cast<long long>(attempts), static_cast<long long>(kills), secs);
  if (latency_us.count() > 0)
    std::printf("loadgen: fleet latency p50=%lldus p99=%lldus max=%lldus\n",
                static_cast<long long>(latency_us.percentile(0.50)),
                static_cast<long long>(latency_us.percentile(0.99)),
                static_cast<long long>(latency_us.max()));

  {
    bench::BenchReport report("loadgen-fleet");
    report.set_meta("protocol", cfg.protocol);
    report.set_meta("adversary", cfg.adversary);
    report.set_value("fleet_size", static_cast<double>(roster.size()));
    report.set_value("jobs", static_cast<double>(completed));
    report.set_value("attempts", static_cast<double>(attempts));
    report.set_value("chaos_kills", static_cast<double>(kills));
    report.set_value("seeds", static_cast<double>(cfg.seeds));
    report.set_value("wall.seconds", secs);
    if (latency_us.count() > 0)
      report.add_samples("latency_us", latency_us);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagSet flags(argc, argv);
  Config cfg;
  flags.take_string("addr", cfg.addr);
  flags.take_int("port", cfg.port);
  flags.take_int("sessions", cfg.sessions);
  flags.take_int("jobs", cfg.jobs);
  flags.take_int("seeds", cfg.seeds);
  flags.take_int("steps", cfg.steps);
  flags.take_int("chunk", cfg.chunk);
  flags.take_string("protocol", cfg.protocol);
  flags.take_string("adversary", cfg.adversary);
  flags.take_int("churn", cfg.churn);
  flags.take_string("capture", cfg.capture);
  flags.take_int("connect-burst", cfg.connect_burst);
  flags.take_int("timeout-sec", cfg.timeout_sec);
  flags.take_string("fleet", cfg.fleet_csv);
  flags.take_uint64("first-seed", cfg.first_seed);
  flags.take_int("fleet-frontend", cfg.fleet_frontend);
  flags.take_string("result-out", cfg.result_out);
  flags.take_string("kill-pids", cfg.kill_pids_csv);
  flags.take_double("kill-prob", cfg.kill_prob);
  flags.take_int("max-kills", cfg.max_kills);
  flags.take_uint64("kill-seed", cfg.kill_seed);
  cfg.quiet = flags.take_switch("quiet");
  if (!flags.finish() || !flags.positionals().empty()) return usage();
  if (!cfg.fleet_csv.empty()) {
    if (cfg.jobs < 1 || cfg.kill_prob < 0.0 || cfg.kill_prob > 1.0)
      return usage();
    net::ignore_sigpipe();
    return run_fleet_mode(cfg);
  }
  if (cfg.port <= 0 || cfg.port > 65535 || cfg.sessions < 1 ||
      cfg.jobs < 1 || cfg.churn > cfg.sessions)
    return usage();

  // Every session is an fd; lift the soft limit to the hard cap.
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
  }

  Fleet fleet(cfg);
  const auto t0 = Clock::now();
  const int rc = fleet.run();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

  const std::int64_t jobs_total = fleet.latency_us.count();
  const bool all_ok = rc == 0 && fleet.corrupt == 0 && fleet.job_errors == 0 &&
                      fleet.finished == cfg.sessions;
  std::printf(
      "loadgen: %lld sessions (%lld connects, %lld churn kills), "
      "%lld jobs timed, %lld frames, %.2f MiB in, %.2fs\n",
      static_cast<long long>(fleet.finished),
      static_cast<long long>(fleet.connects),
      static_cast<long long>(fleet.churn_kills),
      static_cast<long long>(jobs_total),
      static_cast<long long>(fleet.frames),
      static_cast<double>(fleet.bytes_in) / (1024.0 * 1024.0), secs);
  if (jobs_total > 0)
    std::printf("loadgen: latency p50=%lldus p99=%lldus max=%lldus\n",
                static_cast<long long>(fleet.latency_us.percentile(0.50)),
                static_cast<long long>(fleet.latency_us.percentile(0.99)),
                static_cast<long long>(fleet.latency_us.max()));
  if (!all_ok)
    std::fprintf(stderr,
                 "loadgen: FAILED (corrupt=%lld job_errors=%lld "
                 "finished=%lld/%lld)\n",
                 static_cast<long long>(fleet.corrupt),
                 static_cast<long long>(fleet.job_errors),
                 static_cast<long long>(fleet.finished),
                 static_cast<long long>(cfg.sessions));

  {
    bench::BenchReport report("loadgen");
    report.set_meta("addr", cfg.addr);
    report.set_meta("protocol", cfg.protocol);
    report.set_meta("adversary", cfg.adversary);
    report.set_value("sessions", static_cast<double>(cfg.sessions));
    report.set_value("jobs", static_cast<double>(jobs_total));
    report.set_value("churn_kills", static_cast<double>(fleet.churn_kills));
    report.set_value("frames", static_cast<double>(fleet.frames));
    report.set_value("corrupt", static_cast<double>(fleet.corrupt));
    report.set_value("wall.seconds", secs);
    report.set_value("jobs_per_sec",
                     secs > 0 ? static_cast<double>(jobs_total) / secs : 0.0);
    report.set_value(
        "frames_per_sec",
        secs > 0 ? static_cast<double>(fleet.frames) / secs : 0.0);
    if (jobs_total > 0) report.add_samples("latency_us", fleet.latency_us);
  }
  return all_ok ? 0 : 1;
}

#else

#include <cstdio>

int main() {
  std::fprintf(stderr, "loadgen: unsupported on this platform\n");
  return 2;
}

#endif  // _WIN32
