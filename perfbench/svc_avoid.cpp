// svc-fig2-avoid: Figure 2 (unbounded, n = 3) under the
// DecisionAvoidingAdversary, served by an in-process svc::Server with 2 job
// workers over localhost TCP. A closed loop of 2 client sessions on this
// thread's epoll sends `sweep` jobs of 400 seeds over disjoint seed ranges;
// each session sends its next job only when the previous one's `done` frame
// arrived. A job's latency runs from its request written to its done frame.
//
// One session per job worker: a job never waits behind another. With more
// sessions than workers a job's queue wait is set by the phase between the
// workers' completions, which drifts, and the p50 moved by 30% between runs
// of the same code. Two workers leave two of a 4-vCPU host's CPUs to the
// event loop, this client and the rest of the host; with four, every burst
// of other load on the host slowed every worker, and the mean latency moved
// by 24% between runs. Even so a worker runs in fast (~10 ms a job) and slow
// (~16 ms) stretches of 0.1-1 s, set by what else the host runs, so the
// latency is bimodal and its p50 jumps between the modes from run to run;
// the end-to-end metric is the mean, and the p50 goes to `detail`.
//
// The first second is a warm-up: its jobs are checked but not timed. Every
// result frame is decoded and checked as it arrives; after the loop, a
// sample of them is compared with svc::run_sweep_shard over the same range.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fabric/summary.h"
#include "perfbench.h"
#include "stats.h"
#include "svc/job.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "util/net.h"

using cil::obs::Json;

namespace perfbench {

namespace {

constexpr int kJobWorkers = 2;
constexpr int kSessions = kJobWorkers;
// Jobs of ~100 seeds (4 ms of service) let one host preemption double a
// job's latency: on a 4-vCPU VM with ~12% steal their p99 moved by 28%
// between runs. At 400 seeds the p99 moves by under 10%.
constexpr std::int64_t kSeedsPerJob = 400;
constexpr double kJobTimeoutSeconds = 30.0;
/// Every this many jobs one result is compared with run_sweep_shard.
constexpr int kSampleEvery = 128;
/// The fewest jobs in one window of the run: a p99 with ten beyond it.
constexpr std::size_t kJobsPerWindow = 1000;

/// A server whose event loop runs on its own thread; stopped and joined on
/// destruction, so no exit path leaves the thread running.
class RunningServer {
 public:
  RunningServer() {
    cil::svc::ServerOptions options;
    options.job_workers = kJobWorkers;
    server_ = std::make_unique<cil::svc::Server>(options);
    if (!server_->start()) throw std::runtime_error("svc::Server::start");
    loop_ = std::thread([s = server_.get()] { s->run(); });
  }
  ~RunningServer() {
    server_->stop();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  cil::svc::Server& server() { return *server_; }

 private:
  std::unique_ptr<cil::svc::Server> server_;
  std::thread loop_;
};

/// An owned file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) (void)cil::net::close_retry(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Connect to the server and read its hello frame (blocking), then switch
/// the socket to nonblocking for the epoll loop.
std::unique_ptr<Fd> connect_session(int port) {
  auto sock = std::make_unique<Fd>(
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (sock->fd() < 0) throw std::runtime_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock->fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0)
    throw std::runtime_error("connect");
  const int one = 1;
  (void)::setsockopt(sock->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::string hello;
  char c = 0;
  while (c != '\n') {
    if (cil::net::read_retry(sock->fd(), &c, 1) != 1)
      throw std::runtime_error("no hello frame");
    hello.push_back(c);
  }
  if (Json::parse(hello).at("event").as_string() != "hello")
    throw std::runtime_error("first frame is not hello");
  if (!cil::net::set_nonblocking(sock->fd()))
    throw std::runtime_error("set_nonblocking");
  return sock;
}

bool send_line(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        cil::net::send_nosignal(fd, line.data() + off, line.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EAGAIN) {
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

struct Job {
  std::uint64_t first_seed = 0;
  Clock::time_point sent{};
  Clock::time_point done_at{};  ///< when the done frame's bytes were read
  bool measured = false;        ///< sent after the warm-up
  bool done = false;
  bool has_result = false;
  std::string failure;  ///< empty while every check on the job passed
  bool mismatch = false;  ///< sampled, and differs from run_sweep_shard
  int frames = 0;
  std::size_t bytes = 0;
  double kernel_s = 0.0;  ///< from the result summary's wall-clock block
  double reduce_s = 0.0;
};

/// A job kept for the comparison with run_sweep_shard after the loop.
struct Sampled {
  int job = 0;
  cil::fabric::ShardSummary result;
  std::size_t artifact_bytes = 0;
};

struct Session {
  std::unique_ptr<Fd> sock;
  std::string inbuf;
  int job = -1;  ///< in flight, or -1
  bool dead = false;
};

std::string job_id(int idx) { return "j" + std::to_string(idx); }

Json sweep_request(int idx, std::uint64_t first_seed) {
  Json j = Json::object();
  j["job"] = Json(cil::svc::kJobArtifactName);
  j["kind"] = Json("sweep");
  j["id"] = Json(job_id(idx));
  j["protocol"] = Json("unbounded");
  j["n"] = Json(3);
  j["adversary"] = Json("avoid");
  j["first_seed"] = Json(std::to_string(first_seed));
  j["seeds"] = Json(kSeedsPerJob);
  return j;
}

}  // namespace

Result run_svc_avoid(const Config& config, Tracer& tracer) {
  const double warmup = config.smoke ? 0.0 : 1.0;
  const int setups = config.smoke ? 2 : 100;
  Result r;

  // Set-up, several times: server construction and start, and connecting
  // every session through its hello frame. The last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<RunningServer> running;
  std::vector<Session> sessions;
  for (int i = 0; i < setups; ++i) {
    sessions.clear();
    running.reset();
    ScopedSpan span(tracer, "setup");
    const auto t0 = Clock::now();
    running = std::make_unique<RunningServer>();
    for (int s = 0; s < kSessions; ++s)
      sessions.push_back({connect_session(running->server().port()), {}, -1,
                          false});
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) throw std::runtime_error("epoll_create1");
  const Fd epoll_owner(epfd);
  for (int s = 0; s < kSessions; ++s) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(s);
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, sessions[s].sock->fd(), &ev) != 0)
      throw std::runtime_error("epoll_ctl");
  }

  std::vector<Job> jobs;
  std::vector<Sampled> sampled;
  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(warmup));
  const auto deadline =
      warm_end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(config.seconds));

  const auto submit = [&](Session& s) {
    const int idx = static_cast<int>(jobs.size());
    Job job;
    // Consecutive jobs take consecutive, disjoint seed ranges.
    job.first_seed = first_seed_for(config.seed, 0) +
                     static_cast<std::uint64_t>(idx) * kSeedsPerJob;
    if (!send_line(s.sock->fd(),
                   sweep_request(idx, job.first_seed).dump() + "\n")) {
      s.dead = true;
      return;
    }
    job.sent = Clock::now();
    job.measured = job.sent >= warm_end;
    jobs.push_back(std::move(job));
    s.job = idx;
  };

  // Decode and check a result as it arrives, so memory does not grow with
  // the number of jobs; every kSampleEvery-th is kept for the reference.
  const auto check_result = [&](int idx, Job& job, const Json& doc) {
    const cil::SeedRange range{job.first_seed, kSeedsPerJob};
    ScopedSpan span(tracer, "fabric.decode");
    cil::fabric::ShardSummary got =
        cil::fabric::shard_summary_from_json(doc.at("summary"));
    std::string why;
    if (!(got.range == range)) {
      job.failure = "result covers the wrong seed range";
    } else if (!summary_invariants_hold(got.summary, why)) {
      job.failure = why;
    }
    const cil::BatchSummary& s = got.summary;
    job.kernel_s = s.run_seconds;
    job.reduce_s = s.wall_seconds - s.construct_seconds - s.run_seconds;
    if (idx % kSampleEvery == 0)
      sampled.push_back({idx, std::move(got), doc.at("summary").dump().size()});
  };

  const auto on_line = [&](Session& s, std::string line,
                           Clock::time_point read_at) {
    if (s.job < 0) return;  // nothing in flight: a stray frame
    const int idx = s.job;
    Job& job = jobs[static_cast<std::size_t>(idx)];
    ++job.frames;
    job.bytes += line.size() + 1;
    if (config.corrupt && idx == 0 &&
        line.find("\"event\":\"result\"") != std::string::npos)
      corrupt_digit_after(line, "steps_p0");
    tracer.set_run(idx);
    try {
      Json doc;
      {
        ScopedSpan span(tracer, "obs.parse");
        doc = Json::parse(line);
      }
      if (doc.at("id").as_string() != job_id(idx))
        throw std::runtime_error("frame for another job");
      const std::string& event = doc.at("event").as_string();
      if (event == "result") {
        job.has_result = true;
        check_result(idx, job, doc);
      } else if (event == "done") {
        job.done_at = read_at;
        job.done = true;
        s.job = -1;
        if (Clock::now() < deadline) submit(s);
      } else if (event == "error") {
        job.failure = "error frame: " + line;
      } else if (event != "accepted" && event != "progress") {
        job.failure = "unexpected frame: " + line;
      }
    } catch (const std::exception& e) {
      if (job.failure.empty()) job.failure = e.what();
    }
  };

  for (Session& s : sessions) submit(s);
  std::vector<epoll_event> events(kSessions);
  char buf[1 << 16];
  for (;;) {
    bool busy = false;
    for (const Session& s : sessions) busy |= (s.job >= 0 && !s.dead);
    if (!busy) break;
    if (seconds_between(deadline, Clock::now()) > kJobTimeoutSeconds) break;
    const int n = ::epoll_wait(epfd, events.data(), kSessions, 100);
    for (int e = 0; e < n; ++e) {
      Session& s = sessions[events[static_cast<std::size_t>(e)].data.u32];
      for (;;) {
        const ssize_t got = cil::net::read_retry(s.sock->fd(), buf, sizeof buf);
        if (got > 0) {
          s.inbuf.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0 || errno != EAGAIN) s.dead = true;
        break;
      }
      const auto read_at = Clock::now();
      std::size_t pos;
      while ((pos = s.inbuf.find('\n')) != std::string::npos) {
        std::string line = s.inbuf.substr(0, pos);
        s.inbuf.erase(0, pos + 1);
        on_line(s, std::move(line), read_at);
      }
    }
  }
  const cil::svc::ServerStats stats = running->server().stats();
  sessions.clear();
  running.reset();

  std::vector<int> measured_runs, verified_runs;
  std::vector<double> latency_ms, frames, bytes, kernel_s, reduce_s;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    ++r.attempted;
    if (job.failure.empty() && !(job.done && job.has_result))
      r.fail("job " + std::to_string(i) + ": no result/done frame");
    if (!job.failure.empty()) {
      r.fail("job " + std::to_string(i) + ": " + job.failure);
      continue;
    }
    if (!job.done || !job.has_result) continue;
    frames.push_back(job.frames);
    bytes.push_back(static_cast<double>(job.bytes));
    kernel_s.push_back(job.kernel_s);
    reduce_s.push_back(job.reduce_s);
    if (job.measured) {
      latency_ms.push_back(seconds_between(job.sent, job.done_at) * 1e3);
      measured_runs.push_back(static_cast<int>(i));
      tracer.add("svc.job", -1, static_cast<int>(i), tracer.at(job.sent),
                 tracer.at(job.done_at));
    }
  }

  // The sampled results against run_sweep_shard over the same ranges.
  const std::atomic<bool> never_cancel{false};
  std::vector<cil::svc::JobSpec> sample_specs;
  std::vector<double> artifact;
  for (const Sampled& s : sampled) {
    Job& job = jobs[static_cast<std::size_t>(s.job)];
    if (!job.failure.empty()) continue;  // already counted
    tracer.set_run(s.job);
    const cil::svc::JobSpec spec =
        cil::svc::job_spec_from_json(sweep_request(s.job, job.first_seed));
    sample_specs.push_back(spec);
    artifact.push_back(static_cast<double>(s.artifact_bytes));
    cil::fabric::ShardSummary reference;
    {
      ScopedSpan span(tracer, "reference");
      reference = cil::svc::run_sweep_shard(spec, s.result.range, never_cancel);
    }
    ScopedSpan span(tracer, "fabric.verify");
    verified_runs.push_back(s.job);
    if (!cil::fabric::deterministic_fields_equal(s.result.summary,
                                                 reference.summary)) {
      r.fail("job " + std::to_string(s.job) +
             ": result differs from run_sweep_shard");
      job.mismatch = true;
    }
  }
  if (latency_ms.empty() || artifact.empty())
    throw std::runtime_error("no job completed");

  // The measured jobs in send order, cut into consecutive windows of at
  // least kJobsPerWindow. Throughput and p99 are medians over the windows,
  // so a burst of host contention in one window does not set the run's
  // figure. A window runs from the previous one's last done frame (the end
  // of the warm-up for the first) to its own.
  const std::size_t windows =
      std::max<std::size_t>(1, latency_ms.size() / kJobsPerWindow);
  std::vector<double> window_rate, window_p99;
  Tail p99;
  auto window_start = warm_end;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = latency_ms.size() * w / windows;
    const std::size_t hi = latency_ms.size() * (w + 1) / windows;
    std::vector<double> lat;
    std::int64_t verified_seeds = 0;
    auto window_end = window_start;
    for (std::size_t k = lo; k < hi; ++k) {
      lat.push_back(latency_ms[k]);
      const Job& job = jobs[static_cast<std::size_t>(measured_runs[k])];
      if (!job.mismatch) verified_seeds += kSeedsPerJob;
      window_end = std::max(window_end, job.done_at);
    }
    window_rate.push_back(
        per_second(verified_seeds, seconds_between(window_start, window_end)));
    const Tail tail = supported_tail(lat, 0.99);
    window_p99.push_back(tail.value);
    if (w == 0 || tail.beyond < p99.beyond) p99 = tail;
    window_start = window_end;
  }
  const double seeds_per_s = median(window_rate);
  r.e2e("seeds_per_s", seeds_per_s, "1/s");
  r.e2e("job_mean_ms", mean(latency_ms), "ms");
  r.e2e("job_p99_ms", median(window_p99), "ms");
  r.detail["job_p50_ms"] = Json(median(latency_ms));
  r.e2e("artifact_bytes", median(artifact), "bytes");
  r.e2e("peak_rss_mb", peak_rss_mb(false), "MB");
  r.e2e("setup_s", median(setup_s), "s");
  r.detail["jobs"] = Json(static_cast<int>(jobs.size()));
  r.detail["jobs_measured"] = Json(static_cast<int>(latency_ms.size()));
  r.detail["jobs_verified_against_run_sweep_shard"] =
      Json(static_cast<int>(verified_runs.size()));
  r.detail["job"] = Json("sweep of " + std::to_string(kSeedsPerJob) +
                         " seeds, unbounded n=3, avoid; closed loop of " +
                         std::to_string(kSessions) + " sessions, " +
                         std::to_string(kJobWorkers) + " job workers");
  r.detail["windows"] = Json(static_cast<int>(windows));
  r.detail["job_p99_quantile"] = Json(p99.q);
  r.detail["job_p99_beyond"] = Json(p99.beyond);
  r.detail["job_p99_base"] = Json("median over windows of each one's p99");
  r.detail["seeds_per_s_base"] = Json(
      "median over windows of verified seeds of the window's jobs / (its "
      "last done frame - the previous window's)");
  r.detail["artifact_bytes_base"] = Json("median result summary per job");
  r.detail["seeds_per_s"] = Json(seeds_per_s);

  if (tracer.enabled()) {
    // svc::run_job called directly on the sampled specs: the service time
    // with no transport and no queue.
    std::vector<double> service_ms;
    for (const cil::svc::JobSpec& spec : sample_specs) {
      std::vector<std::string> collected;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "svc.run_job");
        cil::svc::run_job(spec, never_cancel, cil::svc::JobLimits{},
                          [&](std::string f) {
                            collected.push_back(std::move(f));
                          });
      }
      service_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    const double kernel = median(kernel_s);
    r.layer("sched.kernel_s", kernel, "s");
    r.layer("sched.ns_per_run",
            kernel / static_cast<double>(kSeedsPerJob) * 1e9, "ns");
    r.layer("sched.reduce_s", median(reduce_s), "s");
    r.layer("obs.parse_s", median_span(tracer, "obs.parse", measured_runs),
            "s");
    r.layer("fabric.decode_s",
            median_span(tracer, "fabric.decode", measured_runs), "s");
    r.layer("fabric.verify_s",
            median_span(tracer, "fabric.verify", verified_runs), "s");
    const double service = median(service_ms);
    r.layer("svc.service_ms", service, "ms");
    r.layer("svc.queue_wait_ms", median(latency_ms) - service, "ms");
    r.layer("svc.frames_per_job", median(frames), "count");
    r.layer("svc.bytes_per_job", median(bytes), "bytes");
    r.layer("svc.jobs_failed", static_cast<double>(stats.jobs_failed),
            "count");
    r.detail["service_samples"] = Json(static_cast<int>(service_ms.size()));
    r.detail["queue_wait_base"] = Json("job_p50_ms - svc.service_ms");
    r.detail["kernel_base"] = Json("per job, from the result summaries");
  }
  return r;
}

}  // namespace perfbench
