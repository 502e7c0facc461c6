// coordd — the coordination service daemon.
//
// Binds the svc::Server event loop to a CLI: clients connect over TCP, send
// cilcoord.job.v1 lines (sweep / hunt / replay / ping), and receive the
// streamed JSONL frames documented in svc/wire.h. All simulation work runs
// on the worker pool; the process stays responsive to new connections while
// a million-seed sweep grinds.
//
//   ./tools/coordd --port=7077
//   ./tools/coordd --port=0 --port-file=run/coordd.port --workers=4
//
// --port=0 binds an ephemeral port; --port-file writes the bound port (as a
// bare decimal line, atomically) so scripts and CI can discover it without
// racing the listen. SIGINT/SIGTERM stop the loop cleanly: in-flight jobs
// are cancelled, workers joined, a final stats line printed.
//
// Sweep jobs run through BatchRunner's lane engine, which takes its
// lockstep kernel whenever the sweep allows it. No flag picks a kernel:
// none can change a result.
//
// Fleet mode (src/fleet/fleet.h): --fleet-id=K --peers=host:port,host:port,...
// makes this daemon member K of an n-daemon fleet. The roster order must be
// identical on every member. The daemon then answers cilcoord.peer.v1
// control frames on the same listener, heartbeats its peers, takes part in
// leader elections (the paper's Figure 2 protocol over the wire), and
// accepts "fleet":true sweeps that fan out across the roster.
//
//   ./tools/coordd --port=7101 --fleet-id=0 \
//       --peers=127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//       --election-log=run/elect0.jsonl --fleet-checkpoint=run/ckpt0
#ifndef _WIN32

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "fleet/fleet.h"
#include "obs/export.h"
#include "obs/json.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "tools/cli_util.h"
#include "util/simd.h"

using namespace cil;

namespace {

svc::Server* g_server = nullptr;

// Async-signal-safe: stop() is an atomic store plus an eventfd write.
void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

/// Lift RLIMIT_NOFILE to its hard cap: every session is an fd, and the
/// default soft limit (often 1024) dies long before the advertised 5k+
/// concurrent sessions.
void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur == lim.rlim_max) return;
  lim.rlim_cur = lim.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &lim);
}

/// --version: wire protocol plus the SIMD dispatch this binary/host pair
/// resolved to — enough to explain a cross-machine artifact diff from the
/// shell, without standing up a daemon to read its hello frame.
int print_version() {
  const int w = simd::active_width();
  std::printf("coordd proto=%d simd_width=%d simd_isa=%s max_compiled=%d\n",
              svc::kWireVersion, w, simd::width_isa(w),
              simd::kMaxCompiledWidth);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: coordd [--version]\n"
      "              [--addr=127.0.0.1] [--port=0] [--port-file=PATH]\n"
      "              [--workers=N] [--max-sessions=N] [--chunk=N]\n"
      "              [--max-write-buffer=BYTES] [--max-line-bytes=BYTES]\n"
      "              [--stats-file=PATH] [--pid-file=PATH]\n"
      "              [--idle-timeout-s=SECS] [--verbose]\n"
      "  fleet:      [--fleet-id=K --peers=HOST:PORT,HOST:PORT,...]\n"
      "              [--election-log=PATH] [--fleet-checkpoint=DIR]\n"
      "              [--hb-interval-ms=N] [--hb-timeout-ms=N]\n"
      "              [--hb-miss-limit=N] [--shard-size=N]\n"
      "              [--shard-timeout-ms=N] [--retry-budget=N]\n"
      "              [--election-seed=N]\n"
      "  chaos:      [--chaos-kill-prob=P] [--chaos-kill-seed=N]\n"
      "              [--chaos-drop-prob=P] [--chaos-delay-ms=N]\n"
      "              [--chaos-seed=N]\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

obs::Json stats_to_json(const svc::ServerStats& st) {
  obs::Json j = obs::Json::object();
  j["sessions_accepted"] = obs::Json(static_cast<double>(st.sessions_accepted));
  j["sessions_closed"] = obs::Json(static_cast<double>(st.sessions_closed));
  j["sessions_evicted"] = obs::Json(static_cast<double>(st.sessions_evicted));
  j["sessions_rejected"] =
      obs::Json(static_cast<double>(st.sessions_rejected));
  j["sessions_idle_closed"] =
      obs::Json(static_cast<double>(st.sessions_idle_closed));
  j["accept_backoffs"] = obs::Json(static_cast<double>(st.accept_backoffs));
  j["peer_frames"] = obs::Json(static_cast<double>(st.peer_frames));
  j["requests"] = obs::Json(static_cast<double>(st.requests));
  j["bad_requests"] = obs::Json(static_cast<double>(st.bad_requests));
  j["frames_sent"] = obs::Json(static_cast<double>(st.frames_sent));
  j["bytes_in"] = obs::Json(static_cast<double>(st.bytes_in));
  j["bytes_out"] = obs::Json(static_cast<double>(st.bytes_out));
  j["jobs_submitted"] = obs::Json(static_cast<double>(st.jobs_submitted));
  j["jobs_completed"] = obs::Json(static_cast<double>(st.jobs_completed));
  j["jobs_failed"] = obs::Json(static_cast<double>(st.jobs_failed));
  j["jobs_cancelled"] = obs::Json(static_cast<double>(st.jobs_cancelled));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagSet flags(argc, argv);
  if (flags.take_switch("version")) return print_version();

  svc::ServerOptions options;
  std::string port_file;
  std::string stats_file;
  std::string pid_file;
  std::int64_t max_write_buffer = 0;
  std::int64_t max_line_bytes = 0;
  std::int64_t max_sessions = 0;
  flags.take_string("addr", options.listen_addr);
  flags.take_int("port", options.port);
  flags.take_string("port-file", port_file);
  flags.take_string("stats-file", stats_file);
  flags.take_string("pid-file", pid_file);
  flags.take_int("workers", options.job_workers);
  if (flags.take_int("max-sessions", max_sessions) && max_sessions > 0)
    options.max_sessions = static_cast<std::size_t>(max_sessions);
  if (flags.take_int("max-write-buffer", max_write_buffer) &&
      max_write_buffer > 0)
    options.max_write_buffer = static_cast<std::size_t>(max_write_buffer);
  if (flags.take_int("max-line-bytes", max_line_bytes) && max_line_bytes > 0)
    options.max_line_bytes = static_cast<std::size_t>(max_line_bytes);
  flags.take_int("chunk", options.job_limits.default_chunk);
  flags.take_double("idle-timeout-s", options.idle_timeout_seconds);
  flags.take_double("chaos-kill-prob", options.job_limits.chaos_kill_prob);
  flags.take_uint64("chaos-kill-seed", options.job_limits.chaos_kill_seed);

  fleet::FleetOptions fopt;
  std::string peers_csv;
  const bool has_fleet_id = flags.take_int("fleet-id", fopt.self);
  flags.take_string("peers", peers_csv);
  flags.take_string("election-log", fopt.election_log);
  flags.take_string("fleet-checkpoint", fopt.checkpoint_dir);
  flags.take_int("hb-interval-ms", fopt.hb_interval_ms);
  flags.take_int("hb-timeout-ms", fopt.hb_timeout_ms);
  flags.take_int("hb-miss-limit", fopt.hb_miss_limit);
  flags.take_int("shard-size", fopt.shard_size);
  flags.take_int("shard-timeout-ms", fopt.shard_timeout_ms);
  flags.take_int("retry-budget", fopt.retry_budget);
  flags.take_uint64("election-seed", fopt.election_seed);
  flags.take_double("chaos-drop-prob", fopt.chaos_drop_prob);
  flags.take_int("chaos-delay-ms", fopt.chaos_delay_ms);
  flags.take_uint64("chaos-seed", fopt.chaos_seed);

  options.verbose = flags.take_switch("verbose");
  fopt.verbose = options.verbose;
  if (!flags.finish() || !flags.positionals().empty()) return usage();
  if (options.port < 0 || options.port > 65535 || options.job_workers < 1)
    return usage();
  if (has_fleet_id != !peers_csv.empty()) {
    std::fprintf(stderr,
                 "coordd: --fleet-id and --peers must be given together\n");
    return usage();
  }
  if (options.job_limits.chaos_kill_prob < 0.0 ||
      options.job_limits.chaos_kill_prob > 1.0)
    return usage();

  raise_fd_limit();

  // The fleet service (if any) is constructed before the server so the
  // server's borrowed pointers outlive the event loop, and started after
  // the listener is bound so peers that probe early just get a refused
  // connection instead of a half-initialised daemon.
  std::unique_ptr<fleet::FleetService> fleet_svc;
  if (has_fleet_id) {
    fopt.peers = split_csv(peers_csv);
    const int n = static_cast<int>(fopt.peers.size());
    if (n < 1 || fopt.self < 0 || fopt.self >= n) {
      std::fprintf(stderr, "coordd: --fleet-id=%d out of range for %d peers\n",
                   fopt.self, n);
      return usage();
    }
    fleet_svc =
        std::make_unique<fleet::FleetService>(fopt, options.job_limits);
    options.fleet = fleet_svc.get();
    options.peer_handler = [&fleet_svc](const obs::Json& doc) {
      return fleet_svc->handle_peer_frame(doc);
    };
  }

  svc::Server server(options);
  if (!server.start()) return 1;
  g_server = &server;
  (void)std::signal(SIGINT, on_signal);
  (void)std::signal(SIGTERM, on_signal);

  if (!port_file.empty())
    obs::write_text_file_atomic(port_file,
                                std::to_string(server.port()) + "\n");
  if (!pid_file.empty())
    obs::write_text_file_atomic(pid_file,
                                std::to_string(::getpid()) + "\n");
  std::fprintf(stderr, "coordd: listening on %s:%d (%d workers)\n",
               options.listen_addr.c_str(), server.port(),
               options.job_workers);
  if (fleet_svc) {
    std::fprintf(stderr, "coordd: fleet member %d of %d\n", fleet_svc->self(),
                 fleet_svc->size());
    fleet_svc->start();
  }

  server.run();

  if (fleet_svc) fleet_svc->stop();
  const svc::ServerStats st = server.stats();
  const std::string stats_line = stats_to_json(st).dump();
  std::fprintf(stderr, "coordd: stopped; stats %s\n", stats_line.c_str());
  if (!stats_file.empty())
    obs::write_text_file_atomic(stats_file, stats_line + "\n");
  g_server = nullptr;
  return 0;
}

#else

#include <cstdio>

int main() {
  std::fprintf(stderr, "coordd: unsupported on this platform\n");
  return 2;
}

#endif  // _WIN32
