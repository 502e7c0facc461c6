// Experiment M1 + X2b (DESIGN.md §3): coordination on real hardware.
//
//   * threaded consensus latency for the paper's protocols over raw atomic
//     registers vs over the full 1987 construction stack;
//   * the CAS one-liner a modern engineer would write instead;
//   * mutual exclusion (the paper's §1 motivating special case): the
//     coordination-based lock vs a test-and-set spinlock vs std::mutex.
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "runtime/cas_baseline.h"
#include "runtime/mutex.h"
#include "runtime/threaded.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void consensus_latency(const Protocol& protocol,
                       const std::vector<Value>& inputs,
                       rt::RegisterBackend backend, const char* label,
                       int runs, BenchReport& report, const char* key) {
  RunningStats wall;
  Tally steps;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(runs);
       ++seed) {
    rt::ThreadedOptions options;
    options.seed = seed;
    options.backend = backend;
    options.yield_probability = 0.0;
    const auto r = rt::run_threaded(protocol, inputs, options);
    CIL_CHECK(r.all_decided && r.consistent);
    wall.add(r.wall_ms * 1000.0);
    std::int64_t total = 0;
    for (const auto s : r.steps) total += s;
    steps.add(total);
  }
  row({label, fmt(wall.mean(), 1), fmt(wall.ci95_halfwidth(), 1),
       fmt(summarize(steps).mean, 1)},
      34);
  report.add_samples(std::string("total_steps.") + key, steps);
  report.set_value(std::string("wall_us.") + key + ".mean", wall.mean());
  report.set_value(std::string("wall_us.") + key + ".ci95",
                   wall.ci95_halfwidth());
}

template <typename LockT>
double lock_throughput(LockT&& lock_fn, int threads, int iters_each) {
  const double start = now_us();
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(lock_fn, t, iters_each);
  }
  const double elapsed = now_us() - start;
  return static_cast<double>(threads) * iters_each / (elapsed / 1e6);
}

}  // namespace

int main() {
  BenchReport report("bench_runtime");
  report.set_meta("experiment", "M1/X2b");

  header("M1a: threaded consensus latency (us incl. thread spawn; 3 procs)");
  row({"configuration", "mean us", "ci95", "E[total steps]"}, 34);
  {
    TwoProcessProtocol two;
    UnboundedProtocol three(3);
    consensus_latency(two, {0, 1}, rt::RegisterBackend::kRawAtomic,
                      "Fig1 n=2, raw atomics", 300, report, "fig1-raw");
    consensus_latency(two, {0, 1}, rt::RegisterBackend::kConstructed,
                      "Fig1 n=2, constructed registers", 100, report,
                      "fig1-constructed");
    consensus_latency(three, {0, 1, 0}, rt::RegisterBackend::kRawAtomic,
                      "Fig2 n=3, raw atomics", 300, report, "fig2-raw");
    consensus_latency(three, {0, 1, 0}, rt::RegisterBackend::kConstructed,
                      "Fig2 n=3, constructed registers", 100, report,
                      "fig2-constructed");
  }

  header("M1b: CAS baseline (what the paper's model forbids)");
  {
    RunningStats wall;
    for (int run = 0; run < 300; ++run) {
      rt::CasConsensus cas;
      const double start = now_us();
      {
        std::vector<std::jthread> pool;
        for (int t = 0; t < 3; ++t)
          pool.emplace_back([&cas, t] { (void)cas.decide(t); });
      }
      wall.add(now_us() - start);
    }
    row({"CAS consensus n=3 (us incl. spawn)", fmt(wall.mean(), 1)}, 34);
    report.set_value("wall_us.cas-baseline.mean", wall.mean());
  }

  header("M1c: mutual exclusion throughput (lock+unlock/s, 3 threads)");
  row({"lock", "ops/sec"}, 34);
  {
    constexpr int kThreads = 3;
    constexpr int kIters = 400;
    {
      rt::CoordinationMutex mutex(kThreads, kThreads * kIters + 8);
      const double ops = lock_throughput(
          [&mutex](int me, int iters) {
            for (int i = 0; i < iters; ++i) {
              mutex.lock(me);
              mutex.unlock(me);
            }
          },
          kThreads, kIters);
      row({"CoordinationMutex (register-only)", fmt(ops, 0)}, 34);
      report.set_value("lock_ops_per_sec.coordination_mutex", ops);
    }
    {
      rt::CasSpinLock lock;
      const double ops = lock_throughput(
          [&lock](int, int iters) {
            for (int i = 0; i < iters; ++i) {
              lock.lock();
              lock.unlock();
            }
          },
          kThreads, 200000);
      row({"test-and-set spinlock", fmt(ops, 0)}, 34);
      report.set_value("lock_ops_per_sec.tas_spinlock", ops);
    }
    {
      std::mutex lock;
      const double ops = lock_throughput(
          [&lock](int, int iters) {
            for (int i = 0; i < iters; ++i) {
              lock.lock();
              lock.unlock();
            }
          },
          kThreads, 200000);
      row({"std::mutex", fmt(ops, 0)}, 34);
      report.set_value("lock_ops_per_sec.std_mutex", ops);
    }
  }

  std::printf("\n");
  return 0;
}
