#include "runtime/threaded.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "fault/faulty_registers.h"
#include "registers/constructions.h"
#include "util/rng.h"

namespace cil::rt {

namespace {

class RawAtomicRegisters final : public SharedRegisters {
 public:
  explicit RawAtomicRegisters(const std::vector<RegisterSpec>& specs) {
    for (const auto& s : specs) cells_.emplace_back(s.initial);
  }

  // Sequentially consistent on purpose. With release stores and acquire
  // loads, a write can still sit in the store buffer while the writer's
  // next read (of another register) runs, so two processes can each miss
  // the other's write — not an atomic register, and enough to break
  // consensus (ConsensusArena.ThreadsReleasedTogetherNeverDisagree).
  Word read(RegisterId r, ProcessId) override { return cells_[r].load(); }

  void write(RegisterId r, ProcessId, Word value) override {
    cells_[r].store(value);
  }

 private:
  std::deque<std::atomic<Word>> cells_;  // deque: atomics are immovable
};

/// Registers built from the full construction chain: every cell is an
/// atomic single-writer multi-reader register made of four-slot SWSR
/// registers, themselves made of safe cells and atomic control bits.
/// With cell faults enabled, those safe cells are genuinely dirty writers —
/// the construction stack is what masks them.
class ConstructedRegisters final : public SharedRegisters {
 public:
  ConstructedRegisters(const std::vector<RegisterSpec>& specs, int n,
                       std::uint64_t seed,
                       const hw::CellFaultConfig* cell_faults) {
    SplitMix64 sm(seed ^ 0xc0a57ac7ed5eedULL);
    for (const auto& s : specs) {
      regs_.push_back(std::make_unique<hw::AtomicSwmr<Word>>(n, s.initial));
      if (cell_faults != nullptr)
        regs_.back()->enable_faults(cell_faults, sm.next());
    }
  }

  Word read(RegisterId r, ProcessId p) override { return regs_[r]->read(p); }

  void write(RegisterId r, ProcessId, Word value) override {
    regs_[r]->write(value);
  }

 private:
  std::vector<std::unique_ptr<hw::AtomicSwmr<Word>>> regs_;
};

/// StepContext over a threaded register backend.
class ThreadedStepContext final : public StepContext {
 public:
  ThreadedStepContext(SharedRegisters& regs, ProcessId pid, Rng& rng)
      : regs_(regs), pid_(pid), rng_(rng) {}

  Word read(RegisterId r) override {
    note_io();
    return regs_.read(r, pid_);
  }

  void write(RegisterId r, Word value) override {
    note_io();
    regs_.write(r, pid_, value);
  }

  bool flip() override { return rng_.flip(); }
  ProcessId pid() const override { return pid_; }

 private:
  void note_io() {
    CIL_CHECK_MSG(io_ops_ == 0, "a step may perform only one register op");
    ++io_ops_;
  }

  SharedRegisters& regs_;
  ProcessId pid_;
  Rng& rng_;
  int io_ops_ = 0;
};

/// Thread-safe event sink for the register backend (FaultyRegisters word
/// faults fire from inside reads and writes, concurrently on every worker):
/// stamps wall time and appends under a mutex. Word faults are rare, so the
/// lock stays off the hot path; the per-step event stream uses thread-local
/// buffers instead.
class StampingSink final : public obs::EventSink {
 public:
  void set_start(std::chrono::steady_clock::time_point start) {
    start_ = start;
  }

  void on_event(const obs::Event& e) override {
    obs::Event copy = e;
    copy.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(copy);
  }

  std::vector<obs::Event> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(events_);
  }

 private:
  std::chrono::steady_clock::time_point start_{};
  std::mutex mu_;
  std::vector<obs::Event> events_;
};

/// StepContext wrapper that narrates register ops and coin flips into a
/// thread-local event buffer — the threaded sibling of the simulator's
/// ObservingStepContext. Purely observational; no locks, no shared state.
class BufferingStepContext final : public StepContext {
 public:
  BufferingStepContext(StepContext& inner, ProcessId pid, std::int64_t step,
                       std::chrono::steady_clock::time_point start,
                       bool register_ops, bool coin_flips,
                       std::vector<obs::Event>& out)
      : inner_(inner),
        pid_(pid),
        step_(step),
        start_(start),
        register_ops_(register_ops),
        coin_flips_(coin_flips),
        out_(out) {}

  Word read(RegisterId r) override {
    const Word v = inner_.read(r);
    if (register_ops_) push_op(obs::EventKind::kRegisterRead, r, v);
    return v;
  }

  void write(RegisterId r, Word value) override {
    inner_.write(r, value);
    if (register_ops_) push_op(obs::EventKind::kRegisterWrite, r, value);
  }

  bool flip() override {
    const bool outcome = inner_.flip();
    if (coin_flips_) {
      obs::Event e = base();
      e.kind = obs::EventKind::kCoinFlip;
      e.value = outcome ? 1 : 0;
      out_.push_back(e);
    }
    return outcome;
  }

  ProcessId pid() const override { return inner_.pid(); }

 private:
  obs::Event base() const {
    obs::Event e;
    e.pid = pid_;
    e.step = step_;
    e.wall_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    return e;
  }

  void push_op(obs::EventKind kind, RegisterId r, Word v) {
    obs::Event e = base();
    e.kind = kind;
    e.reg = r;
    e.value = v;
    out_.push_back(e);
  }

  StepContext& inner_;
  ProcessId pid_;
  std::int64_t step_;
  std::chrono::steady_clock::time_point start_;
  bool register_ops_;
  bool coin_flips_;
  std::vector<obs::Event>& out_;
};

/// Everything the worker threads touch, owned by shared_ptr: a thread
/// abandoned by the watchdog keeps its copy alive, so a late step after
/// run_threaded returned is harmless rather than use-after-free.
struct SharedState {
  std::unique_ptr<SharedRegisters> regs;
  fault::FaultyRegisters* faulty = nullptr;  ///< regs, when word faults on
  hw::CellFaultConfig cell_faults;           ///< referenced by regs
  std::atomic<std::int64_t> cell_fault_count{0};
  std::vector<std::unique_ptr<Process>> procs;  ///< each used by one thread
  std::atomic<bool> stop{false};
  /// Set by each worker as its very last action. Lives here (not on the
  /// caller's stack) because a worker can still be storing its flag after
  /// the watchdog gave up on it and run_threaded returned.
  std::deque<std::atomic<bool>> thread_done;

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;  ///< guarded by mu
  // Result slots, guarded by mu.
  std::vector<Value> decisions;
  std::vector<std::int64_t> steps;
  std::vector<std::uint8_t> crashed;
  std::vector<fault::CrashEvent> crash_log;
  std::int64_t crash_stall_faults = 0;
  /// Per-thread event buffers, published (moved) under mu when a worker
  /// finishes; a thread the watchdog abandoned never publishes, so its
  /// events are lost by design rather than raced for.
  std::vector<std::vector<obs::Event>> events;

  std::chrono::steady_clock::time_point start;  ///< run epoch for wall_us
  StampingSink fault_sink;  ///< register-backend fault events
};

/// Park the calling thread for `duration_us`, in slices, bailing out early
/// when the run is being stopped.
void park(const SharedState& state, std::int64_t duration_us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(duration_us);
  while (std::chrono::steady_clock::now() < deadline) {
    if (state.stop.load(std::memory_order_relaxed)) return;
    const auto remaining = deadline - std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            remaining, std::chrono::milliseconds(1)));
  }
}

}  // namespace

std::unique_ptr<SharedRegisters> make_shared_registers(
    const Protocol& protocol, RegisterBackend backend, std::uint64_t seed,
    const hw::CellFaultConfig* cell_faults) {
  const auto specs = protocol.registers();
  switch (backend) {
    case RegisterBackend::kRawAtomic:
      return std::make_unique<RawAtomicRegisters>(specs);
    case RegisterBackend::kConstructed:
      return std::make_unique<ConstructedRegisters>(
          specs, protocol.num_processes(), seed, cell_faults);
  }
  throw ContractViolation("unknown register backend");
}

ThreadedResult run_threaded(const Protocol& protocol,
                            const std::vector<Value>& inputs,
                            const ThreadedOptions& options) {
  const int n = protocol.num_processes();
  CIL_EXPECTS(static_cast<int>(inputs.size()) == n);

  const fault::FaultPlan* plan = options.fault_plan;
  if (plan != nullptr) {
    plan->validate(n);
    // Crash-recovery is a simulator-only fault model for now: restarting a
    // worker thread mid-run would race the watchdog and the per-thread
    // event buffers. The searcher uses the serialized substrate for it.
    CIL_CHECK_MSG(plan->recoveries.empty(),
                  "run_threaded does not support recovery events");
  }

  auto state = std::make_shared<SharedState>();
  state->decisions.assign(n, kNoValue);
  state->steps.assign(n, 0);
  state->crashed.assign(n, 0);

  // Build the register backend, threading fault config through: cell-level
  // faults live underneath the constructions; word-level faults wrap the
  // whole backend in the FaultyRegisters decorator.
  const hw::CellFaultConfig* cell_cfg = nullptr;
  if (plan != nullptr && plan->registers.cells.garbage_prob > 0) {
    state->cell_faults = plan->registers.cells;
    state->cell_faults.fault_counter = &state->cell_fault_count;
    cell_cfg = &state->cell_faults;
  }
  state->regs =
      make_shared_registers(protocol, options.backend, options.seed, cell_cfg);
  if (plan != nullptr && plan->registers.any_word_faults()) {
    std::vector<Word> initials;
    for (const auto& s : protocol.registers()) initials.push_back(s.initial);
    auto faulty = std::make_unique<fault::FaultyRegisters>(
        std::move(state->regs), plan->registers, plan->seed,
        std::move(initials), n);
    state->faulty = faulty.get();
    state->regs = std::move(faulty);
  }

  // Create the processes up front: worker threads never touch `protocol`,
  // so an abandoned thread cannot dangle into caller-owned objects.
  for (ProcessId pid = 0; pid < n; ++pid) {
    state->procs.push_back(protocol.make_process(pid));
    state->procs[pid]->init(inputs[pid]);
  }

  // Split the plan into per-thread event lists (own-step keyed).
  std::vector<std::int64_t> crash_at(n, -1);
  std::vector<std::vector<fault::StallEvent>> stalls_of(n);
  if (plan != nullptr) {
    for (const auto& e : plan->crashes) crash_at[e.pid] = e.at_step;
    for (const auto& e : plan->stalls) stalls_of[e.pid].push_back(e);
    for (auto& v : stalls_of) {
      std::sort(v.begin(), v.end(),
                [](const fault::StallEvent& a, const fault::StallEvent& b) {
                  return a.at_step < b.at_step;
                });
    }
  }

  ThreadedResult result;
  const auto start = std::chrono::steady_clock::now();
  state->start = start;
  if (options.obs.enabled()) {
    state->events.resize(static_cast<std::size_t>(n));
    state->fault_sink.set_start(start);
    if (state->faulty != nullptr)
      state->faulty->set_event_sink(&state->fault_sink);
  }

  std::vector<std::thread> threads;
  for (ProcessId pid = 0; pid < n; ++pid) state->thread_done.emplace_back(false);
  threads.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    threads.emplace_back([state, pid, options, crash = crash_at[pid],
                          stalls = stalls_of[pid]] {
      Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + pid + 1);
      Process& proc = *state->procs[pid];
      std::int64_t steps = 0;
      std::size_t next_stall = 0;
      bool crashed = false;

      const bool observing = options.obs.enabled();
      std::vector<obs::Event> ev;  // thread-local; published at the end
      const auto make_event = [&](obs::EventKind kind) {
        obs::Event e;
        e.kind = kind;
        e.pid = pid;
        e.step = steps;
        e.wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - state->start)
                        .count();
        return e;
      };
      const auto phase_now = [&] {
        const auto enc = proc.encode_state();
        return enc.empty() ? std::int64_t{0} : enc[0];
      };
      std::int64_t phase = observing ? phase_now() : 0;

      while (!proc.decided() && steps < options.max_steps_per_proc) {
        if (state->stop.load(std::memory_order_relaxed)) break;
        if (crash >= 0 && steps >= crash) {
          crashed = true;  // fail-stop: die silently mid-protocol
          if (observing) ev.push_back(make_event(obs::EventKind::kCrash));
          break;
        }
        while (next_stall < stalls.size() &&
               steps >= stalls[next_stall].at_step) {
          if (observing) {
            obs::Event e = make_event(obs::EventKind::kStall);
            e.arg = stalls[next_stall].duration;
            ev.push_back(e);
          }
          park(*state, stalls[next_stall].duration);
          ++next_stall;
        }
        // park() bails out early when the watchdog stops the run; a stopped
        // run must not take another protocol step.
        if (state->stop.load(std::memory_order_relaxed)) break;
        ThreadedStepContext ctx(*state->regs, pid, rng);
        if (observing) {
          BufferingStepContext octx(ctx, pid, steps + 1, state->start,
                                    options.obs.register_ops,
                                    options.obs.coin_flips, ev);
          proc.step(octx);
          ++steps;
          ev.push_back(make_event(obs::EventKind::kStep));
          if (options.obs.phase_changes) {
            const std::int64_t ph = phase_now();
            if (ph != phase) {
              phase = ph;
              obs::Event e = make_event(obs::EventKind::kPhaseChange);
              e.arg = ph;
              ev.push_back(e);
            }
          }
          if (proc.decided()) {
            obs::Event e = make_event(obs::EventKind::kDecision);
            e.arg = proc.decision();
            ev.push_back(e);
          }
        } else {
          proc.step(ctx);
          ++steps;
        }
        if (options.yield_probability > 0 &&
            rng.with_probability(options.yield_probability)) {
          std::this_thread::yield();
        }
      }

      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (observing) state->events[pid] = std::move(ev);
        state->steps[pid] = steps;
        if (crashed) {
          state->crashed[pid] = 1;
          state->crash_log.push_back({pid, steps});
          ++state->crash_stall_faults;
        } else if (proc.decided()) {
          state->decisions[pid] = proc.decision();
        }
        state->crash_stall_faults +=
            static_cast<std::int64_t>(next_stall);  // stalls actually taken
        ++state->done;
      }
      state->cv.notify_all();
      state->thread_done[pid].store(true, std::memory_order_release);
    });
  }

  // Watchdog: wait for completion against a monotonic deadline.
  obs::Event watchdog_event;
  bool watchdog_fired = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    const auto all_done = [&] { return state->done == n; };
    if (options.watchdog_ms > 0) {
      const auto deadline =
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          options.watchdog_ms));
      if (!state->cv.wait_until(lock, deadline, all_done)) {
        result.timed_out = true;
        if (options.obs.enabled()) {
          watchdog_fired = true;
          watchdog_event.kind = obs::EventKind::kWatchdogFire;
          watchdog_event.pid = -1;  // the watchdog is not a processor
          watchdog_event.wall_us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count();
        }
        state->stop.store(true, std::memory_order_relaxed);
        // Grace period: threads that poll `stop` between steps drain out
        // quickly; only a thread wedged *inside* a step stays behind.
        state->cv.wait_for(lock, std::chrono::milliseconds(250), all_done);
      }
    } else {
      state->cv.wait(lock, all_done);
    }
  }

  // Join finished threads; abandon wedged ones (their shared_ptr keeps the
  // state alive, so whatever they do later is harmless).
  for (ProcessId pid = 0; pid < n; ++pid) {
    if (state->thread_done[pid].load(std::memory_order_acquire)) {
      threads[pid].join();
    } else {
      threads[pid].detach();
    }
  }

  const auto end = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  {
    std::lock_guard<std::mutex> lock(state->mu);
    result.decisions = state->decisions;
    result.steps = state->steps;
    result.crashed.assign(state->crashed.begin(), state->crashed.end());
    result.crash_log = state->crash_log;
    result.faults_injected = state->crash_stall_faults;
  }
  if (state->faulty != nullptr)
    result.faults_injected += state->faulty->faults_injected();
  result.faults_injected +=
      state->cell_fault_count.load(std::memory_order_relaxed);

  if (options.obs.enabled()) {
    // Merge the published per-thread buffers plus the backend fault events,
    // order by wall time, and drain into the caller's sink on this thread —
    // the sink never sees concurrency.
    std::vector<obs::Event> all;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      for (auto& buf : state->events) {
        all.insert(all.end(), buf.begin(), buf.end());
        buf.clear();
      }
    }
    const std::vector<obs::Event> fault_events = state->fault_sink.take();
    all.insert(all.end(), fault_events.begin(), fault_events.end());
    if (watchdog_fired) all.push_back(watchdog_event);
    std::stable_sort(all.begin(), all.end(),
                     [](const obs::Event& a, const obs::Event& b) {
                       return a.wall_us < b.wall_us;
                     });
    for (const obs::Event& e : all) options.obs.sink->on_event(e);
  }

  result.all_decided = true;
  Value first = kNoValue;
  for (ProcessId pid = 0; pid < n; ++pid) {
    const Value v = result.decisions[pid];
    if (v == kNoValue) {
      if (!result.crashed[pid]) result.all_decided = false;
      continue;
    }
    if (first == kNoValue) first = v;
    if (v != first) result.consistent = false;
  }
  return result;
}

}  // namespace cil::rt
