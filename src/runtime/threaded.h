// Real-hardware execution of the coordination protocols.
//
// The simulator (src/sched) is the paper-faithful object: it runs protocols
// against the strongest possible adversary. This module runs the *same*
// Process automata on real std::threads with genuinely concurrent shared
// registers, demonstrating the paper's "implementable in existing
// technology" claim (X2 in DESIGN.md):
//
//   * kRawAtomic — each register is one sequentially consistent
//     std::atomic<Word> (release/acquire is not enough: it lets a write be
//     overtaken by the writer's next read of another register);
//   * kConstructed — each register is an AtomicSwmr built from the layered
//     safe→regular→atomic constructions of src/registers, i.e. the full
//     1987 story from flickering bits upward.
//
// Random yields between steps shake out interleavings; decisions are
// checked for consistency after the run.
//
// Fault injection (src/fault) threads through here as well: a FaultPlan in
// ThreadedOptions crashes threads mid-protocol (up to n-1, the paper's
// fail-stop model), parks them for stall windows, and degrades the register
// backend (word-level faults via the FaultyRegisters decorator, cell-level
// faults underneath the constructions). A wall-clock watchdog bounds every
// run: instead of hanging on a wedged thread, run_threaded abandons it and
// returns timed_out=true with whatever the survivors achieved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/events.h"
#include "sched/protocol.h"

namespace cil::rt {

enum class RegisterBackend {
  kRawAtomic,
  kConstructed,
};

struct ThreadedOptions {
  std::uint64_t seed = 1;
  RegisterBackend backend = RegisterBackend::kRawAtomic;
  /// Probability of yielding the CPU after a step (interleaving fuzz).
  double yield_probability = 0.05;
  std::int64_t max_steps_per_proc = 50'000'000;
  /// Wall-clock watchdog (monotonic clock): if the run has not finished
  /// within this budget, stragglers are asked to stop, genuinely wedged
  /// threads are abandoned, and the result carries timed_out=true. Gives
  /// every caller a bounded failure mode instead of a hang; <= 0 disables.
  double watchdog_ms = 30'000.0;
  /// Optional fault schedule (crashes, stalls, register faults). Borrowed;
  /// must outlive the call. See fault/fault_plan.h.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Observability (src/obs): the same ObsOptions that drives the simulator
  /// (SimOptions::obs), producing a schema-identical event stream. Workers
  /// buffer events in thread-local vectors (no locks, no cross-thread
  /// traffic on the hot path) and publish them when they finish; the buffers
  /// are merged by wall time and drained into the sink after the join, so
  /// the sink itself need not be thread-safe. Timestamps are wall_us since
  /// run start; total_step stays 0 (no global serialization exists here).
  /// Events of a thread the watchdog abandoned are lost by design.
  obs::ObsOptions obs;
};

struct ThreadedResult {
  std::vector<Value> decisions;  ///< kNoValue where the step budget ran out
  std::vector<std::int64_t> steps;
  std::vector<bool> crashed;  ///< true where an injected crash fired
  /// (pid, own-step) of every injected crash, in per-thread order — the
  /// reproducibility witness matched against FaultPlanScheduler::crash_log.
  std::vector<fault::CrashEvent> crash_log;
  bool all_decided = false;  ///< every NON-crashed processor decided
  bool consistent = true;
  bool timed_out = false;  ///< the watchdog fired before the run finished
  /// Faults injected this run: crashes + stalls + word-level register
  /// faults + cell-level garbage underneath the constructions.
  std::int64_t faults_injected = 0;
  double wall_ms = 0.0;
};

/// Run every processor of `protocol` on its own thread until all decide
/// (or crash, or the step budget / watchdog runs out).
ThreadedResult run_threaded(const Protocol& protocol,
                            const std::vector<Value>& inputs,
                            const ThreadedOptions& options = {});

/// Shared-register backend interface (used by the mutex as well).
class SharedRegisters {
 public:
  virtual ~SharedRegisters() = default;
  virtual Word read(RegisterId r, ProcessId p) = 0;
  virtual void write(RegisterId r, ProcessId p, Word value) = 0;
};

/// Build a backend for `protocol`'s register file. If `cell_faults` is
/// non-null and the backend is kConstructed, the safe cells underneath the
/// constructions publish garbage while writing (the config must outlive the
/// returned backend); the raw-atomic backend has no cells to degrade.
std::unique_ptr<SharedRegisters> make_shared_registers(
    const Protocol& protocol, RegisterBackend backend, std::uint64_t seed,
    const hw::CellFaultConfig* cell_faults = nullptr);

}  // namespace cil::rt
