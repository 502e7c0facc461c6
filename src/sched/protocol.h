// A coordination protocol (paper §2): n transition functions plus the shared
// registers they communicate through. Concrete protocols live in src/core.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "registers/register_file.h"
#include "sched/process.h"

namespace cil {

/// What survives a crash-recovery (fault model extension, PR 3): the
/// processor's identity and input, plus the *persistent* shared registers
/// it owns — volatile automaton state is gone. Protocol::recover builds the
/// restarted process from exactly this.
struct RecoveryContext {
  ProcessId pid = 0;
  Value input = kNoValue;  ///< the original input value supplied to init()
  /// The registers this pid is a declared writer of (its persistent state),
  /// as parallel id/value vectors in registers() order.
  std::vector<RegisterId> own_registers;
  std::vector<Word> own_values;
  std::int64_t steps_taken = 0;   ///< own steps completed before the crash
  std::int64_t steps_missed = 0;  ///< global steps elapsed while down
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string name() const = 0;
  virtual int num_processes() const = 0;

  /// The shared registers of the system, with reader/writer sets and
  /// declared bit widths (RegisterFile enforces both).
  virtual std::vector<RegisterSpec> registers() const = 0;

  /// Create processor `pid` in its initial state (input not yet supplied).
  virtual std::unique_ptr<Process> make_process(ProcessId pid) const = 0;

  /// Return `proc` — an object this protocol created via make_process(pid)
  /// — to its freshly-constructed state (input not yet supplied), reusing
  /// its allocations. Returns false when the protocol does not support
  /// in-place re-init; the caller (Simulation::reset) then falls back to
  /// make_process, so protocols work unchanged without an override. The
  /// core protocols override this to make pooled sweeps allocation-free.
  virtual bool reset_process(Process& proc, ProcessId pid) const {
    (void)proc;
    (void)pid;
    return false;
  }

  /// Render a register word for humans (tracing/debugging). Protocols
  /// override this to decode their packed fields; the default prints the
  /// raw value.
  virtual std::string describe_word(RegisterId r, Word w) const {
    (void)r;
    return std::to_string(w);
  }

  /// Restart a crashed processor from its persistent registers. The default
  /// is a cold restart — a fresh automaton re-initialized with the original
  /// input, ignoring the persisted words. A cold restart forgets adopted
  /// preferences and resets any monotone counters the processor had
  /// published, so protocols whose safety argument leans on their own
  /// registers (all three core ones) override this with a *conservative
  /// re-read*: resume from what the persistent registers still say, which
  /// keeps the recovered state a legal automaton state and carries the
  /// paper's consistency proofs over unchanged. Called by
  /// Simulation::recover.
  virtual std::unique_ptr<Process> recover(const RecoveryContext& ctx) const {
    auto p = make_process(ctx.pid);
    p->init(ctx.input);
    return p;
  }

  /// True iff this protocol is the default-mode Figure 1 two-processor
  /// automaton that the lane engine's lockstep kernel reimplements
  /// (sched/lane_engine.cpp): ⊥ = 0 / value v = v+1 register codec,
  /// write-input → read-decide → coin-write program. Protocols answering
  /// true promise bit-identical semantics to that kernel; everything else
  /// takes the engine's scalar fallback. A virtual (rather than a
  /// dynamic_cast in the engine) because src/core links against src/sched,
  /// not the other way around.
  virtual bool lane_soa_two_process() const { return false; }

  /// True iff this protocol's recover() is the conservative re-read the
  /// lane engine's lockstep kernel implements for lane_soa_two_process()
  /// protocols: decode the persisted own-register word; ⊥ means a cold
  /// restart (the initial write never landed), anything else resumes at
  /// the read step with the decoded preference. Protocols with modified
  /// recovery semantics (e.g. the planted warm-recovery ablation) answer
  /// false, which diverts their fault-plan lanes to the scalar path.
  virtual bool lane_soa_conservative_recovery() const {
    return lane_soa_two_process();
  }

  /// Convenience: build the register file from registers(). The validated
  /// spec table (permission bitmasks, width masks) is built once per
  /// protocol instance and shared by every file returned afterwards, so a
  /// bench or search sweep creating millions of short-lived simulations
  /// never re-parses the specs. registers() must be stable over the
  /// protocol's lifetime (it always has been — options are fixed at
  /// construction). Not thread-safe against concurrent first calls; build
  /// the first file before fanning out, as all callers already do.
  RegisterFile make_registers() const {
    return RegisterFile(shared_spec_table());
  }

  /// The shared static description behind make_registers, for callers that
  /// validate register access without a RegisterFile (the lane engine's
  /// setup-time permission and width checks). Same lazy build, same
  /// thread-safety caveat.
  std::shared_ptr<const RegisterSpecTable> shared_spec_table() const {
    if (spec_table_ == nullptr)
      spec_table_ = std::make_shared<const RegisterSpecTable>(registers());
    return spec_table_;
  }

 private:
  mutable std::shared_ptr<const RegisterSpecTable> spec_table_;
};

}  // namespace cil
