// The two-processor randomized coordination protocol (paper §4, Figure 1).
//
//   (0) write r_own <- input
//   repeat
//     (1) read v <- r_other
//         if v = r_own or v = ⊥ then decide r_own and quit
//     (2) else flip an unbiased coin:
//         Heads: rewrite r_own <- r_own   Tails: write r_own <- v
//   until decided
//
// Registers are single-writer single-reader: P_i writes r_i, P_{1-i} reads
// it. Each register holds one preference or ⊥ (2 bits for binary values).
// The paper proves: consistency (Theorem 6), randomized termination against
// an adaptive adversary with tail (1/4)^{k/2} (Theorem 7) and expected <= 10
// steps per processor (Corollary).
#pragma once

#include <memory>

#include "sched/protocol.h"

namespace cil {

class TwoProcessProtocol final : public Protocol {
 public:
  struct Options {
    /// Realize the paper's "requires only one bit shared register per
    /// processor" literally: registers start out holding the processors'
    /// INPUTS (a mild generalization of §2's all-⊥ initial configuration),
    /// the initial write disappears, ⊥ never occurs, and each register is
    /// exactly one bit for binary values. The ⊥-decide arm of Figure 1 is
    /// then dead code; consistency is Theorem 6's argument verbatim.
    bool preinitialized_registers = false;

    /// PLANTED BUG (ablation, off by default; tools/hunt
    /// --ablation=warm-recovery). Models a warm-restart shortcut seen in
    /// real session-cache designs: a processor that restarts within
    /// `warm_lease_steps` global steps of its crash trusts its startup
    /// checkpoint instead of re-reading its persistent register — and when
    /// the two disagree (it had adopted the peer's preference before
    /// crashing) it decides the stale checkpointed input outright. The
    /// Triggering it needs a conjunction uniform chaos almost never deals:
    /// the crash must land after the processor adopted the peer's value but
    /// before it decided, AND the plan's recovery delay must itself be
    /// <= warm_lease_steps (the engine idles the clock while everyone
    /// waits, so steps_missed honestly reflects the planned outage). The
    /// adversarial searcher finds it quickly; see tests/search_test.cpp.
    bool buggy_warm_recovery = false;
    std::int64_t warm_lease_steps = 8;
  };

  /// `max_value` bounds the inputs (the register width is declared from it;
  /// the protocol itself works verbatim for any value domain — with two
  /// processors only two values can ever be in play).
  explicit TwoProcessProtocol(Value max_value = 1);
  TwoProcessProtocol(Value max_value, Options options);

  std::string name() const override { return "two-process (Fig 1)"; }
  int num_processes() const override { return 2; }
  std::vector<RegisterSpec> registers() const override;
  std::unique_ptr<Process> make_process(ProcessId pid) const override;
  /// Allocation-free in-place re-init for pooled sweeps.
  bool reset_process(Process& proc, ProcessId pid) const override;
  /// Conservative re-read recovery: resume from what r_own still publishes
  /// (the persisted preference IS the automaton's live state component), at
  /// the top of the read loop — a legal Figure 1 state, so Theorem 6's
  /// consistency argument carries over. A processor that never completed
  /// its initial write restarts cold. With Options::buggy_warm_recovery,
  /// deliberately broken (see Options).
  std::unique_ptr<Process> recover(const RecoveryContext& ctx) const override;
  std::string describe_word(RegisterId, Word w) const override {
    if (options_.preinitialized_registers) return std::to_string(w);
    const Value v = decode(w);
    return v == kNoValue ? "⊥" : std::to_string(v);
  }

  /// Default-mode register encoding: ⊥ = 0, value v = v + 1. Exposed for
  /// the adversaries and the analysis module. (Preinitialized mode stores
  /// raw values; see Options.)
  static Word encode(Value v) {
    return v == kNoValue ? 0 : static_cast<Word>(v) + 1;
  }
  static Value decode(Word w) {
    return w == 0 ? kNoValue : static_cast<Value>(w - 1);
  }

  /// Default mode is exactly the automaton the lane engine's lockstep
  /// kernel implements; preinitialized mode changes the codec and the
  /// initial pc, so it diverges to the scalar path.
  bool lane_soa_two_process() const override {
    return !options_.preinitialized_registers;
  }
  /// The planted warm-recovery bug replaces the conservative re-read, so
  /// fault-plan lanes must take the scalar path to reproduce it.
  bool lane_soa_conservative_recovery() const override {
    return lane_soa_two_process() && !options_.buggy_warm_recovery;
  }

  Value max_value() const { return max_value_; }
  const Options& options() const { return options_; }

  /// Preinitialized mode needs the inputs before the register file exists;
  /// the Simulation cannot provide that, so the caller declares them here
  /// (they must match the inputs later passed to the Simulation).
  void preset_inputs(Value p0, Value p1);

 private:
  Value max_value_;
  Options options_;
  Value preset_[2] = {kNoValue, kNoValue};
};

}  // namespace cil
