// Exhaustive configuration-space exploration ("proofs as programs", part 1).
//
// A configuration is register contents + every processor's internal state
// (paper §2). For protocols with finite state spaces, the explorer visits
// every configuration reachable under EVERY scheduler choice and EVERY coin
// outcome, and checks the coordination properties on all of them:
//
//   * consistency — no reachable configuration contains two processors
//     decided on different values (this is Theorem 6 / Theorem 8, verified
//     exhaustively rather than sampled);
//   * validity — every decision value that appears anywhere is some
//     processor's input (a slightly weaker, configuration-local form of the
//     paper's nontriviality, which quantifies over activated processors).
//
// The explorer is also the substrate for the valence analysis (valence.h)
// that executes the Theorem 4 impossibility argument.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sched/protocol.h"

namespace cil {

/// A materialized configuration: register snapshot + cloned processes.
struct Configuration {
  std::vector<Word> regs;
  std::vector<std::unique_ptr<Process>> procs;

  Configuration clone() const;
  /// Canonical encoding (hash key): registers then each process state.
  std::vector<std::int64_t> key() const;
  bool any_undecided() const;
};

/// FNV-1a over the words of a Configuration::key(), for hashed maps keyed
/// by configuration (the explorer's visited set, the MDP's state index).
struct ConfigurationKeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::int64_t x : key) {
      h ^= static_cast<std::uint64_t>(x);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Build the initial configuration of `protocol` with the given inputs.
Configuration make_initial(const Protocol& protocol,
                           const std::vector<Value>& inputs);

struct ExploreOptions {
  std::int64_t max_configs = 2'000'000;
  /// Stop expanding configurations deeper than this (-1 = no limit). With a
  /// depth limit the search is a bounded model check; without one it runs to
  /// closure (only possible for finite-state protocols).
  int max_depth = -1;
};

/// One step of a witness execution: which processor moved and the coin
/// outcomes its step consumed.
struct WitnessStep {
  ProcessId pid = -1;
  std::vector<bool> coins;
};

struct ExploreResult {
  std::int64_t num_configs = 0;
  std::int64_t num_transitions = 0;
  bool complete = false;  ///< closure reached within the limits
  bool consistent = true;
  bool valid = true;
  std::set<Value> decisions_seen;
  std::string violation;  ///< description of the first violation, if any
  /// When a violation was found: the exact execution (schedule + coins)
  /// from the initial configuration to the violating one. Replay it with
  /// render_witness().
  std::vector<WitnessStep> witness;
  int max_depth_reached = 0;
};

/// Explore every configuration reachable from the initial one under all
/// scheduler choices and coin outcomes.
ExploreResult explore(const Protocol& protocol,
                      const std::vector<Value>& inputs,
                      const ExploreOptions& options = {});

/// Re-execute a witness (from ExploreResult::witness) deterministically and
/// render every intermediate configuration with the protocol's register
/// formatter — the postmortem artifact for a model-checker finding.
std::string render_witness(const Protocol& protocol,
                           const std::vector<Value>& inputs,
                           const std::vector<WitnessStep>& witness);

}  // namespace cil
