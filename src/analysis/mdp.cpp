#include "analysis/mdp.h"

#include <cmath>
#include <deque>
#include <unordered_map>

#include "analysis/explorer.h"
#include "sched/branching.h"

namespace cil {

namespace {

struct Choice {
  ProcessId pid = -1;                                 // who this choice steps
  bool tracked_step = false;                          // the tracked proc moves
  std::vector<std::pair<double, std::int64_t>> next;  // (prob, state index)
};

struct State {
  std::vector<Choice> choices;  // empty == absorbing (tracked decided)
};

/// Enumerate the configuration space reachable from the initial one,
/// recording per-state adversary choices and coin-branch distributions.
/// Absorbing states are those where `tracked` has decided; pass tracked ==
/// -1 to absorb only when EVERY processor has decided (total-steps MDPs —
/// such states have no choices and are absorbing automatically).
std::vector<State> build_states(const Protocol& protocol,
                                const std::vector<Value>& inputs,
                                ProcessId tracked, const MdpOptions& options,
                                std::int64_t* num_transitions,
                                std::vector<std::vector<std::int64_t>>* keys =
                                    nullptr) {
  RegisterFile scratch = protocol.make_registers();

  std::unordered_map<std::vector<std::int64_t>, std::int64_t,
                     ConfigurationKeyHash>
      index;
  std::vector<State> states;
  std::deque<Configuration> frontier;

  const auto intern = [&](Configuration c) -> std::int64_t {
    auto key = c.key();
    if (const auto it = index.find(key); it != index.end()) return it->second;
    const std::int64_t id = static_cast<std::int64_t>(states.size());
    if (keys != nullptr) keys->push_back(key);
    index.emplace(std::move(key), id);
    states.emplace_back();
    frontier.push_back(std::move(c));
    return id;
  };

  intern(make_initial(protocol, inputs));

  // Breadth-first expansion; frontier order matches state ids. NOTE:
  // `states` may grow (and relocate) during intern(), so the current state
  // is addressed by index, never by reference.
  std::int64_t populated = 0;
  while (!frontier.empty()) {
    Configuration cur = std::move(frontier.front());
    frontier.pop_front();
    const std::int64_t self = populated++;

    CIL_CHECK_MSG(static_cast<std::int64_t>(states.size()) <=
                      options.max_states,
                  "MDP state space exceeds max_states");

    if (tracked >= 0 && cur.procs[tracked]->decided()) continue;  // absorbing

    for (ProcessId p = 0; p < protocol.num_processes(); ++p) {
      if (cur.procs[p]->decided()) continue;
      scratch.restore(cur.regs);
      Choice choice;
      choice.pid = p;
      choice.tracked_step = (tracked < 0) || (p == tracked);
      for (StepBranch& b : enumerate_step(scratch, *cur.procs[p], p)) {
        Configuration next;
        next.regs = std::move(b.regs_after);
        for (std::size_t q = 0; q < cur.procs.size(); ++q) {
          next.procs.push_back(static_cast<ProcessId>(q) == p
                                   ? std::move(b.proc_after)
                                   : cur.procs[q]->clone());
        }
        choice.next.emplace_back(b.probability, intern(std::move(next)));
        if (num_transitions != nullptr) ++(*num_transitions);
      }
      states[self].choices.push_back(std::move(choice));
    }
  }
  return states;
}

/// Gauss-Seidel value iteration from V = 0 (least fixed point) for the
/// tracked-steps cost model; returns the value vector.
std::vector<double> solve_tracked(const std::vector<State>& states,
                                  const MdpOptions& options, int* iterations,
                                  bool* converged) {
  std::vector<double> value(states.size(), 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (std::size_t s = 0; s < states.size(); ++s) {
      if (states[s].choices.empty()) continue;
      double best = 0.0;
      bool first = true;
      for (const Choice& c : states[s].choices) {
        double v = c.tracked_step ? 1.0 : 0.0;
        for (const auto& [prob, next] : c.next) v += prob * value[next];
        if (first || v > best) {
          best = v;
          first = false;
        }
      }
      delta = std::max(delta, std::abs(best - value[s]));
      value[s] = best;
    }
    if (iterations != nullptr) *iterations = iter + 1;
    if (delta < options.tolerance) {
      if (converged != nullptr) *converged = true;
      break;
    }
  }
  return value;
}

}  // namespace

OptimalAdversary::OptimalAdversary(const Protocol& protocol,
                                   const std::vector<Value>& inputs,
                                   ProcessId tracked,
                                   const MdpOptions& options) {
  std::vector<std::vector<std::int64_t>> keys;
  const std::vector<State> states =
      build_states(protocol, inputs, tracked, options, nullptr, &keys);
  CIL_CHECK(keys.size() == states.size());
  const std::vector<double> value =
      solve_tracked(states, options, nullptr, nullptr);
  expected_steps_ = value.empty() ? 0.0 : value[0];

  for (std::size_t s = 0; s < states.size(); ++s) {
    if (states[s].choices.empty()) continue;
    double best = 0.0;
    ProcessId best_pid = -1;
    for (const Choice& c : states[s].choices) {
      double v = c.tracked_step ? 1.0 : 0.0;
      for (const auto& [prob, next] : c.next) v += prob * value[next];
      if (best_pid < 0 || v > best) {
        best = v;
        best_pid = c.pid;
      }
    }
    policy_.emplace(keys[s], best_pid);
  }
}

ProcessId OptimalAdversary::pick(const SystemView& view) {
  // Reconstruct the configuration key exactly as the explorer does.
  Configuration c;
  c.regs = view.regs().snapshot();
  for (ProcessId p = 0; p < view.num_processes(); ++p)
    c.procs.push_back(view.process(p).clone());
  const auto it = policy_.find(c.key());
  if (it != policy_.end() && view.active(it->second)) return it->second;
  // Off-policy states (e.g. the tracked processor already decided): any
  // active pick keeps the run legal.
  for (ProcessId p = 0; p < view.num_processes(); ++p)
    if (view.active(p)) return p;
  throw ContractViolation("OptimalAdversary: no active process");
}

MdpResult worst_case_expected_steps(const Protocol& protocol,
                                    const std::vector<Value>& inputs,
                                    ProcessId tracked,
                                    const MdpOptions& options) {
  MdpResult result;
  const std::vector<State> states =
      build_states(protocol, inputs, tracked, options, &result.num_transitions);
  result.num_states = static_cast<std::int64_t>(states.size());
  const std::vector<double> value =
      solve_tracked(states, options, &result.iterations, &result.converged);
  result.expected_steps = value.empty() ? 0.0 : value[0];
  return result;
}

MdpResult worst_case_expected_total_steps(const Protocol& protocol,
                                          const std::vector<Value>& inputs,
                                          const MdpOptions& options) {
  // tracked == -1: every step costs 1; absorbing once everyone decided.
  return worst_case_expected_steps(protocol, inputs, /*tracked=*/-1, options);
}

std::vector<double> worst_case_tail(const Protocol& protocol,
                                    const std::vector<Value>& inputs,
                                    ProcessId tracked, int k_max,
                                    const MdpOptions& options) {
  CIL_EXPECTS(k_max >= 0);
  const std::vector<State> states =
      build_states(protocol, inputs, tracked, options, nullptr);

  // W_k(s): sup over adversaries of P[tracked still undecided after taking
  // k more steps from s]. W_0(s) = 1 on non-absorbing states. Recurrence:
  //   W_k(s) = max over choices c of
  //              E[ W_{k-1}(s') ]  if c steps the tracked processor,
  //              E[ W_k    (s') ]  otherwise,
  // where the second case makes each horizon self-referential: the
  // adversary may interpose any finite number of other-processor steps.
  // Iterating from W_k := (best tracked choice only) upward converges to
  // the least fixed point, which is the supremum over finite-interposition
  // strategies (an adversary that never schedules the tracked processor
  // again never completes the k-th step and does not count).
  std::vector<double> prev(states.size());
  for (std::size_t s = 0; s < states.size(); ++s)
    prev[s] = states[s].choices.empty() ? 0.0 : 1.0;  // W_0

  std::vector<double> tail;
  tail.reserve(static_cast<std::size_t>(k_max) + 1);
  tail.push_back(prev[0]);

  std::vector<double> cur(states.size(), 0.0);
  for (int k = 1; k <= k_max; ++k) {
    // Initialize with tracked-step choices only (others to 0), then iterate
    // the full max to the least fixed point.
    for (std::size_t s = 0; s < states.size(); ++s) {
      double best = 0.0;
      for (const Choice& c : states[s].choices) {
        if (!c.tracked_step) continue;
        double v = 0.0;
        for (const auto& [prob, next] : c.next) v += prob * prev[next];
        best = std::max(best, v);
      }
      cur[s] = best;
    }
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      double delta = 0.0;
      for (std::size_t s = 0; s < states.size(); ++s) {
        if (states[s].choices.empty()) continue;
        double best = cur[s];
        for (const Choice& c : states[s].choices) {
          double v = 0.0;
          const std::vector<double>& source = c.tracked_step ? prev : cur;
          for (const auto& [prob, next] : c.next) v += prob * source[next];
          best = std::max(best, v);
        }
        delta = std::max(delta, best - cur[s]);
        cur[s] = best;
      }
      if (delta < options.tolerance) break;
    }
    tail.push_back(cur[0]);
    prev = cur;
  }
  return tail;
}

}  // namespace cil
