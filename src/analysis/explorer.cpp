#include "analysis/explorer.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "sched/branching.h"

namespace cil {

namespace {

/// How configuration `id` was first reached (for witness reconstruction).
struct ParentEdge {
  std::int64_t parent = -1;  ///< -1 for the initial configuration
  ProcessId pid = -1;
  std::vector<bool> coins;
};

/// Consistency/validity check of one configuration. Returns a violation
/// description or the empty string.
std::string check_config(const Configuration& c,
                         const std::vector<Value>& inputs,
                         std::set<Value>& decisions_seen) {
  Value first = kNoValue;
  for (std::size_t p = 0; p < c.procs.size(); ++p) {
    if (!c.procs[p]->decided()) continue;
    const Value v = c.procs[p]->decision();
    decisions_seen.insert(v);
    if (first == kNoValue) first = v;
    if (v != first) {
      std::ostringstream os;
      os << "consistency: decisions " << first << " and " << v
         << " coexist in one configuration";
      return os.str();
    }
    bool is_input = false;
    for (const Value in : inputs) is_input |= (in == v);
    if (!is_input) {
      std::ostringstream os;
      os << "validity: decision " << v << " is no processor's input";
      return os.str();
    }
  }
  return {};
}

std::vector<WitnessStep> backtrack(const std::vector<ParentEdge>& edges,
                                   std::int64_t id) {
  std::vector<WitnessStep> out;
  while (id >= 0 && edges[id].parent >= -1 && edges[id].pid >= 0) {
    out.push_back({edges[id].pid, edges[id].coins});
    id = edges[id].parent;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace

Configuration Configuration::clone() const {
  Configuration c;
  c.regs = regs;
  c.procs.reserve(procs.size());
  for (const auto& p : procs) c.procs.push_back(p->clone());
  return c;
}

std::vector<std::int64_t> Configuration::key() const {
  std::vector<std::int64_t> k;
  k.reserve(regs.size() + procs.size() * 8);
  for (const Word w : regs) k.push_back(static_cast<std::int64_t>(w));
  for (const auto& p : procs) {
    const auto s = p->encode_state();
    k.push_back(static_cast<std::int64_t>(s.size()));  // separator/arity
    k.insert(k.end(), s.begin(), s.end());
  }
  return k;
}

bool Configuration::any_undecided() const {
  for (const auto& p : procs)
    if (!p->decided()) return true;
  return false;
}

Configuration make_initial(const Protocol& protocol,
                           const std::vector<Value>& inputs) {
  CIL_EXPECTS(static_cast<int>(inputs.size()) == protocol.num_processes());
  Configuration c;
  c.regs = protocol.make_registers().snapshot();
  for (ProcessId p = 0; p < protocol.num_processes(); ++p) {
    c.procs.push_back(protocol.make_process(p));
    c.procs[p]->init(inputs[p]);
  }
  return c;
}

ExploreResult explore(const Protocol& protocol,
                      const std::vector<Value>& inputs,
                      const ExploreOptions& options) {
  ExploreResult result;
  RegisterFile scratch = protocol.make_registers();

  std::unordered_map<std::vector<std::int64_t>, std::int64_t,
                     ConfigurationKeyHash>
      visited;
  std::vector<ParentEdge> edges;
  std::deque<std::tuple<Configuration, int, std::int64_t>>
      frontier;  // (config, depth, id)

  Configuration initial = make_initial(protocol, inputs);
  visited.emplace(initial.key(), 0);
  edges.push_back({-1, -1, {}});
  {
    const std::string v = check_config(initial, inputs, result.decisions_seen);
    if (!v.empty()) {
      result.violation = v;
      result.consistent = v.find("consistency") == std::string::npos;
      result.valid = v.find("validity") == std::string::npos;
      return result;
    }
  }
  frontier.emplace_back(std::move(initial), 0, 0);
  result.num_configs = 1;

  bool truncated = false;
  while (!frontier.empty()) {
    auto [config, depth, id] = [&] {
      auto front = std::move(frontier.front());
      frontier.pop_front();
      return front;
    }();
    result.max_depth_reached = std::max(result.max_depth_reached, depth);
    if (options.max_depth >= 0 && depth >= options.max_depth) {
      truncated = true;
      continue;
    }

    for (ProcessId p = 0; p < protocol.num_processes(); ++p) {
      if (config.procs[p]->decided()) continue;  // decided processors quit
      scratch.restore(config.regs);
      for (StepBranch& b : enumerate_step(scratch, *config.procs[p], p)) {
        ++result.num_transitions;
        Configuration next;
        next.regs = std::move(b.regs_after);
        next.procs.reserve(config.procs.size());
        for (std::size_t q = 0; q < config.procs.size(); ++q) {
          next.procs.push_back(static_cast<ProcessId>(q) == p
                                   ? std::move(b.proc_after)
                                   : config.procs[q]->clone());
        }
        auto key = next.key();
        if (visited.contains(key)) continue;

        const std::int64_t next_id =
            static_cast<std::int64_t>(edges.size());
        visited.emplace(std::move(key), next_id);
        edges.push_back({id, p, b.coins});

        const std::string v =
            check_config(next, inputs, result.decisions_seen);
        if (!v.empty()) {
          result.violation = v;
          if (v.find("consistency") != std::string::npos)
            result.consistent = false;
          else
            result.valid = false;
          result.witness = backtrack(edges, next_id);
          return result;
        }

        ++result.num_configs;
        if (result.num_configs >= options.max_configs) {
          truncated = true;
          frontier.clear();
          break;
        }
        frontier.emplace_back(std::move(next), depth + 1, next_id);
      }
      if (truncated && frontier.empty()) break;
    }
  }

  result.complete = !truncated;
  return result;
}

std::string render_witness(const Protocol& protocol,
                           const std::vector<Value>& inputs,
                           const std::vector<WitnessStep>& witness) {
  RegisterFile regs = protocol.make_registers();
  std::vector<std::unique_ptr<Process>> procs;
  for (ProcessId p = 0; p < protocol.num_processes(); ++p) {
    procs.push_back(protocol.make_process(p));
    procs[p]->init(inputs[p]);
  }

  std::ostringstream os;
  const auto snapshot = [&](std::int64_t step, ProcessId actor) {
    os << "#" << step << "\tP" << actor << " | ";
    for (RegisterId r = 0; r < regs.size(); ++r)
      os << protocol.describe_word(r, regs.peek(r)) << " ";
    os << "| ";
    for (const auto& proc : procs) os << proc->debug_string() << " ";
    os << "\n";
  };

  std::int64_t step = 0;
  for (const WitnessStep& w : witness) {
    CIL_EXPECTS(w.pid >= 0 && w.pid < protocol.num_processes());
    ForcedCoinSource coins(w.coins);
    DirectStepContext ctx(regs, w.pid, coins);
    procs[w.pid]->step(ctx);
    CIL_CHECK_MSG(!coins.exhausted(),
                  "witness coins do not match the protocol's flips");
    snapshot(++step, w.pid);
  }
  return os.str();
}

}  // namespace cil
