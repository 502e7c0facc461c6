#include "svc/wire.h"

#include "util/check.h"
#include "util/simd.h"

namespace cil::svc {

namespace {

[[noreturn]] void spec_fail(const std::string& what) {
  throw ContractViolation("bad job spec: " + what);
}

std::int64_t take_int(const obs::Json& doc, const char* key,
                      std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) spec_fail(std::string(key) + " must be a number");
  const double d = v->as_number();
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d)
    spec_fail(std::string(key) + " must be integral");
  if (i < lo || i > hi)
    spec_fail(std::string(key) + " out of range [" + std::to_string(lo) +
              ", " + std::to_string(hi) + "]");
  return i;
}

bool take_bool(const obs::Json& doc, const char* key, bool def) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return def;
  if (!v->is_bool()) spec_fail(std::string(key) + " must be a bool");
  return v->as_bool();
}

std::string take_string(const obs::Json& doc, const char* key,
                        const std::string& def) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return def;
  if (!v->is_string()) spec_fail(std::string(key) + " must be a string");
  return v->as_string();
}

/// Seeds are 64-bit; JSON numbers are doubles. Accept a decimal string
/// (the fabric artifact convention) or an exact small integer.
std::uint64_t take_seed(const obs::Json& doc, const char* key,
                        std::uint64_t def) {
  const obs::Json* v = doc.find(key);
  if (v == nullptr) return def;
  if (v->is_string()) {
    const std::string& s = v->as_string();
    if (s.empty() || s.size() > 20) spec_fail(std::string(key) + " malformed");
    std::uint64_t out = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') spec_fail(std::string(key) + " malformed");
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (out > (UINT64_MAX - digit) / 10)
        spec_fail(std::string(key) + " overflows uint64");
      out = out * 10 + digit;
    }
    return out;
  }
  return static_cast<std::uint64_t>(
      take_int(doc, key, 0, 0, (std::int64_t{1} << 53)));
}

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed)
    if (v == a) return true;
  return false;
}

}  // namespace

JobSpec job_spec_from_json(const obs::Json& doc) {
  if (!doc.is_object()) spec_fail("request must be a JSON object");
  const obs::Json* tag = doc.find("job");
  if (tag == nullptr || !tag->is_string() ||
      tag->as_string() != kJobArtifactName)
    spec_fail(std::string("missing or wrong artifact tag (want \"") +
              kJobArtifactName + "\")");

  JobSpec spec;
  spec.kind = take_string(doc, "kind", "");
  if (!one_of(spec.kind, {"sweep", "hunt", "replay", "ping"}))
    spec_fail("unknown kind '" + spec.kind + "'");
  spec.id = take_string(doc, "id", "");
  if (spec.id.size() > 128) spec_fail("id longer than 128 bytes");
  if (spec.kind == "ping") return spec;

  spec.protocol = take_string(doc, "protocol", spec.protocol);
  if (!one_of(spec.protocol, {"two", "unbounded", "bounded"}))
    spec_fail("unknown protocol '" + spec.protocol + "'");
  spec.n = static_cast<int>(take_int(doc, "n", spec.n, 2, 1024));
  if (spec.protocol == "two") spec.n = 2;
  if (spec.protocol == "bounded") spec.n = 3;
  spec.steps = take_int(doc, "steps", spec.steps, 1, 10'000'000);

  if (spec.kind == "sweep") {
    spec.adversary = take_string(doc, "adversary", spec.adversary);
    if (!one_of(spec.adversary, {"random", "avoid"}))
      spec_fail("unknown adversary '" + spec.adversary + "'");
    spec.first_seed = take_seed(doc, "first_seed", spec.first_seed);
    spec.seeds = take_int(doc, "seeds", spec.seeds, 1, 10'000'000);
    if (spec.first_seed >
        UINT64_MAX - static_cast<std::uint64_t>(spec.seeds - 1))
      spec_fail("seed range [first_seed, first_seed + seeds) runs past 2^64");
    spec.check_every = take_int(doc, "check_every", spec.check_every, 1,
                                1'000'000);
    spec.chunk = take_int(doc, "chunk", spec.chunk, 0, 1'000'000);
    spec.threads = static_cast<int>(take_int(doc, "threads", spec.threads,
                                             1, 16));
    spec.fleet = take_bool(doc, "fleet", spec.fleet);
    return spec;
  }

  if (spec.kind == "hunt") {
    spec.search = take_string(doc, "search", spec.search);
    if (!one_of(spec.search, {"uniform", "anneal", "evo"}))
      spec_fail("unknown search '" + spec.search + "'");
    spec.ablation = take_string(doc, "ablation", spec.ablation);
    if (!one_of(spec.ablation, {"", "warm-recovery", "literal-cond2",
                                "naive-unanimity", "no-guard"}))
      spec_fail("unknown ablation '" + spec.ablation + "'");
    spec.budget = take_int(doc, "budget", spec.budget, 1, 1'000'000);
    spec.search_seed = take_seed(doc, "search_seed", spec.search_seed);
    spec.eval_steps = take_int(doc, "eval_steps", spec.eval_steps, 1,
                               1'000'000);
    spec.horizon = take_int(doc, "horizon", spec.horizon, 1, 65'536);
    spec.recovery = take_bool(doc, "recovery", spec.recovery);
    spec.reg_faults = take_bool(doc, "reg_faults", spec.reg_faults);
    return spec;
  }

  // kind == "replay": the nested artifact is validated in depth by
  // search::artifact_from_json when the job runs; here only its presence
  // and shape are required.
  const obs::Json* plan = doc.find("worst_plan");
  if (plan == nullptr || !plan->is_object())
    spec_fail("replay requires a worst_plan object");
  spec.worst_plan = *plan;
  spec.stream_events = take_bool(doc, "stream_events", spec.stream_events);
  return spec;
}

obs::Json job_spec_to_json(const JobSpec& spec) {
  obs::Json j = obs::Json::object();
  j["job"] = obs::Json(kJobArtifactName);
  j["kind"] = obs::Json(spec.kind);
  if (!spec.id.empty()) j["id"] = obs::Json(spec.id);
  if (spec.kind == "ping") return j;
  j["protocol"] = obs::Json(spec.protocol);
  j["n"] = obs::Json(spec.n);
  j["steps"] = obs::Json(spec.steps);
  if (spec.kind == "sweep") {
    j["adversary"] = obs::Json(spec.adversary);
    j["first_seed"] = obs::Json(std::to_string(spec.first_seed));
    j["seeds"] = obs::Json(spec.seeds);
    j["check_every"] = obs::Json(spec.check_every);
    j["chunk"] = obs::Json(spec.chunk);
    j["threads"] = obs::Json(spec.threads);
    if (spec.fleet) j["fleet"] = obs::Json(true);
  } else if (spec.kind == "hunt") {
    j["search"] = obs::Json(spec.search);
    if (!spec.ablation.empty()) j["ablation"] = obs::Json(spec.ablation);
    j["budget"] = obs::Json(spec.budget);
    j["search_seed"] = obs::Json(std::to_string(spec.search_seed));
    j["eval_steps"] = obs::Json(spec.eval_steps);
    j["horizon"] = obs::Json(spec.horizon);
    j["recovery"] = obs::Json(spec.recovery);
    j["reg_faults"] = obs::Json(spec.reg_faults);
  } else {
    j["stream_events"] = obs::Json(spec.stream_events);
  }
  return j;
}

namespace {

std::string finish_frame(obs::Json frame) { return frame.dump() + "\n"; }

obs::Json base_frame(const char* event, const std::string& id) {
  obs::Json j = obs::Json::object();
  j["event"] = obs::Json(event);
  j["id"] = obs::Json(id);
  return j;
}

}  // namespace

std::string frame_hello() {
  obs::Json j = obs::Json::object();
  j["event"] = obs::Json("hello");
  j["service"] = obs::Json("cilcoord.coordd");
  j["proto"] = obs::Json(kWireVersion);
  // The SIMD width this daemon's lane kernels default to, so clients
  // comparing sweep artifacts across daemons can see a vector-ISA skew in
  // the handshake instead of discovering it in the numbers.
  j["simd_width"] = obs::Json(static_cast<double>(simd::active_width()));
  return finish_frame(std::move(j));
}

std::string frame_accepted(const JobSpec& spec) {
  obs::Json j = base_frame("accepted", spec.id);
  j["job"] = job_spec_to_json(spec);
  return finish_frame(std::move(j));
}

std::string frame_progress(const std::string& id, std::int64_t done,
                           std::int64_t total, std::int64_t decided,
                           std::int64_t total_steps) {
  obs::Json j = base_frame("progress", id);
  j["done"] = obs::Json(done);
  j["total"] = obs::Json(total);
  j["decided"] = obs::Json(decided);
  j["steps"] = obs::Json(total_steps);
  return finish_frame(std::move(j));
}

std::string frame_trace(const std::string& id, const std::string& event_line) {
  // The event line is a complete JSON object already; splice it in rather
  // than reparse it.
  std::string out = "{\"event\":\"trace\",\"id\":\"";
  out += obs::json_escape(id);
  out += "\",\"e\":";
  out += event_line;
  out += "}\n";
  return out;
}

std::string frame_result(const std::string& id, const std::string& key,
                         obs::Json payload) {
  obs::Json j = base_frame("result", id);
  j[key] = std::move(payload);
  return finish_frame(std::move(j));
}

std::string frame_error(const std::string& id, const std::string& what) {
  obs::Json j = base_frame("error", id);
  j["what"] = obs::Json(what);
  return finish_frame(std::move(j));
}

std::string frame_done(const std::string& id) {
  return finish_frame(base_frame("done", id));
}

std::string frame_pong(const std::string& id) {
  return finish_frame(base_frame("pong", id));
}

}  // namespace cil::svc
