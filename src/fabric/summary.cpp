#include "fabric/summary.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <system_error>

#include "util/check.h"

namespace cil::fabric {

namespace {

using obs::Json;

constexpr const char* kV1ArtifactName = "cilcoord.batch_summary.v1";

Json tally_to_json(const Tally& t) {
  Json arr = Json::array();
  for (const auto& [value, count] : t.bins()) {
    Json bin = Json::array();
    bin.push_back(Json(value));
    bin.push_back(Json(count));
    arr.push_back(std::move(bin));
  }
  return arr;
}

/// Bins must be [value,count] pairs with strictly increasing values and
/// counts >= 1 summing to `expect` (or, when `may_be_empty`, no bins at all).
Tally tally_from_json(const Json& arr, std::int64_t expect, bool may_be_empty,
                      const char* name) {
  const std::string what = std::string("batch_summary artifact: tally '") +
                           name + "' ";
  Tally out;
  std::int64_t prev = 0;
  for (const Json& bin : arr.as_array()) {
    CIL_CHECK_MSG(bin.is_array() && bin.size() == 2,
                  what + "bin is not a [value,count] pair");
    const std::int64_t value = bin.at(0).as_int();
    const std::int64_t count = bin.at(1).as_int();
    CIL_CHECK_MSG(out.count() == 0 || value > prev,
                  what + "bin values must strictly increase");
    // Checked against the remainder, so the running total cannot overflow.
    CIL_CHECK_MSG(count >= 1 && count <= expect - out.count(),
                  what + "bin count out of range");
    out.add(value, count);
    prev = value;
  }
  CIL_CHECK_MSG(out.count() == expect || (may_be_empty && out.count() == 0),
                what + "counts do not sum to num_runs");
  return out;
}

/// Canonical decimal only — the string must be std::to_string of a uint64
/// (no sign, space or leading zero), so each value has exactly one spelling.
std::uint64_t parse_u64_string(const Json& j, const char* name) {
  const std::string& s = j.as_string();
  std::uint64_t v = 0;
  const auto result = std::from_chars(s.data(), s.data() + s.size(), v);
  CIL_CHECK_MSG(result.ec == std::errc() && std::to_string(v) == s,
                std::string("batch_summary artifact: ") + name +
                    " must be a canonical decimal string within uint64");
  return v;
}

/// A decision key must be std::to_string of an int32 decision value.
Value parse_decision_key(const std::string& key) {
  std::int32_t v = 0;
  const auto result = std::from_chars(key.data(), key.data() + key.size(), v);
  CIL_CHECK_MSG(result.ec == std::errc() && std::to_string(v) == key &&
                    v != kNoValue,
                "batch_summary artifact: decision key '" + key +
                    "' is not a canonical int32 decision value");
  return v;
}

}  // namespace

Json shard_summary_to_json(const ShardSummary& shard) {
  const BatchSummary& s = shard.summary;
  CIL_EXPECTS(s.num_runs == shard.range.num_runs);

  Json doc = Json::object();
  doc["artifact"] = Json(kBatchSummaryArtifactName);
  doc["first_seed"] = Json(std::to_string(shard.range.first_seed));
  doc["num_runs"] = Json(s.num_runs);
  doc["decided_runs"] = Json(s.decided_runs);
  Json decisions = Json::object();
  for (const auto& [value, count] : s.decision_counts)
    decisions[std::to_string(value)] = Json(count);
  doc["decision_counts"] = std::move(decisions);
  doc["total_steps"] = Json(s.total_steps);
  doc["recoveries"] = Json(s.recoveries);
  doc["run_digest"] = Json(std::to_string(s.run_digest));

  Json tallies = Json::object();
  tallies["steps"] = tally_to_json(s.steps);
  tallies["steps_p0"] = tally_to_json(s.steps_p0);
  tallies["steps_p1"] = tally_to_json(s.steps_p1);
  tallies["max_register_bits"] = tally_to_json(s.max_register_bits);
  tallies["probe"] = tally_to_json(s.probe);
  doc["tallies"] = std::move(tallies);

  Json wall = Json::object();
  wall["wall_seconds"] = Json(s.wall_seconds);
  wall["construct_seconds"] = Json(s.construct_seconds);
  wall["run_seconds"] = Json(s.run_seconds);
  doc["wall"] = std::move(wall);
  return doc;
}

ShardSummary shard_summary_from_json(const Json& doc) {
  const Json* tag = doc.find("artifact");
  const bool tagged = tag != nullptr && tag->is_string();
  CIL_CHECK_MSG(!tagged || tag->as_string() != kV1ArtifactName,
                std::string(kV1ArtifactName) +
                    " artifacts (per-seed sample vectors) are no longer "
                    "read; re-run the sweep to write " +
                    kBatchSummaryArtifactName);
  CIL_CHECK_MSG(tagged && tag->as_string() == kBatchSummaryArtifactName,
                std::string("not a ") + kBatchSummaryArtifactName +
                    " artifact");
  ShardSummary out;
  out.range.first_seed = parse_u64_string(doc.at("first_seed"), "first_seed");
  out.range.num_runs = doc.at("num_runs").as_int();
  CIL_CHECK_MSG(out.range.num_runs >= 0,
                "batch_summary artifact: negative num_runs");
  CIL_CHECK_MSG(out.range.num_runs == 0 ||
                    static_cast<std::uint64_t>(out.range.num_runs - 1) <=
                        ~std::uint64_t{0} - out.range.first_seed,
                "batch_summary artifact: seed range runs past 2^64");

  BatchSummary& s = out.summary;
  s.num_runs = out.range.num_runs;
  s.decided_runs = doc.at("decided_runs").as_int();
  CIL_CHECK_MSG(s.decided_runs >= 0 && s.decided_runs <= s.num_runs,
                "batch_summary artifact: decided_runs out of range");
  std::int64_t decisions = 0;
  for (const auto& [key, count] : doc.at("decision_counts").as_object()) {
    const std::int64_t n = count.as_int();
    CIL_CHECK_MSG(n >= 1 && n <= s.num_runs - decisions,
                  "batch_summary artifact: decision count out of range");
    decisions += n;
    s.decision_counts[parse_decision_key(key)] = n;
  }
  s.total_steps = doc.at("total_steps").as_int();
  s.recoveries = doc.at("recoveries").as_int();
  s.run_digest = parse_u64_string(doc.at("run_digest"), "run_digest");

  const Json& tallies = doc.at("tallies");
  s.steps = tally_from_json(tallies.at("steps"), s.num_runs, false, "steps");
  s.steps_p0 =
      tally_from_json(tallies.at("steps_p0"), s.num_runs, false, "steps_p0");
  s.steps_p1 =
      tally_from_json(tallies.at("steps_p1"), s.num_runs, false, "steps_p1");
  s.max_register_bits = tally_from_json(tallies.at("max_register_bits"),
                                        s.num_runs, false, "max_register_bits");
  s.probe = tally_from_json(tallies.at("probe"), s.num_runs, true, "probe");
  CIL_CHECK_MSG(s.steps.sum() == s.total_steps,
                "batch_summary artifact: total_steps disagrees with the "
                "steps tally");

  const Json& wall = doc.at("wall");
  s.wall_seconds = wall.at("wall_seconds").as_number();
  s.construct_seconds = wall.at("construct_seconds").as_number();
  s.run_seconds = wall.at("run_seconds").as_number();
  return out;
}

bool deterministic_fields_equal(const BatchSummary& a, const BatchSummary& b) {
  return a.num_runs == b.num_runs && a.decided_runs == b.decided_runs &&
         a.decision_counts == b.decision_counts &&
         a.total_steps == b.total_steps && a.recoveries == b.recoveries &&
         a.steps == b.steps && a.steps_p0 == b.steps_p0 &&
         a.steps_p1 == b.steps_p1 &&
         a.max_register_bits == b.max_register_bits && a.probe == b.probe &&
         a.run_digest == b.run_digest;
}

void SweepSummary::check_disjoint(const SeedRange& range) const {
  if (range.num_runs == 0 || shards_.empty()) return;
  const std::uint64_t last =
      range.first_seed + static_cast<std::uint64_t>(range.num_runs) - 1;
  // The only candidates for overlap are the nearest shards on either side.
  auto next = shards_.lower_bound(range.first_seed);
  if (next != shards_.end()) {
    CIL_CHECK_MSG(next->first > last,
                  "SweepSummary: shard seed ranges overlap");
  }
  if (next != shards_.begin()) {
    const auto& prev = *std::prev(next);
    const std::uint64_t prev_last =
        prev.first + static_cast<std::uint64_t>(prev.second.range.num_runs) - 1;
    CIL_CHECK_MSG(prev_last < range.first_seed,
                  "SweepSummary: shard seed ranges overlap");
  }
}

void SweepSummary::add(const ShardSummary& shard) {
  CIL_CHECK_MSG(shard.summary.num_runs == shard.range.num_runs,
                "SweepSummary: shard summary disagrees with its seed range");
  if (shard.range.num_runs == 0) return;  // identity contribution
  check_disjoint(shard.range);
  shards_.emplace(shard.range.first_seed, shard);
}

void SweepSummary::add(const SweepSummary& other) {
  for (const auto& [first_seed, shard] : other.shards_) {
    (void)first_seed;
    add(shard);
  }
}

std::int64_t SweepSummary::num_runs() const {
  std::int64_t n = 0;
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    n += shard.range.num_runs;
  }
  return n;
}

std::vector<SeedRange> SweepSummary::ranges() const {
  std::vector<SeedRange> out;
  out.reserve(shards_.size());
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    out.push_back(shard.range);
  }
  return out;
}

bool SweepSummary::contiguous() const {
  std::uint64_t expect = 0;
  bool first = true;
  for (const auto& [first_seed, shard] : shards_) {
    if (!first && first_seed != expect) return false;
    first = false;
    expect = first_seed + static_cast<std::uint64_t>(shard.range.num_runs);
  }
  return true;
}

SeedRange SweepSummary::span() const {
  CIL_CHECK_MSG(!shards_.empty(), "SweepSummary: span() of an empty sweep");
  return {shards_.begin()->first, num_runs()};
}

BatchSummary SweepSummary::to_batch_summary() const {
  CIL_CHECK_MSG(contiguous(),
                "SweepSummary: refusing to merge across a seed gap; "
                "use to_partial_batch_summary() and report the gaps");
  return to_partial_batch_summary();
}

ShardSummary SweepSummary::to_shard() const {
  return {span(), to_batch_summary()};
}

BatchSummary SweepSummary::to_partial_batch_summary() const {
  BatchSummary out;
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    out.merge(shard.summary);
  }
  return out;
}

SweepSummary merge(const SweepSummary& a, const SweepSummary& b) {
  SweepSummary out = a;
  out.add(b);
  return out;
}

}  // namespace cil::fabric
