// Serialized, mergeable sweep summaries — the data plane of the fabric.
//
// A distributed sweep is a set of worker processes, each running one
// contiguous SeedRange shard through BatchRunner and persisting its
// BatchSummary as a versioned JSON artifact (cilcoord.batch_summary.v2).
// Shards combine through SweepSummary, a map keyed by each shard's
// first_seed that checks the seed ranges are pairwise disjoint and folds
// the summaries with BatchSummary::merge — the same monoid BatchRunner's
// threads use. Every deterministic field is a commutative sum (counts,
// exact integer tallies, the seed-keyed run digest), so any merge tree over
// any arrival order yields the same summary, and a complete contiguous
// merge is bit-identical to a single-process sweep over the whole range
// (pinned by fabric_test against random partitions).
//
// What "bit-identical" covers: every field of BatchSummary except the
// wall-clock block (wall_seconds / construct_seconds / run_seconds) and
// simd_width, which are measurement, outside the determinism contract — see
// deterministic_fields_equal().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sched/batch.h"

namespace cil::fabric {

/// Artifact tag for one serialized shard (or merged sweep) summary.
inline constexpr const char* kBatchSummaryArtifactName =
    "cilcoord.batch_summary.v2";

/// One shard's result: which seeds it covered and what came out. The range
/// is carried redundantly with summary.num_runs so a parsed artifact can be
/// validated (num_runs must equal range.num_runs and every tally's count).
struct ShardSummary {
  SeedRange range;
  BatchSummary summary;
};

/// Serialize one shard summary as a cilcoord.batch_summary.v2 document:
///
///   {"artifact":"cilcoord.batch_summary.v2", "first_seed":"<u64>",
///    "num_runs":N, "decided_runs":D, "decision_counts":{"<value>":n,...},
///    "total_steps":T, "recoveries":R, "run_digest":"<u64>",
///    "tallies":{"steps":[[v,n],...], "steps_p0":[...], "steps_p1":[...],
///               "max_register_bits":[...], "probe":[...]},
///    "wall":{"wall_seconds":..,"construct_seconds":..,"run_seconds":..}}
///
/// Each tally is its ascending [value,count] bins, so the document's size
/// grows with the distinct values, not with the runs. Seeds and the digest
/// are 64-bit and JSON numbers are doubles, so they travel as decimal
/// strings (same convention as search artifacts' sched_seed); tally values
/// round-trip exactly within ±2^53.
obs::Json shard_summary_to_json(const ShardSummary& shard);

/// Parse and validate a cilcoord.batch_summary.v2 document. Built for bytes
/// from outside (peer result frames, checkpoint files): ContractViolation
/// is the only exception it throws. It rejects a wrong tag (a v1 document
/// with a message naming v1 — no v1 reader is kept), missing or mistyped
/// fields, non-canonical first_seed / run_digest strings or decision keys
/// (each value has exactly one spelling: std::to_string of a uint64, or of
/// an int32 decision), tally bins whose values do not strictly increase or
/// whose counts are below 1 or do not sum to num_runs (probe: 0 or
/// num_runs), and a total_steps that disagrees with the steps tally.
ShardSummary shard_summary_from_json(const obs::Json& doc);

/// True when every deterministic field of the two summaries matches exactly:
/// counts, decision histogram, all five tallies, and run_digest. The
/// wall-clock block and simd_width are ignored — they are honest
/// measurement, not part of the contract.
bool deterministic_fields_equal(const BatchSummary& a, const BatchSummary& b);

/// An order-insensitive accumulation of disjoint shard summaries. The merge
/// monoid of the fabric: empty() is the identity, add() is the operation,
/// and the internal map makes (A ∪ B) ∪ C == A ∪ (B ∪ C) structural rather
/// than something to prove per-field. The summaries are folded in seed
/// order with BatchSummary::merge, so even the summed wall-clock doubles
/// come out the same for every arrival order.
class SweepSummary {
 public:
  /// Fold one shard in. Throws ContractViolation if the shard's seed range
  /// overlaps any shard already held, or if the summary disagrees with the
  /// range on num_runs.
  void add(const ShardSummary& shard);

  /// Fold another accumulation in (same overlap rules, shard by shard).
  void add(const SweepSummary& other);

  bool empty() const { return shards_.empty(); }
  std::int64_t num_runs() const;
  std::size_t num_shards() const { return shards_.size(); }

  /// The held shard ranges, in seed order.
  std::vector<SeedRange> ranges() const;

  /// True when the held shards tile one gap-free contiguous seed range.
  bool contiguous() const;

  /// The covering range [lowest first_seed, highest last seed]. Only
  /// meaningful when contiguous(); throws ContractViolation when empty.
  SeedRange span() const;

  /// Merge the shards, in seed order, into one BatchSummary — bit-identical
  /// to a single-process run when the shards are contiguous and complete.
  /// Wall-clock fields are summed across shards. Throws ContractViolation
  /// when the shards are not contiguous (a partial sweep must be reported
  /// as partial, not silently merged across a gap).
  BatchSummary to_batch_summary() const;

  /// Like to_batch_summary(), but for graceful degradation: merges
  /// whatever shards are present, gaps and all. Callers must report the
  /// missing ranges alongside (tools/sweep prints incomplete_shards).
  BatchSummary to_partial_batch_summary() const;

  /// {span(), to_batch_summary()} as one ShardSummary — the whole-sweep
  /// document a complete accumulation denotes, ready for
  /// shard_summary_to_json. This is what tools/sweep verifies against and
  /// what the coordination service streams back to a client at job end.
  /// Same preconditions as span()/to_batch_summary(): non-empty and
  /// contiguous.
  ShardSummary to_shard() const;

 private:
  void check_disjoint(const SeedRange& range) const;

  std::map<std::uint64_t, ShardSummary> shards_;  ///< keyed by first_seed
};

/// Convenience free function: the monoid operation on two accumulations.
SweepSummary merge(const SweepSummary& a, const SweepSummary& b);

}  // namespace cil::fabric
