// Crash-safe sweep checkpointing: per-shard summary files plus a manifest.
//
// Layout under the checkpoint directory:
//
//   manifest.json       cilcoord.sweep_manifest.v1 — the sweep's config (a
//                       SweepConfig, fabric/sweep.h) and the sorted list of
//                       committed shard indexes
//   shard_<i>.json      cilcoord.batch_summary.v2 for shard i
//
// The write protocol is two-phase and idempotent:
//
//   1. The WORKER (child process) writes shard_<i>.json atomically
//      (write_text_file_atomic: same-dir tmp + fsync + rename), so a
//      SIGKILL at any instant leaves either no shard file or a complete
//      valid one — never a torn file.
//   2. The SUPERVISOR (parent), after reaping a successful worker,
//      validates the shard file and commits it by atomically rewriting the
//      manifest with the shard index appended.
//
// Resume is therefore free: open() re-reads the manifest, verifies the
// stored config matches the requested sweep (a checkpoint directory from a
// DIFFERENT sweep must never be silently reused — that throws), and adopts
// any valid orphaned shard files written by workers that died between
// phases 1 and 2. Shard summaries are deterministic, so an orphan from a
// killed attempt is byte-for-byte what a retry would recompute.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/summary.h"
#include "fabric/sweep.h"
#include "obs/json.h"
#include "sched/batch.h"

namespace cil::fabric {

/// Artifact tag of the manifest document.
inline constexpr const char* kManifestArtifactName =
    "cilcoord.sweep_manifest.v1";

class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  /// Create the directory (and parents) if needed and load or create the
  /// manifest. Returns the sorted indexes of already-committed shards
  /// (empty on a fresh start). Orphaned shard files — present and valid on
  /// disk but not yet in the manifest — are committed during open, since
  /// atomic writes guarantee they are complete and determinism guarantees
  /// they equal what a retry would produce. Throws ContractViolation if the
  /// directory holds a manifest for a different SweepConfig.
  std::vector<int> open(const SweepConfig& config);

  /// Worker side (phase 1): atomically persist shard `index`'s summary.
  /// Does NOT touch the manifest; safe to call from a forked child. The
  /// shard's range must be exactly shard_range(index).
  bool write_shard(int index, const ShardSummary& shard) const;

  /// Supervisor side (phase 2): validate shard_<index>.json on disk and
  /// commit it into the manifest (atomic manifest rewrite). Returns false —
  /// without committing — if the file is missing or invalid.
  bool commit_shard(int index);

  /// Parse and validate shard_<index>.json. Throws ContractViolation if
  /// missing, malformed, or covering the wrong seed range.
  ShardSummary load_shard(int index) const;

  /// Fold every committed shard into one accumulation.
  SweepSummary merged() const;

  const SweepConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  SeedRange shard_range(int index) const;
  bool is_complete(int index) const;
  std::vector<int> completed() const;

  std::string shard_path(int index) const;
  std::string manifest_path() const;
  const std::string& dir() const { return dir_; }

 private:
  void write_manifest() const;

  std::string dir_;
  SweepConfig config_;
  std::vector<SeedRange> shards_;  ///< shard_seed_range(config.range, size)
  std::vector<int> completed_;     ///< sorted committed shard indexes
  bool opened_ = false;
};

}  // namespace cil::fabric
