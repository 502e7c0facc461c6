// Crash-safe sweep checkpointing: per-shard summary files plus a
// write-once manifest.
//
//   manifest.json   cilcoord.sweep_manifest.v1: the sweep's SweepConfig
//                   (fabric/sweep.h), written by the open that finds none
//   shard_<i>.json  cilcoord.batch_summary.v2 for shard i
//
// The protocol has one phase: a worker writes shard_<i>.json atomically
// (write_text_file_atomic: same-dir tmp + fsync + rename), and that file IS
// the shard's commit. A SIGKILL at any instant leaves no file or a complete
// valid one, and shard summaries are deterministic, so a file left by a
// killed attempt is byte-for-byte what a retry would recompute. Resume is
// free: open() refuses a directory holding a DIFFERENT sweep's manifest
// and counts every valid shard file. Older builds also listed committed
// shards in the manifest's "completed"; new manifests keep it empty and
// open() ignores it, so a listed shard whose file is missing is rerun.
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

  /// Create the directory if needed; check its manifest, or write one when
  /// it has none. Returns the sorted indexes of the valid shard files.
  /// Throws ContractViolation on a manifest for a different SweepConfig.
  std::vector<int> open(const SweepConfig& config);

  /// Atomically persist shard `index`'s summary: its commit. Safe from a
  /// forked child. The range must be exactly shard_range(index).
  bool write_shard(int index, const ShardSummary& shard) const;

  /// Validate shard_<index>.json and mark the shard complete here; writes
  /// nothing. False if the file is missing or invalid.
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

  std::string shard_path(int index) const;
  std::string manifest_path() const;
  const std::string& dir() const { return dir_; }

 private:
  void write_manifest() const;

  std::string dir_;
  SweepConfig config_;
  std::vector<SeedRange> shards_;  ///< shard_seed_range(config.range, size)
  std::vector<int> completed_;     ///< sorted indexes of valid shard files
  bool opened_ = false;
};

}  // namespace cil::fabric
