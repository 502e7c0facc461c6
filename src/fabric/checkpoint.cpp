#include "fabric/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "util/check.h"

namespace cil::fabric {

namespace {

using obs::Json;

/// Whole-file read; empty optional semantics via ok flag are not needed —
/// callers treat any failure as "no usable file".
bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return static_cast<bool>(is);
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  CIL_EXPECTS(!dir_.empty());
}

std::string CheckpointStore::shard_path(int index) const {
  return dir_ + "/shard_" + std::to_string(index) + ".json";
}

std::string CheckpointStore::manifest_path() const {
  return dir_ + "/manifest.json";
}

SeedRange CheckpointStore::shard_range(int index) const {
  CIL_EXPECTS(opened_);
  CIL_EXPECTS(index >= 0 && index < num_shards());
  return shards_[static_cast<std::size_t>(index)];
}

bool CheckpointStore::is_complete(int index) const {
  return std::binary_search(completed_.begin(), completed_.end(), index);
}

std::vector<int> CheckpointStore::open(const SweepConfig& config) {
  CIL_EXPECTS(config.range.num_runs >= 1);
  CIL_EXPECTS(config.shard_size >= 1);
  config_ = config;
  shards_ = shard_seed_range(config.range, config.shard_size);
  completed_.clear();
  opened_ = true;

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  CIL_CHECK_MSG(std::filesystem::is_directory(dir_),
                "CheckpointStore: cannot create directory " + dir_);

  std::string text;
  if (read_file(manifest_path(), text)) {
    const Json doc = Json::parse(text);
    CIL_CHECK_MSG(doc.is_object() && doc.find("artifact") != nullptr &&
                      doc.at("artifact").as_string() == kManifestArtifactName,
                  "CheckpointStore: " + manifest_path() +
                      " is not a cilcoord.sweep_manifest.v1 artifact");
    const SweepConfig stored = sweep_config_from_json(doc.at("config"));
    CIL_CHECK_MSG(stored == config_,
                  "CheckpointStore: " + dir_ +
                      " holds a checkpoint for a different sweep config; "
                      "refusing to resume (use a fresh directory)");
  } else {
    write_manifest();
  }

  // The shard files are the commits. A torn or foreign file does not
  // count; a retry overwrites it.
  for (int i = 0; i < num_shards(); ++i) {
    if (!std::filesystem::exists(shard_path(i))) continue;
    try {
      (void)load_shard(i);
    } catch (...) {
      continue;
    }
    completed_.push_back(i);
  }
  return completed_;
}

bool CheckpointStore::write_shard(int index, const ShardSummary& shard) const {
  CIL_EXPECTS(opened_);
  CIL_CHECK_MSG(shard.range == shard_range(index),
                "CheckpointStore: shard summary covers the wrong seed range");
  return obs::write_text_file_atomic(
      shard_path(index), shard_summary_to_json(shard).dump() + "\n");
}

ShardSummary CheckpointStore::load_shard(int index) const {
  CIL_EXPECTS(opened_);
  std::string text;
  CIL_CHECK_MSG(read_file(shard_path(index), text),
                "CheckpointStore: cannot read " + shard_path(index));
  const ShardSummary shard = shard_summary_from_json(Json::parse(text));
  CIL_CHECK_MSG(shard.range == shard_range(index),
                "CheckpointStore: " + shard_path(index) +
                    " covers the wrong seed range");
  return shard;
}

bool CheckpointStore::commit_shard(int index) {
  CIL_EXPECTS(opened_);
  if (is_complete(index)) return true;
  try {
    (void)load_shard(index);
  } catch (...) {
    return false;
  }
  completed_.insert(
      std::upper_bound(completed_.begin(), completed_.end(), index), index);
  return true;
}

SweepSummary CheckpointStore::merged() const {
  CIL_EXPECTS(opened_);
  SweepSummary out;
  for (const int i : completed_) out.add(load_shard(i));
  return out;
}

void CheckpointStore::write_manifest() const {
  Json doc = Json::object();
  doc["artifact"] = Json(kManifestArtifactName);
  doc["config"] = sweep_config_to_json(config_);
  // Older builds read committed shards from this list; it stays empty.
  doc["completed"] = Json::array();
  CIL_CHECK_MSG(obs::write_text_file_atomic(manifest_path(), doc.dump() + "\n"),
                "CheckpointStore: cannot write " + manifest_path());
}

}  // namespace cil::fabric
