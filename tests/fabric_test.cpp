// Fabric data-plane pins: the merge monoid and the checkpoint store.
//
//   * split/shard_seed_range semantics, including agreement with the split
//     BatchRunner uses for its thread shards;
//   * cilcoord.batch_summary.v2 serialize → parse → re-serialize equality
//     (the JSON layer's %.17g doubles make the round trip exact), and the
//     decoder's refusal of every malformed, non-canonical or v1 document
//     with a ContractViolation — the only exception it may throw;
//   * THE MERGE-ALGEBRA PROPERTY: folding the shard summaries of any random
//     partition of a seed range — in any order, any association — equals
//     the single-shot BatchSummary bit-for-bit;
//   * overlap rejection, gap detection, and partial concatenation;
//   * CheckpointStore: fresh open, commit, resume from shard files alone,
//     config mismatch rejection, crash-atomic writes, and a manifest that
//     no commit rewrites;
//   * ShardLedger: lease order, the backoff gate, the retry budget, and
//     late duplicate commits, on synthetic time points;
//   * the sweep spec (fabric::Sweep): every invalid field is refused by
//     name, and a Sweep runs the recipe — protocol, inputs, scheduler
//     seeding — that `sweep`, coordd and the fleet have always written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/checkpoint.h"
#include "fabric/ledger.h"
#include "fabric/summary.h"
#include "fabric/sweep.h"
#include "obs/export.h"
#include "sched/adversary.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "util/check.h"

namespace cil {
namespace {

using fabric::CheckpointStore;
using fabric::ShardSummary;
using fabric::Sweep;
using fabric::SweepConfig;
using fabric::SweepSummary;
using obs::Json;

SchedulerFactory random_factory() {
  return [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
}

BatchSummary run_range(const Protocol& protocol,
                       const std::vector<Value>& inputs, const SeedRange& r,
                       int threads = 1) {
  BatchRunner runner(protocol, inputs);
  BatchOptions opts;
  opts.first_seed = r.first_seed;
  opts.num_runs = r.num_runs;
  opts.threads = threads;
  opts.max_total_steps = 100'000;
  return runner.run(opts, random_factory());
}

void expect_equal_summaries(const BatchSummary& a, const BatchSummary& b) {
  EXPECT_EQ(a.num_runs, b.num_runs);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.decision_counts, b.decision_counts);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.steps.bins(), b.steps.bins());
  EXPECT_EQ(a.steps_p0.bins(), b.steps_p0.bins());
  EXPECT_EQ(a.steps_p1.bins(), b.steps_p1.bins());
  EXPECT_EQ(a.max_register_bits.bins(), b.max_register_bits.bins());
  EXPECT_EQ(a.probe.bins(), b.probe.bins());
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_TRUE(fabric::deterministic_fields_equal(a, b));
}

std::string temp_dir(const std::string& stem) {
  const std::string dir = testing::TempDir() + "/" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

// -- seed-range splitting ---------------------------------------------------

TEST(SeedRange, SplitCoversInOrderWithBalancedSizes) {
  const auto parts = split_seed_range({10, 10}, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (SeedRange{10, 4}));
  EXPECT_EQ(parts[1], (SeedRange{14, 3}));
  EXPECT_EQ(parts[2], (SeedRange{17, 3}));
}

TEST(SeedRange, SplitClampsToRunCountAndHandlesEmpty) {
  EXPECT_EQ(split_seed_range({1, 2}, 8).size(), 2u);
  EXPECT_TRUE(split_seed_range({1, 0}, 4).empty());
  const auto one = split_seed_range({5, 7}, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (SeedRange{5, 7}));
}

TEST(SeedRange, ShardingUsesFixedSizeWithRemainderLast) {
  const auto shards = shard_seed_range({1, 10}, 4);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (SeedRange{1, 4}));
  EXPECT_EQ(shards[1], (SeedRange{5, 4}));
  EXPECT_EQ(shards[2], (SeedRange{9, 2}));
}

// -- serialization ----------------------------------------------------------

TEST(ShardSummaryJson, RoundTripsExactly) {
  UnboundedProtocol protocol(3);
  ShardSummary shard;
  shard.range = {1000, 40};
  shard.summary = run_range(protocol, {0, 1, 0}, shard.range);

  const Json doc = fabric::shard_summary_to_json(shard);
  const ShardSummary back =
      fabric::shard_summary_from_json(Json::parse(doc.dump()));
  EXPECT_EQ(back.range, shard.range);
  expect_equal_summaries(back.summary, shard.summary);
  // Wall-clock fields round-trip too (%.17g is double-exact), so the
  // re-serialized document is byte-identical.
  EXPECT_EQ(fabric::shard_summary_to_json(back).dump(), doc.dump());
}

TEST(ShardSummaryJson, LargeSeedsSurviveAsStrings) {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {(1ULL << 62) + 3, 2};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  const ShardSummary back = fabric::shard_summary_from_json(
      Json::parse(fabric::shard_summary_to_json(shard).dump()));
  EXPECT_EQ(back.range.first_seed, (1ULL << 62) + 3);
}

TEST(ShardSummaryJson, RejectsWrongTagAndTornPayload) {
  Json doc = Json::object();
  doc["artifact"] = Json("cilcoord.some_other.v1");
  EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation);

  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 3};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  Json good = fabric::shard_summary_to_json(shard);
  good["num_runs"] = Json(static_cast<std::int64_t>(5));  // samples now lie
  EXPECT_THROW((void)fabric::shard_summary_from_json(good),
               ContractViolation);
}

/// A valid v2 document for seeds [1, 10] of Figure 1 under random
/// scheduling: both decisions occur, so decision_counts has keys "0", "1".
Json valid_doc() {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 10};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  return fabric::shard_summary_to_json(shard);
}

/// valid_doc() with its decision counts replaced: `key` carries every
/// decided run.
Json doc_with_decision_key(const std::string& key) {
  Json doc = valid_doc();
  Json decisions = Json::object();
  decisions[key] = Json(doc.at("decided_runs").as_int());
  doc["decision_counts"] = std::move(decisions);
  return doc;
}

void expect_rejected(const Json& doc) {
  EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation);
}

TEST(ShardSummaryJson, AcceptsCanonicalDecisionKeys) {
  for (const char* key : {"0", "1", "-7", "2147483647", "-2147483648"})
    EXPECT_EQ(fabric::shard_summary_from_json(doc_with_decision_key(key))
                  .summary.decision_counts.size(),
              1u)
        << key;
}

TEST(ShardSummaryJson, RejectsANonNumericDecisionKey) {
  expect_rejected(doc_with_decision_key("x"));
}

TEST(ShardSummaryJson, RejectsADecisionKeyOutsideInt32) {
  // Once truncated to Value 1, so {"0":1,"4294967297":1} read back as 0/1.
  expect_rejected(doc_with_decision_key("4294967297"));
  Json doc = valid_doc();
  Json decisions = Json::object();
  decisions["0"] = Json(1);
  decisions["4294967297"] = Json(1);
  doc["decision_counts"] = std::move(decisions);
  expect_rejected(doc);
}

TEST(ShardSummaryJson, RejectsALeadingZeroDecisionKey) {
  // "1" and "01" once both mapped to 1, silently losing one count.
  expect_rejected(doc_with_decision_key("01"));
  Json doc = valid_doc();
  Json decisions = Json::object();
  decisions["1"] = Json(1);
  decisions["01"] = Json(1);
  doc["decision_counts"] = std::move(decisions);
  expect_rejected(doc);
}

TEST(ShardSummaryJson, RejectsAPaddedOrSignedDecisionKey) {
  for (const char* key : {" 1", "1 ", "+1", "-0", "", "-1"})
    EXPECT_THROW((void)fabric::shard_summary_from_json(
                     doc_with_decision_key(key)),
                 ContractViolation)
        << "'" << key << "'";
}

TEST(ShardSummaryJson, RejectsAFirstSeedBeyondUint64) {
  for (const char* seed : {"99999999999999999999999", "18446744073709551616",
                           "01", "-1", "+1", " 1", "1e3", ""}) {
    Json doc = valid_doc();
    doc["first_seed"] = Json(seed);
    EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation)
        << seed;
  }
  // The largest seed that still leaves room for the range is fine; one
  // more runs the range past 2^64.
  Json doc = valid_doc();
  doc["first_seed"] = Json("18446744073709551606");  // 2^64 - 10, 10 runs
  EXPECT_NO_THROW((void)fabric::shard_summary_from_json(doc));
  doc["first_seed"] = Json("18446744073709551607");
  expect_rejected(doc);
}

TEST(ShardSummaryJson, RejectsANonCanonicalRunDigest) {
  for (const char* digest : {"x", "18446744073709551616", "00", ""}) {
    Json doc = valid_doc();
    doc["run_digest"] = Json(digest);
    EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation)
        << digest;
  }
}

TEST(ShardSummaryJson, RejectsMalformedTallyBins) {
  const auto with_steps = [](const char* bins) {
    Json doc = valid_doc();
    doc["tallies"]["steps_p0"] = Json::parse(bins);
    return doc;
  };
  // The valid document's own bins, then every way to break them.
  expect_rejected(with_steps("[[2,5],[2,5]]"));     // values repeat
  expect_rejected(with_steps("[[3,5],[2,5]]"));     // values decrease
  expect_rejected(with_steps("[[2,0],[3,10]]"));    // count below 1
  expect_rejected(with_steps("[[2,-1],[3,11]]"));   // negative count
  expect_rejected(with_steps("[[2,4],[3,5]]"));     // sums to 9, not 10
  expect_rejected(with_steps("[[2,11]]"));          // sums past num_runs
  expect_rejected(with_steps("[[2,5,1],[3,5]]"));   // not a pair
  expect_rejected(with_steps("[2,3]"));             // not bins at all
  expect_rejected(with_steps("[[2.5,10]]"));        // non-integral value
  expect_rejected(with_steps("[[1e300,10]]"));      // value outside int64
  expect_rejected(with_steps("[[2,1e300]]"));       // count outside int64
  expect_rejected(with_steps("[[2,9223372036854775807],[3,10]]"));
  expect_rejected(with_steps("[]"));                // empty, not the probe

  // The probe tally is empty (no probe) or covers every run.
  Json doc = valid_doc();
  doc["tallies"]["probe"] = Json::parse("[[0,3]]");
  expect_rejected(doc);
  doc["tallies"]["probe"] = Json::parse("[[0,3],[9,7]]");
  EXPECT_NO_THROW((void)fabric::shard_summary_from_json(doc));

  // total_steps must be the steps tally's sum.
  doc = valid_doc();
  doc["total_steps"] = Json(doc.at("total_steps").as_int() + 1);
  expect_rejected(doc);
}

TEST(ShardSummaryJson, RejectsOutOfRangeCounts) {
  Json doc = valid_doc();
  doc["num_runs"] = Json(1e300);
  expect_rejected(doc);
  doc = valid_doc();
  doc["decided_runs"] = Json(11);
  expect_rejected(doc);
  doc = valid_doc();
  doc["decision_counts"]["0"] = Json(0);
  expect_rejected(doc);
  doc = valid_doc();
  doc["decision_counts"]["0"] = Json(11);
  expect_rejected(doc);
}

TEST(ShardSummaryJson, RefusesAV1ArtifactByName) {
  Json doc = valid_doc();
  doc["artifact"] = Json("cilcoord.batch_summary.v1");
  try {
    (void)fabric::shard_summary_from_json(doc);
    FAIL() << "a v1 document was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("batch_summary.v1"),
              std::string::npos)
        << e.what();
  }
}

// -- the merge algebra ------------------------------------------------------

TEST(SweepSummary, RandomPartitionsMergeToTheSingleShotSummary) {
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 0};
  const SeedRange whole{1, 120};
  const BatchSummary single = run_range(protocol, inputs, whole);

  std::mt19937 gen(42);
  for (int trial = 0; trial < 5; ++trial) {
    // Random partition: cut points, then shards between them.
    std::vector<std::int64_t> cuts = {0, whole.num_runs};
    const int extra = 1 + static_cast<int>(gen() % 6);
    for (int i = 0; i < extra; ++i)
      cuts.push_back(static_cast<std::int64_t>(
          gen() % static_cast<std::uint64_t>(whole.num_runs)));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<ShardSummary> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      ShardSummary s;
      s.range = {whole.first_seed + static_cast<std::uint64_t>(cuts[i]),
                 cuts[i + 1] - cuts[i]};
      s.summary = run_range(protocol, inputs, s.range);
      shards.push_back(std::move(s));
    }
    // Fold in a shuffled arrival order — commutativity in practice.
    std::shuffle(shards.begin(), shards.end(), gen);
    SweepSummary sweep;
    for (const ShardSummary& s : shards) sweep.add(s);
    ASSERT_TRUE(sweep.contiguous());
    expect_equal_summaries(sweep.to_batch_summary(), single);
  }
}

TEST(SweepSummary, MergeIsAssociativeAndCommutativeBySerializedForm) {
  TwoProcessProtocol protocol;
  const std::vector<Value> inputs = {0, 1};
  std::vector<SweepSummary> parts;
  for (const SeedRange r :
       {SeedRange{1, 10}, SeedRange{11, 5}, SeedRange{16, 15}}) {
    ShardSummary s;
    s.range = r;
    s.summary = run_range(protocol, inputs, r);
    SweepSummary w;
    w.add(s);
    parts.push_back(std::move(w));
  }
  const auto dump = [](const SweepSummary& s) {
    ShardSummary whole;
    whole.range = s.span();
    whole.summary = s.to_batch_summary();
    return fabric::shard_summary_to_json(whole).dump();
  };
  const SweepSummary left =
      fabric::merge(fabric::merge(parts[0], parts[1]), parts[2]);
  const SweepSummary right =
      fabric::merge(parts[0], fabric::merge(parts[1], parts[2]));
  const SweepSummary swapped =
      fabric::merge(parts[2], fabric::merge(parts[1], parts[0]));
  EXPECT_EQ(dump(left), dump(right));
  EXPECT_EQ(dump(left), dump(swapped));
}

TEST(SweepSummary, MatchesMultiThreadedBatchRunner) {
  // The fabric's process-level merge and BatchRunner's thread-level merge
  // are the same algebra; both must equal the serial run.
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 0};
  const SeedRange whole{1, 64};
  const BatchSummary threaded = run_range(protocol, inputs, whole, 4);

  SweepSummary sweep;
  for (const SeedRange& r : shard_seed_range(whole, 13)) {
    ShardSummary s;
    s.range = r;
    s.summary = run_range(protocol, inputs, r);
    sweep.add(s);
  }
  expect_equal_summaries(sweep.to_batch_summary(), threaded);
}

TEST(SweepSummary, RejectsOverlapsAndDetectsGaps) {
  TwoProcessProtocol protocol;
  const std::vector<Value> inputs = {0, 1};
  const auto make = [&](std::uint64_t first, std::int64_t n) {
    ShardSummary s;
    s.range = {first, n};
    s.summary = run_range(protocol, inputs, s.range);
    return s;
  };
  SweepSummary sweep;
  sweep.add(make(10, 5));
  EXPECT_THROW(sweep.add(make(14, 2)), ContractViolation);  // tail overlap
  EXPECT_THROW(sweep.add(make(8, 3)), ContractViolation);   // head overlap
  EXPECT_THROW(sweep.add(make(11, 1)), ContractViolation);  // containment

  sweep.add(make(20, 5));  // disjoint but gapped
  EXPECT_FALSE(sweep.contiguous());
  EXPECT_THROW((void)sweep.to_batch_summary(), ContractViolation);
  EXPECT_EQ(sweep.to_partial_batch_summary().num_runs, 10);
  EXPECT_EQ(sweep.num_runs(), 10);
  ASSERT_EQ(sweep.ranges().size(), 2u);
}

// -- crash-atomic writes ----------------------------------------------------

TEST(AtomicWrite, WritesContentAndReplacesExistingFiles) {
  const std::string dir = temp_dir("atomic_write");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/artifact.json";
  ASSERT_TRUE(obs::write_text_file_atomic(path, "{\"v\":1}\n"));
  ASSERT_TRUE(obs::write_text_file_atomic(path, "{\"v\":2}\n"));
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"v\":2}\n");
  // No temp litter left behind.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(AtomicWrite, ConcurrentWritersToOnePathAllSucceed) {
  // Threads of one process racing on one destination (e.g. two
  // supervisors writing one shard file): every write must land whole,
  // and the file must end as exactly one writer's complete content.
  const std::string dir = temp_dir("atomic_write_race");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.json";
  constexpr int kThreads = 4;
  constexpr int kWrites = 10;
  const auto content_of = [](int t) {
    return "{\"writer\":" + std::to_string(t) + ",\"pad\":\"" +
           std::string(static_cast<std::size_t>(1000 + 300 * t), 'x') +
           "\"}\n";
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kWrites; ++i)
        if (!obs::write_text_file_atomic(path, content_of(t))) ++failures;
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);

  std::ifstream is(path);
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  bool matches_one = false;
  for (int t = 0; t < kThreads; ++t) matches_one |= content == content_of(t);
  EXPECT_TRUE(matches_one) << content.size() << " bytes";
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);  // no temp litter
}

TEST(AtomicWrite, FailsCleanlyOnMissingDirectory) {
  EXPECT_FALSE(obs::write_text_file_atomic(
      temp_dir("no_such_dir") + "/sub/artifact.json", "x"));
}

// -- the checkpoint store ---------------------------------------------------

SweepConfig small_config() {
  SweepConfig config;
  config.protocol = "two";
  config.num_processes = 2;
  config.scheduler = "random";
  config.range = {1, 20};
  config.shard_size = 8;
  config.max_total_steps = 100'000;
  return config;
}

ShardSummary compute_shard(const CheckpointStore& store, int index) {
  TwoProcessProtocol protocol;
  ShardSummary s;
  s.range = store.shard_range(index);
  s.summary = run_range(protocol, {0, 1}, s.range);
  return s;
}

TEST(CheckpointStore, FreshOpenCommitAndResume) {
  const std::string dir = temp_dir("ckpt_fresh");
  const SweepConfig config = small_config();
  {
    CheckpointStore store(dir);
    EXPECT_TRUE(store.open(config).empty());
    EXPECT_EQ(store.num_shards(), 3);  // 8 + 8 + 4
    EXPECT_EQ(store.shard_range(2), (SeedRange{17, 4}));

    ASSERT_TRUE(store.write_shard(1, compute_shard(store, 1)));
    EXPECT_FALSE(store.is_complete(1));  // written, not yet validated here
    ASSERT_TRUE(store.commit_shard(1));
    EXPECT_TRUE(store.is_complete(1));
  }
  {
    // Reopen: the shard file is the commit.
    CheckpointStore store(dir);
    const std::vector<int> done = store.open(config);
    ASSERT_EQ(done, (std::vector<int>{1}));
    const ShardSummary loaded = store.load_shard(1);
    EXPECT_EQ(loaded.range, (SeedRange{9, 8}));
    EXPECT_EQ(store.merged().num_runs(), 8);
  }
}

TEST(CheckpointStore, AdoptsOrphanedShardFilesOnOpen) {
  // A worker whose supervisor died before it reaped the worker leaves a
  // valid file that no commit_shard saw; open() must claim it, because
  // determinism makes it byte-equal to what a retry would recompute.
  const std::string dir = temp_dir("ckpt_orphan");
  const SweepConfig config = small_config();
  {
    CheckpointStore store(dir);
    (void)store.open(config);
    ASSERT_TRUE(store.write_shard(0, compute_shard(store, 0)));
    // No commit: simulate the supervisor dying here.
  }
  {
    CheckpointStore store(dir);
    EXPECT_EQ(store.open(config), (std::vector<int>{0}));
  }
}

TEST(CheckpointStore, IgnoresTornShardFilesAndStrayTmp) {
  const std::string dir = temp_dir("ckpt_torn");
  const SweepConfig config = small_config();
  CheckpointStore probe(dir);
  (void)probe.open(config);
  {
    std::ofstream os(probe.shard_path(2), std::ios::trunc);
    os << "{\"artifact\": \"cilcoord.batch_summ";  // torn mid-write
  }
  {
    std::ofstream os(probe.shard_path(1) + ".tmp.12345", std::ios::trunc);
    os << "leftover";
  }
  CheckpointStore store(dir);
  EXPECT_TRUE(store.open(config).empty());
  EXPECT_THROW((void)store.load_shard(2), ContractViolation);
  EXPECT_FALSE(store.commit_shard(2));
}

TEST(CheckpointStore, MergedRefusesAV1ShardByName) {
  // A checkpoint directory written before the v2 schema: its committed
  // shard must fail the merge loudly, naming v1, not be misread.
  const std::string dir = temp_dir("ckpt_v1");
  CheckpointStore store(dir);
  (void)store.open(small_config());
  ASSERT_TRUE(store.write_shard(0, compute_shard(store, 0)));
  ASSERT_TRUE(store.commit_shard(0));
  {
    std::ofstream os(store.shard_path(0), std::ios::trunc);
    os << "{\"artifact\":\"cilcoord.batch_summary.v1\",\"first_seed\":\"1\","
          "\"num_runs\":8,\"samples\":{\"steps\":[2,2,4,2,3,2,2,5]}}\n";
  }
  try {
    (void)store.merged();
    FAIL() << "merged() read a v1 shard";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("batch_summary.v1"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointStore, RefusesAForeignConfig) {
  const std::string dir = temp_dir("ckpt_foreign");
  CheckpointStore store(dir);
  (void)store.open(small_config());

  SweepConfig other = small_config();
  other.range.num_runs = 40;  // a different sweep entirely
  CheckpointStore reopen(dir);
  EXPECT_THROW((void)reopen.open(other), ContractViolation);

  SweepConfig scheduler_change = small_config();
  scheduler_change.scheduler = "avoid";
  CheckpointStore reopen2(dir);
  EXPECT_THROW((void)reopen2.open(scheduler_change), ContractViolation);
}

TEST(CheckpointStore, WriteShardRejectsTheWrongRange) {
  const std::string dir = temp_dir("ckpt_range");
  CheckpointStore store(dir);
  (void)store.open(small_config());
  ShardSummary wrong = compute_shard(store, 0);
  wrong.range.first_seed += 1;
  wrong.range.num_runs = wrong.summary.num_runs;
  EXPECT_THROW((void)store.write_shard(0, wrong), ContractViolation);
}

std::string read_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(CheckpointStore, CommitsNeverRewriteTheManifest) {
  // The shard file is the commit: the manifest is written once, by the
  // open that finds none, and no commit or later open replaces it.
  const std::string dir = temp_dir("ckpt_write_once");
  const SweepConfig config = small_config();
  CheckpointStore store(dir);
  ASSERT_TRUE(store.open(config).empty());
  struct stat first {};
  ASSERT_EQ(::stat(store.manifest_path().c_str(), &first), 0);
  const std::string bytes = read_text(store.manifest_path());
  const auto unchanged = [&] {
    struct stat now {};
    ASSERT_EQ(::stat(store.manifest_path().c_str(), &now), 0);
    EXPECT_EQ(now.st_ino, first.st_ino);
    EXPECT_EQ(read_text(store.manifest_path()), bytes);
  };

  for (int i = 0; i < store.num_shards(); ++i) {
    ASSERT_TRUE(store.write_shard(i, compute_shard(store, i)));
    ASSERT_TRUE(store.commit_shard(i));
  }
  unchanged();
  CheckpointStore reopen(dir);
  EXPECT_EQ(reopen.open(config), (std::vector<int>{0, 1, 2}));
  unchanged();
}

TEST(CheckpointStore, SweepConfigJsonRoundTrips) {
  SweepConfig config = small_config();
  config.range.first_seed = (1ULL << 60) + 9;
  const SweepConfig back = fabric::sweep_config_from_json(
      Json::parse(fabric::sweep_config_to_json(config).dump()));
  EXPECT_EQ(back, config);
}

// -- the shard ledger --------------------------------------------------------

using fabric::ShardClock;
using fabric::ShardLedger;
using fabric::ShardPolicy;
using std::chrono::milliseconds;

const ShardClock::time_point kT0{std::chrono::seconds(100)};

ShardPolicy ledger_policy(int retry_budget, double initial, double max) {
  ShardPolicy policy;
  policy.retry_budget = retry_budget;
  policy.backoff_initial_seconds = initial;
  policy.backoff_max_seconds = max;
  return policy;
}

TEST(ShardLedger, LeasesTheLowestReadyIndexAndNeverAResumedOne) {
  ShardLedger ledger(4, {1}, ledger_policy(3, 0.1, 1.0));
  EXPECT_EQ(ledger.lease(kT0), 0);
  EXPECT_EQ(ledger.lease(kT0), 2);  // 1 was resumed
  EXPECT_TRUE(ledger.fail(0, kT0));
  EXPECT_EQ(ledger.lease(kT0), 3);  // 0 waits behind its gate
  EXPECT_EQ(ledger.lease(kT0 + milliseconds(100)), 0);  // lowest, once ready
  EXPECT_EQ(ledger.lease(ShardClock::time_point::max()), -1);
  EXPECT_FALSE(ledger.settled());  // three shards are out on lease
  for (const int i : {0, 2, 3}) EXPECT_TRUE(ledger.commit(i));
  EXPECT_TRUE(ledger.settled());
  EXPECT_TRUE(ledger.complete());
}

TEST(ShardLedger, TheBackoffGateDoublesUpToTheCap) {
  ShardLedger ledger(1, {}, ledger_policy(5, 0.1, 0.3));
  ShardClock::time_point t = kT0;
  for (const int gate_ms : {100, 200, 300, 300}) {
    ASSERT_EQ(ledger.lease(t), 0);
    ASSERT_TRUE(ledger.fail(0, t));
    EXPECT_EQ(ledger.lease(t + milliseconds(gate_ms - 1)), -1) << gate_ms;
    t += milliseconds(gate_ms);
  }
  // Leasing at time_point::max() passes any gate.
  ShardLedger gated(1, {}, ledger_policy(5, 10.0, 10.0));
  ASSERT_EQ(gated.lease(kT0), 0);
  ASSERT_TRUE(gated.fail(0, kT0));
  EXPECT_EQ(gated.lease(kT0 + milliseconds(9'999)), -1);
  EXPECT_EQ(gated.lease(ShardClock::time_point::max()), 0);
}

TEST(ShardLedger, ABudgetOfTwoGivesThreeLeasesThenTheShardIsSpent) {
  ShardLedger ledger(2, {1}, ledger_policy(2, 0.0, 0.0));
  EXPECT_EQ(ledger.lease(kT0), 0);
  EXPECT_TRUE(ledger.fail(0, kT0));
  EXPECT_EQ(ledger.lease(kT0), 0);
  EXPECT_TRUE(ledger.fail(0, kT0));
  EXPECT_EQ(ledger.lease(kT0), 0);
  EXPECT_FALSE(ledger.fail(0, kT0));  // the third failure spends it
  EXPECT_EQ(ledger.failures(0), 3);
  EXPECT_EQ(ledger.lease(ShardClock::time_point::max()), -1);
  EXPECT_EQ(ledger.spent(), (std::vector<int>{0}));
  EXPECT_TRUE(ledger.settled());
  EXPECT_FALSE(ledger.complete());

  // A driver with a fallback that never fails can still take it.
  EXPECT_EQ(ledger.lease_spent(), 0);
  EXPECT_TRUE(ledger.spent().empty());
  EXPECT_FALSE(ledger.settled());
  EXPECT_TRUE(ledger.commit(0));
  EXPECT_TRUE(ledger.complete());
}

TEST(ShardLedger, ALateDuplicateCommitReturnsFalse) {
  ShardLedger ledger(2, {1}, ledger_policy(3, 0.1, 1.0));
  EXPECT_EQ(ledger.lease(kT0), 0);
  EXPECT_TRUE(ledger.commit(0));
  EXPECT_FALSE(ledger.commit(0));
  EXPECT_FALSE(ledger.commit(1));  // resumed: done before any lease
}

// -- the sweep spec ----------------------------------------------------------

SweepConfig sweep_spec(const std::string& protocol, int n,
                       const std::string& scheduler, std::int64_t seeds,
                       std::int64_t shard_size,
                       const std::string& fault_plan = "") {
  SweepConfig config;
  config.protocol = protocol;
  config.num_processes = n;
  config.scheduler = scheduler;
  config.range = {1, seeds};
  config.shard_size = shard_size;
  config.fault_plan = fault_plan;
  return config;
}

TEST(SweepSpec, RejectsEachInvalidField) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  struct Row {
    const char* field;
    std::function<void(SweepConfig&)> edit;
  };
  const Row rows[] = {
      {"protocol", [](SweepConfig& c) { c.protocol = "quantum"; }},
      {"scheduler", [](SweepConfig& c) { c.scheduler = "split"; }},
      {"num_processes", [](SweepConfig& c) { c.num_processes = 1; }},
      {"num_runs", [](SweepConfig& c) { c.range.num_runs = 0; }},
      {"first_seed", [](SweepConfig& c) { c.range = {kMax - 48, 50}; }},
      {"shard_size", [](SweepConfig& c) { c.shard_size = 0; }},
      {"max_total_steps", [](SweepConfig& c) { c.max_total_steps = 0; }},
      {"check_every", [](SweepConfig& c) { c.check_every = 0; }},
      {"fault_plan", [](SweepConfig& c) { c.fault_plan = "fp1;crash=x"; }},
      // Parses, but names a fourth processor of a three-process sweep.
      {"fault_plan", [](SweepConfig& c) { c.fault_plan = "fp1;crash=3@2"; }},
  };
  for (const Row& row : rows) {
    SweepConfig config = sweep_spec("unbounded", 3, "random", 200, 40);
    row.edit(config);
    try {
      const Sweep sweep(config);
      ADD_FAILURE() << row.field << ": an invalid value was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos)
          << row.field << ": " << e.what();
    }
  }

  // The last representable seed is in range.
  SweepConfig last = sweep_spec("two", 2, "random", 50, 50);
  last.range.first_seed = kMax - 49;
  EXPECT_NO_THROW(Sweep{last});

  // The configs the tool.sweep_* ctests run (forked and --serial shapes),
  // with `two` and `bounded` normalized to their own process counts.
  const std::string plan = "fp1;crash=0@2;recover=0@8";
  for (const SweepConfig& config :
       {sweep_spec("unbounded", 3, "random", 240, 40),
        sweep_spec("unbounded", 3, "random", 240, 240),
        sweep_spec("two", 3, "random", 400, 50, plan),
        sweep_spec("two", 3, "random", 400, 400, plan),
        sweep_spec("two", 3, "random", 400, 100, plan),
        sweep_spec("two", 3, "random", 1000, 125),
        sweep_spec("two", 2, "random", 1000, 125),
        sweep_spec("unbounded", 3, "avoid", 60, 20)}) {
    EXPECT_NO_THROW(Sweep{config})
        << fabric::sweep_config_to_json(config).dump();
  }
  EXPECT_EQ(Sweep(sweep_spec("two", 3, "random", 10, 10))
                .config()
                .num_processes,
            2);
  EXPECT_EQ(Sweep(sweep_spec("bounded", 2, "avoid", 10, 10))
                .config()
                .num_processes,
            3);
}

TEST(SweepSpec, RunsTheRecipeEverySurfaceAssumes) {
  // The recipe, spelled out literally: the scheduler seedings every sweep
  // artifact in this repo was made with, and inputs 0, 1, 0.
  const SchedulerFactory random = [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
  const SchedulerFactory avoid = [] {
    auto s = std::make_shared<DecisionAvoidingAdversary>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed + 17);
      return *s;
    };
  };
  const TwoProcessProtocol two;
  const UnboundedProtocol unbounded(3);
  const BoundedThreeProtocol bounded;
  struct Case {
    const char* protocol;
    const Protocol* literal;
    std::vector<Value> inputs;
  };
  const Case cases[] = {{"two", &two, {0, 1}},
                        {"unbounded", &unbounded, {0, 1, 0}},
                        {"bounded", &bounded, {0, 1, 0}}};
  constexpr std::uint64_t kFirstSeed = 5;
  constexpr std::int64_t kSeeds = 100;
  for (const Case& c : cases) {
    for (const char* scheduler : {"random", "avoid"}) {
      SCOPED_TRACE(std::string(c.protocol) + "/" + scheduler);
      SweepConfig config = sweep_spec(c.protocol, 3, scheduler, kSeeds, 10);
      config.range.first_seed = kFirstSeed;
      config.max_total_steps = 100'000;
      const Sweep sweep(config);
      const BatchSummary ours = sweep.run(config.range, 2);

      BatchRunner runner(*c.literal, c.inputs);
      BatchOptions opts;
      opts.first_seed = kFirstSeed;
      opts.num_runs = kSeeds;
      opts.max_total_steps = 100'000;
      const BatchSummary theirs = runner.run(
          opts, std::string(scheduler) == "random" ? random : avoid);
      EXPECT_EQ(ours.num_runs, kSeeds);
      expect_equal_summaries(ours, theirs);

      // Any sub-range is the same arithmetic.
      const SeedRange tail{kFirstSeed + 60, 40};
      opts.first_seed = tail.first_seed;
      opts.num_runs = tail.num_runs;
      expect_equal_summaries(
          sweep.run(tail, 1),
          runner.run(opts, std::string(scheduler) == "random" ? random
                                                              : avoid));
    }
  }
}

}  // namespace
}  // namespace cil
