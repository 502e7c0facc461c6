// Fabric data-plane pins: the merge monoid and the checkpoint store.
//
//   * split/shard_seed_range semantics, including agreement with the split
//     BatchRunner uses for its thread shards;
//   * cilcoord.batch_summary.v1 serialize → parse → re-serialize equality
//     (the JSON layer's %.17g doubles make the round trip exact);
//   * THE MERGE-ALGEBRA PROPERTY: folding the shard summaries of any random
//     partition of a seed range — in any order, any association — equals
//     the single-shot BatchSummary bit-for-bit;
//   * overlap rejection, gap detection, and partial concatenation;
//   * CheckpointStore: fresh open, commit, resume, orphan adoption, config
//     mismatch rejection, and crash-atomic writes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "obs/export.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "util/check.h"

namespace cil {
namespace {

using fabric::CheckpointStore;
using fabric::ShardSummary;
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
  EXPECT_EQ(a.steps.samples(), b.steps.samples());
  EXPECT_EQ(a.steps_p0.samples(), b.steps_p0.samples());
  EXPECT_EQ(a.steps_p1.samples(), b.steps_p1.samples());
  EXPECT_EQ(a.max_register_bits.samples(), b.max_register_bits.samples());
  EXPECT_EQ(a.probe.samples(), b.probe.samples());
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
  // CheckpointStores rewriting a manifest): every write must land whole,
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
    EXPECT_FALSE(store.is_complete(1));  // written but not committed
    ASSERT_TRUE(store.commit_shard(1));
    EXPECT_TRUE(store.is_complete(1));
  }
  {
    // Reopen: the manifest remembers the commit.
    CheckpointStore store(dir);
    const std::vector<int> done = store.open(config);
    ASSERT_EQ(done, (std::vector<int>{1}));
    const ShardSummary loaded = store.load_shard(1);
    EXPECT_EQ(loaded.range, (SeedRange{9, 8}));
    EXPECT_EQ(store.merged().num_runs(), 8);
  }
}

TEST(CheckpointStore, AdoptsOrphanedShardFilesOnOpen) {
  // A worker that died between write_shard and commit leaves a valid file
  // not listed in the manifest; open() must claim it, because determinism
  // makes it byte-equal to what a retry would recompute.
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

TEST(CheckpointStore, SweepConfigJsonRoundTrips) {
  SweepConfig config = small_config();
  config.range.first_seed = (1ULL << 60) + 9;
  const SweepConfig back = fabric::sweep_config_from_json(
      Json::parse(fabric::sweep_config_to_json(config).dump()));
  EXPECT_EQ(back, config);
}

}  // namespace
}  // namespace cil
