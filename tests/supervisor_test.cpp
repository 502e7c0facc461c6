// Supervisor pins: the fork-based fleet completes, retries, times out,
// degrades, and resumes.
//
//   * a clean fleet commits every shard and needs no retries;
//   * a worker that crashes on its first attempts is retried with backoff
//     until its budget allows success;
//   * a hung worker is SIGKILLed at the shard timeout and retried;
//   * a shard that exhausts its retry budget lands in incomplete_shards
//     while every other shard still completes (graceful degradation);
//   * resume skips checkpoint-committed shards without relaunching them,
//     and reruns a shard an older manifest lists but whose file is gone;
//   * THE CRASH-RESUME PIN: a sweep whose SUPERVISOR is SIGKILLed
//     mid-flight, then resumed in a fresh process against the same
//     checkpoint directory, yields a merged summary bit-identical to an
//     uninterrupted single-process run over the whole seed range.
//
// Everything here forks, so this binary must stay effectively
// single-threaded in the parent (gtest runs tests sequentially — fine).
// POSIX-only: the whole suite is skipped on _WIN32.
#ifndef _WIN32

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_process.h"
#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "fabric/supervisor.h"
#include "obs/json.h"
#include "sched/batch.h"
#include "sched/schedulers.h"

namespace cil {
namespace {

using fabric::CheckpointStore;
using fabric::ShardTask;
using fabric::ShardWorker;
using fabric::SupervisorOptions;
using fabric::SweepConfig;
using fabric::SweepOutcome;

SchedulerFactory random_factory() {
  return [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
}

BatchSummary run_range(const SeedRange& r) {
  TwoProcessProtocol protocol;
  BatchRunner runner(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = r.first_seed;
  opts.num_runs = r.num_runs;
  opts.max_total_steps = 100'000;
  return runner.run(opts, random_factory());
}

/// The honest shard body every test builds on: compute and persist.
int compute_and_write(const CheckpointStore& store, const ShardTask& task) {
  fabric::ShardSummary shard;
  shard.range = task.range;
  shard.summary = run_range(task.range);
  return store.write_shard(task.index, shard) ? 0 : 4;
}

SweepConfig test_config(std::int64_t num_runs = 24, std::int64_t shard = 6) {
  SweepConfig config;
  config.protocol = "two";
  config.num_processes = 2;
  config.scheduler = "random";
  config.range = {1, num_runs};
  config.shard_size = shard;
  config.max_total_steps = 100'000;
  return config;
}

std::string temp_dir(const std::string& stem) {
  const std::string dir = testing::TempDir() + "/" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::vector<ShardTask> all_tasks(const CheckpointStore& store) {
  std::vector<ShardTask> tasks;
  for (int i = 0; i < store.num_shards(); ++i)
    tasks.push_back({i, store.shard_range(i)});
  return tasks;
}

SupervisorOptions fast_options() {
  SupervisorOptions options;
  options.workers = 3;
  options.policy.retry_budget = 3;
  options.policy.backoff_initial_seconds = 0.01;
  options.policy.backoff_max_seconds = 0.05;
  options.policy.timeout_seconds = 30.0;
  return options;
}

TEST(Backoff, GrowsGeometricallyAndSaturates) {
  fabric::ShardPolicy policy;
  policy.backoff_initial_seconds = 0.1;
  policy.backoff_max_seconds = 0.5;
  EXPECT_DOUBLE_EQ(fabric::backoff_seconds(policy, 0), 0.1);
  EXPECT_DOUBLE_EQ(fabric::backoff_seconds(policy, 1), 0.2);
  EXPECT_DOUBLE_EQ(fabric::backoff_seconds(policy, 2), 0.4);
  EXPECT_DOUBLE_EQ(fabric::backoff_seconds(policy, 3), 0.5);  // capped
  EXPECT_DOUBLE_EQ(fabric::backoff_seconds(policy, 9), 0.5);
}

TEST(Supervisor, CleanFleetCommitsEverythingWithoutRetries) {
  CheckpointStore store(temp_dir("sup_clean"));
  (void)store.open(test_config());
  const SweepOutcome outcome = fabric::run_supervised(
      all_tasks(store), fast_options(), store,
      [&](const ShardTask& task, int) { return compute_and_write(store, task); });

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.retries, 0);
  ASSERT_EQ(outcome.shards.size(), 4u);
  for (const auto& shard : outcome.shards) {
    EXPECT_TRUE(shard.completed);
    EXPECT_FALSE(shard.resumed);
    EXPECT_EQ(shard.attempts, 1);
    EXPECT_TRUE(shard.last_error.empty());
  }
  const BatchSummary merged = store.merged().to_batch_summary();
  EXPECT_TRUE(
      fabric::deterministic_fields_equal(merged, run_range({1, 24})));
}

TEST(Supervisor, CrashingWorkerIsRetriedUntilItSucceeds) {
  CheckpointStore store(temp_dir("sup_retry"));
  (void)store.open(test_config());
  // Shard 2 _exits uncleanly on attempts 0 and 1, succeeds on attempt 2.
  const ShardWorker worker = [&](const ShardTask& task, int attempt) {
    if (task.index == 2 && attempt < 2) _exit(7);
    return compute_and_write(store, task);
  };
  const SweepOutcome outcome =
      fabric::run_supervised(all_tasks(store), fast_options(), store, worker);

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.retries, 2);
  EXPECT_EQ(outcome.shards[2].attempts, 3);
  EXPECT_EQ(outcome.shards[2].last_error, "exit=7");
  EXPECT_TRUE(outcome.shards[2].completed);
}

TEST(Supervisor, HungWorkerIsKilledAtTheTimeoutAndRetried) {
  CheckpointStore store(temp_dir("sup_hang"));
  (void)store.open(test_config(12, 6));
  SupervisorOptions options = fast_options();
  // Far below the 30 s hang, yet roomy enough that a healthy attempt's
  // fsync'd shard write on a loaded machine is not mistaken for a hang.
  options.policy.timeout_seconds = 3.0;
  const ShardWorker worker = [&](const ShardTask& task, int attempt) {
    if (task.index == 0 && attempt == 0)
      std::this_thread::sleep_for(std::chrono::seconds(30));  // hang
    return compute_and_write(store, task);
  };
  const auto t0 = std::chrono::steady_clock::now();
  const SweepOutcome outcome =
      fabric::run_supervised(all_tasks(store), options, store, worker);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.shards[0].last_error, "timeout");
  EXPECT_EQ(outcome.shards[0].attempts, 2);
  EXPECT_LT(elapsed, 20.0);  // the 30s sleep did not run its course
}

TEST(Supervisor, BudgetExhaustionDegradesGracefully) {
  CheckpointStore store(temp_dir("sup_budget"));
  (void)store.open(test_config());
  SupervisorOptions options = fast_options();
  options.policy.retry_budget = 2;
  // Shard 1 never succeeds; everything else is healthy.
  const ShardWorker worker = [&](const ShardTask& task, int) {
    if (task.index == 1) _exit(9);
    return compute_and_write(store, task);
  };
  const SweepOutcome outcome =
      fabric::run_supervised(all_tasks(store), options, store, worker);

  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.incomplete_shards, (std::vector<int>{1}));
  EXPECT_EQ(outcome.shards[1].attempts, 3);  // 1 try + 2 retries
  EXPECT_FALSE(outcome.shards[1].completed);
  for (const int i : {0, 2, 3}) EXPECT_TRUE(outcome.shards[i].completed);

  // The partial merge holds exactly the healthy shards, gaps explicit.
  const fabric::SweepSummary merged = store.merged();
  EXPECT_FALSE(merged.contiguous());
  EXPECT_EQ(merged.num_runs(), 18);
  EXPECT_EQ(merged.to_partial_batch_summary().num_runs, 18);
}

TEST(Supervisor, ExitZeroWithoutAShardFileCountsAsFailure) {
  CheckpointStore store(temp_dir("sup_liar"));
  (void)store.open(test_config(12, 6));
  SupervisorOptions options = fast_options();
  options.policy.retry_budget = 1;
  // Shard 0 claims success but never writes; the commit must catch it.
  const ShardWorker worker = [&](const ShardTask& task, int) {
    if (task.index == 0) return 0;
    return compute_and_write(store, task);
  };
  const SweepOutcome outcome =
      fabric::run_supervised(all_tasks(store), options, store, worker);
  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.shards[0].last_error, "shard file invalid");
}

TEST(Supervisor, ResumeSkipsCommittedShardsWithoutLaunching) {
  const std::string dir = temp_dir("sup_resume");
  const SweepConfig config = test_config();
  {
    CheckpointStore store(dir);
    (void)store.open(config);
    // First pass: only shards 0 and 2 succeed.
    SupervisorOptions options = fast_options();
    options.policy.retry_budget = 0;
    const ShardWorker worker = [&](const ShardTask& task, int) {
      if (task.index == 1 || task.index == 3) _exit(5);
      return compute_and_write(store, task);
    };
    const SweepOutcome first =
        fabric::run_supervised(all_tasks(store), options, store, worker);
    EXPECT_EQ(first.incomplete_shards, (std::vector<int>{1, 3}));
  }
  {
    CheckpointStore store(dir);
    const std::vector<int> done = store.open(config);
    EXPECT_EQ(done, (std::vector<int>{0, 2}));
    // Second pass: a worker invoked for a committed shard would _exit(99)
    // and fail the sweep — proving resumed shards are never relaunched.
    const ShardWorker worker = [&](const ShardTask& task, int) {
      if (store.is_complete(task.index)) _exit(99);
      return compute_and_write(store, task);
    };
    const SweepOutcome second = fabric::run_supervised(
        all_tasks(store), fast_options(), store, worker);
    EXPECT_TRUE(second.complete());
    EXPECT_TRUE(second.shards[0].resumed);
    EXPECT_EQ(second.shards[0].attempts, 0);
    EXPECT_TRUE(second.shards[2].resumed);
    EXPECT_FALSE(second.shards[1].resumed);
    EXPECT_TRUE(fabric::deterministic_fields_equal(
        store.merged().to_batch_summary(), run_range(config.range)));
  }
}

TEST(Supervisor, SigkilledSweepResumesToTheUninterruptedSummary) {
  // The acceptance pin. A grandchild process runs a full supervised sweep
  // and reports each commit over a pipe; we SIGKILL it after the first
  // commit — mid-sweep, workers in flight — then resume in THIS process
  // and compare against an uninterrupted serial run.
  const std::string dir = temp_dir("sup_sigkill");
  const SweepConfig config = test_config(32, 4);  // 8 shards

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The doomed supervisor. Slow workers stretch the window so the kill
    // lands while shards are genuinely in flight.
    close(fds[0]);
    CheckpointStore store(dir);
    (void)store.open(config);
    SupervisorOptions options = fast_options();
    options.workers = 2;
    const int pipe_fd = fds[1];
    const ShardWorker worker = [&](const ShardTask& task, int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return compute_and_write(store, task);
    };
    // Report commits as they land: run_supervised commits internally, so
    // poll the directory, where every valid shard file is a commit.
    std::thread reporter([&] {
      for (;;) {
        CheckpointStore watch(dir);
        const std::size_t n = watch.open(config).size();
        if (n > 0) {
          const char byte = 'c';
          (void)write(pipe_fd, &byte, 1);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    (void)fabric::run_supervised(all_tasks(store), options, store, worker);
    reporter.join();
    _exit(0);
  }
  close(fds[1]);
  // Wait for the first committed shard, then kill the supervisor dead.
  char byte = 0;
  ASSERT_EQ(read(fds[0], &byte, 1), 1);
  close(fds[0]);
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Orphaned worker grandchildren may still be running; their writes are
  // atomic and deterministic, so they are harmless (identical bytes).
  // Resume in this process and finish the sweep.
  CheckpointStore store(dir);
  const std::size_t already = store.open(config).size();
  EXPECT_GE(already, 1u);  // the kill landed mid-sweep, not before work
  const SweepOutcome outcome = fabric::run_supervised(
      all_tasks(store), fast_options(), store,
      [&](const ShardTask& task, int) { return compute_and_write(store, task); });
  EXPECT_TRUE(outcome.complete());
  EXPECT_LT(already, static_cast<std::size_t>(store.num_shards()));

  const BatchSummary resumed = store.merged().to_batch_summary();
  const BatchSummary uninterrupted = run_range(config.range);
  EXPECT_TRUE(fabric::deterministic_fields_equal(resumed, uninterrupted));
  EXPECT_EQ(resumed.steps.bins(), uninterrupted.steps.bins());
  EXPECT_EQ(resumed.run_digest, uninterrupted.run_digest);
}

TEST(Supervisor, ConcurrentSupervisorsOnOneCheckpointAgree) {
  // Two whole supervisors race over the SAME checkpoint directory — the
  // operator ran the resume command twice. The one-phase protocol must
  // make that harmless: shard writes are atomic and deterministic
  // (identical bytes either way), and the manifest is written once, so
  // both finish, the union holds every shard, and the merged summary is
  // bit-identical.
  const std::string dir = temp_dir("sup_concurrent");
  const SweepConfig config = test_config(32, 4);  // 8 shards

  const auto spawn_supervisor = [&]() -> pid_t {
    const pid_t child = fork();
    if (child != 0) return child;
    CheckpointStore store(dir);
    (void)store.open(config);
    SupervisorOptions options = fast_options();
    options.workers = 2;
    const ShardWorker worker = [&](const ShardTask& task, int) {
      // A little jitter so the two fleets interleave rather than racing
      // through in lockstep.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 + (task.index * 7) % 20));
      return compute_and_write(store, task);
    };
    const SweepOutcome outcome =
        fabric::run_supervised(all_tasks(store), options, store, worker);
    _exit(outcome.complete() ? 0 : 3);
  };

  const pid_t a = spawn_supervisor();
  ASSERT_GE(a, 0);
  const pid_t b = spawn_supervisor();
  ASSERT_GE(b, 0);
  for (const pid_t child : {a, b}) {
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  CheckpointStore store(dir);
  EXPECT_EQ(store.open(config).size(), 8u);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      store.merged().to_batch_summary(), run_range(config.range)));

  // Neither supervisor touched the manifest after the open that wrote it:
  // it is byte-for-byte what a fresh open writes for this config.
  const std::string fresh = temp_dir("sup_concurrent_fresh");
  CheckpointStore fresh_store(fresh);
  (void)fresh_store.open(config);
  EXPECT_EQ(read_text(store.manifest_path()),
            read_text(fresh_store.manifest_path()));
}

TEST(CheckpointStore, ListedShardWithoutAFileIsRerun) {
  // Older builds listed committed shards in the manifest. A listed shard
  // whose file is gone is not complete: open() counts only shard files,
  // and the supervisor reruns the rest.
  const std::string dir = temp_dir("ckpt_listed_missing");
  const SweepConfig config = test_config();  // 4 shards
  {
    CheckpointStore store(dir);
    (void)store.open(config);
    ASSERT_EQ(compute_and_write(store, {0, store.shard_range(0)}), 0);
  }
  obs::Json manifest = obs::Json::object();
  manifest["artifact"] = obs::Json(fabric::kManifestArtifactName);
  obs::Json listed = obs::Json::array();
  listed.push_back(obs::Json(0));
  listed.push_back(obs::Json(1));
  manifest["completed"] = std::move(listed);
  manifest["config"] = fabric::sweep_config_to_json(config);
  {
    std::ofstream os(dir + "/manifest.json", std::ios::trunc);
    os << manifest.dump() << "\n";
  }

  CheckpointStore store(dir);
  EXPECT_EQ(store.open(config), (std::vector<int>{0}));
  const SweepOutcome outcome = fabric::run_supervised(
      all_tasks(store), fast_options(), store,
      [&](const ShardTask& task, int) { return compute_and_write(store, task); });
  EXPECT_TRUE(outcome.complete());
  EXPECT_TRUE(outcome.shards[0].resumed);
  EXPECT_FALSE(outcome.shards[1].resumed);
  EXPECT_TRUE(outcome.shards[1].completed);
  EXPECT_EQ(outcome.shards[1].attempts, 1);
  EXPECT_TRUE(fabric::deterministic_fields_equal(
      store.merged().to_batch_summary(), run_range(config.range)));
}

}  // namespace
}  // namespace cil

#endif  // _WIN32
