// The tentpole's register story, asserted from both sides:
//
//   * cell-level garbage injected UNDERNEATH the Lamport constructions is
//     masked by them — AtomicSwmr/FourSlotAtomic still pass the history
//     atomicity check with genuinely dirty safe cells;
//   * word-level flicker injected ABOVE a raw atomic backend demotes it to
//     a safe register — the same check demonstrably fails;
//   * the coordination protocols running over the constructed stack stay
//     consistent with cell faults plus up to n-1 injected crashes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/faulty_registers.h"
#include "registers/constructions.h"
#include "registers/history.h"
#include "runtime/threaded.h"

namespace cil::fault {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

hw::CellFaultConfig aggressive_cells(std::atomic<std::int64_t>* counter) {
  hw::CellFaultConfig cfg;
  cfg.garbage_prob = 0.5;
  cfg.garbage_rounds = 2;
  cfg.settle_spins = 1;
  cfg.fault_counter = counter;
  return cfg;
}

TEST(CellFaults, FourSlotMasksGarbageCellsMultiWordPayload) {
  struct Pair {
    std::uint64_t x;
    std::uint64_t y;  // invariant: y == ~x; a torn/garbage read breaks it
  };
  std::atomic<std::int64_t> injected{0};
  const hw::CellFaultConfig cfg = aggressive_cells(&injected);
  hw::FourSlotAtomic<Pair> reg(Pair{0, ~0ull});
  reg.enable_faults(&cfg, /*seed=*/21);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Pair p = reg.read();
      if (p.y != ~p.x) torn.fetch_add(1);
    }
  });
  for (std::uint64_t v = 1; v <= 6000; ++v) reg.write(Pair{v, ~v});
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(injected.load(), 0) << "faults must actually have fired";
}

// The acceptance criterion's first half: the construction stack, soak-tested
// from flickering cells upward, still linearizes.
TEST(CellFaults, AtomicSwmrPassesAtomicityCheckUnderCellGarbage) {
  constexpr int kReaders = 2;
  constexpr int kWrites = 4000;
  std::atomic<std::int64_t> injected{0};
  const hw::CellFaultConfig cfg = aggressive_cells(&injected);
  hw::AtomicSwmr<std::uint64_t> reg(kReaders, 0);
  reg.enable_faults(&cfg, /*seed=*/33);

  std::vector<hw::HistoryLog> logs(kReaders + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int rid = 0; rid < kReaders; ++rid) {
    readers.emplace_back([&, rid] {
      while (!stop.load(std::memory_order_relaxed)) {
        hw::OpRecord op;
        op.kind = hw::OpRecord::Kind::kRead;
        op.actor = 1 + rid;
        op.start_ns = now_ns();
        op.value = reg.read(rid);
        op.end_ns = now_ns();
        logs[1 + rid].record(op);
      }
    });
  }
  for (std::uint64_t v = 1; v <= kWrites; ++v) {
    hw::OpRecord op;
    op.kind = hw::OpRecord::Kind::kWrite;
    op.actor = 0;
    op.value = v;
    op.start_ns = now_ns();
    reg.write(v);
    op.end_ns = now_ns();
    logs[0].record(op);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  const auto r = hw::check_single_writer_atomicity(
      hw::merge_histories(logs), /*initial=*/0);
  EXPECT_TRUE(r.ok) << r.diagnosis;
  EXPECT_GT(injected.load(), 0) << "faults must actually have fired";
}

/// Minimal raw backend: one std::atomic word per register — atomic until
/// FaultyRegisters demotes it.
class OneWordBackend final : public rt::SharedRegisters {
 public:
  explicit OneWordBackend(Word initial) : cell_(initial) {}
  Word read(RegisterId, ProcessId) override {
    return cell_.load(std::memory_order_acquire);
  }
  void write(RegisterId, ProcessId, Word value) override {
    cell_.store(value, std::memory_order_release);
  }

 private:
  std::atomic<Word> cell_;
};

// The acceptance criterion's second half: the SAME check that the
// construction stack passes fails for a raw word behind flicker — the
// decorator really does demote atomic to safe.
TEST(WordFaults, FlickerDemotesRawAtomicBackendToSafe) {
  RegisterFaultConfig cfg;
  cfg.flicker_prob = 1.0;  // every write publishes garbage first
  cfg.flicker_burst = 4;
  FaultyRegisters regs(std::make_unique<OneWordBackend>(0), cfg, /*seed=*/5,
                       /*initial_values=*/{0}, /*num_processes=*/2);

  constexpr std::uint64_t kMaxWrites = 200000;
  hw::HistoryLog writer_log, reader_log;
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_garbage{false};

  // The reader spins orders of magnitude faster than the flicker-stretched
  // writes, so bound its log (the atomicity check is what gets slow) and
  // stop as soon as the history holds enough evidence.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      hw::OpRecord op;
      op.kind = hw::OpRecord::Kind::kRead;
      op.actor = 1;
      op.start_ns = now_ns();
      op.value = regs.read(0, 1);
      op.end_ns = now_ns();
      reader_log.record(op);
      // Garbage words are full-range rng.bits(); legitimate values are
      // 0..kMaxWrites, so anything larger is flicker caught in the act.
      if (op.value > kMaxWrites) saw_garbage.store(true);
      const std::size_t logged = reader_log.ops().size();
      if (logged >= 2'000'000 || (saw_garbage.load() && logged >= 10'000))
        break;
    }
  });
  for (std::uint64_t v = 1; v <= kMaxWrites; ++v) {
    hw::OpRecord op;
    op.kind = hw::OpRecord::Kind::kWrite;
    op.actor = 0;
    op.value = v;
    op.start_ns = now_ns();
    regs.write(0, 0, v);
    op.end_ns = now_ns();
    writer_log.record(op);
    if (v >= 200 && saw_garbage.load()) break;  // enough evidence
  }
  stop.store(true);
  reader.join();

  ASSERT_TRUE(saw_garbage.load())
      << "reader never overlapped a flickering write";
  const auto r = hw::check_single_writer_atomicity(
      hw::merge_histories({writer_log, reader_log}), /*initial=*/0);
  EXPECT_FALSE(r.ok) << "a safe register must NOT pass the atomicity check";
  EXPECT_GT(regs.faults_injected(), 0);
}

TEST(WordFaults, StaleReadsStayWithinDeclaredDepth) {
  RegisterFaultConfig cfg;
  cfg.stale_prob = 1.0;
  cfg.stale_depth = 3;
  FaultyRegisters regs(std::make_unique<OneWordBackend>(0), cfg, /*seed=*/8,
                       {0}, 1);
  // Single-threaded: every read is stale by 1..stale_depth writes (the
  // initial value counts as committed history), never the current value,
  // never older than the declared bound.
  for (Word v = 1; v <= 100; ++v) {
    regs.write(0, 0, v);
    const Word seen = regs.read(0, 0);
    EXPECT_LT(seen, v) << "a stale read must not be current";
    EXPECT_GE(seen + 3, v) << "staleness bound violated";
  }
  EXPECT_EQ(regs.inner().read(0, 0), 100u) << "ground truth is committed";
}

TEST(WordFaults, DelayedWritesStillCommit) {
  RegisterFaultConfig cfg;
  cfg.delay_prob = 1.0;
  cfg.delay_window = 50;  // microseconds of dwell per write
  FaultyRegisters regs(std::make_unique<OneWordBackend>(7), cfg, /*seed=*/2,
                       {7}, 1);
  for (Word v = 1; v <= 20; ++v) {
    regs.write(0, 0, v);
    EXPECT_EQ(regs.read(0, 0), v) << "dwell delays, never loses, a write";
  }
  EXPECT_EQ(regs.faults_injected(), 20);
}

// The acceptance criterion's protocol half: F1/F2/F3 over the constructed
// backend with dirty cells AND n-1 crashes — survivors still agree.
void expect_survivors_agree(const Protocol& protocol,
                            const std::vector<Value>& inputs,
                            const std::string& plan_text) {
  const FaultPlan plan = FaultPlan::parse(plan_text);
  rt::ThreadedOptions options;
  options.seed = plan.seed;
  options.backend = rt::RegisterBackend::kConstructed;
  options.fault_plan = &plan;
  const auto r = rt::run_threaded(protocol, inputs, options);
  EXPECT_FALSE(r.timed_out) << plan_text;
  EXPECT_TRUE(r.consistent) << plan_text;
  EXPECT_TRUE(r.all_decided) << plan_text;  // survivors all decided
  EXPECT_GT(r.faults_injected, 0) << plan_text;
  // A crash keyed to a process's k-th own step fires only if the process
  // is still undecided after k steps; on real threads it may decide first.
  // What the plan guarantees: it crashed, or it decided within k steps.
  for (const auto& e : plan.crashes) {
    const auto pid = static_cast<std::size_t>(e.pid);
    EXPECT_TRUE(r.crashed[pid] || (r.decisions[pid] != kNoValue &&
                                   r.steps[pid] <= e.at_step))
        << plan_text << ": pid " << e.pid << " neither crashed nor decided "
        << "within " << e.at_step << " steps (took " << r.steps[pid] << ")";
  }
}

TEST(ProtocolsUnderFaults, TwoProcessSurvivesCellGarbageAndOneCrash) {
  TwoProcessProtocol protocol;
  expect_survivors_agree(protocol, {0, 1},
                         "fp1;seed=101;crash=1@6;cell=gp:0.4r2s1");
}

TEST(ProtocolsUnderFaults, UnboundedThreeSurvivesCellGarbageAndTwoCrashes) {
  UnboundedProtocol protocol(3);
  expect_survivors_agree(protocol, {0, 1, 1},
                         "fp1;seed=202;crash=0@4,2@9;cell=gp:0.4r2s1");
}

TEST(ProtocolsUnderFaults, BoundedThreeSurvivesCellGarbageAndTwoCrashes) {
  BoundedThreeProtocol protocol;
  expect_survivors_agree(protocol, {1, 0, 1},
                         "fp1;seed=303;crash=1@5,2@11;cell=gp:0.4r2s1");
}

TEST(ProtocolsUnderFaults, DwellFaultsPreserveAtomicityEnvelope) {
  // Write-dwell is legal even for atomic registers, so it may ride on the
  // RAW backend and the protocol must still coordinate.
  UnboundedProtocol protocol(3);
  const FaultPlan plan = FaultPlan::parse("fp1;seed=404;reg=dw:0.2w100");
  rt::ThreadedOptions options;
  options.seed = 404;
  options.fault_plan = &plan;
  const auto r = rt::run_threaded(protocol, {0, 0, 1}, options);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.faults_injected, 0);
}

}  // namespace
}  // namespace cil::fault
