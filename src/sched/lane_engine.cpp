#include "sched/lane_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <span>
#include <sstream>

#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cil {

namespace {

/// Figure 1's default-mode register encoding (TwoProcessProtocol::encode).
/// The lockstep kernel owns a copy because it reimplements the whole
/// automaton; Protocol::lane_soa_two_process is the promise that this codec
/// and program match the protocol instance.
constexpr Word lane_encode(Value v) {
  return v == kNoValue ? 0 : static_cast<Word>(v) + 1;
}

// ---------------------------------------------------------------------------
// SIMD xoshiro256** batch kernels.
//
// The round loop consumes exactly one bit per advanced lane — bit 0 of the
// xoshiro256** output, which survives the odd-multiplier ** finalizer as
// bit 57 of s1*5 (see the automaton comments below) — so the kernels return
// the advanced lanes' bits packed into one word, bit l = lane l. s1*5 is
// computed as (s1 << 2) + s1: there is no 64-bit vector multiply below
// AVX-512, and shift+add vectorizes everywhere. A further << 6 moves bit 57
// to the sign bit, where one movemask (simd::sign_bits) packs a whole
// chunk's bits; no lane is extracted on its own.
//
// advance_n_masked blends: lanes whose mask element is 0 keep their state
// unchanged and report bit 0. This is what preserves per-lane bit-identity
// when only some lanes consume a word this round (coin flips, fault-plan
// idle ticks) — a kept lane's next draw is still its next stream word. The
// masked kernel blends every full chunk, an all-zero one included, so a
// round takes no per-chunk branch, and it builds each chunk's lane mask in
// registers (simd::u64x::lane_mask), so no chunk waits on a store.
// ---------------------------------------------------------------------------

template <int N>
[[gnu::always_inline]] inline simd::u64x<N> advance_n(std::uint64_t* s0p,
                                                      std::uint64_t* s1p,
                                                      std::uint64_t* s2p,
                                                      std::uint64_t* s3p) {
  using V = simd::u64x<N>;
  V s0 = V::load(s0p), s1 = V::load(s1p), s2 = V::load(s2p), s3 = V::load(s3p);
  const V bit = ((s1 << 2) + s1) << 6;  // the drawn bit at bit 63
  const V t = s1 << 17;
  s2 = s2 ^ s0;
  s3 = s3 ^ s1;
  s1 = s1 ^ s2;
  s0 = s0 ^ s3;
  s2 = s2 ^ t;
  s3 = simd::rotl(s3, 45);
  s0.store(s0p);
  s1.store(s1p);
  s2.store(s2p);
  s3.store(s3p);
  return bit;
}

template <int N>
[[gnu::always_inline]] inline simd::u64x<N> advance_n_masked(
    std::uint64_t* s0p, std::uint64_t* s1p, std::uint64_t* s2p,
    std::uint64_t* s3p, simd::u64x<N> m) {
  using V = simd::u64x<N>;
  const V o0 = V::load(s0p), o1 = V::load(s1p), o2 = V::load(s2p),
          o3 = V::load(s3p);
  V s0 = o0, s1 = o1, s2 = o2, s3 = o3;
  const V bit = ((s1 << 2) + s1) << 6;  // the drawn bit at bit 63
  const V t = s1 << 17;
  s2 = s2 ^ s0;
  s3 = s3 ^ s1;
  s1 = s1 ^ s2;
  s0 = s0 ^ s3;
  s2 = s2 ^ t;
  s3 = simd::rotl(s3, 45);
  ((s0 & m) | (o0 & ~m)).store(s0p);
  ((s1 & m) | (o1 & ~m)).store(s1p);
  ((s2 & m) | (o2 & ~m)).store(s2p);
  ((s3 & m) | (o3 & ~m)).store(s3p);
  return bit & m;
}

template <int N>
[[gnu::always_inline]] inline std::uint64_t advance_all_impl(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W) {
  std::uint64_t bits = 0;
  int l = 0;
  for (; l + N <= W; l += N)
    bits |= std::uint64_t{simd::sign_bits(
                advance_n<N>(s0 + l, s1 + l, s2 + l, s3 + l))}
            << l;
  for (; l < W; ++l)
    bits |= std::uint64_t{simd::sign_bits(
                advance_n<1>(s0 + l, s1 + l, s2 + l, s3 + l))}
            << l;
  return bits;
}

template <int N>
[[gnu::always_inline]] inline std::uint64_t advance_masked_impl(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W, std::uint64_t mask) {
  std::uint64_t bits = 0;
  int l = 0;
  for (; l + N <= W; l += N) {
    const auto m =
        simd::u64x<N>::lane_mask(static_cast<unsigned>(mask >> l));
    bits |= std::uint64_t{simd::sign_bits(
                advance_n_masked<N>(s0 + l, s1 + l, s2 + l, s3 + l, m))}
            << l;
  }
  for (; l < W; ++l) {
    if ((mask >> l & 1u) != 0)
      bits |= std::uint64_t{simd::sign_bits(
                  advance_n<1>(s0 + l, s1 + l, s2 + l, s3 + l))}
              << l;
  }
  return bits;
}

// Width wrappers: plain functions the runtime dispatch can take addresses
// of. The width-4 bodies are compiled with a per-function AVX2 target (the
// baseline build stays SSE2-clean) and only ever selected behind
// simd::runtime_max_width()'s __builtin_cpu_supports guard.
std::uint64_t advance_all_w1(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3, int W) {
  return advance_all_impl<1>(s0, s1, s2, s3, W);
}
std::uint64_t advance_masked_w1(std::uint64_t* s0, std::uint64_t* s1,
                                std::uint64_t* s2, std::uint64_t* s3, int W,
                                std::uint64_t mask) {
  return advance_masked_impl<1>(s0, s1, s2, s3, W, mask);
}

#if !defined(CIL_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__aarch64__))
#define CIL_LANE_HAVE_W2 1
std::uint64_t advance_all_w2(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3, int W) {
  return advance_all_impl<2>(s0, s1, s2, s3, W);
}
std::uint64_t advance_masked_w2(std::uint64_t* s0, std::uint64_t* s1,
                                std::uint64_t* s2, std::uint64_t* s3, int W,
                                std::uint64_t mask) {
  return advance_masked_impl<2>(s0, s1, s2, s3, W, mask);
}
#endif

#if !defined(CIL_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(__x86_64__)
#define CIL_LANE_HAVE_W4 1
__attribute__((target("avx2"))) std::uint64_t advance_all_w4(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W) {
  return advance_all_impl<4>(s0, s1, s2, s3, W);
}
__attribute__((target("avx2"))) std::uint64_t advance_masked_w4(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W, std::uint64_t mask) {
  return advance_masked_impl<4>(s0, s1, s2, s3, W, mask);
}
#endif

struct LaneKernels {
  std::uint64_t (*advance_all)(std::uint64_t*, std::uint64_t*, std::uint64_t*,
                               std::uint64_t*, int);
  std::uint64_t (*advance_masked)(std::uint64_t*, std::uint64_t*,
                                  std::uint64_t*, std::uint64_t*, int,
                                  std::uint64_t);
};

LaneKernels lane_kernels_for(int width) {
  switch (width) {
#ifdef CIL_LANE_HAVE_W4
    case 4:
      return {advance_all_w4, advance_masked_w4};
#endif
#ifdef CIL_LANE_HAVE_W2
    case 2:
      return {advance_all_w2, advance_masked_w2};
#endif
    default:
      return {advance_all_w1, advance_masked_w1};
  }
}

/// Plans the lockstep kernel can represent natively: at most one crash, and
/// at most one recovery of its victim. Recoveries of any other pid never arm
/// (no crash of theirs fires), so they stay inert. Everything else — stalls,
/// word faults, multi-crash plans (whose survivor-rule diagnostics the
/// kernel does not replicate), a second recovery of the victim (whose
/// double-recover ContractViolation it does not replicate), out-of-range
/// pids — diverges to the per-seed path, which reproduces the scalar
/// engine's behavior and diagnostics exactly.
bool lane_plan_supported(const fault::FaultPlan& plan) {
  if (!plan.stalls.empty() || plan.registers.any_word_faults()) return false;
  if (plan.crashes.size() > 1) return false;
  for (const fault::CrashEvent& c : plan.crashes)
    if (c.pid < 0 || c.pid >= 2 || c.at_step < 0) return false;
  int matching = 0;
  for (const fault::RecoveryEvent& r : plan.recoveries) {
    if (r.pid < 0 || r.pid >= 2 || r.delay < 0) return false;
    if (!plan.crashes.empty() && r.pid == plan.crashes[0].pid) ++matching;
  }
  return matching <= 1;
}

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// round + n for n >= 0, saturating: a budget or recovery delay near the top
/// of the int64 range means "never", not a wrapped-around past round.
constexpr std::int64_t round_after(std::int64_t round, std::int64_t n) {
  return n > kNever - round ? kNever : round + n;
}

/// Vertical (bit-plane) counters for the bitsliced kernel: plane k holds
/// bit k of all 64 lanes' counts, so counting a masked set of lanes up by
/// one is a ripple-carry across planes — the carry word usually dies after
/// a plane or two — instead of up to 64 scalar increments. The kernel's
/// own-step counts are these: one counter fault-free, one per process under
/// a plan (see run_soa_sliced).
struct BitPlanes {
  std::array<std::uint64_t, 64> plane{};  ///< counts < 2^64 by construction
  int used = 0;                           ///< planes ever touched

  void add(std::uint64_t mask) {
    std::uint64_t carry = mask;
    int k = 0;
    while (carry != 0) {
      const std::uint64_t t = plane[static_cast<std::size_t>(k)];
      plane[static_cast<std::size_t>(k)] = t ^ carry;
      carry &= t;
      ++k;
    }
    if (k > used) used = k;
  }
  /// The lanes whose count is at least k >= 0: a bit-serial compare, most
  /// significant plane first. Planes at and above `used` are zero, so a k
  /// that needs more bits than that exceeds every count.
  std::uint64_t at_least(std::int64_t k) const {
    const auto u = static_cast<std::uint64_t>(k);
    if (std::bit_width(u) > static_cast<unsigned>(used)) return 0;
    std::uint64_t gt = 0, eq = ~std::uint64_t{0};
    for (int b = used - 1; b >= 0; --b) {
      const std::uint64_t p = plane[static_cast<std::size_t>(b)];
      if ((u >> b & 1u) != 0) {
        eq &= p;
      } else {
        gt |= eq & p;
        eq &= ~p;
      }
    }
    return gt | eq;
  }
  std::int64_t read(int lane) const {
    std::int64_t v = 0;
    for (int k = 0; k < used; ++k)
      v |= static_cast<std::int64_t>(plane[static_cast<std::size_t>(k)] >>
                                         lane &
                                     1u)
           << k;
    return v;
  }
  /// Zeroes the counts of every lane in `mask`.
  void clear(std::uint64_t mask) {
    for (int k = 0; k < used; ++k) plane[static_cast<std::size_t>(k)] &= ~mask;
  }
};

}  // namespace

/// The lockstep kernel's column state. Only the PRNG streams are full words
/// per lane — word k of lane l at s[k][l], exactly the xoshiro256** state a
/// scalar Rng(seed) holds — kept SoA so the SIMD kernels step them in place;
/// the automaton itself lives in run_soa_sliced's bit planes.
struct LaneEngine::Soa {
  explicit Soa(int lanes) : W(lanes) {
    for (auto& s : sim_s) s.assign(static_cast<std::size_t>(W), 0);
    for (auto& s : sch_s) s.assign(static_cast<std::size_t>(W), 0);
    seed.assign(static_cast<std::size_t>(W), 0);
    schedule.resize(static_cast<std::size_t>(W));
  }

  /// Expand `s` into lane `lane` of a 4-word SoA xoshiro state, exactly as
  /// Xoshiro256's constructor would (SplitMix64 expansion + all-zero guard).
  static void seed_state(std::array<std::vector<std::uint64_t>, 4>& st,
                         int lane, std::uint64_t s) {
    SplitMix64 sm(s);
    std::uint64_t w[4];
    for (auto& x : w) x = sm.next();
    if ((w[0] | w[1] | w[2] | w[3]) == 0) w[0] = 1;
    for (int k = 0; k < 4; ++k) st[k][static_cast<std::size_t>(lane)] = w[k];
  }

  int W;
  std::array<std::vector<std::uint64_t>, 4> sim_s;  ///< coin stream
  std::array<std::vector<std::uint64_t>, 4> sch_s;  ///< scheduler stream
  std::vector<std::uint64_t> seed;
  std::vector<std::vector<ProcessId>> schedule;  ///< iff record_schedule
};

SchedulerProvider spec_scheduler(const LaneSchedSpec& spec) {
  if (spec.kind == LaneSchedSpec::Kind::kRandom) {
    return [s = std::make_shared<RandomScheduler>(0),
            x = spec.seed_xor](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ x);
      return *s;
    };
  }
  return [s = std::make_shared<DecisionAvoidingAdversary>(0),
          a = spec.seed_add](std::uint64_t seed) -> Scheduler& {
    s->reseed(seed + a);
    return *s;
  };
}

LaneEngine::LaneEngine(const Protocol& protocol, std::vector<Value> inputs)
    : protocol_(protocol), inputs_(std::move(inputs)) {
  CIL_EXPECTS(static_cast<int>(inputs_.size()) == protocol_.num_processes());

  // The lockstep kernel's setup-time validation: the protocol must claim the
  // Figure 1 default-mode automaton, the inputs must be binary (the kernel
  // keeps one bit per preference), and the word-wide checks RegisterFile
  // performs per access must hold for every access site the kernel will
  // ever execute — P_p writes register p and reads register 1-p, with
  // encoded preferences drawn from the two inputs (a coin step may adopt
  // the peer's). The sites and specs are identical in every lane, so this
  // is one check per site, not per lane per step. Anything failing here
  // diverges to the per-seed path, which reproduces the scalar engine's
  // diagnostics.
  if (protocol_.lane_soa_two_process() && protocol_.num_processes() == 2) {
    const RegisterSpecTable& t = *protocol_.shared_spec_table();
    const Word words = lane_encode(inputs_[0]) | lane_encode(inputs_[1]);
    bool ok = t.size() == 2;
    for (ProcessId p = 0; ok && p < 2; ++p) {
      const Value v = inputs_[static_cast<std::size_t>(p)];
      ok = t.writer_allowed(p, p) && t.reader_allowed(1 - p, p) &&
           (v == 0 || v == 1) && (words & ~t.width_mask(p)) == 0;
    }
    two_process_default_mode_ = ok;
  }
}

LaneEngine::~LaneEngine() = default;

bool LaneEngine::soa_supported(const LaneRunOptions& options) const {
  // A budget below 1 goes to Simulation::run, which then takes no step at
  // all; the kernel takes every lane's first step before its budget check.
  if (!(two_process_default_mode_ && options.scalar_run == nullptr &&
        options.scheduler == nullptr && options.probe == nullptr &&
        options.sched.kind == LaneSchedSpec::Kind::kRandom &&
        options.obs.sink == nullptr && options.max_total_steps >= 1))
    return false;
  if (options.fault_plan == nullptr) return true;
  // Fault lanes additionally need the protocol's recovery to be the
  // conservative re-read the kernel implements, and the plan to fit the
  // kernel's fault planes.
  return protocol_.lane_soa_conservative_recovery() &&
         lane_plan_supported(*options.fault_plan);
}

int LaneEngine::selected_simd_width(const LaneRunOptions& options) const {
  if (!soa_supported(options)) return 1;
  const int cap = simd::runtime_max_width();
  const int w =
      options.simd_width != 0 ? options.simd_width : simd::active_width();
  return std::min(w, cap);
}

bool LaneEngine::run(std::uint64_t first_seed, std::int64_t num_runs,
                     const LaneRunOptions& options,
                     const LaneHarvest& harvest) {
  CIL_EXPECTS(num_runs >= 0);
  CIL_EXPECTS(options.lanes >= 1);
  // Required on both paths, though only the per-seed one reads it: whether
  // a sweep is accepted must not depend on which kernel serves it.
  CIL_EXPECTS(options.check_every >= 1);
  CIL_EXPECTS(harvest != nullptr);
  CIL_EXPECTS(options.simd_width == 0 || options.simd_width == 1 ||
              options.simd_width == 2 || options.simd_width == 4);
  // A custom scalar runner owns its whole rig, fault injection included.
  CIL_EXPECTS(options.scalar_run == nullptr ||
              (options.fault_plan == nullptr && options.scheduler == nullptr &&
               options.probe == nullptr));
  failed_run_index_ = -1;
  if (num_runs == 0) return true;
  return soa_supported(options)
             ? run_soa(first_seed, num_runs, options, harvest)
             : run_scalar(first_seed, num_runs, options, harvest);
}

bool LaneEngine::run_soa(std::uint64_t first_seed, std::int64_t num_runs,
                         const LaneRunOptions& options,
                         const LaneHarvest& harvest) {
  const bool faults = options.fault_plan != nullptr;
  if (options.record_schedule)
    return faults ? run_soa_sliced<true, true>(first_seed, num_runs, options,
                                               harvest)
                  : run_soa_sliced<true, false>(first_seed, num_runs, options,
                                                harvest);
  return faults ? run_soa_sliced<false, true>(first_seed, num_runs, options,
                                              harvest)
                : run_soa_sliced<false, false>(first_seed, num_runs, options,
                                               harvest);
}

// The lockstep kernel, BITSLICED: each per-lane automaton field is one bit
// in a 64-bit plane (bit l = lane l), so a lockstep round of the Figure 1
// automaton — scheduler pick, read/decide, coin adoption, write — is a few
// dozen word-wide boolean ops retiring all W lanes at once, instead of a
// branchy per-lane pass. Only the PRNG streams stay in column form (they
// are full 64-bit words), batch-advanced by the SIMD kernels; everything
// the automaton consumes from them is one bit per lane, which is exactly
// the packed word those kernels return.
//
// The encoding leans on facts the ctor and soa_supported established: this
// is Figure 1's two-process default-mode automaton (pc ∈ {write-input,
// read, coin-write} fits two plane bits; exactly one process steps per
// stepping lane per round, so the two per-process selection masks
// partition the stepping set), and the preference domain is binary (value
// planes are one bit; a register word is encode(v) = v+1 ∈ {1,2}, so
// max_register_bits collapses to two "ever wrote" planes). A lane's total is
// just (current round − fill round): every round, a live lane either steps
// or — under a fault plan — idles one clock tick. Own-step counts live in
// vertical counters. Fault-free, a live lane steps exactly one process per
// round, so only P0 keeps a counter and P1's count is the total minus P0's;
// the fault arm keeps both, because idle ticks break that identity and the
// crash test reads the victim's own count.
//
// Bit-identity with the scalar engine holds because the streams advance
// exactly as a scalar run consumes them — one scheduler word per stepping
// lane per round (single-active picks included), one coin word per
// coin-write step, none on an idle tick — and the plane formulas
// transliterate TwoProcessProtocol's steps and Simulation::step_once's
// event order, which engine_golden_test pins per lane against Simulation.
//
// kRecordSchedule appends each stepping lane's pick to its schedule;
// kFaults adds the fault arm (phase A of the round). The <false, false>
// instantiation, which every fault-free sweep runs, carries neither.
template <bool kRecordSchedule, bool kFaults>
bool LaneEngine::run_soa_sliced(std::uint64_t first_seed,
                                std::int64_t num_runs,
                                const LaneRunOptions& options,
                                const LaneHarvest& harvest) {
  // W lanes, one bit each in every plane; the plane type caps W at 64.
  const int W = static_cast<int>(std::clamp<std::int64_t>(
      std::min<std::int64_t>(options.lanes, num_runs), 1, 64));
  if (soa_ == nullptr || soa_->W != W) soa_ = std::make_unique<Soa>(W);
  Soa& s = *soa_;
  const LaneKernels kern = lane_kernels_for(selected_simd_width(options));

  std::uint64_t* const g0 = s.sch_s[0].data();
  std::uint64_t* const g1 = s.sch_s[1].data();
  std::uint64_t* const g2 = s.sch_s[2].data();
  std::uint64_t* const g3 = s.sch_s[3].data();
  std::uint64_t* const c0 = s.sim_s[0].data();
  std::uint64_t* const c1 = s.sim_s[1].data();
  std::uint64_t* const c2 = s.sim_s[2].data();
  std::uint64_t* const c3 = s.sim_s[3].data();

  // The automaton, one bit per lane per field. pcA/pcB encode pc (00
  // write-input, 01 read, 10 coin-write); valW/valV are P_p's register
  // (written flag + decoded value); wrote1/wrote2 are the register
  // high-water mark; ever[p] feeds the nontriviality "activated" test.
  // steps[p] counts P_p's own steps; fault-free only P0's is kept.
  std::uint64_t pcA[2] = {0, 0}, pcB[2] = {0, 0};
  std::uint64_t mine[2] = {0, 0}, seen[2] = {0, 0};
  std::uint64_t decF[2] = {0, 0}, decV[2] = {0, 0};
  std::uint64_t valW[2] = {0, 0}, valV[2] = {0, 0};
  std::uint64_t act[2] = {0, 0}, ever[2] = {0, 0};
  std::uint64_t wrote1 = 0, wrote2 = 0;
  BitPlanes steps[kFaults ? 2 : 1];
  std::int64_t start_round[64] = {};
  const std::uint64_t in[2] = {inputs_[0] != 0 ? ~std::uint64_t{0} : 0,
                               inputs_[1] != 0 ? ~std::uint64_t{0} : 0};

  // The fault arm's planes. lane_plan_supported admitted at most one crash
  // (victim c at own step crash_at) and at most one recovery of c, firing
  // `delay` global steps after the crash: per lane, whether the crash is
  // still pending, whether c is down, whether c's recovery is armed, and
  // whether it fired. due_round[l] is the round an armed recovery fires
  // in — crash round + delay, since the lane's total moves one per round.
  const fault::FaultPlan* const plan = options.fault_plan;
  bool have_crash = false, have_recovery = false;
  ProcessId c = 0;
  std::int64_t crash_at = 0, delay = 0;
  if constexpr (kFaults) {
    have_crash = !plan->crashes.empty();
    if (have_crash) {
      c = plan->crashes[0].pid;
      crash_at = plan->crashes[0].at_step;
      for (const fault::RecoveryEvent& r : plan->recoveries) {
        if (r.pid != c) continue;
        have_recovery = true;
        delay = r.delay;
      }
    }
  }
  std::uint64_t pending = 0, crashed = 0, armed = 0, recovered = 0;
  std::int64_t due_round[64] = {};

  const std::int64_t max_total_steps = options.max_total_steps;
  std::int64_t round = 0;
  std::int64_t next_budget = kNever;
  std::int64_t next_due = kNever;

  const auto cancel_requested = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  std::int64_t next_run = 0;
  std::int64_t harvested = 0;
  std::uint64_t live = 0;
  bool cancelled = cancel_requested();

  // Load the next seeds into the lanes of `rm`, in ascending lane order, as
  // one block: every plane clears or sets the whole mask in one op. Their
  // first step comes next round.
  const auto refill = [&](std::uint64_t rm) {
    for (int p = 0; p < 2; ++p) {
      pcA[p] &= ~rm;
      pcB[p] &= ~rm;
      mine[p] = (mine[p] & ~rm) | (in[p] & rm);
      seen[p] &= ~rm;
      decF[p] &= ~rm;
      decV[p] &= ~rm;
      valW[p] &= ~rm;
      valV[p] &= ~rm;
      act[p] |= rm;
      ever[p] &= ~rm;
    }
    for (BitPlanes& counter : steps) counter.clear(rm);
    wrote1 &= ~rm;
    wrote2 &= ~rm;
    if constexpr (kFaults) {
      pending = have_crash ? pending | rm : pending & ~rm;
      crashed &= ~rm;
      armed &= ~rm;
      recovered &= ~rm;
    }
    next_budget = std::min(next_budget, round_after(round, max_total_steps));
    live |= rm;
    for (std::uint64_t m = rm; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::uint64_t seed =
          first_seed + static_cast<std::uint64_t>(next_run++);
      if constexpr (kRecordSchedule)
        s.schedule[static_cast<std::size_t>(lane)].clear();
      start_round[lane] = round;
      s.seed[static_cast<std::size_t>(lane)] = seed;
      Soa::seed_state(s.sim_s, lane, seed);
      Soa::seed_state(s.sch_s, lane, seed ^ options.sched.seed_xor);
    }
  };

  // One block's views and the arrays they point into, slot i for the i-th
  // lane of the block. LaneRunView promises them only for the duration of
  // the harvest call.
  std::array<LaneRunView, 64> views;
  Value dbuf[64][2] = {};
  std::int64_t sbuf[64][2] = {};
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].decisions = dbuf[i];
    views[i].steps_per_process = sbuf[i];
    views[i].num_processes = 2;
  }

  // Hand the runs of the lanes in `done` to the harvest as one block, in
  // ascending lane order. A lane's total is `base` - its fill round.
  const auto deliver = [&](std::uint64_t done, std::int64_t base) {
    // Simulation::result() semantics: a crashed, undecided c does not keep
    // the run from counting as all-decided.
    const std::uint64_t all_decided = (decF[0] | (c == 0 ? crashed : 0)) &
                                      (decF[1] | (c == 1 ? crashed : 0));
    std::size_t n = 0;
    for (std::uint64_t m = done; m != 0; m &= m - 1, ++n) {
      const int lane = std::countr_zero(m);
      Value* const d = dbuf[n];
      for (int p = 0; p < 2; ++p)
        d[p] = (decF[p] >> lane & 1u) != 0
                   ? static_cast<Value>(decV[p] >> lane & 1u)
                   : kNoValue;
      const std::int64_t total = base - start_round[lane];
      std::int64_t* const own = sbuf[n];
      own[0] = steps[0].read(lane);
      if constexpr (kFaults)
        own[1] = steps[1].read(lane);
      else
        own[1] = total - own[0];
      LaneRunView& v = views[n];
      v.seed = s.seed[static_cast<std::size_t>(lane)];
      v.total_steps = total;
      v.steps_p0 = own[0];
      v.steps_p1 = own[1];
      v.recoveries = static_cast<std::int64_t>(recovered >> lane & 1u);
      v.max_register_bits = (wrote2 >> lane & 1u) != 0
                                ? 2
                                : static_cast<int>(wrote1 >> lane & 1u);
      v.all_decided = (all_decided >> lane & 1u) != 0;
      v.decision = d[0] != kNoValue ? d[0] : d[1];
      if constexpr (kRecordSchedule) {
        const std::vector<ProcessId>& sched =
            s.schedule[static_cast<std::size_t>(lane)];
        v.schedule = sched.data();
        v.schedule_len = static_cast<std::int64_t>(sched.size());
      }
    }
    harvest(std::span<const LaneRunView>(views.data(), n));
  };

  // Deliver a nonempty block, poll cancel once, then refill the block's
  // lanes with the next seeds, lowest lanes first, or retire them.
  const auto finish = [&](std::uint64_t done, std::int64_t base) {
    deliver(done, base);
    harvested += std::popcount(done);
    cancelled = cancelled || cancel_requested();
    std::uint64_t rm = cancelled ? 0 : done;
    for (std::int64_t extra = std::popcount(rm) - (num_runs - next_run);
         extra > 0; --extra)
      rm &= ~(std::uint64_t{1} << (63 - std::countl_zero(rm)));
    live &= ~done;
    if (rm != 0) refill(rm);
  };

  if (!cancelled)
    refill(W == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << W) - 1);

  while (live != 0) {
    ++round;
    std::uint64_t step = live;
    if constexpr (kFaults) {
      // Phase A: the plan's events in step_once order — recoveries first
      // (they may be the only way a run continues), then the crash — and
      // then the empty-active-set tiebreak. Before this round, a lane's
      // total is round - 1 - start_round.
      if (round >= next_due) {
        // Lazy, like the budget scan below: one threshold round guards
        // every armed lane.
        next_due = kNever;
        std::uint64_t fire = 0;
        for (std::uint64_t m = armed & live; m != 0; m &= m - 1) {
          const int lane = std::countr_zero(m);
          if (round >= due_round[lane])
            fire |= std::uint64_t{1} << lane;
          else
            next_due = std::min(next_due, due_round[lane]);
        }
        armed &= ~fire;
        // A decided c swallows its recovery: it stays crashed and the
        // recovery is not counted (Simulation::recover returns false).
        // Otherwise the conservative re-read (TwoProcessProtocol::recover):
        // the persisted own word IS the live preference, resumed at the
        // read pc; ⊥ means the initial write never landed, so c restarts
        // cold. Its own-step count persists across the outage.
        const std::uint64_t back = fire & ~decF[c];
        const std::uint64_t warm = back & valW[c];
        pcA[c] = (pcA[c] & ~back) | warm;
        pcB[c] &= ~back;
        mine[c] = (mine[c] & ~back) | (warm & valV[c]) |
                  (back & ~valW[c] & in[c]);
        seen[c] &= ~back;
        act[c] |= back;
        crashed &= ~back;
        recovered |= back;
      }
      // The crash fires once c has taken crash_at own steps. An undecided c
      // leaves the active set (a decided one has already), and its
      // recovery arms `delay` steps ahead.
      std::uint64_t hit = 0;
      if ((pending & live) != 0) {
        hit = pending & live & steps[c].at_least(crash_at);
        pending &= ~hit;
        act[c] &= ~hit;
        crashed |= hit;
        if (have_recovery && hit != 0) {
          armed |= hit;
          const std::int64_t due = round_after(round, delay);
          for (std::uint64_t m = hit; m != 0; m &= m - 1)
            due_round[std::countr_zero(m)] = due;
          next_due = std::min(next_due, due);
        }
      }
      // Nothing runnable: the lane idles one clock tick (no PRNG word)
      // while an armed recovery is still ahead; otherwise its run ended with
      // the previous round, and its total excludes this one. Every armed
      // recovery not fired above is ahead, except one armed just now with
      // delay 0: that one is already due. The ended runs are their own
      // block; lanes refilled here take their first step next round.
      const std::uint64_t empty = live & ~(act[0] | act[1]);
      const std::uint64_t idle =
          empty & armed & (delay == 0 ? ~hit : ~std::uint64_t{0});
      step = live & ~empty;
      if (const std::uint64_t ended = empty & ~idle; ended != 0)
        finish(ended, round - 1);
    }

    // One scheduler word per stepping lane. Fault-free, that is every live
    // lane, so advance_all turns all W columns (dead ones unobservably);
    // under a plan, idling lanes must keep their streams. For both-active
    // lanes the drawn bit IS the pick: a scalar RandomScheduler draws one
    // below(|active|) word per pick, and for |active| in {1, 2} the
    // rejection threshold is 0, so the word maps to active_list[w % 2].
    // Single-active lanes select the lone active pid arithmetically.
    const std::uint64_t pick =
        kFaults ? kern.advance_masked(g0, g1, g2, g3, W, step)
                : kern.advance_all(g0, g1, g2, g3, W);
    const std::uint64_t both = act[0] & act[1];
    const std::uint64_t sel1 = step & ((both & pick) | (~both & act[1]));
    const std::uint64_t sel0 = step & ~sel1;
    if constexpr (kRecordSchedule) {
      for (std::uint64_t m = step; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        s.schedule[static_cast<std::size_t>(lane)].push_back(
            static_cast<ProcessId>(sel1 >> lane & 1u));
      }
    }

    // Coin words for exactly the lanes whose selected process sits at the
    // coin-write pc; the masked advance keeps every other coin column.
    const std::uint64_t coin_need = (sel0 & pcB[0]) | (sel1 & pcB[1]);
    const std::uint64_t coin =
        coin_need != 0 ? kern.advance_masked(c0, c1, c2, c3, W, coin_need) : 0;

    std::uint64_t dmask[2];
    const auto step_p = [&](const int p, const int q, const std::uint64_t mp) {
      const std::uint64_t m1 = mp & pcA[p];    // read steps
      const std::uint64_t m02 = mp & ~pcA[p];  // write steps (pc 0 or 2)
      // Coin-write: tails (coin bit 0) adopt the seen peer value first.
      const std::uint64_t adopt = m02 & pcB[p] & ~coin;
      mine[p] = (mine[p] & ~adopt) | (seen[p] & adopt);
      // Write own register. encode(v) = v+1, so any write raises the
      // high-water mark to 1 bit and a write of preference 1 to 2 bits.
      valW[p] |= m02;
      valV[p] = (valV[p] & ~m02) | (mine[p] & m02);
      wrote1 |= m02;
      wrote2 |= m02 & mine[p];
      // Read r_q: decide on agreement or ⊥, else remember the peer value
      // and escalate to the coin-write pc. (The peer planes valW[q]/valV[q]
      // were only touched at the OTHER selection mask's lanes, disjoint
      // from mp, so the order of the two step_p calls is immaterial.)
      const std::uint64_t agree = ~valW[q] | ~(valV[q] ^ mine[p]);
      const std::uint64_t d = m1 & agree;
      decF[p] |= d;
      decV[p] = (decV[p] & ~d) | (mine[p] & d);
      act[p] &= ~d;
      const std::uint64_t e = m1 & ~agree;
      seen[p] = (seen[p] & ~e) | (valV[q] & e);
      pcA[p] = (pcA[p] & ~e) | m02;  // reads escalate to 2, writes to 1
      pcB[p] = (pcB[p] | e) & ~m02;
      ever[p] |= mp;
      dmask[p] = d;
    };
    step_p(0, 1, sel0);
    step_p(1, 0, sel1);
    steps[0].add(sel0);
    if constexpr (kFaults) steps[1].add(sel1);

    // Decision events are the only place the coordination properties can
    // newly fail; both violation masks are almost always zero. check_every
    // only defers *detection* in the scalar engine; decisions latch
    // identically, so eager checking changes nothing for a run that passes.
    const std::uint64_t dec_now = dmask[0] | dmask[1];
    std::uint64_t viol_c = 0, viol_n = 0;
    if (dec_now != 0) {
      if (options.check_consistency)
        viol_c = dec_now & decF[0] & decF[1] & (decV[0] ^ decV[1]);
      if (options.check_nontriviality) {
        // v = the freshly-decided value plane; a processor "activated"
        // iff it ever stepped (the decider itself just did).
        const std::uint64_t v = (dmask[0] & decV[0]) | (dmask[1] & decV[1]);
        const std::uint64_t ok =
            (ever[0] & ~(v ^ in[0])) | (ever[1] & ~(v ^ in[1]));
        viol_n = dec_now & ~ok;
      }
    }

    // Harvest: the step budget ran out, or — fault-free — both decided.
    // Under a plan an empty active set does not end the run yet: the
    // scalar loop enters one more step_once, which fires due events before
    // concluding, and the next round's phase A does exactly that. The
    // budget check is lazy — a lane's total is (round - start_round), so
    // one threshold round guards all lanes and the per-lane scan runs only
    // when some lane could actually be over.
    std::uint64_t hm = kFaults ? 0 : live & ~(act[0] | act[1]);
    if (round >= next_budget) {
      next_budget = kNever;
      for (std::uint64_t m = live; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::int64_t due =
            round_after(start_round[lane], max_total_steps);
        if (round >= due)
          hm |= std::uint64_t{1} << lane;
        else
          next_budget = std::min(next_budget, due);
      }
    }

    // A violation aborts the sweep as a lane-by-lane pass would: the
    // finished runs of lower lanes are delivered first, as one block.
    if (const std::uint64_t viol = viol_c | viol_n; viol != 0) {
      const int lane = std::countr_zero(viol);
      const std::uint64_t bit = std::uint64_t{1} << lane;
      if (const std::uint64_t below = hm & (bit - 1); below != 0)
        deliver(below, round);
      failed_run_index_ = static_cast<std::int64_t>(
          s.seed[static_cast<std::size_t>(lane)] - first_seed);
      const int p = (dmask[1] & bit) != 0 ? 1 : 0;
      const Value v = static_cast<Value>(decV[p] >> lane & 1);
      std::ostringstream os;
      if ((viol_c & bit) != 0) {
        os << "consistency violated: P" << p << " decided " << v << " but P"
           << (1 - p) << " decided "
           << static_cast<Value>(decV[1 - p] >> lane & 1);
      } else {
        os << "nontriviality violated: P" << p << " decided " << v
           << " which is no activated processor's input";
      }
      throw CoordinationViolation(os.str());
    }
    if (hm != 0) finish(hm, round);
  }
  return harvested == num_runs;
}

bool LaneEngine::run_scalar(std::uint64_t first_seed, std::int64_t num_runs,
                            const LaneRunOptions& options,
                            const LaneHarvest& harvest) {
  // The per-seed path: one pooled Simulation reset per seed, each seed's
  // scheduler from the caller's provider or the spec's pooled one, the
  // fault plan (if any) applied through a per-seed FaultPlanScheduler.
  const SchedulerProvider provide = options.scheduler != nullptr
                                        ? options.scheduler
                                        : spec_scheduler(options.sched);
  std::optional<Simulation> sim;
  std::optional<fault::FaultPlanScheduler> plan_sched;
  std::optional<fault::SimRegisterFaults> reg_faults;

  for (std::int64_t i = 0; i < num_runs; ++i) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed))
      return false;
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);

    SimResult r;
    std::int64_t probe = 0;
    try {
      if (options.scalar_run != nullptr) {
        r = options.scalar_run(seed);
      } else {
        SimOptions so;
        so.seed = seed;
        so.max_total_steps = options.max_total_steps;
        so.check_every = options.check_every;
        so.check_consistency = options.check_consistency;
        so.check_nontriviality = options.check_nontriviality;
        so.record_schedule = options.record_schedule;
        so.obs = options.obs;
        if (!sim) {
          sim.emplace(protocol_, inputs_, so);
        } else {
          sim->reset(inputs_, so);
        }
        Scheduler* sched = &provide(seed);
        if (options.fault_plan != nullptr) {
          // Fresh event cursors per seed; the plan itself is shared. Word
          // faults re-arm per run too (reset() clears the hook), keyed by
          // the plan's own seed so every run sees the same fault stream.
          plan_sched.emplace(*sched, *options.fault_plan);
          sched = &*plan_sched;
          if (options.fault_plan->registers.any_word_faults()) {
            reg_faults.emplace(options.fault_plan->registers,
                               options.fault_plan->seed, sim->regs().size());
            sim->mutable_regs().set_fault_hook(&*reg_faults);
          }
        }
        r = sim->run(*sched);
        if (options.probe != nullptr) probe = options.probe(*sim, r);
      }
    } catch (...) {
      failed_run_index_ = i;
      throw;
    }

    LaneRunView v;
    v.seed = seed;
    v.total_steps = r.total_steps;
    if (!r.steps_per_process.empty()) {
      v.steps_p0 = r.steps_per_process[0];
      if (r.steps_per_process.size() > 1) v.steps_p1 = r.steps_per_process[1];
    }
    v.recoveries = r.recoveries;
    v.max_register_bits = r.max_register_bits;
    v.probe = probe;
    v.all_decided = r.all_decided;
    v.decision = r.decision.value_or(kNoValue);
    v.decisions = r.decisions.data();
    v.steps_per_process = r.steps_per_process.data();
    v.num_processes = static_cast<int>(r.decisions.size());
    v.schedule = r.schedule.data();
    v.schedule_len = static_cast<std::int64_t>(r.schedule.size());
    harvest(std::span<const LaneRunView>(&v, 1));
  }
  return true;
}

std::vector<SimResult> LaneEngine::run_collect(std::uint64_t first_seed,
                                               std::int64_t num_runs,
                                               const LaneRunOptions& options) {
  std::vector<SimResult> out(static_cast<std::size_t>(num_runs));
  const bool complete = run(
      first_seed, num_runs, options,
      [&](std::span<const LaneRunView> block) {
        for (const LaneRunView& v : block) {
          SimResult r;
          r.all_decided = v.all_decided;
          if (v.decision != kNoValue) r.decision = v.decision;
          r.decisions.assign(v.decisions, v.decisions + v.num_processes);
          r.steps_per_process.assign(v.steps_per_process,
                                     v.steps_per_process + v.num_processes);
          r.total_steps = v.total_steps;
          r.schedule.assign(v.schedule, v.schedule + v.schedule_len);
          r.max_register_bits = v.max_register_bits;
          r.recoveries = v.recoveries;
          out[static_cast<std::size_t>(v.seed - first_seed)] = std::move(r);
        }
      });
  CIL_CHECK_MSG(complete, "run_collect cancelled mid-sweep");
  return out;
}

}  // namespace cil
