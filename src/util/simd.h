// Fixed-width SIMD wrapper for the lane engine's word-parallel kernels.
//
// The lane engine (sched/lane_engine.cpp) lays every per-lane quantity out
// in structure-of-arrays form precisely so W lanes can advance per vector
// instruction. This header supplies the one abstraction that code needs:
// `u64x<N>`, a value wrapper over N contiguous uint64 lanes built on the
// GCC/Clang vector extensions (`__attribute__((vector_size)))`), with
// element-wise arithmetic/logic inherited from the builtin vector type and
// memcpy-based load/store so alignment is never a correctness concern.
//
// Widths are compile-time: N=1 (plain scalar — always available, and the
// -DCIL_DISABLE_SIMD escape hatch), N=2 (one SSE2/NEON register), N=4 (one
// AVX2 register). All widths that the target can *encode* are compiled into
// every binary; which one runs is a per-process runtime choice
// (`active_width`), so a binary built on an AVX2 machine still runs — at
// width 2 — on a CPU without it. Wider kernels are wrappers compiled with
// `__attribute__((target("avx2")))` and guarded by __builtin_cpu_supports,
// the standard function-multiversioning-by-hand pattern; nothing here
// requires -mavx2 globally.
//
// The bit-identity contract of the lane engine does NOT depend on the
// width: a u64x<N> batch update performs exactly the same per-lane word
// operations as N scalar updates, so every (W, N) combination reproduces
// the scalar engine bit for bit (pinned by engine_golden_test's width
// matrix). CIL_SIMD_WIDTH=1|2|4 in the environment forces a narrower
// kernel for debugging and cross-width comparisons.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace cil::simd {

#if defined(CIL_DISABLE_SIMD) || !(defined(__GNUC__) || defined(__clang__))
inline constexpr int kMaxCompiledWidth = 1;
#elif defined(__x86_64__) || defined(_M_X64)
// SSE2 is part of the x86-64 baseline; the width-4 kernel is compiled with
// a per-function target("avx2") attribute and selected at runtime.
inline constexpr int kMaxCompiledWidth = 4;
#elif defined(__aarch64__)
inline constexpr int kMaxCompiledWidth = 2;  // NEON is baseline on AArch64
#else
inline constexpr int kMaxCompiledWidth = 1;
#endif

/// N uint64 lanes as a value type. Operations are element-wise and map to
/// single vector instructions where the ISA has them; the N=1
/// specialization below keeps the same interface on plain scalars so
/// kernels are written once as templates. The vector widths are explicit
/// specializations (macro-stamped) rather than one dependent-size template:
/// GCC silently ignores a vector_size attribute whose size expression
/// depends on a template parameter, which would degrade V to plain uint64.
template <int N>
struct u64x;  // only N = 1, and (with vector extensions) 2 and 4, exist

// Every u64x operation is force-inlined. The width-4 kernels are compiled
// for AVX2 while these helpers are compiled for the baseline ISA; an
// out-of-line call between the two passes a 32-byte vector by value across
// an ABI boundary, which breaks (SIGSEGV) in unoptimized builds. Inlined,
// each operation is compiled as part of its caller, for its caller's ISA.
#if !defined(CIL_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define CIL_SIMD_DEFINE_U64X(N, BYTES)                                     \
  template <>                                                              \
  struct u64x<N> {                                                         \
    typedef std::uint64_t V __attribute__((vector_size(BYTES)));           \
    V v;                                                                   \
                                                                           \
    [[gnu::always_inline]] static u64x load(const std::uint64_t* p) {      \
      u64x r;                                                              \
      std::memcpy(&r.v, p, sizeof(r.v));                                   \
      return r;                                                            \
    }                                                                      \
    [[gnu::always_inline]] void store(std::uint64_t* p) const {            \
      std::memcpy(p, &v, sizeof(v));                                       \
    }                                                                      \
    [[gnu::always_inline]] static u64x splat(std::uint64_t x) {            \
      u64x r;                                                              \
      r.v = V{} + x;                                                       \
      return r;                                                            \
    }                                                                      \
    [[gnu::always_inline]] std::uint64_t lane(int i) const {               \
      return v[i];                                                         \
    }                                                                      \
                                                                           \
    [[gnu::always_inline]] friend u64x operator+(u64x a, u64x b) {         \
      return {a.v + b.v};                                                  \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator^(u64x a, u64x b) {         \
      return {a.v ^ b.v};                                                  \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator&(u64x a, u64x b) {         \
      return {a.v & b.v};                                                  \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator|(u64x a, u64x b) {         \
      return {a.v | b.v};                                                  \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator~(u64x a) {                 \
      return {~a.v};                                                       \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator<<(u64x a, int k) {         \
      return {a.v << k};                                                   \
    }                                                                      \
    [[gnu::always_inline]] friend u64x operator>>(u64x a, int k) {         \
      return {a.v >> k};                                                   \
    }                                                                      \
  }

CIL_SIMD_DEFINE_U64X(2, 16);
CIL_SIMD_DEFINE_U64X(4, 32);
#undef CIL_SIMD_DEFINE_U64X
#endif  // vector-extension widths

template <>
struct u64x<1> {
  std::uint64_t v;

  [[gnu::always_inline]] static u64x load(const std::uint64_t* p) {
    return {*p};
  }
  [[gnu::always_inline]] void store(std::uint64_t* p) const { *p = v; }
  [[gnu::always_inline]] static u64x splat(std::uint64_t x) { return {x}; }
  [[gnu::always_inline]] std::uint64_t lane(int) const { return v; }

  [[gnu::always_inline]] friend u64x operator+(u64x a, u64x b) {
    return {a.v + b.v};
  }
  [[gnu::always_inline]] friend u64x operator^(u64x a, u64x b) {
    return {a.v ^ b.v};
  }
  [[gnu::always_inline]] friend u64x operator&(u64x a, u64x b) {
    return {a.v & b.v};
  }
  [[gnu::always_inline]] friend u64x operator|(u64x a, u64x b) {
    return {a.v | b.v};
  }
  [[gnu::always_inline]] friend u64x operator~(u64x a) { return {~a.v}; }
  [[gnu::always_inline]] friend u64x operator<<(u64x a, int k) {
    return {a.v << k};
  }
  [[gnu::always_inline]] friend u64x operator>>(u64x a, int k) {
    return {a.v >> k};
  }
};

/// rotl on every lane (no vector rotate pre-AVX512; two shifts + or).
template <int N>
[[gnu::always_inline]] inline u64x<N> rotl(u64x<N> x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// Widest width this process can actually execute: kMaxCompiledWidth
/// clamped by what the CPU reports at runtime. 4 requires AVX2.
inline int runtime_max_width() {
#if defined(__x86_64__) && !defined(CIL_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
  if (kMaxCompiledWidth >= 4 && __builtin_cpu_supports("avx2")) return 4;
  return kMaxCompiledWidth >= 2 ? 2 : 1;
#else
  return kMaxCompiledWidth;
#endif
}

/// The width the lane kernels run at by default: runtime_max_width(),
/// overridable (downward only) via CIL_SIMD_WIDTH=1|2|4 in the
/// environment. Read once; the answer is stable for the process lifetime.
inline int active_width() {
  static const int w = [] {
    const int max = runtime_max_width();
    if (const char* env = std::getenv("CIL_SIMD_WIDTH")) {
      const int forced = std::atoi(env);
      if (forced == 1 || forced == 2 || forced == 4)
        return forced < max ? forced : max;
    }
    return max;
  }();
  return w;
}

/// Human-readable ISA label for a width, for --version and run-reports.
inline const char* width_isa(int width) {
  switch (width) {
    case 4:
      return "avx2";
    case 2:
#if defined(__aarch64__)
      return "neon";
#else
      return "sse2";
#endif
    default:
      return "scalar";
  }
}

}  // namespace cil::simd
