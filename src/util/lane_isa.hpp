#pragma once

/// \file lane_isa.hpp
/// The instruction sets the emulators' lane kernels are compiled for: the
/// WINE-2 DFT/IDFT and the MDGRAPE-2 filter/evaluate loops are each built
/// once per ISA from one source. The emulator libraries compile with
/// -ffp-contract=off and the kernels spell out every rounding point, so all
/// variants produce the same bits; the choice only changes speed.

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

namespace mdm {

enum class LaneIsa { kBaseline, kAvx2, kAvx512 };

/// The ISAs this CPU runs, baseline first, widest last (checked once).
/// kAvx512 needs AVX-512F and AVX-512DQ.
inline std::span<const LaneIsa> cpu_lane_isas() {
  static const std::vector<LaneIsa> isas = [] {
    std::vector<LaneIsa> v{LaneIsa::kBaseline};
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) v.push_back(LaneIsa::kAvx2);
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
      v.push_back(LaneIsa::kAvx512);
#endif
    return v;
  }();
  return isas;
}

inline const char* lane_isa_name(LaneIsa isa) {
  static const char* const names[] = {"baseline", "avx2", "avx512f,avx512dq"};
  return names[static_cast<int>(isa)];
}

/// The ISA a test pinned to run every variant (-1: none, run the widest).
inline std::atomic<int> pinned_lane_isa{-1};

inline LaneIsa emulator_lane_isa() {
  const int pinned = pinned_lane_isa.load(std::memory_order_relaxed);
  return pinned >= 0 ? static_cast<LaneIsa>(pinned) : cpu_lane_isas().back();
}
inline void pin_emulator_lane_isa(LaneIsa isa) {
  const auto isas = cpu_lane_isas();
  if (std::find(isas.begin(), isas.end(), isa) == isas.end())
    throw std::invalid_argument("pin_emulator_lane_isa: CPU lacks this ISA");
  pinned_lane_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}
inline void unpin_emulator_lane_isa() { pinned_lane_isa.store(-1); }

/// Dispatch on emulator_lane_isa(): fns[0] baseline, [1] AVX2, [2] AVX-512.
template <typename Fn>
Fn lane_variant(const Fn (&fns)[3]) {
  return fns[static_cast<int>(emulator_lane_isa())];
}

// The variants' target attributes (off x86 all three are the baseline).
#if defined(__x86_64__) || defined(__i386__)
#define MDM_TARGET_AVX2 [[gnu::target("avx2")]]
#define MDM_TARGET_AVX512 \
  [[gnu::target("avx512f,avx512dq,prefer-vector-width=512")]]
#else
#define MDM_TARGET_AVX2
#define MDM_TARGET_AVX512
#endif

}  // namespace mdm
