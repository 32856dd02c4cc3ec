// Register lanes for the multi-column kernels (DESIGN.md §11).
//
// The dense tiles of la/blas.hpp, the sparse LDL^T panel sweep and CSR
// SpMM hold a few values per output in registers. std::complex<double>
// runs on packed two-lane doubles {re, im} (GCC vector extensions; SSE2,
// the x86-64 baseline, without -march and without FMA); every other
// scalar type runs on itself through cmul. Each packed step computes the
// same two products and the same sum per part as cmul/conj_mul, so the
// results are bitwise those of the scalar loops.
#pragma once

#include <complex>
#include <cstring>
#include <type_traits>

#include "common/types.hpp"

namespace bkr::detail {

template <class T>
inline constexpr bool kPackedComplex = std::is_same_v<T, std::complex<double>>;

using v2d = double __attribute__((vector_size(16)));  // {re, im}

// std::complex<double> is layout-compatible with double[2] ([complex.numbers]).
inline v2d load2(const std::complex<double>* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store2(std::complex<double>* p, v2d v) {
  std::memcpy(static_cast<void*>(p), &v, sizeof v);
}
inline v2d swap2(v2d v) { return v2d{v[1], v[0]}; }

// One scalar of a register panel: packed for std::complex<double>.
template <class T>
using lane_t = std::conditional_t<kPackedComplex<T>, v2d, T>;

template <class T>
inline lane_t<T> lane_load(const T* p) {
  if constexpr (kPackedComplex<T>) {
    return load2(p);
  } else {
    return *p;
  }
}
template <class T>
inline void lane_store(T* p, lane_t<T> v) {
  if constexpr (kPackedComplex<T>) {
    store2(p, v);
  } else {
    *p = v;
  }
}

// A scalar a prepared for repeated products a·b with lanes b; times(b)
// is bitwise cmul(a, b).
template <class T>
struct LaneFactor {
  LaneFactor() = default;
  explicit LaneFactor(T s) : a(s) {}
  [[nodiscard]] T times(T b) const { return cmul(a, b); }
  T a{};
};

// Packed a·b is B·{ar, ar} + swap(B)·{−ai, ai} = {br·ar + bi·(−ai),
// bi·ar + br·ai}: cmul's products, with u + (−v) == u − v exactly and
// the commuted sum exact.
template <>
struct LaneFactor<std::complex<double>> {
  LaneFactor() = default;
  explicit LaneFactor(std::complex<double> s)
      : re{s.real(), s.real()}, im{-s.imag(), s.imag()} {}
  [[nodiscard]] v2d times(v2d b) const { return b * re + swap2(b) * im; }
  v2d re{}, im{};
};

// Width of the widest register panel; wider blocks run in chunks.
inline constexpr int kPanelWidth = 8;

// Splits columns [0, w) into chunks of kPanelWidth, then at most one
// each of 4, 2 and 1, and calls f(std::integral_constant<int, W>, c)
// for the chunk [c, c + W), in ascending c.
template <class F>
inline void for_each_panel(index_t w, F&& f) {
  static_assert(kPanelWidth == 8, "tail dispatch below covers chunks of 4, 2 and 1");
  index_t c = 0;
  for (; w - c >= kPanelWidth; c += kPanelWidth) f(std::integral_constant<int, kPanelWidth>{}, c);
  if (w - c >= 4) {
    f(std::integral_constant<int, 4>{}, c);
    c += 4;
  }
  if (w - c >= 2) {
    f(std::integral_constant<int, 2>{}, c);
    c += 2;
  }
  if (w - c >= 1) f(std::integral_constant<int, 1>{}, c);
}

}  // namespace bkr::detail
