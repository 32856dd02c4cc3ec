// Scalar abstraction shared by every module.
//
// The library is templated on the scalar type of the linear systems it
// manipulates; the two instantiated types are `double` (Poisson,
// elasticity) and `std::complex<double>` (time-harmonic Maxwell). The
// traits below give every algorithm a uniform way to take conjugates,
// magnitudes, and to reason about the associated real type.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <type_traits>

namespace bkr {

using index_t = std::ptrdiff_t;

template <class T>
struct scalar_traits {
  using real_type = T;
  static constexpr bool is_complex = false;
  static T conj(T x) noexcept { return x; }
  static T real(T x) noexcept { return x; }
  static T imag(T) noexcept { return T(0); }
  static T abs(T x) noexcept { return std::abs(x); }
  static T from_real(real_type r) noexcept { return r; }
};

template <class R>
struct scalar_traits<std::complex<R>> {
  using real_type = R;
  static constexpr bool is_complex = true;
  static std::complex<R> conj(std::complex<R> x) noexcept { return std::conj(x); }
  static R real(std::complex<R> x) noexcept { return x.real(); }
  static R imag(std::complex<R> x) noexcept { return x.imag(); }
  static R abs(std::complex<R> x) noexcept { return std::abs(x); }
  static std::complex<R> from_real(R r) noexcept { return {r, R(0)}; }
};

template <class T>
using real_t = typename scalar_traits<T>::real_type;

template <class T>
inline constexpr bool is_complex_v = scalar_traits<T>::is_complex;

// conj/abs helpers that work uniformly on real and complex scalars.
template <class T>
inline T conj(T x) noexcept {
  return scalar_traits<T>::conj(x);
}
template <class T>
inline real_t<T> abs_val(T x) noexcept {
  return scalar_traits<T>::abs(x);
}
template <class T>
inline real_t<T> real_part(T x) noexcept {
  return scalar_traits<T>::real(x);
}

namespace detail {

// Products for the hot kernels. A plain std::complex multiply compiled
// without -ffast-math follows C Annex G: g++ emits the inline product,
// then a NaN test that branches to the libgcc routine __muldc3 to recover
// infinities. That branch sits in every inner loop and blocks
// vectorization. These helpers spell out the inline path in g++'s own
// operation order,
//   re = ar*br - ai*bi,   im = ar*bi + ai*br,
// so every finite result is bitwise identical to `a * b`; only Annex G's
// infinity recovery is dropped (a NaN or Inf operand still gives a
// non-finite result). Real scalars take the plain product unchanged.
template <class T>
inline T cmul(T a, T b) noexcept {
  if constexpr (is_complex_v<T>) {
    const auto ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
    return T(ar * br - ai * bi, ar * bi + ai * br);
  } else {
    return a * b;
  }
}

// conj(a) * b in the same order: the product with (ar, -ai), whose sign
// flips are exact, so it is bitwise identical to `conj(a) * b`.
template <class T>
inline T conj_mul(T a, T b) noexcept {
  if constexpr (is_complex_v<T>) {
    const auto ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
    return T(ar * br + ai * bi, ar * bi - ai * br);
  } else {
    return a * b;
  }
}

}  // namespace detail

}  // namespace bkr
