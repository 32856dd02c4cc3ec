// Hand-written BLAS-like kernels on column-major views.
//
// The library does not depend on an external BLAS (the paper uses MKL);
// these loops are written for correctness first and for reasonable cache
// behaviour on the small-to-medium dense blocks that appear in Krylov
// methods (Hessenberg matrices of order p*(m+1) <= ~2000, Gram matrices of
// order p*k <= ~320). The naming follows BLAS so readers can map calls
// back to the paper's cost analysis.
//
// Every kernel that appears on a solver hot path takes an optional
// KernelExecutor. With a null executor (the default) each kernel runs its
// serial schedule. With an executor, the kernel fans out over the
// thread pool under the determinism contract of common/exec.hpp:
//  * partition-type kernels (gemm panels and tiles, herk tiles, trsm
//    blocks) keep the exact per-output-element operation order of the
//    serial code, so they are bitwise identical to it at every thread
//    count;
//  * reduction-type kernels (dot, norm2, column_norms) switch to a
//    fixed-order chunked summation (kReduceChunk elements per partial,
//    partials combined in chunk-index order) whose result is bitwise
//    identical at every thread count but differs from the legacy straight
//    sum in rounding. The switch is decided by problem size only.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/contracts.hpp"
#include "common/exec.hpp"
#include "la/dense.hpp"
#include "la/packed.hpp"

namespace bkr {

enum class Trans { N, C };  // no-transpose / conjugate-transpose

// Elements per partial sum of the deterministic chunked reductions. Fixed
// (never derived from the thread count) so the summation tree depends on
// the problem size only.
inline constexpr index_t kReduceChunk = 2048;

namespace detail {

// Straight conjugated dot over a contiguous range; the single compiled
// body shared by the serial and pooled schedules of every reduction.
// Complex products go through conj_mul (common/types.hpp): bitwise equal
// to conj(x[i]) * y[i] for finite data, without the __muldc3 branch.
template <class T>
T chunk_dot(index_t n, const T* x, const T* y) {
  T s(0);
  for (index_t i = 0; i < n; ++i) s += conj_mul(x[i], y[i]);
  return s;
}

template <class T>
real_t<T> chunk_sumsq(index_t n, const T* x) {
  real_t<T> s(0);
  for (index_t i = 0; i < n; ++i) {
    const auto a = abs_val(x[i]);
    s += a * a;
  }
  return s;
}

inline index_t reduce_chunks(index_t n) { return (n + kReduceChunk - 1) / kReduceChunk; }

// Pairwise binary-tree fold of the chunk partials, level by level:
// p[i] = p[2i] + p[2i+1], an odd tail carried up unchanged. The tree shape
// depends only on the partial count — never on lanes() and never on the
// shard count that produced the leaves — so the executed reduction tree of
// the sharded SPMD layer returns a bitwise shard-count-invariant result:
// every shard contributes leaf partials over the same fixed kReduceChunk
// grid, and the merge order is a pure function of the problem size.
template <class V>
V tree_fold(V* p, index_t m) {
  if (m <= 0) return V(0);
  while (m > 1) {
    const index_t half = m / 2;
    for (index_t i = 0; i < half; ++i) p[i] = p[2 * i] + p[2 * i + 1];
    if (m % 2 != 0) {
      p[half] = p[m - 1];
      m = half + 1;
    } else {
      m = half;
    }
  }
  return p[0];
}

// Evenly split [0, n) into `parts` contiguous ranges; boundary i of the
// split depends on (n, parts) only.
inline index_t even_split(index_t n, index_t parts, index_t i) {
  return (n / parts) * i + std::min(i, n % parts);
}

// Tasks per pooled dispatch: a small multiple of the lane count so the
// static chunking of ThreadPool::parallel_for stays load-balanced.
inline index_t fanout_tasks(const KernelExecutor* ex, index_t n) {
  const index_t want = ex->lanes() * 4;
  return n < want ? (n > 0 ? n : 1) : want;
}

// --- Register tiles for gemm and herk (DESIGN.md §11) ---------------------
//
// Every helper below keeps, for each output element, the exact operation
// sequence of the per-entry loop it replaces, so its results are bitwise
// those loops' results. std::complex<double> runs on the packed two-lane
// doubles of la/packed.hpp; other scalar types run the same tiles on the
// cmul/conj_mul helpers.

inline constexpr index_t kTileRows = 4;    // dot tile height (output rows)
inline constexpr index_t kTileCols = 2;    // dot tile width (output columns)
inline constexpr int kUpdateGroup = 4;     // columns of A per pass over C(:,j)

// s[ii + MR*jj] = chunk_dot(k, x + ii*ldx, y + jj*ldy): MR*NR independent
// accumulators, each summed from T(0) in ascending l.
//
// Packed conj(x)*y is swap(X)*{yi, yi} + (X*{1,-1})*{yr, yr}
// = {xi*yi + xr*yr, xr*yi + (-xi)*yr}: conj_mul's products, with
// a + (-b) == a - b exactly and the commuted sum exact, so each step adds
// the same value to the accumulator as conj_mul does.
template <int MR, int NR, class T>
inline void dot_tile(index_t k, const T* x, index_t ldx, const T* y, index_t ldy, T* s) {
  if constexpr (kPackedComplex<T>) {
    const v2d flip = {1.0, -1.0};
    v2d acc[MR][NR] = {};
    for (index_t l = 0; l < k; ++l) {
      v2d xp[MR], xs[MR];
      for (int ii = 0; ii < MR; ++ii) {
        const v2d xv = load2(x + ii * ldx + l);
        xp[ii] = xv * flip;
        xs[ii] = swap2(xv);
      }
      for (int jj = 0; jj < NR; ++jj) {
        const T yv = y[jj * ldy + l];
        const v2d yr = {yv.real(), yv.real()}, yi = {yv.imag(), yv.imag()};
        for (int ii = 0; ii < MR; ++ii) acc[ii][jj] += xs[ii] * yi + xp[ii] * yr;
      }
    }
    for (int jj = 0; jj < NR; ++jj)
      for (int ii = 0; ii < MR; ++ii) s[ii + MR * jj] = T(acc[ii][jj][0], acc[ii][jj][1]);
  } else {
    T acc[MR][NR] = {};  // T(0)
    for (index_t l = 0; l < k; ++l) {
      T yv[NR];
      for (int jj = 0; jj < NR; ++jj) yv[jj] = y[jj * ldy + l];
      for (int ii = 0; ii < MR; ++ii) {
        const T xv = x[ii * ldx + l];
        for (int jj = 0; jj < NR; ++jj) acc[ii][jj] += conj_mul(xv, yv[jj]);
      }
    }
    for (int jj = 0; jj < NR; ++jj)
      for (int ii = 0; ii < MR; ++ii) s[ii + MR * jj] = acc[ii][jj];
  }
}

// Calls f(i, j, chunk_dot(k, x.col(i), y.col(j))) for every entry of the
// tile at (i0, j0) of the x.cols() x y.cols() grid. A tile short of
// columns runs kTileRows x 1 tiles; one short of rows (the last row tile)
// takes the per-entry chunk_dot.
template <class T, class F>
inline void dot_tile_at(MatrixView<const T> x, MatrixView<const T> y, index_t i0, index_t j0,
                        F&& f) {
  BKR_REQUIRE(x.rows() == y.rows() && i0 < x.cols() && j0 < y.cols(), "x.rows", x.rows(),
              "y.rows", y.rows(), "i0", i0, "j0", j0);
  constexpr index_t mr = kTileRows, nr = kTileCols;
  const index_t k = x.rows();
  const index_t rows = std::min(mr, x.cols() - i0), cols = std::min(nr, y.cols() - j0);
  T s[mr * nr];
  if (rows < mr) {
    for (index_t jj = 0; jj < cols; ++jj)
      for (index_t ii = 0; ii < rows; ++ii)
        f(i0 + ii, j0 + jj, chunk_dot(k, x.col(i0 + ii), y.col(j0 + jj)));
  } else if (cols == nr) {
    dot_tile<mr, nr>(k, x.col(i0), x.ld(), y.col(j0), y.ld(), s);
    for (index_t jj = 0; jj < nr; ++jj)
      for (index_t ii = 0; ii < mr; ++ii) f(i0 + ii, j0 + jj, s[ii + mr * jj]);
  } else {
    for (index_t jj = 0; jj < cols; ++jj) {
      dot_tile<mr, 1>(k, x.col(i0), x.ld(), y.col(j0 + jj), y.ld(), s);
      for (index_t ii = 0; ii < mr; ++ii) f(i0 + ii, j0 + jj, s[ii]);
    }
  }
}

// cj[i] += cmul(a[g][i], coef[g]) for g = 0 .. G-1 in order, one pass
// over cj, on register lanes (la/packed.hpp).
template <int G, class T>
inline void update_group(index_t m, T* __restrict cj, const T* const* a, const T* coef) {
  const T* ag[G];
  LaneFactor<T> cg[G];
  for (int g = 0; g < G; ++g) {
    ag[g] = a[g];
    cg[g] = LaneFactor<T>(coef[g]);
  }
  for (index_t i = 0; i < m; ++i) {
    lane_t<T> ci = lane_load(cj + i);
    for (int g = 0; g < G; ++g) ci += cg[g].times(lane_load(ag[g] + i));
    lane_store(cj + i, ci);
  }
}

// C(:,j) += A * coef(:), the coefficients visited in ascending l and exact
// zeros skipped (a zero coefficient contributes no operation at all), the
// nonzero ones applied kUpdateGroup columns of A per pass over C(:,j).
template <class T, class Coef>
inline void update_column(MatrixView<const T> a, MatrixView<T> c, index_t j, Coef&& coef) {
  BKR_REQUIRE(c.rows() == a.rows() && j < c.cols(), "c.rows", c.rows(), "a.rows", a.rows(), "j", j);
  const index_t m = a.rows(), k = a.cols();
  T* cj = c.col(j);
  const T* cols[kUpdateGroup];
  T co[kUpdateGroup];
  int g = 0;
  for (index_t l = 0; l < k; ++l) {
    const T blj = coef(l);
    if (blj == T(0)) continue;
    cols[g] = a.col(l);
    co[g] = blj;
    if (++g == kUpdateGroup) {
      update_group<kUpdateGroup>(m, cj, cols, co);
      g = 0;
    }
  }
  static_assert(kUpdateGroup == 4, "tail dispatch below covers groups of 1 to 3");
  if (g == 3) update_group<3>(m, cj, cols, co);
  if (g == 2) update_group<2>(m, cj, cols, co);
  if (g == 1) update_group<1>(m, cj, cols, co);
}

// Run tile(t) for t in [0, ntiles): in order without an executor, as
// contiguous tile ranges on the pool with one.
template <class F>
inline void for_each_tile(const KernelExecutor* ex, Kernel kind, index_t ntiles, F&& tile) {
  if (ex == nullptr || ntiles <= 1) {
    for (index_t t = 0; t < ntiles; ++t) tile(t);
    return;
  }
  const index_t parts = fanout_tasks(ex, ntiles);
  ex->run(kind, parts, [&](index_t part) {
    const index_t t1 = even_split(ntiles, parts, part + 1);
    for (index_t t = even_split(ntiles, parts, part); t < t1; ++t) tile(t);
  });
}

}  // namespace detail

// C = alpha * op(A) * op(B) + beta * C.
//
// C^H N runs on kTileRows x kTileCols dot tiles and N N / N C on grouped
// column updates (detail::dot_tile, detail::update_group); every output
// element keeps the operation sequence of the per-entry loops (DESIGN.md
// §11), so the result is bitwise that of one chunk_dot per C^H N entry
// and of one pass over C(:,j) per nonzero coefficient.
template <class T>
BKR_HOT void gemm(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
          MatrixView<T> c, const KernelExecutor* ex = nullptr) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  BKR_REQUIRE(((ta == Trans::N) ? a.rows() : a.cols()) == m, "op(a).rows",
              (ta == Trans::N) ? a.rows() : a.cols(), "c.rows", m);
  BKR_REQUIRE(((tb == Trans::N) ? b.rows() : b.cols()) == k, "op(b).rows",
              (tb == Trans::N) ? b.rows() : b.cols(), "op(a).cols", k);
  BKR_REQUIRE(((tb == Trans::N) ? b.cols() : b.rows()) == n, "op(b).cols",
              (tb == Trans::N) ? b.cols() : b.rows(), "c.cols", n);

  if (beta == T(0)) {
    c.set_zero();
  } else if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) c(i, j) *= beta;
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  const bool fan = ex != nullptr && ex->engage(Kernel::Gemm, m * n * k);

  if (ta == Trans::N) {
    // C(:,j) += A * (alpha op(B)(:,j)), unit stride in A. Parallel over
    // output column panels; each column sees its coefficients in
    // ascending l either way, so panels are bitwise independent of the
    // partition.
    auto panel = [&](index_t j0, index_t j1) {
      for (index_t j = j0; j < j1; ++j) {
        if (tb == Trans::N) {
          detail::update_column(a, c, j, [&](index_t l) { return alpha * b(l, j); });
        } else {
          detail::update_column(a, c, j, [&](index_t l) { return alpha * conj(b(j, l)); });
        }
      }
    };
    if (!fan || n == 1) {
      panel(0, n);
    } else {
      const index_t parts = detail::fanout_tasks(ex, n);
      ex->run(Kernel::Gemm, parts, [&](index_t t) {
        panel(detail::even_split(n, parts, t), detail::even_split(n, parts, t + 1));
      });
    }
  } else if (tb == Trans::N) {
    // C(i,j) += alpha * A(:,i)^H B(:,j) — dot tiles, unit stride in both.
    // Parallel over tiles: each entry is one dot, summed in the same l
    // order by whichever tile computes it.
    const index_t rt = (m + detail::kTileRows - 1) / detail::kTileRows;
    const index_t ntiles = rt * ((n + detail::kTileCols - 1) / detail::kTileCols);
    auto tile = [&](index_t t) {
      detail::dot_tile_at(a, b, (t % rt) * detail::kTileRows, (t / rt) * detail::kTileCols,
                          [&](index_t i, index_t j, T s) { c(i, j) += alpha * s; });
    };
    detail::for_each_tile(fan ? ex : nullptr, Kernel::Gemm, ntiles, tile);
  } else {  // C^H * B^H (no hot caller; per-entry loop)
    auto entry = [&](index_t i, index_t j) {
      T s(0);
      for (index_t l = 0; l < k; ++l) s += conj(a(l, i)) * conj(b(j, l));
      c(i, j) += alpha * s;
    };
    if (!fan || m * n == 1) {
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) entry(i, j);
    } else {
      ex->run(Kernel::Gemm, m * n, [&](index_t t) { entry(t % m, t / m); });
    }
  }
}

// y = alpha * op(A) * x + beta * y.
template <class T>
BKR_HOT void gemv(Trans ta, T alpha, MatrixView<const T> a, const T* x, T beta, T* y) {
  const index_t m = (ta == Trans::N) ? a.rows() : a.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  if (beta == T(0)) {
    for (index_t i = 0; i < m; ++i) y[i] = T(0);
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i) y[i] *= beta;
  }
  if (ta == Trans::N) {
    for (index_t l = 0; l < k; ++l) {
      const T xl = alpha * x[l];
      const T* al = a.col(l);
      for (index_t i = 0; i < m; ++i) y[i] += detail::cmul(al[i], xl);
    }
  } else {
    for (index_t i = 0; i < m; ++i) y[i] += alpha * detail::chunk_dot(k, a.col(i), x);
  }
}

// Conjugated dot product x^H y over n entries (legacy straight sum).
template <class T>
BKR_HOT T dot(index_t n, const T* x, const T* y) {
  return detail::chunk_dot(n, x, y);
}

// Deterministic chunked dot: fixed kReduceChunk partials combined in chunk
// order. The result is independent of the executor's lane count.
template <class T>
BKR_HOT T dot(index_t n, const T* x, const T* y, const KernelExecutor* ex) {
  if (ex == nullptr || !ex->engage(Kernel::Dot, n)) return detail::chunk_dot(n, x, y);
  const index_t nchunks = detail::reduce_chunks(n);
  std::vector<T> partial(static_cast<size_t>(nchunks));
  ex->run(Kernel::Dot, nchunks, [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] =
        detail::chunk_dot(std::min(kReduceChunk, n - begin), x + begin, y + begin);
  });
  T s(0);
  for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(cidx)];
  return s;
}

template <class T>
BKR_HOT real_t<T> norm2(index_t n, const T* x) {
  return std::sqrt(detail::chunk_sumsq(n, x));
}

// Deterministic chunked 2-norm (same contract as the 4-argument dot).
template <class T>
BKR_HOT real_t<T> norm2(index_t n, const T* x, const KernelExecutor* ex) {
  if (ex == nullptr || !ex->engage(Kernel::Norms, n))
    return std::sqrt(detail::chunk_sumsq(n, x));
  const index_t nchunks = detail::reduce_chunks(n);
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks));
  ex->run(Kernel::Norms, nchunks, [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] = detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x + begin);
  });
  real_t<T> s(0);
  for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(cidx)];
  return std::sqrt(s);
}

// Per-column 2-norms of an n x p block: the batched reduction that pseudo-
// block methods fuse into a single global synchronization. With an
// executor, all p columns' chunk partials form one task grid (the fused
// multi-lane reduction); each column combines its own partials in order.
template <class T>
BKR_HOT void column_norms(MatrixView<const T> x, real_t<T>* out, const KernelExecutor* ex = nullptr) {
  const index_t n = x.rows(), p = x.cols();
  if (ex == nullptr || p == 0 || !ex->engage(Kernel::Norms, n * p)) {
    for (index_t j = 0; j < p; ++j) out[j] = norm2(n, x.col(j));
    return;
  }
  const index_t nchunks = detail::reduce_chunks(n);
  if (nchunks == 0) {
    for (index_t j = 0; j < p; ++j) out[j] = real_t<T>(0);
    return;
  }
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks * p));
  ex->run(Kernel::Norms, nchunks * p, [&](index_t t) {
    const index_t j = t / nchunks, cidx = t % nchunks;
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(t)] =
        detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x.col(j) + begin);
  });
  for (index_t j = 0; j < p; ++j) {
    real_t<T> s(0);
    for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(j * nchunks + cidx)];
    out[j] = std::sqrt(s);
  }
}

// Executed binary-tree reductions (sharded SPMD layer, DESIGN.md §13).
//
// The legacy chunked reductions above combine partials linearly in chunk
// order; these variants combine them through detail::tree_fold — the
// merge structure a distributed binary-tree all-reduce performs. Leaves
// live on the fixed kReduceChunk grid, so the tree shape (and therefore
// the floating-point result) depends on the vector length only: sharded
// solves are bitwise identical at 1 and N shards, at every thread count.
// An executor parallelizes leaf computation; the fold itself is serial
// (the partial count is tiny next to n).

template <class T>
BKR_HOT T tree_dot(index_t n, const T* x, const T* y, const KernelExecutor* ex = nullptr) {
  const index_t nchunks = detail::reduce_chunks(n);
  if (nchunks <= 1) return detail::chunk_dot(n, x, y);
  std::vector<T> partial(static_cast<size_t>(nchunks));
  auto leaf = [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] =
        detail::chunk_dot(std::min(kReduceChunk, n - begin), x + begin, y + begin);
  };
  if (ex != nullptr && ex->engage(Kernel::Dot, n)) {
    ex->run(Kernel::Dot, nchunks, leaf);
  } else {
    for (index_t cidx = 0; cidx < nchunks; ++cidx) leaf(cidx);
  }
  return detail::tree_fold(partial.data(), nchunks);
}

template <class T>
BKR_HOT real_t<T> tree_norm2(index_t n, const T* x, const KernelExecutor* ex = nullptr) {
  const index_t nchunks = detail::reduce_chunks(n);
  if (nchunks <= 1) return std::sqrt(detail::chunk_sumsq(n, x));
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks));
  auto leaf = [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] = detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x + begin);
  };
  if (ex != nullptr && ex->engage(Kernel::Norms, n)) {
    ex->run(Kernel::Norms, nchunks, leaf);
  } else {
    for (index_t cidx = 0; cidx < nchunks; ++cidx) leaf(cidx);
  }
  return std::sqrt(detail::tree_fold(partial.data(), nchunks));
}

// Fused per-column tree norms: all p columns' leaves form one task grid
// (one global synchronization, as in column_norms); each column folds its
// own partials through the same length-determined tree.
template <class T>
BKR_HOT void tree_column_norms(MatrixView<const T> x, real_t<T>* out,
                               const KernelExecutor* ex = nullptr) {
  const index_t n = x.rows(), p = x.cols();
  const index_t nchunks = detail::reduce_chunks(n);
  if (p == 0) return;
  if (nchunks <= 1) {
    for (index_t j = 0; j < p; ++j) out[j] = std::sqrt(detail::chunk_sumsq(n, x.col(j)));
    return;
  }
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks * p));
  auto leaf = [&](index_t t) {
    const index_t j = t / nchunks, cidx = t % nchunks;
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(t)] = detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x.col(j) + begin);
  };
  if (ex != nullptr && ex->engage(Kernel::Norms, n * p)) {
    ex->run(Kernel::Norms, nchunks * p, leaf);
  } else {
    for (index_t t = 0; t < nchunks * p; ++t) leaf(t);
  }
  for (index_t j = 0; j < p; ++j)
    out[j] = std::sqrt(detail::tree_fold(partial.data() + j * nchunks, nchunks));
}

template <class T>
BKR_HOT void axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += detail::cmul(alpha, x[i]);
}

template <class T>
BKR_HOT void scal(index_t n, T alpha, T* x) {
  for (index_t i = 0; i < n; ++i) x[i] = detail::cmul(x[i], alpha);
}

// Frobenius norm of a view.
template <class T>
BKR_HOT real_t<T> norm_fro(MatrixView<const T> a) {
  real_t<T> s(0);
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const auto v = abs_val(a(i, j));
      s += v * v;
    }
  return std::sqrt(s);
}

// Triangular solves with an upper-triangular matrix R (as produced by the
// QR and Cholesky factorizations).

// X := R^{-1} X (left solve, back substitution). Columns are independent;
// with an executor they fan out, each solved in the serial order.
template <class T>
BKR_HOT void trsm_left_upper(MatrixView<const T> r, MatrixView<T> x,
                             const KernelExecutor* ex = nullptr) {
  const index_t n = r.rows();
  BKR_REQUIRE(r.cols() == n && x.rows() == n, "r.rows", n, "r.cols", r.cols(), "x.rows", x.rows());
  auto solve_col = [&](index_t j) {
    T* xj = x.col(j);
    for (index_t i = n - 1; i >= 0; --i) {
      T s = xj[i];
      for (index_t l = i + 1; l < n; ++l) s -= r(i, l) * xj[l];
      xj[i] = s / r(i, i);
    }
  };
  if (ex != nullptr && x.cols() > 1 && ex->engage(Kernel::Trsm, n * n * x.cols())) {
    ex->run(Kernel::Trsm, x.cols(), solve_col);
  } else {
    for (index_t j = 0; j < x.cols(); ++j) solve_col(j);
  }
}

// X := R^{-H} X (left solve with the conjugate transpose; forward
// substitution since R^H is lower triangular).
template <class T>
BKR_HOT void trsm_left_upper_conj(MatrixView<const T> r, MatrixView<T> x,
                          const KernelExecutor* ex = nullptr) {
  const index_t n = r.rows();
  BKR_REQUIRE(r.cols() == n && x.rows() == n, "r.rows", n, "r.cols", r.cols(), "x.rows", x.rows());
  auto solve_col = [&](index_t j) {
    T* xj = x.col(j);
    for (index_t i = 0; i < n; ++i) {
      T s = xj[i];
      for (index_t l = 0; l < i; ++l) s -= conj(r(l, i)) * xj[l];
      xj[i] = s / conj(r(i, i));
    }
  };
  if (ex != nullptr && x.cols() > 1 && ex->engage(Kernel::Trsm, n * n * x.cols())) {
    ex->run(Kernel::Trsm, x.cols(), solve_col);
  } else {
    for (index_t j = 0; j < x.cols(); ++j) solve_col(j);
  }
}

// X := X R^{-1} (right solve; used by CholQR to form Q = V R^{-1}). Every
// row of X transforms independently through the same (j, l) elimination
// order, so the parallel row blocks are bitwise identical to the serial
// sweep.
template <class T>
BKR_HOT void trsm_right_upper(MatrixView<const T> r, MatrixView<T> x,
                              const KernelExecutor* ex = nullptr) {
  const index_t p = r.rows();
  BKR_REQUIRE(r.cols() == p && x.cols() == p, "r.rows", p, "r.cols", r.cols(), "x.cols", x.cols());
  const index_t n = x.rows();
  auto rows = [&](index_t i0, index_t i1) {
    for (index_t j = 0; j < p; ++j) {
      T* xj = x.col(j);
      for (index_t l = 0; l < j; ++l) {
        const T rlj = r(l, j);
        if (rlj == T(0)) continue;
        const T* xl = x.col(l);
        for (index_t i = i0; i < i1; ++i) xj[i] -= detail::cmul(xl[i], rlj);
      }
      const T inv = T(1) / r(j, j);
      for (index_t i = i0; i < i1; ++i) xj[i] = detail::cmul(xj[i], inv);
    }
  };
  if (ex != nullptr && n > 1 && ex->engage(Kernel::Trsm, n * p * p)) {
    const index_t parts = detail::fanout_tasks(ex, n);
    ex->run(Kernel::Trsm, parts, [&](index_t t) {
      rows(detail::even_split(n, parts, t), detail::even_split(n, parts, t + 1));
    });
  } else {
    rows(0, n);
  }
}

// Hermitian rank-k update C := alpha * A^H A + beta * C (only the
// conjugate-transpose form the CholQR Gram matrix needs). The dots come
// from the same tiles as gemm's C^H N, over the tiles that touch the
// upper triangle; each (i <= j) pair is one dot, so the tile-parallel
// schedule is bitwise identical to the serial sweep at any thread count.
template <class T>
BKR_HOT void herk(Trans trans, T alpha, MatrixView<const T> a, T beta, MatrixView<T> c,
          const KernelExecutor* ex = nullptr) {
  BKR_REQUIRE(trans == Trans::C, "trans==C", index_t(trans == Trans::C ? 1 : 0));
  const index_t p = a.cols(), n = a.rows();
  BKR_ASSERT_SHAPE(c, p, p);
  auto pair = [&](index_t i, index_t j, T d) {
    if (i > j) return;  // lower-triangle entry of a diagonal tile
    const T s = (alpha == T(1)) ? d : alpha * d;
    const T upper = (beta == T(0)) ? s : s + beta * c(i, j);
    const T lower = (beta == T(0)) ? conj(s) : conj(s) + beta * c(j, i);
    c(i, j) = upper;
    c(j, i) = lower;  // on the diagonal this leaves conj(s), matching gram()
  };
  // Tile column tj holds row_tiles(tj) row tiles, the ones with some
  // i <= j; tiles are ranked column by column.
  constexpr index_t mr = detail::kTileRows, nr = detail::kTileCols;
  auto row_tiles = [&](index_t tj) { return (std::min(tj * nr + nr, p) - 1) / mr + 1; };
  const index_t ct = (p + nr - 1) / nr;
  index_t ntiles = 0;
  for (index_t tj = 0; tj < ct; ++tj) ntiles += row_tiles(tj);
  auto tile = [&](index_t t) {
    index_t tj = 0;
    while (t >= row_tiles(tj)) t -= row_tiles(tj++);
    detail::dot_tile_at(a, a, t * mr, tj * nr, pair);
  };
  const bool fan = ex != nullptr && ex->engage(Kernel::Herk, n * (p * (p + 1) / 2));
  detail::for_each_tile(fan ? ex : nullptr, Kernel::Herk, ntiles, tile);
}

// Gram matrix G = V^H V (Hermitian, order p). One pass; in a distributed
// run this is the single-reduction kernel of CholQR.
template <class T>
BKR_HOT void gram(MatrixView<const T> v, MatrixView<T> g, const KernelExecutor* ex = nullptr) {
  herk<T>(Trans::C, T(1), v, T(0), g, ex);
}

}  // namespace bkr
