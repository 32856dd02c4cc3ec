// Serial-oracle equivalence suite for the parallel hot-path kernels.
//
// The determinism contract (src/parallel/kernel_executor.hpp) makes two
// distinct promises, and this suite checks both against executors with
// 1, 2, 7 and hardware_concurrency lanes, for double and complex<double>,
// including empty / 1-row / tall-skinny / non-divisible-by-chunk shapes:
//  * partition-type kernels (spmv, spmm, gemm, herk, trsm) are bitwise
//    identical to the legacy serial code at every thread count;
//  * reduction-type kernels (dot, norm2, column_norms) are bitwise
//    identical across thread counts (fixed chunk tree), and agree with
//    the legacy straight sum to rounding.
// Cutoffs are set to 1 so even tiny shapes take the executor path.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"
#include "la/qr.hpp"
#include "parallel/kernel_executor.hpp"
#include "sparse/csr.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

constexpr KernelCutoffs kForceParallel{1, 1, 1};

// Executors under test: the contract must hold at every lane count,
// including the degenerate 1-lane executor (which must equal the pooled
// schedules bitwise, not just the legacy serial code).
std::vector<std::unique_ptr<KernelExecutor>> test_executors() {
  std::vector<std::unique_ptr<KernelExecutor>> out;
  out.push_back(std::make_unique<KernelExecutor>(index_t(1), kForceParallel));
  out.push_back(std::make_unique<KernelExecutor>(index_t(2), kForceParallel));
  out.push_back(std::make_unique<KernelExecutor>(index_t(7), kForceParallel));
  const index_t hw = index_t(std::thread::hardware_concurrency());
  if (hw > 0 && hw != 1 && hw != 2 && hw != 7)
    out.push_back(std::make_unique<KernelExecutor>(hw, kForceParallel));
  return out;
}

template <class T>
void expect_identical(MatrixView<const T> got, MatrixView<const T> want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      EXPECT_EQ(got(i, j), want(i, j)) << what << " at (" << i << "," << j << ")";
}

// Random sparse matrix with deliberately skewed row lengths so the
// nnz-balanced splits place boundaries unevenly.
template <class T>
CsrMatrix<T> skewed_sparse(index_t rows, index_t cols, unsigned seed) {
  Rng rng(seed);
  CooBuilder<T> coo(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = (i < 2) ? std::min<index_t>(cols, 32) : 1 + (i % 5);
    for (index_t l = 0; l < len; ++l) coo.add(i, rng.index(0, cols - 1), rng.scalar<T>());
  }
  return coo.build();
}

// ---------------------------------------------------------------------------
// Partition-type kernels: bitwise equal to the legacy serial reference.
// ---------------------------------------------------------------------------

// y(i, j) summed from T(0) over the row in ascending l with plain
// operator* (Annex G for complex, bitwise cmul for finite data).
template <class T>
DenseMatrix<T> reference_spmm(const CsrMatrix<T>& a, MatrixView<const T> x) {
  DenseMatrix<T> y(a.rows(), x.cols());
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      T s(0);
      for (index_t l = a.rowptr()[size_t(i)]; l < a.rowptr()[size_t(i) + 1]; ++l)
        s += a.values()[size_t(l)] * x(a.colind()[size_t(l)], j);
      y(i, j) = s;
    }
  return y;
}

// X and Y are views with leading dimension cols + pad and rows + pad; the
// pad rows of Y must stay untouched.
template <class T>
void check_spmv_spmm(index_t rows, index_t cols, index_t p, unsigned seed, index_t pad = 0) {
  const CsrMatrix<T> a = skewed_sparse<T>(rows, cols, seed);
  const DenseMatrix<T> xs = testing::random_matrix<T>(cols + pad, p, seed + 1);
  const MatrixView<const T> x(xs.data(), cols, p, xs.ld());
  const DenseMatrix<T> want = reference_spmm(a, x);
  std::vector<const KernelExecutor*> executors{nullptr};  // serial first
  const auto pooled = test_executors();
  for (const auto& ex : pooled) executors.push_back(ex.get());
  for (const KernelExecutor* ex : executors) {
    DenseMatrix<T> ys(rows + pad, p);
    for (index_t j = 0; j < p; ++j)
      for (index_t i = 0; i < rows + pad; ++i) ys(i, j) = T(42);
    a.spmm(x, MatrixView<T>(ys.data(), rows, p, ys.ld()), ex);
    expect_identical<T>(MatrixView<const T>(ys.data(), rows, p, ys.ld()),
                        MatrixView<const T>(want.data(), rows, p, want.ld()), "spmm");
    for (index_t j = 0; j < p; ++j)
      for (index_t i = rows; i < rows + pad; ++i) EXPECT_EQ(ys(i, j), T(42)) << "pad row " << i;
    if (p == 1 && rows > 0) {
      std::vector<T> yv(size_t(rows), T(42));
      a.spmv(x.col(0), yv.data(), ex);
      for (index_t i = 0; i < rows; ++i) EXPECT_EQ(yv[size_t(i)], want(i, 0)) << "spmv row " << i;
    }
  }
}

TEST(KernelOracle, SpmvSpmmMatchSerialBitwise) {
  // Widths cover one and several 8-wide register panels and every 4/2/1
  // tail of them.
  for (index_t p : {index_t(1), index_t(3), index_t(4), index_t(5), index_t(7), index_t(9),
                    index_t(17)}) {
    check_spmv_spmm<double>(200, 150, p, 11);
    check_spmv_spmm<std::complex<double>>(200, 150, p, 12);
  }
  // Strided views: leading dimensions larger than the rows they hold.
  check_spmv_spmm<double>(60, 45, 9, 17, 3);
  check_spmv_spmm<std::complex<double>>(60, 45, 13, 18, 5);
  // Edge shapes: empty, single row, tall-skinny input block.
  check_spmv_spmm<double>(0, 5, 3, 13);
  check_spmv_spmm<double>(1, 9, 1, 14);
  check_spmv_spmm<std::complex<double>>(1, 1, 2, 15);
  check_spmv_spmm<double>(513, 4, 2, 16);
}

TEST(KernelOracle, BalancedRowSplitsPartitionAllRows) {
  const CsrMatrix<double> a = skewed_sparse<double>(101, 60, 3);
  for (index_t parts : {index_t(1), index_t(2), index_t(7), index_t(101)}) {
    const auto splits = balanced_row_splits(a.rowptr(), a.rows(), parts);
    ASSERT_EQ(index_t(splits.size()), parts + 1);
    EXPECT_EQ(splits.front(), 0);
    EXPECT_EQ(splits.back(), a.rows());
    for (size_t i = 1; i < splits.size(); ++i) EXPECT_LE(splits[i - 1], splits[i]);
  }
  // Degenerate: empty matrix.
  const auto empty = balanced_row_splits(std::vector<index_t>{0}, 0, 4);
  EXPECT_EQ(empty.front(), 0);
  EXPECT_EQ(empty.back(), 0);
}

template <class T>
void check_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, unsigned seed) {
  const DenseMatrix<T> a = testing::random_matrix<T>(ta == Trans::N ? m : k,
                                                     ta == Trans::N ? k : m, seed);
  const DenseMatrix<T> b = testing::random_matrix<T>(tb == Trans::N ? k : n,
                                                     tb == Trans::N ? n : k, seed + 1);
  const DenseMatrix<T> c0 = testing::random_matrix<T>(m, n, seed + 2);
  const T alpha = T(2) / T(3), beta = T(1) / T(7);
  DenseMatrix<T> want = copy_of(c0);
  gemm<T>(ta, tb, alpha, a.view(), b.view(), beta, want.view());  // legacy serial
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got = copy_of(c0);
    gemm<T>(ta, tb, alpha, a.view(), b.view(), beta, got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), m, n, got.ld()),
                        MatrixView<const T>(want.data(), m, n, want.ld()), "gemm");
  }
}

TEST(KernelOracle, GemmAllTransCasesMatchSerialBitwise) {
  unsigned seed = 100;
  for (Trans ta : {Trans::N, Trans::C})
    for (Trans tb : {Trans::N, Trans::C}) {
      check_gemm<double>(ta, tb, 33, 7, 5, seed += 10);       // non-divisible panels
      check_gemm<double>(ta, tb, 257, 3, 4, seed += 10);      // tall-skinny
      check_gemm<double>(ta, tb, 1, 1, 64, seed += 10);       // single entry
      check_gemm<double>(ta, tb, 4, 0, 3, seed += 10);        // empty output
      check_gemm<double>(ta, tb, 5, 6, 0, seed += 10);        // empty inner dim
      check_gemm<std::complex<double>>(ta, tb, 33, 7, 5, seed += 10);
      check_gemm<std::complex<double>>(ta, tb, 257, 3, 4, seed += 10);
    }
}

template <class T>
void check_herk_gram(index_t n, index_t p, unsigned seed) {
  const DenseMatrix<T> v = testing::random_matrix<T>(n, p, seed);
  const auto vc = MatrixView<const T>(v.data(), n, p, v.ld());
  DenseMatrix<T> want(p, p);
  gram<T>(vc, want.view());  // legacy path (null executor)
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got(p, p);
    gram<T>(vc, got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), p, p, got.ld()),
                        MatrixView<const T>(want.data(), p, p, want.ld()), "gram/herk");
    // herk with nonzero alpha/beta stays lane-invariant too.
    DenseMatrix<T> c1 = testing::random_matrix<T>(p, p, seed + 1);
    DenseMatrix<T> c2 = copy_of(c1);
    herk<T>(Trans::C, T(3), vc, T(2), c1.view());
    herk<T>(Trans::C, T(3), vc, T(2), c2.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(c2.data(), p, p, c2.ld()),
                        MatrixView<const T>(c1.data(), p, p, c1.ld()), "herk");
  }
}

TEST(KernelOracle, HerkGramMatchSerialBitwise) {
  check_herk_gram<double>(300, 6, 21);
  check_herk_gram<std::complex<double>>(300, 6, 22);
  check_herk_gram<double>(5000, 3, 23);  // tall-skinny, spans many chunks
  check_herk_gram<double>(1, 4, 24);
  check_herk_gram<std::complex<double>>(0, 3, 25);  // empty rows
  check_herk_gram<double>(64, 1, 26);               // single pair
}

template <class T>
void check_trsm(index_t n, index_t p, unsigned seed) {
  // Well-conditioned upper triangular factor.
  DenseMatrix<T> r = testing::random_matrix<T>(p, p, seed);
  for (index_t j = 0; j < p; ++j) {
    r(j, j) = T(4) + r(j, j);
    for (index_t i = j + 1; i < p; ++i) r(i, j) = T(0);
  }
  const auto rc = MatrixView<const T>(r.data(), p, p, r.ld());
  const DenseMatrix<T> x0 = testing::random_matrix<T>(n, p, seed + 1);
  DenseMatrix<T> want = copy_of(x0);
  trsm_right_upper<T>(rc, want.view());  // legacy serial
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got = copy_of(x0);
    trsm_right_upper<T>(rc, got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), n, p, got.ld()),
                        MatrixView<const T>(want.data(), n, p, want.ld()), "trsm_right");
  }
  // Left solves fan out over columns; square system, p right-hand sides.
  const DenseMatrix<T> y0 = testing::random_matrix<T>(p, std::max<index_t>(n % 9, 1), seed + 2);
  DenseMatrix<T> wl = copy_of(y0), wlc = copy_of(y0);
  trsm_left_upper<T>(rc, wl.view());
  trsm_left_upper_conj<T>(rc, wlc.view());
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> gl = copy_of(y0), glc = copy_of(y0);
    trsm_left_upper<T>(rc, gl.view(), ex.get());
    trsm_left_upper_conj<T>(rc, glc.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(gl.data(), gl.rows(), gl.cols(), gl.ld()),
                        MatrixView<const T>(wl.data(), wl.rows(), wl.cols(), wl.ld()),
                        "trsm_left");
    expect_identical<T>(MatrixView<const T>(glc.data(), glc.rows(), glc.cols(), glc.ld()),
                        MatrixView<const T>(wlc.data(), wlc.rows(), wlc.cols(), wlc.ld()),
                        "trsm_left_conj");
  }
}

TEST(KernelOracle, TrsmMatchesSerialBitwise) {
  check_trsm<double>(400, 5, 31);
  check_trsm<std::complex<double>>(400, 5, 32);
  check_trsm<double>(1, 3, 33);
  check_trsm<double>(4097, 2, 34);  // non-divisible row blocks
}

// CholQR composes gram + cholesky + trsm; the full factorization must be
// lane-invariant (it is the qr_block inside every solver).
template <class T>
void check_cholqr(index_t n, index_t p, unsigned seed) {
  const DenseMatrix<T> v0 = testing::random_matrix<T>(n, p, seed);
  DenseMatrix<T> vwant = copy_of(v0), rwant(p, p);
  ASSERT_TRUE(cholqr<T>(vwant.view(), rwant.view()));
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> v = copy_of(v0), r(p, p);
    ASSERT_TRUE(cholqr<T>(v.view(), r.view(), ex.get()));
    expect_identical<T>(MatrixView<const T>(v.data(), n, p, v.ld()),
                        MatrixView<const T>(vwant.data(), n, p, vwant.ld()), "cholqr Q");
    expect_identical<T>(MatrixView<const T>(r.data(), p, p, r.ld()),
                        MatrixView<const T>(rwant.data(), p, p, rwant.ld()), "cholqr R");
  }
}

TEST(KernelOracle, CholQrMatchesSerialBitwise) {
  check_cholqr<double>(500, 4, 41);
  check_cholqr<std::complex<double>>(500, 4, 42);
  check_cholqr<double>(6151, 3, 43);  // tall-skinny across chunk boundaries
}

// ---------------------------------------------------------------------------
// Reduction-type kernels: bitwise invariant across thread counts, and
// within rounding of the legacy straight sum.
// ---------------------------------------------------------------------------

template <class T>
void check_reductions(index_t n, unsigned seed) {
  using Real = real_t<T>;
  Rng rng(seed);
  std::vector<T> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (auto& v : x) v = rng.scalar<T>();
  for (auto& v : y) v = rng.scalar<T>();

  const auto exs = test_executors();
  // Reference: the 1-lane executor result (deterministic chunked order).
  const T d_ref = dot<T>(n, x.data(), y.data(), exs[0].get());
  const Real n_ref = norm2<T>(n, x.data(), exs[0].get());
  for (const auto& ex : exs) {
    EXPECT_EQ(dot<T>(n, x.data(), y.data(), ex.get()), d_ref) << "dot n=" << n;
    EXPECT_EQ(norm2<T>(n, x.data(), ex.get()), n_ref) << "norm2 n=" << n;
  }
  // Legacy straight sum agrees to rounding (not necessarily bitwise).
  const T d_legacy = dot<T>(n, x.data(), y.data());
  const Real scale = std::max<Real>(abs_val(d_legacy), Real(1));
  EXPECT_LE(abs_val(d_ref - d_legacy), Real(1e-12) * Real(double(n) + 1.0) * scale);
  const Real nl = norm2<T>(n, x.data());
  EXPECT_LE(std::abs(n_ref - nl), Real(1e-12) * (nl + Real(1)));
}

TEST(KernelOracle, DotNormThreadCountInvariant) {
  for (index_t n : {index_t(0), index_t(1), index_t(5), kReduceChunk - 1, kReduceChunk,
                    kReduceChunk + 1, 2 * kReduceChunk + 17, index_t(10000)}) {
    check_reductions<double>(n, 51);
    check_reductions<std::complex<double>>(n, 52);
  }
}

template <class T>
void check_column_norms(index_t n, index_t p, unsigned seed) {
  using Real = real_t<T>;
  const DenseMatrix<T> x = testing::random_matrix<T>(n, p, seed);
  const auto xc = MatrixView<const T>(x.data(), n, p, x.ld());
  const auto exs = test_executors();
  std::vector<Real> ref(size_t(p), Real(-1));
  column_norms<T>(xc, ref.data(), exs[0].get());
  for (const auto& ex : exs) {
    std::vector<Real> got(size_t(p), Real(-1));
    column_norms<T>(xc, got.data(), ex.get());
    for (index_t j = 0; j < p; ++j) EXPECT_EQ(got[size_t(j)], ref[size_t(j)]) << "col " << j;
  }
  std::vector<Real> legacy(size_t(p), Real(-1));
  column_norms<T>(xc, legacy.data());
  for (index_t j = 0; j < p; ++j)
    EXPECT_LE(std::abs(ref[size_t(j)] - legacy[size_t(j)]),
              Real(1e-12) * (legacy[size_t(j)] + Real(1)));
}

TEST(KernelOracle, ColumnNormsThreadCountInvariant) {
  check_column_norms<double>(4099, 7, 61);  // chunk-straddling, odd p
  check_column_norms<std::complex<double>>(4099, 7, 62);
  check_column_norms<double>(0, 3, 63);  // empty columns -> all zeros
  check_column_norms<double>(1, 1, 64);
  check_column_norms<double>(kReduceChunk * 2, 4, 65);
}

// ---------------------------------------------------------------------------
// Complex products without Annex G's __muldc3 fallback (detail::cmul and
// detail::conj_mul): bitwise equal, for finite data, to the plain
// std::complex reference loops below, which keep the legacy loop order.
// ---------------------------------------------------------------------------

BKR_TOLERANCE_ORACLE(cmul);  // bitwise for finite data
BKR_TOLERANCE_ORACLE(conj_mul);  // bitwise for finite data

using cd = std::complex<double>;

void reference_gemm(Trans ta, Trans tb, cd alpha, const DenseMatrix<cd>& a,
                    const DenseMatrix<cd>& b, cd beta, DenseMatrix<cd>& c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) c(i, j) *= beta;
  if (ta == Trans::N && tb == Trans::N) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const cd blj = alpha * b(l, j);
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  } else if (ta == Trans::C && tb == Trans::N) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        cd s(0);
        for (index_t l = 0; l < k; ++l) s += std::conj(a(l, i)) * b(l, j);
        c(i, j) += alpha * s;
      }
  } else {  // N * C
    for (index_t l = 0; l < k; ++l)
      for (index_t j = 0; j < n; ++j) {
        const cd blj = alpha * std::conj(b(j, l));
        for (index_t i = 0; i < m; ++i) c(i, j) += a(i, l) * blj;
      }
  }
}

TEST(KernelOracle, ComplexGemmMatchesStdComplexReferenceBitwise) {
  const cd alpha(0.75, -1.25), beta(0.5, 0.25);
  const std::pair<Trans, Trans> cases[] = {
      {Trans::C, Trans::N}, {Trans::N, Trans::N}, {Trans::N, Trans::C}};
  unsigned seed = 400;
  for (const auto& [ta, tb] : cases)
    for (const index_t m : {index_t(1), index_t(37), index_t(168)}) {
      const index_t n = 8, k = 45;
      const DenseMatrix<cd> a = testing::random_matrix<cd>(ta == Trans::N ? m : k,
                                                           ta == Trans::N ? k : m, seed++);
      const DenseMatrix<cd> b = testing::random_matrix<cd>(tb == Trans::N ? k : n,
                                                           tb == Trans::N ? n : k, seed++);
      const DenseMatrix<cd> c0 = testing::random_matrix<cd>(m, n, seed++);
      DenseMatrix<cd> want = copy_of(c0), got = copy_of(c0);
      reference_gemm(ta, tb, alpha, a, b, beta, want);
      gemm<cd>(ta, tb, alpha, a.view(), b.view(), beta, got.view());
      expect_identical<cd>(MatrixView<const cd>(got.data(), m, n, got.ld()),
                           MatrixView<const cd>(want.data(), m, n, want.ld()), "complex gemm");
    }
}

TEST(KernelOracle, ComplexGemvDotAxpyMatchStdComplexReferenceBitwise) {
  const index_t m = 53, k = 29;
  const cd alpha(-0.5, 2.0), beta(1.5, -0.75);
  const DenseMatrix<cd> a = testing::random_matrix<cd>(m, k, 410);
  const DenseMatrix<cd> x = testing::random_matrix<cd>(m, 1, 411);
  const DenseMatrix<cd> y0 = testing::random_matrix<cd>(m, 1, 412);
  // gemv, no transpose: y = beta*y + sum_l A(:,l) * (alpha*x[l]).
  std::vector<cd> want(y0.col(0), y0.col(0) + m), got = want;
  for (auto& v : want) v *= beta;
  for (index_t l = 0; l < k; ++l) {
    const cd xl = alpha * x(l, 0);
    for (index_t i = 0; i < m; ++i) want[size_t(i)] += a(i, l) * xl;
  }
  gemv<cd>(Trans::N, alpha, a.view(), x.col(0), beta, got.data());
  for (index_t i = 0; i < m; ++i) EXPECT_EQ(got[size_t(i)], want[size_t(i)]) << "gemv N " << i;
  // gemv, conjugate transpose: y[i] = beta*y[i] + alpha * A(:,i)^H x.
  std::vector<cd> want_c(y0.col(0), y0.col(0) + k), got_c = want_c;
  for (index_t i = 0; i < k; ++i) {
    cd s(0);
    for (index_t l = 0; l < m; ++l) s += std::conj(a(l, i)) * x(l, 0);
    want_c[size_t(i)] = want_c[size_t(i)] * beta + alpha * s;
  }
  gemv<cd>(Trans::C, alpha, a.view(), x.col(0), beta, got_c.data());
  for (index_t i = 0; i < k; ++i) EXPECT_EQ(got_c[size_t(i)], want_c[size_t(i)]) << "gemv C " << i;
  // dot: straight conjugated sum.
  cd d(0);
  for (index_t i = 0; i < m; ++i) d += std::conj(x(i, 0)) * y0(i, 0);
  EXPECT_EQ(dot<cd>(m, x.col(0), y0.col(0)), d);
  // axpy.
  std::vector<cd> ya(y0.col(0), y0.col(0) + m), yb = ya;
  for (index_t i = 0; i < m; ++i) ya[size_t(i)] += alpha * x(i, 0);
  axpy<cd>(m, alpha, x.col(0), yb.data());
  for (index_t i = 0; i < m; ++i) EXPECT_EQ(yb[size_t(i)], ya[size_t(i)]) << "axpy " << i;
}

TEST(KernelOracle, ComplexSpmmMatchesStdComplexReferenceBitwise) {
  const CsrMatrix<cd> a = skewed_sparse<cd>(90, 70, 420);
  const DenseMatrix<cd> x = testing::random_matrix<cd>(70, 3, 421);
  DenseMatrix<cd> got(90, 3);
  a.spmm(x.view(), got.view());
  const DenseMatrix<cd> want = reference_spmm<cd>(a, x.view());
  expect_identical<cd>(got.view(), want.view(), "spmm");
}

TEST(KernelOracle, NonFiniteComplexProductsStayNonFinite) {
  // Dropping Annex G's infinity recovery must not turn Inf or NaN inputs
  // into finite results: the solvers' non-finite checks rely on it.
  const double inf = std::numeric_limits<double>::infinity();
  for (const cd bad : {cd(inf, 0.0), cd(0.0, inf), cd(std::nan(""), 1.0)}) {
    std::vector<cd> x(40, cd(0.5, -0.25)), y(40, cd(1.0, 2.0));
    x[17] = bad;
    const cd d = dot<cd>(40, x.data(), y.data());
    EXPECT_FALSE(std::isfinite(d.real()) && std::isfinite(d.imag()));
    axpy<cd>(40, cd(0.3, 0.7), x.data(), y.data());
    EXPECT_FALSE(std::isfinite(y[17].real()) && std::isfinite(y[17].imag()));
  }
}

// ---------------------------------------------------------------------------
// Tiled gemm and herk: bitwise equal to the per-entry loops below, which
// copy the scalar kernel bodies (one chunk_dot per C^H N entry and herk
// pair, one pass over C(:,j) per coefficient for N N and N C) that the
// tiles replaced. Every output element must see the same operation
// sequence, zero coefficients included, so the comparison is EXPECT_EQ.
// ---------------------------------------------------------------------------

template <class T>
T scalar_dot(index_t n, const T* x, const T* y) {
  T s(0);
  for (index_t i = 0; i < n; ++i) s += detail::conj_mul(x[i], y[i]);
  return s;
}

template <class T>
void scalar_gemm(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
                 MatrixView<T> c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  if (beta == T(0)) {
    c.set_zero();
  } else if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) c(i, j) *= beta;
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;
  if (ta == Trans::N && tb == Trans::N) {
    for (index_t j = 0; j < n; ++j) {
      T* cj = c.col(j);
      for (index_t l = 0; l < k; ++l) {
        const T blj = alpha * b(l, j);
        if (blj == T(0)) continue;
        const T* al = a.col(l);
        for (index_t i = 0; i < m; ++i) cj[i] += detail::cmul(al[i], blj);
      }
    }
  } else if (ta == Trans::C && tb == Trans::N) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) c(i, j) += alpha * scalar_dot(k, a.col(i), b.col(j));
  } else if (ta == Trans::N && tb == Trans::C) {
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      for (index_t j = 0; j < n; ++j) {
        const T blj = alpha * conj(b(j, l));
        if (blj == T(0)) continue;
        T* cj = c.col(j);
        for (index_t i = 0; i < m; ++i) cj[i] += detail::cmul(al[i], blj);
      }
    }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        T s(0);
        for (index_t l = 0; l < k; ++l) s += conj(a(l, i)) * conj(b(j, l));
        c(i, j) += alpha * s;
      }
  }
}

template <class T>
void scalar_herk(T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
  const index_t p = a.cols(), n = a.rows();
  for (index_t j = 0; j < p; ++j)
    for (index_t i = 0; i <= j; ++i) {
      const T d = scalar_dot(n, a.col(i), a.col(j));
      const T s = (alpha == T(1)) ? d : alpha * d;
      const T upper = (beta == T(0)) ? s : s + beta * c(i, j);
      const T lower = (beta == T(0)) ? conj(s) : conj(s) + beta * c(j, i);
      c(i, j) = upper;
      c(j, i) = lower;
    }
}

// A rows x cols matrix stored with leading dimension rows + 3, filled from
// `seed`; every fifth entry is an exact zero and every seventh a signed
// zero, so the N N / N C zero-coefficient skips are taken at ragged spots.
template <class T>
struct Padded {
  DenseMatrix<T> store;
  index_t rows, cols;
  Padded(index_t r, index_t c, unsigned seed) : store(r + 3, c > 0 ? c : 1), rows(r), cols(c) {
    Rng rng(seed);
    for (index_t j = 0; j < store.cols(); ++j)
      for (index_t i = 0; i < store.rows(); ++i) store(i, j) = rng.scalar<T>();
    index_t t = 0;
    for (index_t j = 0; j < c; ++j)
      for (index_t i = 0; i < r; ++i, ++t) {
        if (t % 5 == 3) store(i, j) = T(0);
        if (t % 7 == 5) store(i, j) = T(-0.0);
      }
  }
  MatrixView<T> view() { return MatrixView<T>(store.data(), rows, cols, store.ld()); }
  [[nodiscard]] MatrixView<const T> cview() const {
    return MatrixView<const T>(store.data(), rows, cols, store.ld());
  }
};

// Bitwise on finite entries; non-finite entries must be non-finite in
// both results (Annex G's infinity recovery is not part of the contract).
template <class T>
void expect_same(MatrixView<const T> got, MatrixView<const T> want, const std::string& what) {
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i) {
      const T g = got(i, j), w = want(i, j);
      const bool gf = std::isfinite(abs_val(g));
      const bool wf = std::isfinite(abs_val(w));
      ASSERT_EQ(gf, wf) << what << " finiteness at (" << i << "," << j << ")";
      if (wf) {
        ASSERT_EQ(g, w) << what << " at (" << i << "," << j << ")";
      }
    }
}

template <class T>
void check_tiled_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, T alpha, T beta,
                      bool poison, unsigned seed,
                      const std::vector<std::unique_ptr<KernelExecutor>>& exs) {
  Padded<T> a(ta == Trans::N ? m : k, ta == Trans::N ? k : m, seed);
  Padded<T> b(tb == Trans::N ? k : n, tb == Trans::N ? n : k, seed + 1);
  if (poison) {
    const double inf = std::numeric_limits<double>::infinity();
    if (a.rows > 0 && a.cols > 0) a.store(a.rows / 2, a.cols - 1) = T(std::nan(""));
    if (b.rows > 0 && b.cols > 0) b.store(0, b.cols / 2) = T(inf);
  }
  const Padded<T> c0(m, n, seed + 2);
  Padded<T> want = c0;
  scalar_gemm<T>(ta, tb, alpha, a.cview(), b.cview(), beta, want.view());
  const std::string what = "gemm " + std::string(ta == Trans::N ? "N" : "C") +
                           (tb == Trans::N ? "N" : "C") + " m=" + std::to_string(m) +
                           " n=" + std::to_string(n) + " k=" + std::to_string(k);
  Padded<T> got = c0;
  gemm<T>(ta, tb, alpha, a.cview(), b.cview(), beta, got.view());
  expect_same<T>(got.cview(), want.cview(), what + " serial");
  for (const auto& ex : exs) {
    Padded<T> pooled = c0;
    gemm<T>(ta, tb, alpha, a.cview(), b.cview(), beta, pooled.view(), ex.get());
    expect_same<T>(pooled.cview(), want.cview(), what + " lanes=" + std::to_string(ex->lanes()));
  }
}

template <class T>
void check_tiled_herk(index_t n, index_t p, T alpha, T beta, bool poison, unsigned seed,
                      const std::vector<std::unique_ptr<KernelExecutor>>& exs) {
  Padded<T> a(n, p, seed);
  if (poison && n > 0 && p > 0) a.store(n - 1, p / 2) = T(std::nan(""));
  const Padded<T> c0(p, p, seed + 1);
  Padded<T> want = c0;
  scalar_herk<T>(alpha, a.cview(), beta, want.view());
  const std::string what = "herk n=" + std::to_string(n) + " p=" + std::to_string(p);
  Padded<T> got = c0;
  herk<T>(Trans::C, alpha, a.cview(), beta, got.view());
  expect_same<T>(got.cview(), want.cview(), what + " serial");
  for (const auto& ex : exs) {
    Padded<T> pooled = c0;
    herk<T>(Trans::C, alpha, a.cview(), beta, pooled.view(), ex.get());
    expect_same<T>(pooled.cview(), want.cview(), what + " lanes=" + std::to_string(ex->lanes()));
  }
}

template <class T>
void check_tiled_kernels(T alpha) {
  const auto exs = test_executors();
  // 33 is one past every tile edge the kernels use (2, 4, 8, 16, 32).
  const index_t dims[] = {0, 1, 2, 3, 5, 7, 17, 33};
  const T betas[] = {T(0), T(1), T(0.5)};
  unsigned seed = 3000;
  int combo = 0;
  for (Trans ta : {Trans::N, Trans::C})
    for (Trans tb : {Trans::N, Trans::C})
      for (const index_t m : dims)
        for (const index_t n : dims)
          for (const index_t k : dims) {
            const bool poison = combo % 11 == 4;
            check_tiled_gemm<T>(ta, tb, m, n, k, alpha, betas[combo % 3], poison, seed += 3, exs);
            ++combo;
          }
  for (const index_t n : dims)
    for (const index_t p : dims)
      for (const T beta : betas) {
        check_tiled_herk<T>(n, p, alpha, beta, false, seed += 2, exs);
        check_tiled_herk<T>(n, p, T(1), beta, n % 2 == 1, seed += 2, exs);
      }
}

TEST(KernelOracle, TiledGemmHerkMatchScalarReferenceBitwise) {
  check_tiled_kernels<double>(-2.0 / 3.0);
  check_tiled_kernels<std::complex<double>>(std::complex<double>(0.75, -1.25));
}

// The executor path must also be selected lane-independently: below the
// cutoff every executor (and the null executor) takes the identical
// legacy path, so results are bitwise equal to serial even for reductions.
TEST(KernelOracle, CutoffSelectionIsLaneIndependent) {
  const KernelCutoffs big{1 << 30, 1 << 30, 1 << 30};
  KernelExecutor ex2(index_t(2), big);
  KernelExecutor ex7(index_t(7), big);
  Rng rng(71);
  std::vector<double> x(3000), y(3000);
  for (auto& v : x) v = rng.scalar<double>();
  for (auto& v : y) v = rng.scalar<double>();
  const double want = dot<double>(3000, x.data(), y.data());
  EXPECT_EQ(dot<double>(3000, x.data(), y.data(), &ex2), want);
  EXPECT_EQ(dot<double>(3000, x.data(), y.data(), &ex7), want);
}

// Kernel stats: enabled executors attribute calls and seconds per kernel.
TEST(KernelOracle, KernelStatsRecordCalls) {
  KernelExecutor ex(index_t(2), kForceParallel);
  ex.stats().enable(true);
  const CsrMatrix<double> a = skewed_sparse<double>(64, 64, 81);
  std::vector<double> x(64, 1.0), y(64, 0.0);
  a.spmv(x.data(), y.data(), &ex);
  const auto t = ex.stats().totals(obs::Kernel::Spmv);
  EXPECT_EQ(t.calls, 1);
  EXPECT_GE(t.seconds, 0.0);
  ex.stats().reset();
  EXPECT_EQ(ex.stats().totals(obs::Kernel::Spmv).calls, 0);
}

}  // namespace
}  // namespace bkr
