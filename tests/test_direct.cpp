// Unit tests: fill-reducing orderings and the sparse LDL^T direct solver.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>

#include "direct/factor.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "sparse/graph.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

// Bitwise for finite data: the factorization and the row-interleaved
// solve must reproduce the std::complex reference code below exactly.
BKR_TOLERANCE_ORACLE(SparseLDLT);

TEST(Ordering, NestedDissectionIsPermutation) {
  const auto a = poisson2d(13, 11);
  const auto g = adjacency_of(a);
  const auto perm = nested_dissection(g, 8);
  ASSERT_EQ(index_t(perm.size()), g.n);
  std::vector<char> seen(perm.size(), 0);
  for (const auto v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, g.n);
    EXPECT_FALSE(seen[size_t(v)]);
    seen[size_t(v)] = 1;
  }
}

TEST(Ordering, NestedDissectionReducesFill) {
  const auto a = poisson2d(24, 24);
  const SparseLDLT<double> nd(a, FactorOrdering::NestedDissection);
  const SparseLDLT<double> nat(a, FactorOrdering::Natural);
  // ND should produce clearly less fill than the natural (banded) order on
  // a square grid.
  EXPECT_LT(nd.factor_nnz(), nat.factor_nnz());
}

TEST(Direct, SolvesPoissonSingleRhs) {
  const auto a = poisson2d(15, 15);
  const SparseLDLT<double> f(a);
  std::vector<double> b = poisson2d_rhs(15, 15, 0.5);
  std::vector<double> x = b;
  f.solve(MatrixView<double>(x.data(), a.rows(), 1, a.rows()));
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-12);
}

TEST(Direct, SolvesPoissonMultiRhs) {
  const auto a = poisson2d(12, 10);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  auto b = random_matrix<double>(n, 7, 61);
  DenseMatrix<double> x = copy_of(b);
  f.solve(x.view());
  DenseMatrix<double> check(n, 7);
  a.spmm(x.view(), check.view());
  EXPECT_LT(testing::diff_fro<double>(check.view(), b.view()), 1e-11);
}

TEST(Direct, MultiRhsMatchesRepeatedSingleRhs) {
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  auto b = random_matrix<double>(n, 4, 62);
  DenseMatrix<double> xblock = copy_of(b);
  f.solve(xblock.view());
  for (index_t c = 0; c < 4; ++c) {
    std::vector<double> x(b.col(c), b.col(c) + n);
    f.solve(MatrixView<double>(x.data(), n, 1, n));
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[size_t(i)], xblock(i, c), 1e-12);
  }
}

TEST(Direct, ThreadedPanelsMatchSerial) {
  const auto a = poisson2d(11, 11);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  auto b = random_matrix<double>(n, 8, 63);
  DenseMatrix<double> xs = copy_of(b), xt = copy_of(b);
  f.solve(xs.view(), 1);
  f.solve(xt.view(), 4);
  EXPECT_LT(testing::diff_fro<double>(xs.view(), xt.view()), 1e-13);
}

TEST(Direct, ComplexSymmetricMaxwell) {
  MaxwellConfig cfg;
  cfg.n = 6;
  cfg.wavelengths = 1.0;
  cfg.loss = 0.3;
  const auto prob = maxwell3d(cfg);
  ASSERT_GT(prob.nfree, 0);
  const SparseLDLT<cplx> f(prob.matrix);
  const auto b = antenna_rhs(prob, 0, 8);
  std::vector<cplx> x = b;
  f.solve(MatrixView<cplx>(x.data(), prob.nfree, 1, prob.nfree));
  EXPECT_LT(testing::relative_residual(prob.matrix, x, b), 1e-10);
}

TEST(Direct, AllOrderingsAgree) {
  const auto a = poisson2d(8, 9);
  const index_t n = a.rows();
  const auto b = poisson2d_rhs(8, 9, 10.0);
  std::vector<std::vector<double>> solutions;
  for (const auto ord :
       {FactorOrdering::NestedDissection, FactorOrdering::Rcm, FactorOrdering::Natural}) {
    const SparseLDLT<double> f(a, ord);
    std::vector<double> x = b;
    f.solve(MatrixView<double>(x.data(), n, 1, n));
    solutions.push_back(std::move(x));
  }
  for (size_t s = 1; s < solutions.size(); ++s)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(solutions[s][size_t(i)], solutions[0][size_t(i)], 1e-11);
}

TEST(Direct, ThrowsOnSingularMatrix) {
  CooBuilder<double> b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 0.0);  // dropped: zero entries are not stored
  b.add(2, 1, 0.0);
  // Row 2 is structurally empty -> singular.
  CooBuilder<double> b2(3, 3);
  b2.add(0, 0, 1.0);
  b2.add(1, 1, 1.0);
  b2.add(2, 2, 1e-30);
  EXPECT_THROW(SparseLDLT<double> f(b2.build()), std::runtime_error);
}

TEST(Direct, SolveCopyLeavesInputIntact) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  const auto b = random_matrix<double>(n, 2, 64);
  DenseMatrix<double> x(n, 2);
  f.solve_copy(b.view(), x.view());
  DenseMatrix<double> check(n, 2);
  a.spmm(x.view(), check.view());
  EXPECT_LT(testing::diff_fro<double>(check.view(), b.view()), 1e-11);
}

// Reference solve: the column-major sweep with plain std::complex
// arithmetic (Annex G products), one column of B after another in the
// same factor order as SparseLDLT::solve.
template <class T>
void reference_solve(const SparseLDLT<T>& f, MatrixView<T> b) {
  const index_t n = f.n(), p = b.cols();
  const auto& perm = f.perm();
  const auto& lp = f.l_colptr();
  const auto& li = f.l_rowind();
  const auto& lx = f.l_values();
  const auto& dinv = f.d_inverse();
  DenseMatrix<T> y(n, p);
  for (index_t r = 0; r < p; ++r)
    for (index_t i = 0; i < n; ++i) y(i, r) = b(perm[size_t(i)], r);
  for (index_t j = 0; j < n; ++j)
    for (index_t l = lp[size_t(j)]; l < lp[size_t(j) + 1]; ++l)
      for (index_t r = 0; r < p; ++r) y(li[size_t(l)], r) -= lx[size_t(l)] * y(j, r);
  for (index_t j = 0; j < n; ++j)
    for (index_t r = 0; r < p; ++r) y(j, r) *= dinv[size_t(j)];
  for (index_t j = n - 1; j >= 0; --j)
    for (index_t l = lp[size_t(j)]; l < lp[size_t(j) + 1]; ++l)
      for (index_t r = 0; r < p; ++r) y(j, r) -= lx[size_t(l)] * y(li[size_t(l)], r);
  for (index_t r = 0; r < p; ++r)
    for (index_t i = 0; i < n; ++i) b(perm[size_t(i)], r) = y(i, r);
}

// Reference factorization: Davis's up-looking LDL^T with plain
// std::complex arithmetic, in the factor's own ordering.
struct ReferenceFactor {
  std::vector<index_t> lp, li;
  std::vector<cplx> lx, dinv;
};

ReferenceFactor reference_factor(const CsrMatrix<cplx>& a, const std::vector<index_t>& perm) {
  const CsrMatrix<cplx> pa = permute_symmetric(a, perm);
  const index_t n = pa.rows();
  const auto& rp = pa.rowptr();
  const auto& ci = pa.colind();
  std::vector<index_t> parent(size_t(n), -1), flag(size_t(n), -1), lnz(size_t(n), 0);
  for (index_t k = 0; k < n; ++k) {
    flag[size_t(k)] = k;
    for (index_t p = rp[size_t(k)]; p < rp[size_t(k) + 1]; ++p)
      for (index_t i = ci[size_t(p)]; i < k && flag[size_t(i)] != k; i = parent[size_t(i)]) {
        if (parent[size_t(i)] == -1) parent[size_t(i)] = k;
        ++lnz[size_t(i)];
        flag[size_t(i)] = k;
      }
  }
  ReferenceFactor f;
  f.lp.assign(size_t(n) + 1, 0);
  for (index_t k = 0; k < n; ++k) f.lp[size_t(k) + 1] = f.lp[size_t(k)] + lnz[size_t(k)];
  f.li.resize(size_t(f.lp[size_t(n)]));
  f.lx.resize(size_t(f.lp[size_t(n)]));
  const auto un = static_cast<size_t>(n);
  std::vector<cplx> y(un, cplx(0)), d(un);
  std::vector<index_t> pattern(un), lfill(un, 0);
  std::fill(flag.begin(), flag.end(), index_t(-1));
  for (index_t k = 0; k < n; ++k) {
    index_t top = n;
    flag[size_t(k)] = k;
    for (index_t p = rp[size_t(k)]; p < rp[size_t(k) + 1]; ++p) {
      index_t i = ci[size_t(p)];
      if (i > k) continue;
      y[size_t(i)] += pa.values()[size_t(p)];
      index_t len = 0;
      for (; flag[size_t(i)] != k; i = parent[size_t(i)]) {
        pattern[size_t(len++)] = i;
        flag[size_t(i)] = k;
      }
      while (len > 0) pattern[size_t(--top)] = pattern[size_t(--len)];
    }
    d[size_t(k)] = y[size_t(k)];
    y[size_t(k)] = cplx(0);
    for (; top < n; ++top) {
      const index_t i = pattern[size_t(top)];
      const cplx yi = y[size_t(i)];
      y[size_t(i)] = cplx(0);
      const index_t p2 = f.lp[size_t(i)] + lfill[size_t(i)];
      for (index_t p = f.lp[size_t(i)]; p < p2; ++p) y[size_t(f.li[size_t(p)])] -= f.lx[size_t(p)] * yi;
      const cplx lki = yi / d[size_t(i)];
      d[size_t(k)] -= lki * yi;
      f.li[size_t(p2)] = k;
      f.lx[size_t(p2)] = lki;
      ++lfill[size_t(i)];
    }
  }
  for (const cplx dk : d) f.dinv.push_back(cplx(1) / dk);
  return f;
}

MaxwellProblem small_maxwell() {
  MaxwellConfig cfg;
  cfg.n = 6;
  cfg.wavelengths = 1.0;
  cfg.loss = 0.3;
  return maxwell3d(cfg);
}

TEST(Direct, ComplexFactorMatchesStdComplexReferenceBitwise) {
  const auto prob = small_maxwell();
  const SparseLDLT<cplx> f(prob.matrix);
  const ReferenceFactor want = reference_factor(prob.matrix, f.perm());
  EXPECT_EQ(f.l_colptr(), want.lp);
  EXPECT_EQ(f.l_rowind(), want.li);
  ASSERT_EQ(f.l_values().size(), want.lx.size());
  for (size_t l = 0; l < want.lx.size(); ++l) EXPECT_EQ(f.l_values()[l], want.lx[l]) << "L entry " << l;
  ASSERT_EQ(f.d_inverse().size(), want.dinv.size());
  for (size_t k = 0; k < want.dinv.size(); ++k) EXPECT_EQ(f.d_inverse()[k], want.dinv[k]) << "D " << k;
}

// Widths that cover the register-panel chunkings of the solve: one
// 8-wide chunk, each 4/2/1 tail, several full chunks, and threads
// splits into uneven column ranges.
const index_t kPanelWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 32};

template <class T>
void expect_solve_matches_reference(const SparseLDLT<T>& f, unsigned seed) {
  const index_t n = f.n();
  for (const index_t p : kPanelWidths) {
    const auto b = random_matrix<T>(n, p, seed + unsigned(p));
    DenseMatrix<T> want = copy_of(b);
    reference_solve<T>(f, want.view());
    for (const index_t threads : {1, 3, 4}) {
      DenseMatrix<T> got = copy_of(b);
      f.solve(got.view(), threads);
      for (index_t r = 0; r < p; ++r)
        for (index_t i = 0; i < n; ++i)
          EXPECT_EQ(got(i, r), want(i, r)) << "p=" << p << " threads=" << threads;
    }
  }
}

TEST(Direct, ComplexSolveMatchesColumnMajorReferenceBitwise) {
  const SparseLDLT<cplx> f(small_maxwell().matrix);
  expect_solve_matches_reference(f, 70);
}

TEST(Direct, RealSolveMatchesColumnMajorReferenceBitwise) {
  const SparseLDLT<double> f(poisson2d(13, 11));
  expect_solve_matches_reference(f, 170);
}

TEST(Direct, WidthEightSolveEqualsEightSingleSolvesBitwise) {
  const auto prob = small_maxwell();
  const SparseLDLT<cplx> f(prob.matrix);
  const index_t n = f.n();
  const auto b = random_matrix<cplx>(n, 8, 80);
  DenseMatrix<cplx> block = copy_of(b);
  f.solve(block.view());
  for (index_t r = 0; r < 8; ++r) {
    std::vector<cplx> x(b.col(r), b.col(r) + n);
    f.solve(MatrixView<cplx>(x.data(), n, 1, n));
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(x[size_t(i)], block(i, r)) << "column " << r;
  }
}

TEST(Direct, NonFiniteRhsGivesNonFiniteSolution) {
  // The solve products drop Annex G's infinity recovery; a NaN or Inf in
  // the right-hand side must still surface as a non-finite solution, in
  // its own column only, on the 2-wide and the 8-wide register panel.
  const auto prob = small_maxwell();
  const SparseLDLT<cplx> f(prob.matrix);
  const index_t n = f.n();
  const double inf = std::numeric_limits<double>::infinity();
  for (const index_t p : {2, 8}) {
    const index_t bad_col = p - 1;
    for (const cplx bad : {cplx(std::nan(""), 0.0), cplx(inf, 0.0), cplx(0.0, -inf)}) {
      DenseMatrix<cplx> x = random_matrix<cplx>(n, p, 90);
      x(n / 2, bad_col) = bad;
      f.solve(x.view());
      for (index_t r = 0; r < p; ++r) {
        bool finite = true;
        for (index_t i = 0; i < n; ++i) finite = finite && std::isfinite(std::abs(x(i, r)));
        EXPECT_EQ(finite, r != bad_col) << "p=" << p << " column " << r;
      }
    }
  }
}

// Property sweep: LDL^T solves SPD grid systems of assorted shapes.
class DirectShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(DirectShapes, Solves) {
  const auto [nx, ny] = GetParam();
  const auto a = poisson2d(nx, ny);
  const SparseLDLT<double> f(a);
  const auto b = poisson2d_rhs(nx, ny, 1.0);
  std::vector<double> x = b;
  f.solve(MatrixView<double>(x.data(), a.rows(), 1, a.rows()));
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Grids, DirectShapes,
                         ::testing::Values(std::pair<index_t, index_t>{1, 1},
                                           std::pair<index_t, index_t>{2, 3},
                                           std::pair<index_t, index_t>{16, 3},
                                           std::pair<index_t, index_t>{3, 16},
                                           std::pair<index_t, index_t>{17, 17}));

}  // namespace
}  // namespace bkr
