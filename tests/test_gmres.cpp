// Unit/integration tests: (block / pseudo-block) GMRES.
#include <gtest/gtest.h>

#include <complex>

#include "core/gmres.hpp"
#include "direct/factor.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

// A preconditioner wrapping the exact direct solve (makes GMRES converge
// in one iteration — a sharp correctness probe).
template <class T>
class ExactPrecond final : public Preconditioner<T> {
 public:
  explicit ExactPrecond(const CsrMatrix<T>& a) : f_(a), n_(a.rows()) {}
  [[nodiscard]] index_t n() const override { return n_; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override { f_.solve_copy(r, z); }

 private:
  SparseLDLT<T> f_;
  index_t n_;
};

// Diagonal (Jacobi) preconditioner used as a cheap linear M.
template <class T>
class DiagPrecond final : public Preconditioner<T> {
 public:
  explicit DiagPrecond(const CsrMatrix<T>& a) : d_(a.diagonal()) {}
  [[nodiscard]] index_t n() const override { return index_t(d_.size()); }
  void apply(MatrixView<const T> r, MatrixView<T> z) override {
    for (index_t c = 0; c < r.cols(); ++c)
      for (index_t i = 0; i < r.rows(); ++i) z(i, c) = r(i, c) / d_[size_t(i)];
  }

 private:
  std::vector<T> d_;
};

double block_residual(const CsrMatrix<double>& a, MatrixView<const double> x,
                      MatrixView<const double> b) {
  DenseMatrix<double> r(b.rows(), b.cols());
  a.spmm(x, r.view());
  double worst = 0;
  for (index_t c = 0; c < b.cols(); ++c) {
    double num = 0, den = 0;
    for (index_t i = 0; i < b.rows(); ++i) {
      num += (b(i, c) - r(i, c)) * (b(i, c) - r(i, c));
      den += b(i, c) * b(i, c);
    }
    worst = std::max(worst, std::sqrt(num / den));
  }
  return worst;
}

TEST(Gmres, UnpreconditionedPoisson) {
  const auto a = poisson2d(10, 10);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.restart = 60;
  opts.tol = 1e-10;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-9);
  EXPECT_GT(st.iterations, 5);
}

TEST(Gmres, ExactPreconditionerConvergesInOneIteration) {
  const auto a = poisson2d(9, 9);
  CsrOperator<double> op(a);
  ExactPrecond<double> m(a);
  const auto b = poisson2d_rhs(9, 9, 1.0);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.tol = 1e-10;
  for (const auto side : {PrecondSide::Right, PrecondSide::Left, PrecondSide::Flexible}) {
    std::fill(x.begin(), x.end(), 0.0);
    opts.side = side;
    const auto st = gmres<double>(op, &m, b, x, opts);
    EXPECT_TRUE(st.converged);
    EXPECT_LE(st.iterations, 2) << "side " << int(side);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-9);
  }
}

TEST(Gmres, RestartsStillConverge) {
  const auto a = poisson2d(12, 12);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 10.0);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.restart = 10;  // force many restarts
  opts.tol = 1e-8;
  opts.max_iterations = 5000;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.cycles, 2);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
}

TEST(Gmres, JacobiRightPreconditioned) {
  const auto a = poisson2d(11, 11);
  CsrOperator<double> op(a);
  DiagPrecond<double> m(a);
  const auto b = poisson2d_rhs(11, 11, 0.001);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.restart = 80;
  opts.tol = 1e-10;
  const auto st = gmres<double>(op, &m, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-9);
}

TEST(Gmres, HistoryIsMonotoneEnough) {
  const auto a = poisson2d(10, 10);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 100.0);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.restart = 100;
  opts.tol = 1e-9;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  ASSERT_FALSE(st.history.empty());
  const auto& h = st.history[0];
  ASSERT_GT(h.size(), 2u);
  // GMRES residuals are non-increasing within a cycle.
  for (size_t i = 1; i < h.size(); ++i) EXPECT_LE(h[i], h[i - 1] * (1 + 1e-10));
  EXPECT_LE(h.back(), 1e-9);
}

TEST(BlockGmres, SolvesMultipleRhsAtOnce) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 4);
  int c = 0;
  for (const double nu : kPoissonNus) {
    const auto f = poisson2d_rhs(10, 10, nu);
    std::copy(f.begin(), f.end(), b.col(c++));
  }
  DenseMatrix<double> x(n, 4);
  SolverOptions opts;
  opts.restart = 40;
  opts.tol = 1e-9;
  const auto st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(block_residual(a, x.view(), b.view()), 1e-8);
  // Block iterations should be well below 4x the single-RHS count.
  EXPECT_LT(st.iterations, 80);
}

TEST(BlockGmres, FewerIterationsThanSingleVector) {
  const auto a = poisson2d(14, 14);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 6, 71);
  DenseMatrix<double> x(n, 6);
  SolverOptions opts;
  opts.restart = 100;
  opts.tol = 1e-8;
  const auto block = block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  ASSERT_TRUE(block.converged);
  // Reference: solve the first column alone.
  std::vector<double> b0(b.col(0), b.col(0) + n), x0(size_t(n), 0.0);
  const auto single = gmres<double>(op, nullptr, b0, x0, opts);
  ASSERT_TRUE(single.converged);
  EXPECT_LT(block.iterations, single.iterations);
}

TEST(PseudoBlockGmres, MatchesBlockSolutions) {
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 3, 72);
  DenseMatrix<double> x(n, 3);
  SolverOptions opts;
  opts.restart = 90;
  opts.tol = 1e-10;
  const auto st = pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(block_residual(a, x.view(), b.view()), 1e-9);
}

TEST(PseudoBlockGmres, LanesConvergeIndependently) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 2);
  // Lane 0: trivial RHS (in the span of one eigenvector family — fast);
  // lane 1: random (slow).
  const auto f = poisson2d_rhs(10, 10, 100.0);
  std::copy(f.begin(), f.end(), b.col(0));
  const auto r = random_matrix<double>(n, 1, 73);
  std::copy(r.col(0), r.col(0) + n, b.col(1));
  DenseMatrix<double> x(n, 2);
  SolverOptions opts;
  opts.restart = 120;
  opts.tol = 1e-9;
  const auto st = pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(block_residual(a, x.view(), b.view()), 1e-8);
  EXPECT_LE(st.per_rhs_iterations[0], st.per_rhs_iterations[1]);
}

TEST(PseudoBlockGmres, FusedReductionCountBeatsSequential) {
  const auto a = poisson2d(8, 8);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 4, 74);
  SolverOptions opts;
  opts.restart = 64;
  opts.tol = 1e-8;
  DenseMatrix<double> x(n, 4);
  const auto fused = pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  ASSERT_TRUE(fused.converged);
  std::int64_t sequential = 0;
  for (index_t c = 0; c < 4; ++c) {
    std::vector<double> bc(b.col(c), b.col(c) + n), xc(size_t(n), 0.0);
    const auto st = gmres<double>(op, nullptr, bc, xc, opts);
    ASSERT_TRUE(st.converged);
    sequential += st.reductions;
  }
  // The whole point of pseudo-block methods (section V-B1).
  EXPECT_LT(fused.reductions, sequential);
}

TEST(Gmres, ComplexMaxwellUnpreconditioned) {
  MaxwellConfig cfg;
  cfg.n = 5;
  cfg.wavelengths = 0.8;
  cfg.loss = 0.5;
  const auto prob = maxwell3d(cfg);
  CsrOperator<cplx> op(prob.matrix);
  const auto b = antenna_rhs(prob, 0, 4);
  std::vector<cplx> x(b.size(), cplx(0));
  SolverOptions opts;
  opts.restart = 200;
  opts.max_iterations = 2000;
  opts.tol = 1e-8;
  const auto st = gmres<cplx>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(prob.matrix, x, b), 1e-7);
}

TEST(Gmres, OrthogonalizationSchemesAgree) {
  const auto a = poisson2d(9, 9);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(9, 9, 0.1);
  SolverOptions opts;
  opts.restart = 90;
  opts.tol = 1e-10;
  std::vector<index_t> iters;
  for (const auto o : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs}) {
    opts.ortho = o;
    std::vector<double> x(b.size(), 0.0);
    const auto st = gmres<double>(op, nullptr, b, x, opts);
    EXPECT_TRUE(st.converged);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-9);
    iters.push_back(st.iterations);
  }
  // Same Krylov space: iteration counts agree across schemes.
  EXPECT_EQ(iters[0], iters[1]);
  EXPECT_EQ(iters[0], iters[2]);
}

TEST(Gmres, ZeroRhsReturnsZero) {
  const auto a = poisson2d(6, 6);
  CsrOperator<double> op(a);
  std::vector<double> b(36, 0.0), x(36, 1.0);
  SolverOptions opts;
  std::fill(x.begin(), x.end(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.iterations, 0);
}

TEST(Gmres, ReductionAccountingMatchesModel) {
  // GMRES with CGS: per iteration 2 reductions (projection + norm);
  // plus per cycle: 1 residual-norms + 1 initial QR; plus 1 for ||b||.
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(8, 8, 10.0);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.ortho = Ortho::Cgs;
  opts.restart = 200;  // single cycle
  opts.tol = 1e-8;
  CommModel comm;
  const auto st = gmres<double>(op, nullptr, b, x, opts, &comm);
  ASSERT_TRUE(st.converged);
  ASSERT_EQ(st.cycles, 1);  // one Arnoldi cycle; the converged check opens none
  const std::int64_t expected = 1                    // ||b||
                                + 2 * st.iterations  // CGS + CholQR per iteration
                                + 2 * 1              // initial residual norms + QR
                                + 1;                 // true residual norms after the cycle
  EXPECT_EQ(st.reductions, expected);
  EXPECT_EQ(comm.reductions(), expected);
}

}  // namespace
}  // namespace bkr
