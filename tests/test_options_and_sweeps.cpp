// Option parser tests and the solver x preconditioning-side correctness
// sweep (parameterized property tests).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/options.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "fem/poisson2d.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(Options, ParsesFlagsAndValues) {
  // NOTE: a bare value following a flag is consumed as that flag's value,
  // so positional arguments go before boolean flags.
  std::vector<std::string> args = {"prog",   "file.mtx", "-krylov_method",
                                   "gcrodr", "-recycle", "10",
                                   "-tol",   "1e-6",     "-recycle_same_system"};
  auto argv = argv_of(args);
  Options opts(int(argv.size()), argv.data());
  EXPECT_EQ(opts.get("krylov_method", std::string("")), "gcrodr");
  EXPECT_EQ(opts.get("recycle", index_t(0)), 10);
  EXPECT_DOUBLE_EQ(opts.get("tol", 0.0), 1e-6);
  EXPECT_TRUE(opts.has("recycle_same_system"));
  EXPECT_FALSE(opts.has("missing"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "file.mtx");
}

TEST(Options, NegativeNumbersAreValuesNotFlags) {
  std::vector<std::string> args = {"prog",  "-recycle", "-1",   "-shift", "-2.5e-3",
                                   "-verbose", "-tol",  "-.5", "-name", "-x"};
  auto argv = argv_of(args);
  Options opts(int(argv.size()), argv.data());
  EXPECT_EQ(opts.get("recycle", index_t(10)), -1);
  EXPECT_DOUBLE_EQ(opts.get("shift", 0.0), -2.5e-3);
  EXPECT_DOUBLE_EQ(opts.get("tol", 0.0), -0.5);
  // A following flag (not a number) leaves the boolean flag empty.
  EXPECT_TRUE(opts.has("verbose"));
  EXPECT_EQ(opts.get("verbose", std::string("unset")), "");
  EXPECT_EQ(opts.get("name", std::string("unset")), "");
  EXPECT_TRUE(opts.has("x"));
}

TEST(Options, FallbacksApply) {
  std::vector<std::string> args = {"prog"};
  auto argv = argv_of(args);
  Options opts(int(argv.size()), argv.data());
  EXPECT_EQ(opts.get("restart", index_t(30)), 30);
  EXPECT_DOUBLE_EQ(opts.get("tol", 1e-8), 1e-8);
  EXPECT_EQ(opts.get("name", std::string("x")), "x");
}

// --- correctness sweep: {method} x {preconditioning side} --------------

enum class Method { Gmres, PseudoGmres, GcroDr, PseudoGcroDr };

using SweepParam = std::tuple<Method, PrecondSide>;

class SolverSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SolverSweep, SolvesJacobiPreconditionedPoisson) {
  const auto [method, side] = GetParam();
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  SolverOptions opts;
  opts.restart = 20;
  opts.recycle = 6;
  opts.tol = 1e-9;
  opts.side = side;
  opts.max_iterations = 4000;
  const auto b = poisson2d_rhs(12, 12, 0.1);
  DenseMatrix<double> bm(n, 2), x(n, 2);
  std::copy(b.begin(), b.end(), bm.col(0));
  const auto b2 = poisson2d_rhs(12, 12, 100.0);
  std::copy(b2.begin(), b2.end(), bm.col(1));
  SolveStats st;
  switch (method) {
    case Method::Gmres:
      st = block_gmres<double>(op, &m, bm.view(), x.view(), opts);
      break;
    case Method::PseudoGmres:
      st = pseudo_block_gmres<double>(op, &m, bm.view(), x.view(), opts);
      break;
    case Method::GcroDr: {
      GcroDr<double> s(opts);
      st = s.solve(op, &m, bm.view(), x.view());
      break;
    }
    case Method::PseudoGcroDr: {
      PseudoGcroDr<double> s(opts);
      st = s.solve(op, &m, bm.view(), x.view());
      break;
    }
  }
  EXPECT_TRUE(st.converged);
  for (index_t c = 0; c < 2; ++c) {
    std::vector<double> xc(x.col(c), x.col(c) + n);
    std::vector<double> bc(bm.col(c), bm.col(c) + n);
    // Left preconditioning stops on the preconditioned residual; Jacobi is
    // bounded, so the true residual is still small.
    EXPECT_LT(testing::relative_residual(a, xc, bc), 1e-6)
        << "method " << int(method) << " side " << int(side) << " col " << c;
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  static const char* methods[] = {"Gmres", "PseudoGmres", "GcroDr", "PseudoGcroDr"};
  static const char* sides[] = {"None", "Left", "Right", "Flexible"};
  return std::string(methods[int(std::get<0>(info.param))]) +
         sides[int(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndSides, SolverSweep,
    ::testing::Combine(::testing::Values(Method::Gmres, Method::PseudoGmres, Method::GcroDr,
                                         Method::PseudoGcroDr),
                       ::testing::Values(PrecondSide::Right, PrecondSide::Left,
                                         PrecondSide::Flexible)),
    sweep_name);

// --- restart sweep: GCRO-DR converges for every (m, k) on both scalars --

class RestartSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(RestartSweep, GcroDrComplexShiftedLaplacian) {
  const index_t m = GetParam();
  const auto ar = poisson2d(10, 10);
  const index_t n = ar.rows();
  CooBuilder<std::complex<double>> builder(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t l = ar.rowptr()[size_t(i)]; l < ar.rowptr()[size_t(i) + 1]; ++l)
      builder.add(i, ar.colind()[size_t(l)],
                  std::complex<double>(ar.values()[size_t(l)], 0) -
                      (ar.colind()[size_t(l)] == i ? std::complex<double>(0.08, -0.08)
                                                   : std::complex<double>(0)));
  const auto a = builder.build();
  CsrOperator<std::complex<double>> op(a);
  Rng rng(unsigned(17 + m));
  std::vector<std::complex<double>> b(static_cast<size_t>(n));
  for (auto& v : b) v = rng.scalar<std::complex<double>>();
  SolverOptions opts;
  opts.restart = m;
  opts.recycle = std::max<index_t>(1, m / 3);
  opts.tol = 1e-8;
  opts.max_iterations = 5000;
  GcroDr<std::complex<double>> solver(opts);
  std::vector<std::complex<double>> x(b.size(), std::complex<double>(0));
  const auto st =
      solver.solve(op, nullptr, MatrixView<const std::complex<double>>(b.data(), n, 1, n),
                   MatrixView<std::complex<double>>(x.data(), n, 1, n));
  EXPECT_TRUE(st.converged) << "m=" << m;
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Restarts, RestartSweep, ::testing::Values(5, 10, 20, 40, 80));

}  // namespace
}  // namespace bkr
