// Resilience layer: failure taxonomy, recovery escalation and the
// deterministic fault-injection chaos suite.
//
// The chaos sweep drives every solver entry point through every fault
// site/kind at several visit indices and asserts the resilience contract:
// the solve always terminates inside its budget, and it either genuinely
// converges (verified against the true residual) or reports a precise
// non-Converged status — never a crash, hang, or silently wrong answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/krylov_detail.hpp"
#include "core/lgmres.hpp"
#include "fem/poisson2d.hpp"
#include "obs/trace.hpp"
#include "precond/jacobi.hpp"
#include "resilience/fault_injector.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::FaultSite;
using testing::random_matrix;

// ---------------------------------------------------------------------------
// FaultInjector unit behavior.

TEST(Resilience, InjectorFiresOncePerPlanAtScheduledVisit) {
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::OperatorApply;
  plan.kind = FaultKind::ZeroColumn;
  plan.at_visit = 2;
  plan.column = 1;
  inj.schedule(plan);
  DenseMatrix<double> block(4, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 4; ++i) block(i, j) = 1.0;
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(inj.injected(), 0);
  EXPECT_EQ(block(0, 1), 1.0);
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(inj.injected(), 1);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(block(i, 1), 0.0);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(block(i, 0), 1.0);
  // Fired plans stay dormant on later visits.
  block(0, 1) = 5.0;
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(inj.injected(), 1);
  EXPECT_EQ(block(0, 1), 5.0);
  EXPECT_EQ(inj.visits(FaultSite::OperatorApply), 3);
  // Other sites have independent counters.
  EXPECT_EQ(inj.visits(FaultSite::PrecondApply), 0);
}

TEST(Resilience, InjectorResetRearmsPlansClearDropsThem) {
  FaultInjector inj;
  FaultPlan plan;
  plan.kind = FaultKind::ZeroColumn;
  inj.schedule(plan);
  DenseMatrix<double> block(2, 1);
  block(0, 0) = block(1, 0) = 3.0;
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(inj.injected(), 1);
  inj.reset();
  EXPECT_EQ(inj.visits(FaultSite::OperatorApply), 0);
  block(0, 0) = block(1, 0) = 3.0;
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(inj.injected(), 1);  // counter reset, plan re-fired
  EXPECT_EQ(block(0, 0), 0.0);
  inj.clear();
  block(0, 0) = 3.0;
  inj.at(FaultSite::OperatorApply, block.view());
  EXPECT_EQ(block(0, 0), 3.0);
}

TEST(Resilience, InjectorThrowCarriesSite) {
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::PrecondApply;
  plan.kind = FaultKind::Throw;
  inj.schedule(plan);
  DenseMatrix<double> block(2, 1);
  try {
    inj.at(FaultSite::PrecondApply, block.view());
    FAIL() << "expected InjectedFault";
  } catch (const resilience::InjectedFault& f) {
    EXPECT_EQ(f.site(), FaultSite::PrecondApply);
  }
}

// ---------------------------------------------------------------------------
// Status taxonomy.

TEST(Resilience, StatusNamesAreDistinctAndComplete) {
  std::set<std::string> names;
  for (int s = 0; s < kSolveStatusCount; ++s)
    names.insert(status_name(static_cast<SolveStatus>(s)));
  EXPECT_EQ(index_t(names.size()), kSolveStatusCount);
  EXPECT_EQ(std::string(status_name(SolveStatus::Converged)), "converged");
  EXPECT_EQ(std::string(status_name(SolveStatus::EigSolveFailure)), "eig-solve-failure");
}

TEST(Resilience, BreakdownErrorRoundTripsStatus) {
  const BreakdownError e(SolveStatus::EigSolveFailure, "deflation failed");
  EXPECT_EQ(e.status(), SolveStatus::EigSolveFailure);
  EXPECT_NE(std::string(e.what()).find("deflation"), std::string::npos);
}

TEST(Resilience, ConvergedSolveReportsConvergedStatus) {
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(8, 8, 0.1);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::Converged);
  EXPECT_EQ(st.recoveries, 0);
}

TEST(Resilience, MaxIterationsStatus) {
  const auto a = poisson2d(12, 12);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 0.001);
  SolverOptions opts;
  opts.restart = 8;
  opts.tol = 1e-14;
  opts.max_iterations = 20;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::MaxIterations);
}

TEST(Resilience, StagnationIsDetectedNotSpun) {
  // Down-shift operator with b = e1: the residual is orthogonal to every
  // Krylov direction, the least-squares update is exactly null, and without
  // the terminal-stagnation exit the solver would replay identical restart
  // cycles until the iteration budget burned out. Block and pseudo-block
  // GMRES share the exit.
  const index_t n = 20;
  CooBuilder<double> builder(n, n);
  for (index_t i = 0; i + 1 < n; ++i) builder.add(i + 1, i, 1.0);
  builder.add(0, n - 1, 0.0);  // keep the diagonal pattern square
  const auto a = builder.build();
  CsrOperator<double> op(a);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  b[0] = 1.0;
  SolverOptions opts;
  opts.restart = 5;
  opts.max_iterations = 10000;
  for (const bool pseudo : {false, true}) {
    std::vector<double> x(b.size(), 0.0);
    const MatrixView<const double> bv(b.data(), n, 1, n);
    const MatrixView<double> xv(x.data(), n, 1, n);
    const auto st = pseudo ? pseudo_block_gmres<double>(op, nullptr, bv, xv, opts)
                           : block_gmres<double>(op, nullptr, bv, xv, opts);
    EXPECT_FALSE(st.converged) << "pseudo=" << pseudo;
    EXPECT_EQ(st.status, SolveStatus::Stagnated) << "pseudo=" << pseudo;
    EXPECT_LT(st.iterations, 100) << "pseudo=" << pseudo;  // diagnosed, not budget
  }
}

TEST(Resilience, CgIndefiniteOperatorBreaksDownPrecisely) {
  // dq = p^H A p < 0 on an indefinite matrix: the CG recurrence is invalid
  // and the lane must stop with Breakdown instead of iterating on garbage.
  CooBuilder<double> builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -2.0);
  const auto a = builder.build();
  CsrOperator<double> op(a);
  std::vector<double> b = {1.0, 1.0}, x = {0.0, 0.0};
  SolverOptions opts;
  opts.max_iterations = 50;
  const auto st = cg<double>(op, nullptr, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::Breakdown);
}

TEST(Resilience, ThrowOnFailureEscalatesHardFailures) {
  CooBuilder<double> builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -2.0);
  const auto a = builder.build();
  CsrOperator<double> op(a);
  std::vector<double> b = {1.0, 1.0}, x = {0.0, 0.0};
  SolverOptions opts;
  opts.max_iterations = 50;
  opts.recovery.throw_on_failure = true;
  try {
    (void)cg<double>(op, nullptr, b, x, opts);
    FAIL() << "expected BreakdownError";
  } catch (const BreakdownError& e) {
    EXPECT_EQ(e.status(), SolveStatus::Breakdown);
  }
}

TEST(Resilience, ThrowOnFailureDoesNotEscalateBudgetExhaustion) {
  const auto a = poisson2d(12, 12);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 0.001);
  SolverOptions opts;
  opts.tol = 1e-14;
  opts.max_iterations = 15;
  opts.recovery.throw_on_failure = true;
  std::vector<double> x(b.size(), 0.0);
  SolveStats st;
  EXPECT_NO_THROW(st = gmres<double>(op, nullptr, b, x, opts));
  EXPECT_EQ(st.status, SolveStatus::MaxIterations);
}

// ---------------------------------------------------------------------------
// Injected-fault statuses.

TEST(Resilience, NanInjectionYieldsNonFiniteResidual) {
  const auto a = poisson2d(7, 7);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(7, 7, 0.1);
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::OperatorApply;
  plan.kind = FaultKind::InjectNan;
  plan.at_visit = 2;
  inj.schedule(plan);
  SolverOptions opts;
  opts.fault = &inj;
  std::vector<double> x(b.size(), 0.0);
  const auto st = cg<double>(op, nullptr, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::NonFiniteResidual);
  EXPECT_EQ(inj.injected(), 1);
}

TEST(Resilience, OperatorThrowYieldsFaulted) {
  const auto a = poisson2d(7, 7);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(7, 7, 0.1);
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::OperatorApply;
  plan.kind = FaultKind::Throw;
  plan.at_visit = 3;
  inj.schedule(plan);
  SolverOptions opts;
  opts.fault = &inj;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::Faulted);
}

TEST(Resilience, PrecondThrowYieldsPreconditionerFailure) {
  const auto a = poisson2d(7, 7);
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  const auto b = poisson2d_rhs(7, 7, 0.1);
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::PrecondApply;
  plan.kind = FaultKind::Throw;
  plan.at_visit = 2;
  inj.schedule(plan);
  SolverOptions opts;
  opts.fault = &inj;
  opts.side = PrecondSide::Right;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, &m, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::PreconditionerFailure);
}

TEST(Resilience, CorruptedRecursionCaughtByFinalCheck) {
  // A large perturbation of the very first operator apply poisons r0; the
  // estimated residual then converges against the wrong system. The
  // fault-gated true-residual epilogue must refuse to report success.
  const auto a = poisson2d(7, 7);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(7, 7, 0.1);
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::OperatorApply;
  plan.kind = FaultKind::PerturbBlock;
  plan.at_visit = 1;
  plan.magnitude = 1e6;
  inj.schedule(plan);
  SolverOptions opts;
  opts.fault = &inj;
  opts.restart = 60;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  if (st.converged) {
    // Only legitimate if the true residual really is small.
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-4);
  } else {
    EXPECT_NE(st.status, SolveStatus::Converged);
  }
}

TEST(Resilience, InjectionIsDeterministic) {
  const auto a = poisson2d(7, 7);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(7, 7, 0.1);
  auto run = [&] {
    FaultInjector inj(123);
    FaultPlan plan;
    plan.site = FaultSite::Orthogonalization;
    plan.kind = FaultKind::PerturbBlock;
    plan.at_visit = 4;
    plan.magnitude = 10.0;
    inj.schedule(plan);
    SolverOptions opts;
    opts.fault = &inj;
    opts.max_iterations = 300;
    std::vector<double> x(b.size(), 0.0);
    return gmres<double>(op, nullptr, b, x, opts);
  };
  const auto s1 = run();
  const auto s2 = run();
  EXPECT_EQ(s1.status, s2.status);
  EXPECT_EQ(s1.iterations, s2.iterations);
  ASSERT_EQ(s1.history.size(), s2.history.size());
  for (size_t c = 0; c < s1.history.size(); ++c) {
    ASSERT_EQ(s1.history[c].size(), s2.history[c].size());
    for (size_t i = 0; i < s1.history[c].size(); ++i)
      EXPECT_EQ(s1.history[c][i], s2.history[c][i]);  // bitwise
  }
}

// ---------------------------------------------------------------------------
// Recovery escalation.

TEST(Resilience, BlockOrthoRecoveryEmitsTraceEvents) {
  // Duplicated RHS columns collapse the residual block rank: CholQR fails
  // and the escalation ladder (TSQR, then column replacement) repairs the
  // basis. The repair must be visible in both SolveStats and the trace.
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 2);
  const auto f = poisson2d_rhs(9, 9, 1.0);
  std::copy(f.begin(), f.end(), b.col(0));
  std::copy(f.begin(), f.end(), b.col(1));
  DenseMatrix<double> x(n, 2);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.restart = 50;
  opts.max_iterations = 500;
  opts.trace = &trace;
  const auto st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.recoveries, 0);
  EXPECT_EQ(trace.recovery_count(), st.recoveries);
}

TEST(Resilience, RecoveryCanBeDisabled) {
  // Same rank-collapsed block with the ladder turned off: the solve must
  // still terminate, now with a precise failure status instead of a repair.
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 2);
  const auto f = poisson2d_rhs(9, 9, 1.0);
  std::copy(f.begin(), f.end(), b.col(0));
  std::copy(f.begin(), f.end(), b.col(1));
  DenseMatrix<double> x(n, 2);
  SolverOptions opts;
  opts.restart = 50;
  opts.max_iterations = 500;
  opts.recovery.block_recovery = false;
  opts.recovery.early_restart = false;
  const auto st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
  EXPECT_LE(st.iterations, opts.max_iterations);
}

// ---------------------------------------------------------------------------
// Chaos sweep: every entry point x fault site x fault kind x visit index.

struct ChaosEntry {
  const char* name;
  // Returns the stats; writes the solution into x (n x 2).
  SolveStats (*run)(const CsrMatrix<double>&, MatrixView<const double>, MatrixView<double>,
                    const SolverOptions&);
  index_t nrhs = 2;  // columns of x the entry actually solves
};

SolveStats chaos_cg(const CsrMatrix<double>& a, MatrixView<const double> b, MatrixView<double> x,
                    const SolverOptions& opts) {
  CsrOperator<double> op(a);
  return cg<double>(op, nullptr, b, x, opts);
}
SolveStats chaos_block_cg(const CsrMatrix<double>& a, MatrixView<const double> b,
                          MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  return block_cg<double>(op, nullptr, b, x, opts);
}
SolveStats chaos_block_gmres(const CsrMatrix<double>& a, MatrixView<const double> b,
                             MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  return block_gmres<double>(op, nullptr, b, x, opts);
}
SolveStats chaos_pseudo_gmres(const CsrMatrix<double>& a, MatrixView<const double> b,
                              MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  return pseudo_block_gmres<double>(op, nullptr, b, x, opts);
}
SolveStats chaos_lgmres(const CsrMatrix<double>& a, MatrixView<const double> b,
                        MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  const index_t n = a.rows();
  std::vector<double> bv(b.data(), b.data() + n), xv(n, 0.0);
  const auto st = lgmres<double>(op, nullptr, bv, xv, opts);
  for (index_t i = 0; i < n; ++i) x(i, 0) = xv[size_t(i)];
  return st;
}
SolveStats chaos_gcrodr(const CsrMatrix<double>& a, MatrixView<const double> b,
                        MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  GcroDr<double> solver(opts);
  return solver.solve(op, nullptr, b, x);
}
SolveStats chaos_pseudo_gcrodr(const CsrMatrix<double>& a, MatrixView<const double> b,
                               MatrixView<double> x, const SolverOptions& opts) {
  CsrOperator<double> op(a);
  PseudoGcroDr<double> solver(opts);
  return solver.solve(op, nullptr, b, x);
}

TEST(Chaos, SweepAllSolversSitesAndKinds) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  const auto f1 = poisson2d_rhs(7, 7, 10.0);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::copy(f1.begin(), f1.end(), b.col(1));

  const ChaosEntry entries[] = {
      {"cg", chaos_cg},
      {"block_cg", chaos_block_cg},
      {"block_gmres", chaos_block_gmres},
      {"pseudo_block_gmres", chaos_pseudo_gmres},
      {"lgmres", chaos_lgmres, 1},
      {"gcrodr", chaos_gcrodr},
      {"pseudo_gcrodr", chaos_pseudo_gcrodr},
  };
  const FaultSite sites[] = {FaultSite::OperatorApply, FaultSite::PrecondApply,
                             FaultSite::Orthogonalization};
  const FaultKind kinds[] = {FaultKind::InjectNan, FaultKind::ZeroColumn, FaultKind::PerturbBlock,
                             FaultKind::Throw};
  const std::int64_t visits[] = {1, 3, 7};

  std::set<SolveStatus> seen;
  for (const ChaosEntry& entry : entries) {
    for (const FaultSite site : sites) {
      for (const FaultKind kind : kinds) {
        for (const std::int64_t visit : visits) {
          SCOPED_TRACE(std::string(entry.name) + " site=" + std::to_string(int(site)) +
                       " kind=" + std::to_string(int(kind)) + " visit=" + std::to_string(visit));
          FaultInjector inj;
          FaultPlan plan;
          plan.site = site;
          plan.kind = kind;
          plan.at_visit = visit;
          inj.schedule(plan);
          SolverOptions opts;
          opts.restart = 12;
          opts.recycle = 4;
          opts.tol = 1e-8;
          opts.max_iterations = 400;
          opts.fault = &inj;
          DenseMatrix<double> x(n, 2);
          SolveStats st;
          ASSERT_NO_THROW(st = entry.run(a, b.view(), x.view(), opts));
          seen.insert(st.status);
          // The status taxonomy and the converged flag must agree.
          EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
          EXPECT_LE(st.iterations, opts.max_iterations);
          if (st.converged) {
            // Never silently wrong: a converged cell must satisfy the true
            // (uninjected) system to a loose multiple of the tolerance.
            DenseMatrix<double> r(n, 2);
            a.spmm(x.view(), r.view());
            for (index_t c = 0; c < entry.nrhs; ++c) {
              double num = 0, den = 0;
              for (index_t i = 0; i < n; ++i) {
                const double d = b(i, c) - r(i, c);
                num += d * d;
                den += b(i, c) * b(i, c);
              }
              EXPECT_LT(std::sqrt(num), 1e-4 * std::sqrt(den));
            }
          }
        }
      }
    }
  }
  // PrecondApply plans cannot fire without a preconditioner, and the CG
  // family never hits the Orthogonalization site, so a share of cells run
  // fault-free and converge — by design: a scheduled-but-unreached fault
  // must never perturb a solve. The sweep still has to surface a healthy
  // breadth of the taxonomy.
  EXPECT_GE(index_t(seen.size()), 3);
  EXPECT_TRUE(seen.count(SolveStatus::Converged) != 0);
  EXPECT_TRUE(seen.count(SolveStatus::Faulted) != 0);
}

TEST(Chaos, PreconditionedSweepReachesPrecondSite) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::copy(f0.begin(), f0.end(), b.col(1));
  JacobiPreconditioner<double> m(a);
  CsrOperator<double> op(a);
  const FaultKind kinds[] = {FaultKind::InjectNan, FaultKind::Throw};
  std::set<SolveStatus> seen;
  for (const FaultKind kind : kinds) {
    for (const std::int64_t visit : {1, 2, 5}) {
      SCOPED_TRACE("kind=" + std::to_string(int(kind)) + " visit=" + std::to_string(visit));
      FaultInjector inj;
      FaultPlan plan;
      plan.site = FaultSite::PrecondApply;
      plan.kind = kind;
      plan.at_visit = visit;
      inj.schedule(plan);
      SolverOptions opts;
      opts.restart = 12;
      opts.max_iterations = 400;
      opts.side = PrecondSide::Right;
      opts.fault = &inj;
      DenseMatrix<double> x(n, 2);
      SolveStats st;
      ASSERT_NO_THROW(st = block_gmres<double>(op, &m, b.view(), x.view(), opts));
      seen.insert(st.status);
      EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
    }
  }
  EXPECT_TRUE(seen.count(SolveStatus::PreconditionerFailure) != 0);
}

// ShardHalo: corrupting the gathered halo payload of a sharded apply (the
// in-flight "message" of the SPMD layer, DESIGN.md §13) is subject to the
// same contract as every other site — terminate inside budget, converge
// genuinely or report precisely, never crash. The hook fires during the
// serial gather phase, so plans here also prove injection is race-free
// under the shard-parallel fan-out.
TEST(Chaos, ShardHaloCorruptionSweep) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  const auto f1 = poisson2d_rhs(7, 7, 10.0);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::copy(f1.begin(), f1.end(), b.col(1));

  const FaultKind kinds[] = {FaultKind::InjectNan, FaultKind::ZeroColumn,
                             FaultKind::PerturbBlock, FaultKind::Throw};
  std::set<SolveStatus> seen;
  for (const index_t shards : {index_t(2), index_t(4)}) {
    for (const FaultKind kind : kinds) {
      for (const std::int64_t visit : {1, 3, 9}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " kind=" + std::to_string(int(kind)) +
                     " visit=" + std::to_string(visit));
        FaultInjector inj;
        FaultPlan plan;
        plan.site = FaultSite::ShardHalo;
        plan.kind = kind;
        plan.at_visit = visit;
        inj.schedule(plan);
        SolverOptions opts;
        opts.restart = 12;
        opts.tol = 1e-8;
        opts.max_iterations = 400;
        opts.shards = shards;
        ShardedOperator<double> op(a, shards, nullptr, nullptr, &inj);
        DenseMatrix<double> x(n, 2);
        SolveStats st;
        ASSERT_NO_THROW(st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts));
        seen.insert(st.status);
        EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
        EXPECT_LE(st.iterations, opts.max_iterations);
        EXPECT_GT(inj.visits(FaultSite::ShardHalo), 0) << "hook never reached";
        if (st.converged) {
          DenseMatrix<double> r(n, 2);
          a.spmm(x.view(), r.view());
          for (index_t c = 0; c < 2; ++c) {
            double num = 0, den = 0;
            for (index_t i = 0; i < n; ++i) {
              const double d = b(i, c) - r(i, c);
              num += d * d;
              den += b(i, c) * b(i, c);
            }
            EXPECT_LT(std::sqrt(num), 1e-4 * std::sqrt(den));
          }
        }
      }
    }
  }
  EXPECT_TRUE(seen.count(SolveStatus::Converged) != 0);
  EXPECT_TRUE(seen.count(SolveStatus::Faulted) != 0);
}

// A plan scheduled at ShardHalo must stay dormant on a monolithic (1-shard)
// operator: one shard gathers no halo, so the site is never visited and the
// solve is untouched — the "scheduled but unreached" guarantee.
TEST(Chaos, ShardHaloPlanDormantAtOneShard) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 1);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  std::copy(f0.begin(), f0.end(), b.col(0));
  FaultInjector inj;
  FaultPlan plan;
  plan.site = FaultSite::ShardHalo;
  plan.kind = FaultKind::Throw;
  plan.at_visit = 1;
  inj.schedule(plan);
  SolverOptions opts;
  opts.tol = 1e-9;
  opts.shards = 1;
  ShardedOperator<double> op(a, 1, nullptr, nullptr, &inj);
  DenseMatrix<double> x(n, 1);
  SolveStats st;
  ASSERT_NO_THROW(st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts));
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(inj.visits(FaultSite::ShardHalo), 0);
  EXPECT_EQ(inj.injected(), 0);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation and deadlines (DESIGN.md §15): the client-side
// abort channel is subject to the same chaos contract as injected faults —
// terminate promptly at an iteration boundary, report the precise status,
// and leave a finite (if unconverged) iterate behind.

// Wraps the CSR apply and trips the shared cancel token at the k-th
// operator visit, modelling a client that cancels mid-solve.
class CancelAfterOperator final : public LinearOperator<double> {
 public:
  CancelAfterOperator(const CsrMatrix<double>& a, std::atomic<bool>* token,
                      std::int64_t at_visit)
      : op_(a), token_(token), at_visit_(at_visit) {}
  [[nodiscard]] index_t n() const override { return op_.n(); }
  void apply(MatrixView<const double> x, MatrixView<double> y) const override {
    op_.apply(x, y);
    if (++visits_ == at_visit_) token_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t visits() const { return visits_; }

 private:
  CsrOperator<double> op_;
  std::atomic<bool>* token_;
  std::int64_t at_visit_;
  mutable std::int64_t visits_ = 0;
};

struct CancelEntry {
  const char* name;
  SolveStats (*run)(const LinearOperator<double>&, MatrixView<const double>, MatrixView<double>,
                    const SolverOptions&);
};

SolveStats cancel_cg(const LinearOperator<double>& op, MatrixView<const double> b,
                     MatrixView<double> x, const SolverOptions& opts) {
  return cg<double>(op, nullptr, b, x, opts);
}
SolveStats cancel_block_cg(const LinearOperator<double>& op, MatrixView<const double> b,
                           MatrixView<double> x, const SolverOptions& opts) {
  return block_cg<double>(op, nullptr, b, x, opts);
}
SolveStats cancel_block_gmres(const LinearOperator<double>& op, MatrixView<const double> b,
                              MatrixView<double> x, const SolverOptions& opts) {
  return block_gmres<double>(op, nullptr, b, x, opts);
}
SolveStats cancel_pseudo_gmres(const LinearOperator<double>& op, MatrixView<const double> b,
                               MatrixView<double> x, const SolverOptions& opts) {
  return pseudo_block_gmres<double>(op, nullptr, b, x, opts);
}
SolveStats cancel_lgmres(const LinearOperator<double>& op, MatrixView<const double> b,
                         MatrixView<double> x, const SolverOptions& opts) {
  const index_t n = op.n();
  std::vector<double> bv(b.data(), b.data() + n), xv(n, 0.0);
  const auto st = lgmres<double>(op, nullptr, bv, xv, opts);
  for (index_t i = 0; i < n; ++i) x(i, 0) = xv[size_t(i)];
  return st;
}
SolveStats cancel_gcrodr(const LinearOperator<double>& op, MatrixView<const double> b,
                         MatrixView<double> x, const SolverOptions& opts) {
  GcroDr<double> solver(opts);
  return solver.solve(op, nullptr, b, x);
}
SolveStats cancel_pseudo_gcrodr(const LinearOperator<double>& op, MatrixView<const double> b,
                                MatrixView<double> x, const SolverOptions& opts) {
  PseudoGcroDr<double> solver(opts);
  return solver.solve(op, nullptr, b, x);
}

const CancelEntry kCancelEntries[] = {
    {"cg", cancel_cg},
    {"block_cg", cancel_block_cg},
    {"block_gmres", cancel_block_gmres},
    {"pseudo_block_gmres", cancel_pseudo_gmres},
    {"lgmres", cancel_lgmres},
    {"gcrodr", cancel_gcrodr},
    {"pseudo_gcrodr", cancel_pseudo_gcrodr},
};

TEST(Cancellation, CancelMidIterationAllSolvers) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  const auto f1 = poisson2d_rhs(7, 7, 10.0);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::copy(f1.begin(), f1.end(), b.col(1));

  for (const CancelEntry& entry : kCancelEntries) {
    for (const std::int64_t visit : {1, 3, 7}) {
      SCOPED_TRACE(std::string(entry.name) + " visit=" + std::to_string(visit));
      std::atomic<bool> token{false};
      CancelAfterOperator op(a, &token, visit);
      SolverOptions opts;
      opts.restart = 12;
      opts.recycle = 4;
      opts.tol = 0;  // smoother mode: the solve can only end by cancellation
      opts.max_iterations = 400;
      opts.cancel = &token;
      DenseMatrix<double> x(n, 2);
      SolveStats st;
      ASSERT_NO_THROW(st = entry.run(op, b.view(), x.view(), opts));
      EXPECT_FALSE(st.converged);
      EXPECT_EQ(st.status, SolveStatus::Cancelled);
      // The abort happens at an iteration boundary, not an arbitrary point:
      // the iterate left behind must be a consistent, finite vector.
      for (index_t c = 0; c < 2; ++c)
        for (index_t i = 0; i < n; ++i) EXPECT_TRUE(std::isfinite(x(i, c)));
      EXPECT_LE(st.iterations, opts.max_iterations);
      EXPECT_GE(op.visits(), visit);  // the trip point really was reached
    }
  }
}

TEST(Cancellation, ExpiredDeadlineAbortsBeforeFirstOperatorApply) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::copy(f0.begin(), f0.end(), b.col(1));

  for (const CancelEntry& entry : kCancelEntries) {
    SCOPED_TRACE(entry.name);
    std::atomic<bool> token{false};
    CancelAfterOperator op(a, &token, std::int64_t(1) << 40);
    SolverOptions opts;
    opts.restart = 12;
    opts.recycle = 4;
    opts.max_iterations = 400;
    opts.deadline = std::chrono::steady_clock::now();  // already expired
    DenseMatrix<double> x(n, 2);
    SolveStats st;
    ASSERT_NO_THROW(st = entry.run(op, b.view(), x.view(), opts));
    EXPECT_FALSE(st.converged);
    EXPECT_EQ(st.status, SolveStatus::DeadlineExceeded);
    // The entry check fires before the body: zero work was spent.
    EXPECT_EQ(op.visits(), 0);
    EXPECT_EQ(st.operator_applies, 0);
  }
}

TEST(Cancellation, PreSetTokenAbortsBeforeFirstOperatorApply) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 1);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::atomic<bool> token{true};
  CancelAfterOperator op(a, &token, std::int64_t(1) << 40);
  SolverOptions opts;
  opts.cancel = &token;
  DenseMatrix<double> x(n, 1);
  SolveStats st;
  ASSERT_NO_THROW(st = cancel_cg(op, b.view(), x.view(), opts));
  EXPECT_EQ(st.status, SolveStatus::Cancelled);
  EXPECT_EQ(op.visits(), 0);
}

TEST(Cancellation, DefaultedOffSolvesAreUntouched) {
  // The cancellation channel must be invisible when unused: a plain solve
  // with default options still converges with the exact same status
  // contract as before the channel existed.
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(8, 8, 0.1);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  EXPECT_EQ(opts.cancel, nullptr);
  EXPECT_FALSE(detail::deadline_enabled(opts));
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::Converged);
}

TEST(Cancellation, ThrowOnFailureDoesNotEscalateCancellation) {
  // Cancellation and deadlines are client verdicts, not solver failures:
  // throw_on_failure must leave them as statuses, like MaxIterations.
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 1);
  const auto f0 = poisson2d_rhs(7, 7, 0.1);
  std::copy(f0.begin(), f0.end(), b.col(0));
  std::atomic<bool> token{true};
  CsrOperator<double> op(a);
  SolverOptions opts;
  opts.cancel = &token;
  opts.recovery.throw_on_failure = true;
  DenseMatrix<double> x(n, 1);
  SolveStats st;
  EXPECT_NO_THROW(st = cg<double>(op, nullptr, b.view(), x.view(), opts));
  EXPECT_EQ(st.status, SolveStatus::Cancelled);
}

}  // namespace
}  // namespace bkr
