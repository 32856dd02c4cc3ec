// Command-line driver: the artifact-style front end to the library.
//
// Mirrors the paper's artifact workflow (appendix D/E) — pick a problem,
// a preconditioner and a Krylov method on the command line, get the
// iteration/time table:
//
//   ./example_solver_driver -problem poisson -grid 64
//       (continued:)
//       -krylov_method gcrodr -gmres_restart 30 -recycle 10
//       -recycle_same_system -tol 1e-8 -pc jacobi
//
// Options (defaults in parentheses):
//   -problem  poisson | varcoef | elasticity | maxwell | mtx  (poisson)
//   -matrix FILE     Matrix Market file (with -problem mtx; random RHS)
//   -grid N          problem resolution                  (40)
//   -nrhs P          RHS count / sequence length         (4)
//   -krylov_method   gmres | bgmres | pbgmres | gcrodr | bgcrodr |
//                    pbgcrodr | lgmres | cg              (gmres)
//   -gmres_restart m (30)    -recycle k (10)    -tol eps (1e-8)
//   -variant         right | left | flexible             (right)
//   -recycle_strategy A | B                              (B)
//   -recycle_same_system     treat the sequence as one matrix
//   -pc              none | jacobi | amg | oras | asm    (none)
//   -subdomains N (8)   -overlap d (2)   -impedance beta (0.5)
//   -trace FILE      write a per-phase/per-iteration telemetry trace
//                    (JSON; FILE ending in .csv selects CSV) and print
//                    the phase breakdown after the sequence
#include <complex>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/timer.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "fem/elasticity3d.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "obs/trace.hpp"
#include "precond/amg.hpp"
#include "precond/jacobi.hpp"
#include "precond/schwarz.hpp"
#include "common/rng.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using namespace bkr;
using cd = std::complex<double>;

SolverOptions solver_options(const Options& opts) {
  SolverOptions o;
  o.restart = opts.get("gmres_restart", index_t(30));
  o.recycle = opts.get("recycle", index_t(10));
  o.tol = opts.get("tol", 1e-8);
  o.max_iterations = opts.get("max_it", index_t(10000));
  const std::string variant = opts.get("variant", std::string("right"));
  o.side = variant == "left"       ? PrecondSide::Left
           : variant == "flexible" ? PrecondSide::Flexible
                                   : PrecondSide::Right;
  o.strategy = opts.get("recycle_strategy", std::string("B")) == "A" ? RecycleStrategy::A
                                                                     : RecycleStrategy::B;
  o.same_system = opts.has("recycle_same_system");
  return o;
}

template <class T>
std::unique_ptr<Preconditioner<T>> make_preconditioner(const Options& opts, const CsrMatrix<T>& a,
                                                       MatrixView<const T> near_nullspace) {
  const std::string pc = opts.get("pc", std::string("none"));
  if (pc == "jacobi") return std::make_unique<JacobiPreconditioner<T>>(a);
  if (pc == "amg") {
    AmgOptions o;
    o.threshold = opts.get("amg_threshold", 0.0);
    o.block_size = near_nullspace.cols() >= 3 ? 3 : 1;
    o.smoother = AmgSmoother::Chebyshev;
    return std::make_unique<AmgPreconditioner<T>>(a, o, near_nullspace);
  }
  if (pc == "oras" || pc == "asm") {
    SchwarzOptions o;
    o.subdomains = opts.get("subdomains", index_t(8));
    o.overlap = opts.get("overlap", index_t(2));
    o.kind = pc == "oras" ? SchwarzKind::Oras : SchwarzKind::Asm;
    o.impedance = opts.get("impedance", 0.5);
    return std::make_unique<SchwarzPreconditioner<T>>(a, o);
  }
  return nullptr;
}

// Solve the sequence with the requested method; `p` columns per solve.
template <class T>
void run_sequence(const Options& opts, const std::vector<CsrMatrix<T>*>& matrices,
                  const std::vector<DenseMatrix<T>>& rhs, MatrixView<const T> near_nullspace) {
  const std::string method = opts.get("krylov_method", std::string("gmres"));
  SolverOptions sopts = solver_options(opts);
  const std::string trace_path = opts.get("trace", std::string(""));
  obs::SolverTrace trace;
  if (!trace_path.empty()) sopts.trace = &trace;
  std::printf("%s (m=%lld, k=%lld, tol=%g, %zu solves)\n", method.c_str(),
              static_cast<long long>(sopts.restart), static_cast<long long>(sopts.recycle),
              sopts.tol, rhs.size());
  GcroDr<T> gcro(sopts);  // -recycle 0 runs it as (block) GMRES
  PseudoGcroDr<T> pgcro(sopts);
  index_t total_iterations = 0;
  double total_seconds = 0;
  for (size_t s = 0; s < rhs.size(); ++s) {
    const CsrMatrix<T>& a = *matrices[std::min(s, matrices.size() - 1)];
    auto m = make_preconditioner<T>(opts, a, near_nullspace);
    CsrOperator<T> op(a);
    const index_t n = a.rows();
    const index_t p = rhs[s].cols();
    DenseMatrix<T> x(n, p);
    const bool new_matrix = matrices.size() > 1;
    Timer t;
    SolveStats st;
    if (method == "gmres" || method == "bgmres") {
      st = block_gmres<T>(op, m.get(), rhs[s].view(), x.view(), sopts);
    } else if (method == "pbgmres") {
      st = pseudo_block_gmres<T>(op, m.get(), rhs[s].view(), x.view(), sopts);
    } else if (method == "gcrodr" || method == "bgcrodr") {
      st = gcro.solve(op, m.get(), rhs[s].view(), x.view(), nullptr, new_matrix);
    } else if (method == "pbgcrodr") {
      st = pgcro.solve(op, m.get(), rhs[s].view(), x.view(), nullptr, new_matrix);
    } else if (method == "lgmres") {
      std::vector<T> b(rhs[s].col(0), rhs[s].col(0) + n), xv(static_cast<size_t>(n), T(0));
      st = lgmres<T>(op, m.get(), b, xv, sopts);
    } else if (method == "cg") {
      st = cg<T>(op, m.get(), rhs[s].view(), x.view(), sopts);
    } else {
      std::printf("unknown -krylov_method %s\n", method.c_str());
      return;
    }
    const double secs = t.seconds();
    std::printf("  %zu %8lld %10.6f%s\n", s + 1, static_cast<long long>(st.iterations), secs,
                st.converged ? "" : "  NOT CONVERGED");
    total_iterations += st.iterations;
    total_seconds += secs;
  }
  std::printf("  ------------------------\n    %8lld %10.6f\n",
              static_cast<long long>(total_iterations), total_seconds);
  if (!trace_path.empty()) {
    std::printf("  phase breakdown (%.6f s of %.6f s instrumented):\n",
                trace.total_phase_seconds(), trace.total_solve_seconds());
    for (int ph = 0; ph < obs::kPhaseCount; ++ph) {
      const auto totals = trace.phase_totals(static_cast<obs::Phase>(ph));
      std::printf("    %-20s %10.6f s  x%lld\n", obs::phase_name(static_cast<obs::Phase>(ph)),
                  totals.seconds, static_cast<long long>(totals.count));
    }
    const bool csv = trace_path.size() > 4 && trace_path.rfind(".csv") == trace_path.size() - 4;
    const bool ok = csv ? trace.write_csv(trace_path) : trace.write_json(trace_path);
    if (ok)
      std::printf("  trace written to %s\n", trace_path.c_str());
    else
      std::printf("  FAILED to write trace to %s\n", trace_path.c_str());
  }
}

int run(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.has("help")) {
    std::printf("see the comment block at the top of examples/solver_driver.cpp\n");
    return 0;
  }
  const std::string problem = opts.get("problem", std::string("poisson"));
  const index_t grid = opts.get("grid", index_t(40));
  const index_t nrhs = opts.get("nrhs", index_t(4));
  const std::string method = opts.get("krylov_method", std::string("gmres"));
  const bool block = method == "bgmres" || method == "pbgmres" || method == "bgcrodr" ||
                     method == "pbgcrodr" || method == "cg";

  if (problem == "poisson" || problem == "varcoef") {
    CsrMatrix<double> a = problem == "poisson" ? poisson2d(grid, grid)
                                               : poisson2d_varcoef(grid, grid, 500.0, 24);
    std::printf("problem %s, %lld unknowns\n", problem.c_str(),
                static_cast<long long>(a.rows()));
    std::vector<CsrMatrix<double>*> matrices = {&a};
    std::vector<DenseMatrix<double>> rhs;
    if (block) {
      DenseMatrix<double> b(a.rows(), nrhs);
      for (index_t c = 0; c < nrhs; ++c) {
        const auto f = poisson2d_rhs(grid, grid, kPoissonNus[size_t(c % 4)]);
        std::copy(f.begin(), f.end(), b.col(c));
      }
      rhs.push_back(std::move(b));
    } else {
      for (index_t c = 0; c < nrhs; ++c) {
        DenseMatrix<double> b(a.rows(), 1);
        const auto f = poisson2d_rhs(grid, grid, kPoissonNus[size_t(c % 4)]);
        std::copy(f.begin(), f.end(), b.col(0));
        rhs.push_back(std::move(b));
      }
    }
    run_sequence<double>(opts, matrices, rhs, MatrixView<const double>());
  } else if (problem == "elasticity") {
    std::vector<ElasticityProblem> problems;
    std::vector<CsrMatrix<double>*> matrices;
    std::vector<DenseMatrix<double>> rhs;
    for (index_t s = 0; s < nrhs; ++s) {
      ElasticityConfig cfg;
      cfg.ne = grid;
      cfg.inclusion = kElasticitySequence[size_t(s % 4)];
      problems.push_back(elasticity3d(cfg));
    }
    for (auto& p : problems) {
      matrices.push_back(&p.matrix);
      DenseMatrix<double> b(p.nfree, 1);
      std::copy(p.rhs.begin(), p.rhs.end(), b.col(0));
      rhs.push_back(std::move(b));
    }
    std::printf("problem elasticity, ne=%lld (%lld dofs), %lld varying systems\n",
                static_cast<long long>(grid), static_cast<long long>(problems[0].nfree),
                static_cast<long long>(nrhs));
    run_sequence<double>(opts, matrices, rhs, problems[0].rigid_body_modes.view());
  } else if (problem == "maxwell") {
    MaxwellConfig cfg;
    cfg.n = grid;
    cfg.wavelengths = opts.get("wavelengths", 1.6);
    cfg.loss = opts.get("loss", 0.15);
    const auto prob = maxwell3d(cfg);
    std::printf("problem maxwell, %lld complex unknowns\n", static_cast<long long>(prob.nfree));
    // The matrix object must outlive run_sequence; keep a stable copy.
    CsrMatrix<cd> a = prob.matrix;
    std::vector<CsrMatrix<cd>*> matrices = {&a};
    std::vector<DenseMatrix<cd>> rhs;
    if (block) {
      DenseMatrix<cd> b(prob.nfree, nrhs);
      for (index_t c = 0; c < nrhs; ++c) {
        const auto f = antenna_rhs(prob, c, std::max<index_t>(nrhs, 8));
        std::copy(f.begin(), f.end(), b.col(c));
      }
      rhs.push_back(std::move(b));
    } else {
      for (index_t c = 0; c < nrhs; ++c) {
        DenseMatrix<cd> b(prob.nfree, 1);
        const auto f = antenna_rhs(prob, c, std::max<index_t>(nrhs, 8));
        std::copy(f.begin(), f.end(), b.col(0));
        rhs.push_back(std::move(b));
      }
    }
    run_sequence<cd>(opts, matrices, rhs, MatrixView<const cd>());
  } else if (problem == "mtx") {
    const std::string path = opts.get("matrix", std::string(""));
    if (path.empty()) {
      std::printf("-problem mtx requires -matrix FILE\n");
      return 1;
    }
    CsrMatrix<double> a = read_matrix_market<double>(path);
    std::printf("problem mtx (%s), %lld unknowns\n", path.c_str(),
                static_cast<long long>(a.rows()));
    std::vector<CsrMatrix<double>*> matrices = {&a};
    std::vector<DenseMatrix<double>> rhs;
    Rng rng(0xdead);
    if (block) {
      DenseMatrix<double> b(a.rows(), nrhs);
      for (index_t c = 0; c < nrhs; ++c)
        for (index_t i = 0; i < a.rows(); ++i) b(i, c) = rng.scalar<double>();
      rhs.push_back(std::move(b));
    } else {
      for (index_t c = 0; c < nrhs; ++c) {
        DenseMatrix<double> b(a.rows(), 1);
        for (index_t i = 0; i < a.rows(); ++i) b(i, 0) = rng.scalar<double>();
        rhs.push_back(std::move(b));
      }
    }
    run_sequence<double>(opts, matrices, rhs, MatrixView<const double>());
  } else {
    std::printf("unknown -problem %s (poisson | varcoef | elasticity | maxwell | mtx)\n",
                problem.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

// An invalid option value (say -recycle -1) reaches the solver's own
// check; report it and exit non-zero instead of aborting.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
