// Sequence driver: the session / recycle-cache front end.
//
// Replays a frequency-sweep-style workload — several operators, each hit
// by the paper's fig. 2 sequence of right-hand sides — through the
// SolverSession + RecycleCache service layer, twice: a cold pass whose
// sessions deposit their recycle spaces into a shared cache, then a warm
// pass whose fresh sessions withdraw them. The point of the exercise is
// the drop in first-solve iterations between the passes (the deflation
// space outlives the session that built it).
//
//   ./example_sequence_driver -grid 48 -method gcrodr -m 30 -k 10
//       (continued:) -cache_file /tmp/spaces.bkrc -assert_improvement
//
// Options (defaults in parentheses):
//   -grid N           operator resolution                       (40)
//   -method           gcrodr | pbgcrodr                         (gcrodr)
//   -m VAL            restart length                            (30)
//   -k VAL            recycle dimension                         (10)
//   -tol EPS          relative residual target                  (1e-8)
//   -nrhs P           right-hand sides per operator             (4)
//   -cache_file FILE  load the cache from FILE if it exists (so even the
//                     first pass warm-starts), save it back after the run
//   -no_cache         run both passes without a cache (sessions still
//                     recycle internally; nothing crosses sessions)
//   -assert_improvement  exit nonzero unless every operator's warm-pass
//                     first solve took strictly fewer iterations than its
//                     cold reference and reported warm_started
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "core/recycle_cache.hpp"
#include "core/session.hpp"
#include "fem/poisson2d.hpp"
#include "precond/jacobi.hpp"

namespace {

using namespace bkr;

struct PassResult {
  index_t first_iterations = 0;
  index_t total_iterations = 0;
  bool warm = false;
  bool converged = true;
};

// Run the fig. 2 sequence (nrhs sources against one operator) through a
// fresh session, optionally backed by `cache`.
PassResult run_session(const CsrMatrix<double>& a, index_t grid, index_t nrhs,
                       SessionMethod method, const SolverOptions& sopts, RecycleCache* cache) {
  SessionConfig cfg;
  cfg.method = method;
  cfg.options = sopts;
  cfg.cache = cache;
  JacobiPreconditioner<double> jacobi(a);
  SolverSession<double> session(a, &jacobi, cfg);
  PassResult r;
  r.warm = session.warm_started();
  const index_t n = a.rows();
  for (index_t s = 0; s < nrhs; ++s) {
    const auto f = poisson2d_rhs(grid, grid, kPoissonNus[size_t(s % 4)]);
    DenseMatrix<double> b(n, 1), x(n, 1);
    std::copy(f.begin(), f.end(), b.col(0));
    const SolveStats st = session.solve(b.view(), x.view());
    if (s == 0) r.first_iterations = st.iterations;
    r.total_iterations += st.iterations;
    r.converged = r.converged && st.converged;
  }
  return r;  // ~SolverSession deposits the final space into the cache
}

int run(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.has("help")) {
    std::printf("see the comment block at the top of examples/sequence_driver.cpp\n");
    return 0;
  }
  const index_t grid = opts.get("grid", index_t(40));
  const index_t nrhs = opts.get("nrhs", index_t(4));
  const std::string method_name = opts.get("method", std::string("gcrodr"));
  const bool no_cache = opts.has("no_cache");
  const bool assert_improvement = opts.has("assert_improvement");
  const std::string cache_file = opts.get("cache_file", std::string(""));

  SessionMethod method;
  if (method_name == "gcrodr") {
    method = SessionMethod::GcroDr;
  } else if (method_name == "pbgcrodr") {
    method = SessionMethod::PseudoGcroDr;
  } else {
    std::printf("unknown -method %s (gcrodr | pbgcrodr)\n", method_name.c_str());
    return 1;
  }

  SolverOptions sopts;
  sopts.restart = opts.get("m", index_t(30));
  sopts.recycle = opts.get("k", index_t(10));
  sopts.tol = opts.get("tol", 1e-8);

  // The sweep: one constant-coefficient operator and two heterogeneous
  // variants, each solved against the fig. 2 source sequence.
  std::vector<CsrMatrix<double>> operators;
  operators.push_back(poisson2d(grid, grid));
  operators.push_back(poisson2d_varcoef(grid, grid, 100.0, 8));
  operators.push_back(poisson2d_varcoef(grid, grid, 50.0, 12));
  const char* names[] = {"poisson", "varcoef-100", "varcoef-50"};

  std::printf("%s sessions (m=%lld, k=%lld, tol=%g, grid=%lld, %lld rhs/operator, cache %s)\n",
              method_name.c_str(), static_cast<long long>(sopts.restart),
              static_cast<long long>(sopts.recycle), sopts.tol, static_cast<long long>(grid),
              static_cast<long long>(nrhs), no_cache ? "off" : "on");

  // Cold reference: sessions with no cache at all.
  std::vector<PassResult> cold;
  for (size_t i = 0; i < operators.size(); ++i)
    cold.push_back(run_session(operators[i], grid, nrhs, method, sopts, nullptr));

  RecycleCache cache;
  RecycleCache* cache_ptr = no_cache ? nullptr : &cache;
  if (cache_ptr != nullptr && !cache_file.empty()) {
    if (cache.load(cache_file)) {
      std::printf("loaded %lld cached spaces from %s\n",
                  static_cast<long long>(cache.counters().entries), cache_file.c_str());
    } else if (std::ifstream(cache_file).good()) {
      // The file exists but failed validation (bad magic/version/checksum
      // or truncation): cold-starting silently would hide snapshot rot.
      std::fprintf(stderr,
                   "warning: cache snapshot %s is corrupt or unreadable; cold-starting\n",
                   cache_file.c_str());
    } else {
      std::fprintf(stderr, "note: cache snapshot %s not found; cold-starting\n",
                   cache_file.c_str());
    }
  }

  // Pass A populates (or reuses) the shared cache; pass B's fresh
  // sessions must then warm-start from it.
  std::vector<PassResult> pass_a, pass_b;
  for (size_t i = 0; i < operators.size(); ++i)
    pass_a.push_back(run_session(operators[i], grid, nrhs, method, sopts, cache_ptr));
  for (size_t i = 0; i < operators.size(); ++i)
    pass_b.push_back(run_session(operators[i], grid, nrhs, method, sopts, cache_ptr));

  std::printf("  %-12s %14s %14s %14s\n", "operator", "cold first-it", "passA first-it",
              "passB first-it");
  bool all_converged = true;
  bool improved = true;
  std::vector<size_t> regressed;
  for (size_t i = 0; i < operators.size(); ++i) {
    std::printf("  %-12s %14lld %13lld%s %13lld%s\n", names[i],
                static_cast<long long>(cold[i].first_iterations),
                static_cast<long long>(pass_a[i].first_iterations), pass_a[i].warm ? "w" : " ",
                static_cast<long long>(pass_b[i].first_iterations), pass_b[i].warm ? "w" : " ");
    all_converged = all_converged && cold[i].converged && pass_a[i].converged &&
                    pass_b[i].converged;
    const bool op_improved =
        pass_b[i].warm && pass_b[i].first_iterations < cold[i].first_iterations;
    if (!op_improved) regressed.push_back(i);
    improved = improved && op_improved;
  }
  if (cache_ptr != nullptr) {
    const auto c = cache.counters();
    std::printf("  cache: %lld hits, %lld misses, %lld evictions, %lld entries, %lld bytes\n",
                static_cast<long long>(c.hits), static_cast<long long>(c.misses),
                static_cast<long long>(c.evictions), static_cast<long long>(c.entries),
                static_cast<long long>(c.bytes));
    if (!cache_file.empty()) {
      if (cache.save(cache_file))
        std::printf("  cache saved to %s\n", cache_file.c_str());
      else
        std::printf("  FAILED to save cache to %s\n", cache_file.c_str());
    }
  }
  if (!all_converged) {
    std::printf("NOT CONVERGED\n");
    return 3;
  }
  if (assert_improvement && cache_ptr != nullptr && !improved) {
    for (const size_t i : regressed)
      std::fprintf(stderr,
                   "ASSERT FAILED: operator %s warm first solve %s (warm %lld iterations vs "
                   "cold %lld)\n",
                   names[i],
                   pass_b[i].warm ? "did not improve on the cold reference"
                                  : "was not warm-started from the cache",
                   static_cast<long long>(pass_b[i].first_iterations),
                   static_cast<long long>(cold[i].first_iterations));
    return 2;
  }
  return 0;
}

}  // namespace

// An invalid option value (say -k -1) reaches the solver's own check;
// report it and exit non-zero instead of aborting.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
