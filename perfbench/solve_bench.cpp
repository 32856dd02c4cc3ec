// perfbench_solve — the solve workloads of the end-to-end benchmark
// (README.md). One process runs one workload in rounds until --seconds
// have passed; each round assembles the problem, builds the
// preconditioner, solves the whole right-hand-side set through the
// library's public solver entry points and checks every column's true
// residual with the library's SpMV. It prints one JSON line per round and
// a closing line with the peak RSS; run.py turns them into the metrics.
//
// A host-speed probe (host_probe.hpp) runs before and after every solver
// call, outside the timed interval; run.py scales the timings by it.
//
// Traced rounds attach an obs::SolverTrace and the timing wrappers below
// around LinearOperator::apply and Preconditioner::apply. Untraced rounds
// hand the solver the bare operator and preconditioner, so the timed
// metrics never include tracing cost.
//
// Usage: perfbench_solve --workload NAME --variant V --seconds S --trace 0|1
//                        [--min-rounds R]
//        perfbench_solve --workload probe --reps N
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/recycle_cache.hpp"
#include "fem/elasticity3d.hpp"
#include "fem/maxwell3d.hpp"
#include "host_probe.hpp"
#include "precond/amg.hpp"
#include "precond/schwarz.hpp"

namespace {

using namespace bkr;
using cd = std::complex<double>;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload parameters ---------------------------------------------
//
// antenna-*: fig. 8 alternatives 1 and 7 on a scaled-down chamber.
constexpr index_t kChamberGrid = 8;
constexpr index_t kRingPositions = 64;  // the variant picks every other one
constexpr index_t kAntennas = 32;
constexpr index_t kGroup = 8;           // alternative 7: 4x BGCRO-DR, 8 RHS
// elasticity-sequence: fig. 3c/d at the bench's size (9,450 dofs).
constexpr index_t kElasticityNe = 14;
constexpr double kInclusionShift = 0.04;  // max seeded offset per coordinate

constexpr double kTol = 1e-8;
// A column passes when its true residual is within this factor of tol:
// the solvers stop on the recursive residual estimate, which may drift
// from the true residual by a few ulps of the stopping test.
constexpr double kResidualSlack = 10.0;

// splitmix64: the only source of randomness, so a variant is the same
// input on every platform.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t key) { return double(mix(key) >> 11) * 0x1.0p-53; }

// ---- timing wrappers (traced rounds only) -----------------------------

template <class T>
constexpr double flops_per_nnz() {
  return std::is_same_v<T, double> ? 2.0 : 8.0;  // real vs complex multiply-add
}

template <class T>
class TimedOperator final : public LinearOperator<T> {
 public:
  explicit TimedOperator(const CsrOperator<T>& inner) : inner_(inner) {}
  [[nodiscard]] index_t n() const override { return inner_.n(); }
  void apply(MatrixView<const T> x, MatrixView<T> y) const override {
    const auto t0 = Clock::now();
    inner_.apply(x, y);
    seconds += since(t0);
    calls += 1;
    cols += x.cols();
    flops += flops_per_nnz<T>() * double(inner_.matrix().nnz()) * double(x.cols());
  }
  mutable double seconds = 0, flops = 0;
  mutable std::int64_t calls = 0, cols = 0;

 private:
  const CsrOperator<T>& inner_;
};

template <class T>
class TimedPreconditioner final : public Preconditioner<T> {
 public:
  explicit TimedPreconditioner(Preconditioner<T>& inner) : inner_(inner) {}
  [[nodiscard]] index_t n() const override { return inner_.n(); }
  [[nodiscard]] bool is_variable() const override { return inner_.is_variable(); }
  void apply(MatrixView<const T> r, MatrixView<T> z) override {
    const auto t0 = Clock::now();
    inner_.apply(r, z);
    seconds += since(t0);
    calls += 1;
    cols += r.cols();
  }
  double seconds = 0;
  std::int64_t calls = 0, cols = 0;

 private:
  Preconditioner<T>& inner_;
};

// ---- one round's record ----------------------------------------------

struct Round {
  bool traced = false;
  double assemble_s = 0, precond_setup_s = 0, solve_s = 0;
  std::vector<double> call_ms;   // wall time of each solver call
  std::vector<double> probe_ms;  // host probes around the solver calls
  index_t columns = 0, failed = 0;
  double max_true_residual = 0;
  std::int64_t iterations = 0, cycles = 0, operator_applies = 0, precond_applies = 0,
               reductions = 0, recoveries = 0;
  std::uint64_t x_hash = 0;
  // traced rounds
  double phase_s[obs::kPhaseCount] = {};
  double spmm_s = 0, spmm_flops = 0, precond_s = 0;
  std::int64_t spmm_calls = 0, spmm_cols = 0, precond_calls = 0, precond_cols = 0;
  double direct_factor_s = 0, direct_solve_s = 0;
  std::int64_t direct_factor_nnz = 0;
};

void add_stats(Round& r, const SolveStats& st) {
  r.iterations += st.iterations;
  r.cycles += st.cycles;
  r.operator_applies += st.operator_applies;
  r.precond_applies += st.precond_applies;
  r.reductions += st.reductions;
  r.recoveries += st.recoveries;
}

template <class T>
void check_columns(Round& r, const CsrMatrix<T>& a, MatrixView<const T> b, MatrixView<const T> x,
                   const SolveStats& st) {
  const index_t n = a.rows();
  std::vector<T> ax(static_cast<size_t>(n));
  for (index_t j = 0; j < b.cols(); ++j) {
    a.spmv(x.col(j), ax.data());
    double rr = 0, bb = 0;
    for (index_t i = 0; i < n; ++i) {
      rr += std::norm(b.col(j)[i] - ax[size_t(i)]);
      bb += std::norm(b.col(j)[i]);
    }
    const double rel = bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr);
    r.max_true_residual = std::max(r.max_true_residual, rel);
    r.columns += 1;
    if (!st.converged || !(rel <= kResidualSlack * kTol)) r.failed += 1;
    r.x_hash = fnv1a64(x.col(j), size_t(n) * sizeof(T), r.x_hash);
  }
}

void set_phases(Round& r, const obs::SolverTrace& trace) {
  for (int p = 0; p < obs::kPhaseCount; ++p)
    r.phase_s[p] = trace.phase_seconds(static_cast<obs::Phase>(p));
}

template <class T>
void add_wrappers(Round& r, const TimedOperator<T>& op, const TimedPreconditioner<T>& m) {
  r.spmm_s += op.seconds;
  r.spmm_flops += op.flops;
  r.spmm_calls += op.calls;
  r.spmm_cols += op.cols;
  r.precond_s += m.seconds;
  r.precond_calls += m.calls;
  r.precond_cols += m.cols;
}

// ---- antenna-gmres / antenna-bgcrodr ---------------------------------

// The variant picks one of two interleaved 32-antenna rings and the order
// in which the antennas are solved (which fixes alternative 7's groups).
std::vector<index_t> antenna_order(int variant) {
  std::vector<index_t> order(kAntennas);
  for (index_t i = 0; i < kAntennas; ++i) order[size_t(i)] = 2 * i + (variant & 1);
  for (index_t i = kAntennas - 1; i > 0; --i) {
    const auto j = index_t(mix(std::uint64_t(variant) * 1000003ULL + std::uint64_t(i)) %
                           std::uint64_t(i + 1));
    std::swap(order[size_t(i)], order[size_t(j)]);
  }
  return order;
}

Round antenna_round(bool block_recycling, int variant, bool traced) {
  Round r;
  r.traced = traced;
  auto t0 = Clock::now();
  // The fig. 4/7/8 chamber: matching medium plus the plastic cylinder.
  const MaxwellProblem prob = bench::chamber_problem(kChamberGrid, true);
  const index_t n = prob.nfree;
  DenseMatrix<cd> b(n, kAntennas);
  const auto order = antenna_order(variant);
  for (index_t a = 0; a < kAntennas; ++a) {
    const auto col = antenna_rhs(prob, order[size_t(a)], kRingPositions);
    std::copy(col.begin(), col.end(), b.col(a));
  }
  r.assemble_s = since(t0);

  t0 = Clock::now();
  SchwarzPreconditioner<cd> m(prob.matrix, bench::chamber_oras(16, 2, 0.5));
  r.precond_setup_s = since(t0);

  CsrOperator<cd> op(prob.matrix);
  TimedOperator<cd> top(op);
  TimedPreconditioner<cd> tm(m);
  obs::SolverTrace trace;
  const LinearOperator<cd>& a = traced ? static_cast<const LinearOperator<cd>&>(top) : op;
  Preconditioner<cd>* pm = traced ? static_cast<Preconditioner<cd>*>(&tm) : &m;

  SolverOptions opts;
  opts.restart = 20;
  opts.tol = kTol;
  opts.side = PrecondSide::Right;
  opts.max_iterations = 4000;
  if (traced) opts.trace = &trace;

  DenseMatrix<cd> x(n, kAntennas);
  std::vector<SolveStats> stats;
  if (!block_recycling) {
    for (index_t j = 0; j < kAntennas; ++j) {
      r.probe_ms.push_back(perfbench::host_probe_ms());
      const auto c0 = Clock::now();
      stats.push_back(block_gmres<cd>(a, pm, b.block(0, j, n, 1), x.block(0, j, n, 1), opts));
      r.call_ms.push_back(1e3 * since(c0));
      r.probe_ms.push_back(perfbench::host_probe_ms());
    }
  } else {
    opts.recycle = 5;
    opts.same_system = true;
    GcroDr<cd> solver(opts);
    for (index_t g = 0; g < kAntennas / kGroup; ++g) {
      r.probe_ms.push_back(perfbench::host_probe_ms());
      const auto c0 = Clock::now();
      stats.push_back(
          solver.solve(a, pm, b.block(0, g * kGroup, n, kGroup), x.block(0, g * kGroup, n, kGroup)));
      r.call_ms.push_back(1e3 * since(c0));
      r.probe_ms.push_back(perfbench::host_probe_ms());
    }
  }
  for (const double ms : r.call_ms) r.solve_s += ms / 1e3;

  const index_t width = block_recycling ? kGroup : 1;
  for (size_t c = 0; c < stats.size(); ++c) {
    add_stats(r, stats[c]);
    const index_t j0 = index_t(c) * width;
    const DenseMatrix<cd>& cb = b;
    const DenseMatrix<cd>& cx = x;
    check_columns<cd>(r, prob.matrix, cb.block(0, j0, n, width), cx.block(0, j0, n, width),
                      stats[c]);
  }
  if (traced) {
    set_phases(r, trace);
    add_wrappers(r, top, tm);
    const SchwarzStats ss = m.stats();
    r.direct_factor_s = ss.setup_seconds_sum;
    r.direct_factor_nnz = ss.factor_nnz_total;
    r.direct_solve_s = ss.apply_seconds_sum;
  }
  return r;
}

// ---- elasticity-sequence -----------------------------------------------

// The paper's four inclusions, each centre moved by a seeded offset of at
// most kInclusionShift per coordinate.
Inclusion shifted_inclusion(int variant, index_t system) {
  Inclusion inc = kElasticitySequence[size_t(system)];
  const std::uint64_t key = std::uint64_t(variant) * 7919ULL + std::uint64_t(system) * 3ULL;
  inc.x += kInclusionShift * (2 * unit(key) - 1);
  inc.y += kInclusionShift * (2 * unit(key + 1) - 1);
  inc.z += kInclusionShift * (2 * unit(key + 2) - 1);
  return inc;
}

Round elasticity_round(int variant, bool traced) {
  Round r;
  r.traced = traced;
  SolverOptions opts;
  opts.restart = 30;
  opts.recycle = 10;
  opts.tol = kTol;
  opts.side = PrecondSide::Right;
  opts.max_iterations = 3000;
  opts.strategy = RecycleStrategy::A;
  obs::SolverTrace trace;
  if (traced) opts.trace = &trace;
  GcroDr<double> recycler(opts);

  for (index_t s = 0; s < index_t(kElasticitySequence.size()); ++s) {
    auto t0 = Clock::now();
    ElasticityConfig cfg;
    cfg.ne = kElasticityNe;
    cfg.inclusion = shifted_inclusion(variant, s);
    cfg.poisson = 0.49;  // near-incompressible, as in bench_fig3_elasticity
    const ElasticityProblem prob = elasticity3d(cfg);
    r.assemble_s += since(t0);

    t0 = Clock::now();
    AmgOptions ao;
    ao.block_size = 3;
    ao.smoother = AmgSmoother::Chebyshev;
    ao.smoother_iterations = 2;
    ao.square_graph = true;
    ao.coarse_size = 300;
    // Translational near-nullspace only, as in bench_fig3_elasticity.
    AmgPreconditioner<double> m(
        prob.matrix, ao,
        MatrixView<const double>(prob.rigid_body_modes.data(), prob.nfree, 3,
                                 prob.rigid_body_modes.ld()));
    r.precond_setup_s += since(t0);

    const index_t n = prob.nfree;
    CsrOperator<double> op(prob.matrix);
    TimedOperator<double> top(op);
    TimedPreconditioner<double> tm(m);
    const LinearOperator<double>& a =
        traced ? static_cast<const LinearOperator<double>&>(top) : op;
    Preconditioner<double>* pm = traced ? static_cast<Preconditioner<double>*>(&tm) : &m;

    std::vector<double> x(size_t(n), 0.0);
    const MatrixView<const double> bv(prob.rhs.data(), n, 1, n);
    r.probe_ms.push_back(perfbench::host_probe_ms());
    const auto c0 = Clock::now();
    const SolveStats st =
        recycler.solve(a, pm, bv, MatrixView<double>(x.data(), n, 1, n), nullptr, true);
    const double call = since(c0);
    r.probe_ms.push_back(perfbench::host_probe_ms());
    r.solve_s += call;
    r.call_ms.push_back(1e3 * call);
    add_stats(r, st);
    check_columns<double>(r, prob.matrix, bv, MatrixView<const double>(x.data(), n, 1, n), st);
    if (traced) add_wrappers(r, top, tm);  // one operator per system
  }
  if (traced) set_phases(r, trace);  // the trace spans the whole sequence
  return r;
}

// ---- output --------------------------------------------------------------

void print_round(int index, const Round& r) {
  std::printf(
      "{\"round\":%d,\"traced\":%d,\"assemble_s\":%.9g,\"precond_setup_s\":%.9g,"
      "\"solve_s\":%.9g,\"columns\":%lld,\"failed\":%lld,"
      "\"max_true_residual\":%.3e,\"iterations\":%lld,\"cycles\":%lld,"
      "\"operator_applies\":%lld,\"precond_applies\":%lld,\"reductions\":%lld,"
      "\"recoveries\":%lld,\"calls\":%zu,\"x_hash\":\"%016llx\",\"call_ms\":[",
      index, r.traced ? 1 : 0, r.assemble_s, r.precond_setup_s, r.solve_s,
      static_cast<long long>(r.columns), static_cast<long long>(r.failed), r.max_true_residual,
      static_cast<long long>(r.iterations), static_cast<long long>(r.cycles),
      static_cast<long long>(r.operator_applies), static_cast<long long>(r.precond_applies),
      static_cast<long long>(r.reductions), static_cast<long long>(r.recoveries),
      r.call_ms.size(), static_cast<unsigned long long>(r.x_hash));
  for (size_t i = 0; i < r.call_ms.size(); ++i)
    std::printf("%s%.6g", i == 0 ? "" : ",", r.call_ms[i]);
  std::printf("],\"probe_ms\":[");
  for (size_t i = 0; i < r.probe_ms.size(); ++i)
    std::printf("%s%.6g", i == 0 ? "" : ",", r.probe_ms[i]);
  std::printf("]");
  if (r.traced) {
    std::printf(",\"phase_s\":{");
    for (int p = 0; p < obs::kPhaseCount; ++p)
      std::printf("%s\"%s\":%.9g", p == 0 ? "" : ",", obs::phase_name(static_cast<obs::Phase>(p)),
                  r.phase_s[p]);
    std::printf(
        "},\"spmm_s\":%.9g,\"spmm_flops\":%.9g,\"spmm_calls\":%lld,\"spmm_cols\":%lld,"
        "\"precond_s\":%.9g,\"precond_calls\":%lld,\"precond_cols\":%lld,"
        "\"direct_factor_s\":%.9g,\"direct_factor_nnz\":%lld,\"direct_solve_s\":%.9g",
        r.spmm_s, r.spmm_flops, static_cast<long long>(r.spmm_calls),
        static_cast<long long>(r.spmm_cols), r.precond_s, static_cast<long long>(r.precond_calls),
        static_cast<long long>(r.precond_cols), r.direct_factor_s,
        static_cast<long long>(r.direct_factor_nnz), r.direct_solve_s);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_solve --workload antenna-gmres|antenna-bgcrodr|"
               "elasticity-sequence --variant V --seconds S --trace 0|1 "
               "[--min-rounds R]\n"
               "       perfbench_solve --workload probe --reps N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int variant = -1, trace = 0, min_rounds = 3, reps = 0;
  double seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--variant") variant = std::atoi(val);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--min-rounds") min_rounds = std::atoi(val);
    else if (key == "--reps") reps = std::atoi(val);
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  if (workload == "probe") {
    if (reps < 1) return usage();
    perfbench::host_probe_ms();  // builds the inputs and warms the caches
    std::printf("{\"probe_ms\":[");
    for (int i = 0; i < reps; ++i)
      std::printf("%s%.6g", i == 0 ? "" : ",", perfbench::host_probe_ms());
    std::printf("]}\n");
    return 0;
  }
  if ((workload != "antenna-gmres" && workload != "antenna-bgcrodr" &&
       workload != "elasticity-sequence") ||
      variant < 0 || seconds < 0 || min_rounds < 1 ||
      (trace != 0 && trace != 1))
    return usage();
  auto round = [&](bool traced) -> Round {
    if (workload == "antenna-gmres") return antenna_round(false, variant, traced);
    if (workload == "antenna-bgcrodr") return antenna_round(true, variant, traced);
    return elasticity_round(variant, traced);
  };

  // Traced runs interleave untraced and traced rounds as U T T U ..., so
  // obs.overhead_frac compares rounds taken under the same host conditions
  // and neither side always gets the cold first round.
  // A round starts only if it is expected to end within --seconds (the
  // last round's time is the estimate), so a run never overshoots by most
  // of a round.
  const auto start = Clock::now();
  int done = 0;
  double last_round_s = 0;
  while (done < min_rounds || since(start) + last_round_s <= seconds) {
    const bool traced = trace == 1 && (done % 4 == 1 || done % 4 == 2);
    const auto r0 = Clock::now();
    print_round(done, round(traced));
    last_round_s = since(r0);
    ++done;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"peak_rss_mb\":%.6g}\n", double(ru.ru_maxrss) / 1024.0);
  return 0;
}
