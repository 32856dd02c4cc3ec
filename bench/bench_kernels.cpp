// Hot-kernel trajectory bench: serial (legacy, no executor) vs the
// KernelExecutor paths at 1/2/4/hardware lanes, per kernel and shape.
//
// This is the machine-readable companion of the section V-B2 kernel
// study: the same fused multi-RHS kernels (SpMM, batched reductions,
// block trsm), now also the thread fan-out of the parallel kernel layer.
// Output is BENCH_kernels.json (schema "bkr-bench-kernels-1", see
// bench_util.hpp); tools/bench_check validates the schema and gates
// regressions against the committed baseline.
//
// On a single-core host the parallel rows land at or slightly above the
// serial ones (pool dispatch overhead, nothing to fan out to); the
// speedup column only becomes meaningful on multi-core hardware. The
// committed baseline records the calibration probe so the checker can
// normalize across hosts either way.
//
// Usage: bench_kernels [--smoke] [--reps K] [--out FILE]
//   --smoke   fewer repetitions (tier-1 gate); identical shapes and keys,
//             so the smoke run compares against the full-mode baseline
//   --reps K  override the repetition count
//   --out     write the JSON there instead of BENCH_kernels.json
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>  // bkr-lint: allow(raw-new-delete) replaceable allocation hooks
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/workspace.hpp"
#include "direct/factor.hpp"
#include "fem/poisson2d.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "parallel/kernel_executor.hpp"
#include "sparse/csr.hpp"
#include "sparse/graph.hpp"
#include "sparse/partition.hpp"

// Process-wide allocation counter behind the alloc_churn rows: replaceable
// global operator new/delete that count every heap allocation, so a solver
// iterate loop that touches the allocator cannot hide. The hooks stay
// installed for the timing rows too; one relaxed fetch_add is noise next to
// malloc itself.
std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t sz) {  // bkr-lint: allow(raw-new-delete) counting hook
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete(void* p) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete[](void* p) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
// Out of line: once g++ 12 inlines this free() next to an inlined
// allocation it reports the hook pair as mismatched new/delete.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook

namespace {

using namespace bkr;

// Steady-state allocations per solver iteration (DESIGN.md §11): run the
// same solve three times against one warmed workspace, varying only the
// iteration budget — warm-up at the larger budget so every workspace slot
// reaches its per-cycle maximum shape, then count a short and a long solve.
// The budget difference stays inside one restart cycle, so per-solve and
// per-cycle costs appear identically in both counted runs and cancel; what
// remains is the allocator traffic of the extra iterations alone. The gate
// in bench_check requires exactly zero.
template <class SolveFn>
double alloc_churn_per_iteration(SolveFn&& solve, index_t short_budget, index_t long_budget) {
  solve(long_budget);  // warm-up
  const std::uint64_t a0 = g_alloc_count.load();
  solve(short_budget);
  const std::uint64_t a1 = g_alloc_count.load();
  solve(long_budget);
  const std::uint64_t a2 = g_alloc_count.load();
  const std::int64_t extra = std::int64_t(a2 - a1) - std::int64_t(a1 - a0);
  return double(extra) / double(long_budget - short_budget);
}

// Lane counts benchmarked on top of the legacy serial row (threads == 0).
std::vector<index_t> bench_lanes() {
  std::vector<index_t> lanes{1, 2, 4};
  const index_t hw = index_t(std::thread::hardware_concurrency());
  if (hw > 0 && hw != 1 && hw != 2 && hw != 4) lanes.push_back(hw);
  return lanes;
}

struct Bench {
  int reps;
  std::vector<bench::KernelBenchEntry> entries;

  // Time `fn(ex)` once per thread count: ex == nullptr for the legacy
  // serial row, then one executor per lane count. Cutoffs are forced low
  // so the executor path is what gets measured, not the cutoff fallback.
  template <class Fn>
  void kernel(const std::string& name, const std::string& shape, Fn&& fn) {
    entries.push_back({name, shape, 0, bench::time_median(reps, [&] { fn(nullptr); }), reps});
    for (const index_t lanes : bench_lanes()) {
      KernelExecutor ex(lanes, KernelCutoffs{1, 1, 1});
      entries.push_back({name, shape, lanes, bench::time_median(reps, [&] { fn(&ex); }), reps});
    }
  }
};

template <class T = double>
DenseMatrix<T> random_block(index_t n, index_t p, unsigned seed) {
  DenseMatrix<T> m(n, p);
  Rng rng(seed);
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) m(i, c) = rng.scalar<T>();
  return m;
}

// Complex kernels of the fig. 8 antenna chamber (grid 8, 1,176 unknowns):
// the local LDL^T solve of its largest ORAS(16) subdomain at widths 1 and
// 8, whole ORAS(16) applies at widths 1, 8 and 32, and the block
// projection coefficients of a 21-block basis of width 8. All run on the
// explicit-product helpers of common/types.hpp and la/packed.hpp.
void complex_chamber_rows(Bench& b) {
  using cd = std::complex<double>;
  const MaxwellProblem chamber = bench::chamber_problem(8, true);
  const SchwarzOptions oras = bench::chamber_oras(16);
  const OverlappingDecomposition dec = make_decomposition(
      adjacency_of(chamber.matrix), oras.subdomains, oras.overlap, PouKind::Boolean);
  size_t largest = 0;
  for (size_t i = 1; i < dec.rows.size(); ++i)
    if (dec.rows[i].size() > dec.rows[largest].size()) largest = i;
  const SparseLDLT<cd> f(extract_submatrix(chamber.matrix, dec.rows[largest]));
  const index_t ni = f.n();
  for (const index_t p : {index_t(1), index_t(8)}) {
    const DenseMatrix<cd> rhs = random_block<cd>(ni, p, 12);
    DenseMatrix<cd> x(ni, p);
    const std::string shape = "chamber8 ORAS(16) subdomain n=" + std::to_string(ni) +
                              " p=" + std::to_string(p);
    b.entries.push_back({"ldlt_solve", shape, 0,
                         bench::time_median(b.reps, [&] { f.solve_copy(rhs.view(), x.view()); }),
                         b.reps});
  }
  // In situ: one serial ORAS(16) apply, all 16 local solves with their
  // gather and scatter, at the widths of fig. 8's GMRES (1), block
  // GCRO-DR (8) and all 32 antennas at once.
  SchwarzOptions serial = oras;
  serial.parallel = false;
  SchwarzPreconditioner<cd> m(chamber.matrix, serial);
  for (const index_t p : {index_t(1), index_t(8), index_t(32)}) {
    const DenseMatrix<cd> r = random_block<cd>(chamber.matrix.rows(), p, 17);
    DenseMatrix<cd> z(chamber.matrix.rows(), p);
    b.entries.push_back({"ldlt_solve", "chamber8 ORAS(16) apply p=" + std::to_string(p), 0,
                         bench::time_median(b.reps, [&] { m.apply(r.view(), z.view()); }),
                         b.reps});
  }
  const index_t cn = chamber.matrix.rows(), s = 168, p = 8;
  const DenseMatrix<cd> v = random_block<cd>(cn, s, 13);
  const DenseMatrix<cd> w = random_block<cd>(cn, p, 14);
  DenseMatrix<cd> h(s, p);
  b.kernel("gemm", "proj CN complex n=1176 s=168 p=8", [&](const KernelExecutor* ex) {
    gemm<cd>(Trans::C, Trans::N, cd(1), v.view(), w.view(), cd(0), h.view(), ex);
  });
  // The basis update W -= V H of the same projection, and the CholQR Gram
  // matrix of the width-8 block.
  DenseMatrix<cd> upd = copy_of(w);
  b.kernel("gemm", "update NN complex n=1176 s=168 p=8", [&](const KernelExecutor* ex) {
    gemm<cd>(Trans::N, Trans::N, cd(-1), v.view(), h.view(), cd(1), upd.view(), ex);
  });
  DenseMatrix<cd> g(p, p);
  b.kernel("herk", "gram complex n=1176 p=8",
           [&](const KernelExecutor* ex) { gram<cd>(w.view(), g.view(), ex); });
  // The restart eigensolve of block GCRO-DR(20,5) at width 8: the pencil
  // (T, W) of order p*m = 160, keeping k = p*recycle = 40 vectors.
  const index_t order = 160, keep = 40;
  const DenseMatrix<cd> tp = random_block<cd>(order, order, 15);
  DenseMatrix<cd> wp = random_block<cd>(order, order, 16);
  for (index_t i = 0; i < order; ++i) wp(i, i) += cd(double(order));
  b.entries.push_back({"restart_eig", "complex pencil order 160 k=40", 0,
                       bench::time_median(b.reps,
                                          [&] {
                                            const DenseMatrix<cd> pk =
                                                smallest_gen_eig_vectors<cd>(tp, wp, keep);
                                            (void)pk;
                                          }),
                       b.reps});
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool smoke = false;
  int reps = 9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--smoke] [--reps K] [--out FILE]\n");
      return 2;
    }
  }
  if (smoke && reps == 9) reps = 3;
  if (reps < 1) reps = 1;

  // Calibration probe: a fixed serial reduction, so the checker can
  // normalize medians by relative machine speed across hosts.
  const index_t cal_n = 1 << 20;
  std::vector<double> cx(size_t(cal_n), 1.000000059604645), cy(size_t(cal_n), 0.999999940395355);
  const double calibration = bench::time_median(5, [&] {
    volatile double s = real_part(dot<double>(cal_n, cx.data(), cy.data()));
    (void)s;
  });

  Bench b{reps, {}};

  // SpMV / SpMM: fig-2 Poisson operator, single and fused multi-RHS.
  const CsrMatrix<double> a = poisson2d(96, 96);
  const index_t n = a.rows();
  {
    const DenseMatrix<double> x1 = random_block(n, 1, 1);
    DenseMatrix<double> y1(n, 1);
    b.kernel("spmv", "poisson96 p=1",
             [&](const KernelExecutor* ex) { a.spmv(x1.col(0), y1.col(0), ex); });
    const DenseMatrix<double> x8 = random_block(n, 8, 2);
    DenseMatrix<double> y8(n, 8);
    b.kernel("spmm", "poisson96 p=8",
             [&](const KernelExecutor* ex) { a.spmm(x8.view(), y8.view(), ex); });
  }

  // gemm: the two shapes on every solver's hot path — the CGS projection
  // coefficients (C^H x, tall-skinny inputs) and the basis/solution
  // update (tall-skinny times small square).
  {
    const index_t s = 16, p = 8;
    const DenseMatrix<double> v = random_block(n, s, 3);
    const DenseMatrix<double> w = random_block(n, p, 4);
    DenseMatrix<double> h(s, p);
    b.kernel("gemm", "proj CN n=9216 s=16 p=8", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::C, Trans::N, 1.0, v.view(), w.view(), 0.0, h.view(), ex);
    });
    const DenseMatrix<double> coef = random_block(s, p, 5);
    DenseMatrix<double> upd(n, p);
    b.kernel("gemm", "update NN n=9216 s=16 p=8", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::N, Trans::N, 1.0, v.view(), coef.view(), 0.0, upd.view(), ex);
    });
  }

  // herk (the CholQR gram matrix) and the paired triangular solve.
  {
    const index_t p = 8;
    const DenseMatrix<double> v = random_block(n, p, 6);
    DenseMatrix<double> g(p, p);
    b.kernel("herk", "gram n=9216 p=8",
             [&](const KernelExecutor* ex) { gram<double>(v.view(), g.view(), ex); });
    DenseMatrix<double> r = random_block(p, p, 7);
    for (index_t j = 0; j < p; ++j) {
      r(j, j) = 4.0 + r(j, j);
      for (index_t i = j + 1; i < p; ++i) r(i, j) = 0.0;
    }
    DenseMatrix<double> xr = random_block(n, p, 8);
    b.kernel("trsm", "right n=9216 p=8", [&](const KernelExecutor* ex) {
      trsm_right_upper<double>(r.view(), xr.view(), ex);
    });
  }

  // Fused reductions: batched dot and per-column norms.
  {
    const index_t rn = 1 << 19;
    std::vector<double> x(static_cast<size_t>(rn)), y(static_cast<size_t>(rn));
    Rng rng(9);
    for (auto& v : x) v = rng.scalar<double>();
    for (auto& v : y) v = rng.scalar<double>();
    b.kernel("dot", "n=524288", [&](const KernelExecutor* ex) {
      volatile double s = real_part(dot<double>(rn, x.data(), y.data(), ex));
      (void)s;
    });
    const index_t p = 8;
    const DenseMatrix<double> m = random_block(n, p, 10);
    std::vector<double> norms(static_cast<size_t>(p));
    b.kernel("norms", "cols n=9216 p=8", [&](const KernelExecutor* ex) {
      column_norms<double>(m.view(), norms.data(), ex);
    });
  }

  complex_chamber_rows(b);

  // Alloc churn: the workspace-hoisting claim of DESIGN.md §11, measured.
  // Both rows must be exactly 0 allocations per steady-state iteration;
  // bench_check fails the gate on anything else. Budgets are chosen so the
  // short and long runs end inside the same restart cycle (restart 30,
  // GCRO-DR cycle 2 has 30 - 4 = 26 steps): the counted difference is
  // 20 interior iterations with no cycle boundary in it.
  {
    const CsrOperator<double> op(a);
    const DenseMatrix<double> rhs = random_block(n, 2, 11);
    const index_t short_budget = 35, long_budget = 55;

    SolverWorkspace<double> ws_gmres;
    const double gmres_churn = alloc_churn_per_iteration(
        [&](index_t budget) {
          SolverOptions o;
          o.restart = 30;
          o.tol = 0.0;  // never converges: the budget decides the length
          o.max_iterations = budget;
          o.record_history = false;
          o.recovery.early_restart = false;  // keep cycle boundaries fixed
          o.workspace = &ws_gmres;
          DenseMatrix<double> x(n, 2);
          block_gmres<double>(op, nullptr, rhs.view(), x.view(), o);
        },
        short_budget, long_budget);
    b.entries.push_back(
        {"alloc_churn", "gmres(30) steady p=2", 0, gmres_churn, int(long_budget - short_budget)});

    SolverWorkspace<double> ws_gcrodr;
    const double gcrodr_churn = alloc_churn_per_iteration(
        [&](index_t budget) {
          SolverOptions o;
          o.restart = 30;
          o.recycle = 4;
          o.tol = 0.0;
          o.max_iterations = budget;
          o.record_history = false;
          o.recovery.early_restart = false;
          o.workspace = &ws_gcrodr;
          // A fresh solver per run keeps the counted solves structurally
          // identical (first cycle + Ritz seed + projected cycle); the
          // workspace outside carries the steady-state capacity.
          GcroDr<double> solver(o);
          DenseMatrix<double> x(n, 2);
          solver.solve(op, nullptr, rhs.view(), x.view());
        },
        short_budget, long_budget);
    b.entries.push_back({"alloc_churn", "gcrodr(30,4) steady p=2", 0, gcrodr_churn,
                         int(long_budget - short_budget)});
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot open %s\n", out_path.c_str());
    return 1;
  }
  bench::write_kernel_bench_json(out, smoke ? "smoke" : "full",
                                 index_t(std::thread::hardware_concurrency()), calibration,
                                 b.entries);
  std::printf("bench_kernels: wrote %zu entries (%s, reps=%d, calibration %.3e s) to %s\n",
              b.entries.size(), smoke ? "smoke" : "full", reps, calibration, out_path.c_str());
  return 0;
}
