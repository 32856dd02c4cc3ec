// Golden oracle for block_gmres and pseudo_block_gmres, and for the
// recycling and short-recurrence solvers (GcroDr / PseudoGcroDr with
// k = 5, lgmres, cg, block_cg).
//
// Each case hashes (FNV-1a, 64 bit) everything a solve reports: the
// residual history, the solution bits, the iteration counts (total and per
// RHS), the terminal status, the recovery count, the reduction and
// operator/preconditioner apply counters, and the CommModel's reduction
// calls and bytes. The table was captured from the dedicated GMRES solver
// bodies that preceded the shared Arnoldi engine, so every entry pins that
// running GMRES as GCRO-DR with k = 0 is bitwise what those bodies did.
// `cycles` is left out: its definition (Arnoldi cycles, not restarts + 1)
// changed with the merge. The k = 5, LGMRES and CG tables were captured
// before the solver bodies moved onto detail::SolveContext; the
// FaultInjector cells also hash the hook visits of every fault site.
//
// A mismatching or missing entry prints the hash it computed as a table
// line, so a deliberate numerics change regenerates the table from the
// test output.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/comm_model.hpp"
#include "precond/jacobi.hpp"
#include "resilience/fault_injector.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, size_t count) {
    const auto* c = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < count; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <class V>
  void value(V v) {
    bytes(&v, sizeof v);
  }
};

template <class T>
std::uint64_t solve_hash(const SolveStats& st, MatrixView<const T> x, const CommModel& comm) {
  Fnv1a f;
  f.value<std::int64_t>(st.iterations);
  f.value<std::int64_t>(static_cast<int>(st.status));
  f.value<std::int64_t>(st.recoveries);
  f.value<std::int64_t>(st.reductions);
  f.value<std::int64_t>(st.operator_applies);
  f.value<std::int64_t>(st.precond_applies);
  f.value<std::int64_t>(comm.reductions());
  f.value<std::int64_t>(comm.reduction_bytes());
  f.value<std::int64_t>(std::int64_t(st.per_rhs_iterations.size()));
  for (const index_t it : st.per_rhs_iterations) f.value<std::int64_t>(it);
  f.value<std::int64_t>(std::int64_t(st.history.size()));
  for (const auto& h : st.history) {
    f.value<std::int64_t>(std::int64_t(h.size()));
    f.bytes(h.data(), h.size() * sizeof(double));
  }
  for (index_t c = 0; c < x.cols(); ++c) f.bytes(x.col(c), size_t(x.rows()) * sizeof(T));
  return f.h;
}

enum class Method { Block, Pseudo };

// Runs one solve from a zero initial guess and returns its hash.
template <class T>
std::uint64_t run_case(Method method, const CsrMatrix<T>& a, Preconditioner<T>* m,
                       MatrixView<const T> b, const SolverOptions& opts) {
  CsrOperator<T> op(a);
  CommModel comm;
  DenseMatrix<T> x(a.rows(), b.cols());
  const SolveStats st = method == Method::Block
                            ? block_gmres<T>(op, m, b, x.view(), opts, &comm)
                            : pseudo_block_gmres<T>(op, m, b, x.view(), opts, &comm);
  return solve_hash<T>(st, MatrixView<const T>(x.data(), x.rows(), x.cols(), x.ld()), comm);
}

void expect_golden(const std::map<std::string, std::uint64_t>& golden, const std::string& name,
                   std::uint64_t got) {
  const auto it = golden.find(name);
  const bool ok = it != golden.end() && it->second == got;
  EXPECT_TRUE(ok) << "    {\"" << name << "\", 0x" << std::hex << got << "ULL},";
}

const char* side_name(PrecondSide s) {
  switch (s) {
    case PrecondSide::None: return "none";
    case PrecondSide::Left: return "left";
    case PrecondSide::Right: return "right";
    case PrecondSide::Flexible: return "flexible";
  }
  return "?";
}

const char* ortho_name(Ortho o) {
  switch (o) {
    case Ortho::Cgs: return "cgs";
    case Ortho::Cgs2: return "cgs2";
    case Ortho::Mgs: return "mgs";
    default: return "?";
  }
}

// The {method} x {p} x {side} x {ortho} grid on one problem. The restart
// is small against the iteration counts, so every cell runs several
// restart cycles.
template <class T>
void run_grid(const char* scalar, const CsrMatrix<T>& a, const SolverOptions& base,
              const std::map<std::string, std::uint64_t>& golden) {
  JacobiPreconditioner<T> jacobi(a);
  for (const Method method : {Method::Block, Method::Pseudo})
    for (const index_t p : {index_t(1), index_t(3)}) {
      const DenseMatrix<T> b = random_matrix<T>(a.rows(), p, 17);
      for (const PrecondSide side :
           {PrecondSide::None, PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible})
        for (const Ortho ortho : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs}) {
          SolverOptions opts = base;
          opts.side = side;
          opts.ortho = ortho;
          const std::string name = std::string(scalar) +
                                   (method == Method::Block ? "/block" : "/pseudo") + "/p" +
                                   std::to_string(p) + "/" + side_name(side) + "/" +
                                   ortho_name(ortho);
          Preconditioner<T>* m = side == PrecondSide::None ? nullptr : &jacobi;
          expect_golden(golden, name, run_case<T>(method, a, m, b.view(), opts));
        }
    }
}

CsrMatrix<double> real_problem() { return poisson2d_varcoef(8, 8, 50.0, 5); }

CsrMatrix<cplx> complex_problem() {
  MaxwellConfig cfg;
  cfg.n = 4;
  cfg.wavelengths = 0.9;
  cfg.loss = 0.3;
  return maxwell3d(cfg).matrix;
}

SolverOptions grid_options() {
  SolverOptions opts;
  opts.restart = 6;
  opts.tol = 1e-8;
  opts.max_iterations = 400;
  return opts;
}

TEST(GmresGolden, RealGrid) {
  const std::map<std::string, std::uint64_t> golden = {
      {"real/block/p1/none/cgs", 0x4d1b80ab7697a30aULL},
      {"real/block/p1/none/cgs2", 0x8562c1c7eff84dedULL},
      {"real/block/p1/none/mgs", 0x92818410e2408168ULL},
      {"real/block/p1/left/cgs", 0x2c281415798b3ec5ULL},
      {"real/block/p1/left/cgs2", 0x6537d34f2d59213eULL},
      {"real/block/p1/left/mgs", 0x99f50af0b6e5afe3ULL},
      {"real/block/p1/right/cgs", 0x43c8d32aed5d4d6fULL},
      {"real/block/p1/right/cgs2", 0x6648684e06e17480ULL},
      {"real/block/p1/right/mgs", 0xc3f4d437e43ebc99ULL},
      {"real/block/p1/flexible/cgs", 0xdf089a6ff64d2b4dULL},
      {"real/block/p1/flexible/cgs2", 0xf5c3cdb28effe7e4ULL},
      {"real/block/p1/flexible/mgs", 0xe8098ca900fddd77ULL},
      {"real/block/p3/none/cgs", 0x47ad3978d3466ff1ULL},
      {"real/block/p3/none/cgs2", 0x5ce7d8b4c937b86fULL},
      {"real/block/p3/none/mgs", 0xa251330088740bb2ULL},
      {"real/block/p3/left/cgs", 0x2da5f3fa845ffd27ULL},
      {"real/block/p3/left/cgs2", 0x86f2769aaafe9e4dULL},
      {"real/block/p3/left/mgs", 0x568d59be2f2e32acULL},
      {"real/block/p3/right/cgs", 0x2f2780f8254e2487ULL},
      {"real/block/p3/right/cgs2", 0x90af7a72e07a3c0eULL},
      {"real/block/p3/right/mgs", 0x804a4db73d16db0ULL},
      {"real/block/p3/flexible/cgs", 0xfc67ba428621518dULL},
      {"real/block/p3/flexible/cgs2", 0x3fdd47a911dbe001ULL},
      {"real/block/p3/flexible/mgs", 0x952a8b0ec7c1407eULL},
      {"real/pseudo/p1/none/cgs", 0x9f1c63787b894c7fULL},
      {"real/pseudo/p1/none/cgs2", 0xceb4f100a28ffee0ULL},
      {"real/pseudo/p1/none/mgs", 0xf0e05e5c99d44d60ULL},
      {"real/pseudo/p1/left/cgs", 0xe1a502479d9fc740ULL},
      {"real/pseudo/p1/left/cgs2", 0x17602b5fc3cde33eULL},
      {"real/pseudo/p1/left/mgs", 0x7c17d7b2d77f64c4ULL},
      {"real/pseudo/p1/right/cgs", 0xa55a91d26e6e51ddULL},
      {"real/pseudo/p1/right/cgs2", 0xc675c40ed09c4ef3ULL},
      {"real/pseudo/p1/right/mgs", 0xf060ffbf235cbc0ULL},
      {"real/pseudo/p1/flexible/cgs", 0xc556c0627d13dd0fULL},
      {"real/pseudo/p1/flexible/cgs2", 0xea32bcfbd450ccdfULL},
      {"real/pseudo/p1/flexible/mgs", 0x8caa654d27f4a16aULL},
      {"real/pseudo/p3/none/cgs", 0x4e5f6a92167bed2dULL},
      {"real/pseudo/p3/none/cgs2", 0x1a12782e28dab4cbULL},
      {"real/pseudo/p3/none/mgs", 0x4a8516d4c0e7ebfULL},
      {"real/pseudo/p3/left/cgs", 0x289a91aa369d9fdaULL},
      {"real/pseudo/p3/left/cgs2", 0xdf82a4579904c620ULL},
      {"real/pseudo/p3/left/mgs", 0x82610377b5f5a51dULL},
      {"real/pseudo/p3/right/cgs", 0x8e9d2b06480c6a7eULL},
      {"real/pseudo/p3/right/cgs2", 0xff779708f92c9d3cULL},
      {"real/pseudo/p3/right/mgs", 0x8643dfbf46cd3f1cULL},
      {"real/pseudo/p3/flexible/cgs", 0xe7e12cb064ecdfd6ULL},
      {"real/pseudo/p3/flexible/cgs2", 0xc6437ee30a524dfaULL},
      {"real/pseudo/p3/flexible/mgs", 0x2797c6accf2e2244ULL},
  };
  run_grid<double>("real", real_problem(), grid_options(), golden);
}

TEST(GmresGolden, ComplexGrid) {
  const std::map<std::string, std::uint64_t> golden = {
      {"complex/block/p1/none/cgs", 0x816efdc35ff9a9f3ULL},
      {"complex/block/p1/none/cgs2", 0x61c3d57fe7bbc3d5ULL},
      {"complex/block/p1/none/mgs", 0x9efe35f2c4dc0b93ULL},
      {"complex/block/p1/left/cgs", 0xf660b92e1f5b24e0ULL},
      {"complex/block/p1/left/cgs2", 0x3027d0ff04cb21dfULL},
      {"complex/block/p1/left/mgs", 0xb9b2f6942decc86bULL},
      {"complex/block/p1/right/cgs", 0x8fe24e659c4ce817ULL},
      {"complex/block/p1/right/cgs2", 0x37b32cfdc84cfd28ULL},
      {"complex/block/p1/right/mgs", 0xe21d65b2c952fb11ULL},
      {"complex/block/p1/flexible/cgs", 0xaa49db9454bc46cbULL},
      {"complex/block/p1/flexible/cgs2", 0xea7a09bfd227bc23ULL},
      {"complex/block/p1/flexible/mgs", 0x1797a69223fcf521ULL},
      {"complex/block/p3/none/cgs", 0x4d9c98ab7e85e2f8ULL},
      {"complex/block/p3/none/cgs2", 0xa1e5c499aec6c9acULL},
      {"complex/block/p3/none/mgs", 0xb80565ff3c3b088eULL},
      {"complex/block/p3/left/cgs", 0x47d31826d1e920daULL},
      {"complex/block/p3/left/cgs2", 0x418097e1f1e43f65ULL},
      {"complex/block/p3/left/mgs", 0x6304fff4108ab0ccULL},
      {"complex/block/p3/right/cgs", 0xed50bd0ea1cc9284ULL},
      {"complex/block/p3/right/cgs2", 0x980f6fc075b796dbULL},
      {"complex/block/p3/right/mgs", 0x325689b29fe52ac6ULL},
      {"complex/block/p3/flexible/cgs", 0xbdf31c04df8a53d9ULL},
      {"complex/block/p3/flexible/cgs2", 0x18e42ae38c54141bULL},
      {"complex/block/p3/flexible/mgs", 0xd5b6798a605bc5e5ULL},
      {"complex/pseudo/p1/none/cgs", 0x39ea57e98ef586b8ULL},
      {"complex/pseudo/p1/none/cgs2", 0xcd0e6782c29abaceULL},
      {"complex/pseudo/p1/none/mgs", 0x7622a3bb45ce8440ULL},
      {"complex/pseudo/p1/left/cgs", 0x861abb9222b9c953ULL},
      {"complex/pseudo/p1/left/cgs2", 0xe4a872fca4456cadULL},
      {"complex/pseudo/p1/left/mgs", 0xbcc4a63f58c853bULL},
      {"complex/pseudo/p1/right/cgs", 0xd0d3cbbdfafcbce1ULL},
      {"complex/pseudo/p1/right/cgs2", 0x99fa0f13b12107e8ULL},
      {"complex/pseudo/p1/right/mgs", 0xaef3e8a4d4a34029ULL},
      {"complex/pseudo/p1/flexible/cgs", 0x58d8bcf81472cf8fULL},
      {"complex/pseudo/p1/flexible/cgs2", 0xc5eb0b1374140497ULL},
      {"complex/pseudo/p1/flexible/mgs", 0xeed08f9408695ec7ULL},
      {"complex/pseudo/p3/none/cgs", 0x2b8799d9bf6b5307ULL},
      {"complex/pseudo/p3/none/cgs2", 0xefbed59c6cfc2fc6ULL},
      {"complex/pseudo/p3/none/mgs", 0x127ef8780086e1bdULL},
      {"complex/pseudo/p3/left/cgs", 0xc1f1dd6762398b3fULL},
      {"complex/pseudo/p3/left/cgs2", 0xe60cfdc888a63501ULL},
      {"complex/pseudo/p3/left/mgs", 0x35b63670b1957885ULL},
      {"complex/pseudo/p3/right/cgs", 0x82bfca535e5507abULL},
      {"complex/pseudo/p3/right/cgs2", 0x33be36fedf7b769ULL},
      {"complex/pseudo/p3/right/mgs", 0xfe6cb8327c1868f9ULL},
      {"complex/pseudo/p3/flexible/cgs", 0x89f599f3705a97beULL},
      {"complex/pseudo/p3/flexible/cgs2", 0xb2500e409ab06da2ULL},
      {"complex/pseudo/p3/flexible/mgs", 0xed0ad47b76cd9d58ULL},
  };
  run_grid<cplx>("complex", complex_problem(), grid_options(), golden);
}

// Duplicate RHS columns make the initial residual block rank deficient:
// block GMRES either repairs it with the seeded replacement ladder or
// truncates the cycle at the breakdown; pseudo-block lanes are unaffected.
TEST(GmresGolden, RankDeficientBlock) {
  const std::map<std::string, std::uint64_t> golden = {
      {"block/recovery", 0x569520788dfa39d0ULL},
      {"block/no-recovery", 0x1f52767343cf89aeULL},
      {"pseudo/recovery", 0x62b7a9e342c8d4eeULL},
      {"pseudo/no-recovery", 0x62b7a9e342c8d4eeULL},
  };
  const auto a = real_problem();
  JacobiPreconditioner<double> jacobi(a);
  DenseMatrix<double> b = random_matrix<double>(a.rows(), 3, 23);
  std::copy(b.col(0), b.col(0) + a.rows(), b.col(2));
  for (const Method method : {Method::Block, Method::Pseudo})
    for (const bool recovery : {true, false}) {
      SolverOptions opts = grid_options();
      opts.recovery.block_recovery = recovery;
      const std::string name = std::string(method == Method::Block ? "block" : "pseudo") +
                               (recovery ? "/recovery" : "/no-recovery");
      expect_golden(golden, name, run_case<double>(method, a, &jacobi, b.view(), opts));
    }
}

TEST(GmresGolden, NonFiniteRhs) {
  const std::map<std::string, std::uint64_t> golden = {
      {"block/none", 0x3021dbfda0361399ULL},
      {"block/left", 0xd7d3570675fd1538ULL},
      {"block/right", 0x3021dbfda0361399ULL},
      {"pseudo/none", 0x3021dbfda0361399ULL},
      {"pseudo/left", 0xd7d3570675fd1538ULL},
      {"pseudo/right", 0x3021dbfda0361399ULL},
  };
  const auto a = real_problem();
  JacobiPreconditioner<double> jacobi(a);
  DenseMatrix<double> b = random_matrix<double>(a.rows(), 3, 29);
  b(5, 1) = std::numeric_limits<double>::quiet_NaN();
  for (const Method method : {Method::Block, Method::Pseudo})
    for (const PrecondSide side : {PrecondSide::None, PrecondSide::Left, PrecondSide::Right}) {
      SolverOptions opts = grid_options();
      opts.side = side;
      const std::string name = std::string(method == Method::Block ? "block/" : "pseudo/") +
                               side_name(side);
      Preconditioner<double>* m = side == PrecondSide::None ? nullptr : &jacobi;
      expect_golden(golden, name, run_case<double>(method, a, m, b.view(), opts));
    }
}

// tol = 0 never converges: the budget (not a multiple of the restart)
// ends the solve in the middle of a cycle.
TEST(GmresGolden, ZeroToleranceBudgetExhausted) {
  const std::map<std::string, std::uint64_t> golden = {
      {"block/p1/none", 0x7a7fe92a20d24557ULL},
      {"block/p1/right", 0xb843a663ddb026cULL},
      {"block/p3/none", 0xe4cbd8eca8fc707aULL},
      {"block/p3/right", 0x910b77dd734b00c2ULL},
      {"pseudo/p1/none", 0xf335103e3ecf706dULL},
      {"pseudo/p1/right", 0x8fc7d0a4f35997ULL},
      {"pseudo/p3/none", 0xf80db86abd66ce80ULL},
      {"pseudo/p3/right", 0x72828f47c8c7315fULL},
  };
  const auto a = real_problem();
  JacobiPreconditioner<double> jacobi(a);
  for (const Method method : {Method::Block, Method::Pseudo})
    for (const index_t p : {index_t(1), index_t(3)})
      for (const PrecondSide side : {PrecondSide::None, PrecondSide::Right}) {
        const DenseMatrix<double> b = random_matrix<double>(a.rows(), p, 31);
        SolverOptions opts = grid_options();
        opts.tol = 0.0;
        opts.max_iterations = 17;
        opts.side = side;
        const std::string name = std::string(method == Method::Block ? "block" : "pseudo") +
                                 "/p" + std::to_string(p) + "/" + side_name(side);
        Preconditioner<double>* m = side == PrecondSide::None ? nullptr : &jacobi;
        expect_golden(golden, name, run_case<double>(method, a, m, b.view(), opts));
      }
}

// ---- recycling and short-recurrence solvers ----

// A second real operator of the same sparsity family (other inclusions),
// for the changed-matrix step of a recycling sequence.
CsrMatrix<double> real_problem_next() { return poisson2d_varcoef(8, 8, 50.0, 5, 11); }

CsrMatrix<cplx> complex_problem_next() {
  MaxwellConfig cfg;
  cfg.n = 4;
  cfg.wavelengths = 0.9;
  cfg.loss = 0.35;
  return maxwell3d(cfg).matrix;
}

// Hermitian positive definite complex operator for the CG family: the
// real varcoef Laplacian, shifted by 0.5, plus an imaginary Hermitian
// coupling of the neighbouring unknowns i and i + 1.
CsrMatrix<cplx> complex_hpd_problem() {
  const CsrMatrix<double> a = real_problem();
  CooBuilder<cplx> coo(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t l = a.rowptr()[size_t(i)]; l < a.rowptr()[size_t(i) + 1]; ++l)
      coo.add(i, a.colind()[size_t(l)], cplx(a.values()[size_t(l)], 0.0));
    coo.add(i, i, cplx(0.5, 0.0));
    if (i + 1 < a.rows()) {
      coo.add(i, i + 1, cplx(0.0, 0.1));
      coo.add(i + 1, i, cplx(0.0, -0.1));
    }
  }
  return coo.build();
}

SolverOptions recycle_options() {
  SolverOptions opts;
  opts.restart = 10;
  opts.recycle = 5;
  opts.tol = 1e-8;
  opts.max_iterations = 400;
  return opts;
}

const char* strategy_name(RecycleStrategy s) { return s == RecycleStrategy::A ? "A" : "B"; }

// Adds the visit counts of every fault site to a hash.
std::uint64_t with_visits(std::uint64_t h, const resilience::FaultInjector& inj) {
  Fnv1a f;
  f.h = h;
  for (int s = 0; s < resilience::kFaultSiteCount; ++s)
    f.value<std::int64_t>(inj.visits(static_cast<resilience::FaultSite>(s)));
  return f.h;
}

// A three-solve sequence through one engine: the first system, a changed
// matrix (new_matrix = true: requalify U through op(U), refresh every
// cycle) and the same matrix again with a new right-hand side
// (new_matrix = false: the recycled space stays fixed). Each solve starts
// from a zero guess; the three hashes chain into one.
template <class Engine, class T>
std::uint64_t run_sequence(const CsrMatrix<T>& a0, const CsrMatrix<T>& a1, PrecondSide side,
                           const SolverOptions& opts, index_t p,
                           resilience::FaultInjector* inj = nullptr) {
  SolverOptions o = opts;
  o.side = side;
  o.fault = inj;
  Engine engine(o);
  JacobiPreconditioner<T> j0(a0), j1(a1);
  CsrOperator<T> op0(a0), op1(a1);
  Fnv1a f;
  const struct {
    const CsrOperator<T>* op;
    Preconditioner<T>* m;
    bool new_matrix;
    unsigned seed;
  } steps[] = {{&op0, &j0, true, 41}, {&op1, &j1, true, 43}, {&op1, &j1, false, 47}};
  for (const auto& step : steps) {
    CommModel comm;
    const DenseMatrix<T> b = random_matrix<T>(a0.rows(), p, step.seed);
    DenseMatrix<T> x(a0.rows(), p);
    Preconditioner<T>* m = side == PrecondSide::None ? nullptr : step.m;
    const SolveStats st = engine.solve(*step.op, m, b.view(), x.view(), &comm, step.new_matrix);
    f.value<std::uint64_t>(
        solve_hash<T>(st, MatrixView<const T>(x.data(), x.rows(), x.cols(), x.ld()), comm));
  }
  return inj == nullptr ? f.h : with_visits(f.h, *inj);
}

// The {engine} x {strategy} x {side} x {p} grid of k = 5 sequences.
template <class T>
void run_recycle_grid(const char* scalar, const CsrMatrix<T>& a0, const CsrMatrix<T>& a1,
                      const std::map<std::string, std::uint64_t>& golden) {
  for (const Method method : {Method::Block, Method::Pseudo})
    for (const RecycleStrategy strategy : {RecycleStrategy::A, RecycleStrategy::B})
      for (const PrecondSide side :
           {PrecondSide::None, PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible})
        for (const index_t p : {index_t(1), index_t(3)}) {
          SolverOptions opts = recycle_options();
          opts.strategy = strategy;
          const std::string name = std::string(scalar) +
                                   (method == Method::Block ? "/gcrodr/" : "/pseudo/") +
                                   strategy_name(strategy) + "/" + side_name(side) + "/p" +
                                   std::to_string(p);
          const std::uint64_t h =
              method == Method::Block
                  ? run_sequence<GcroDr<T>>(a0, a1, side, opts, p)
                  : run_sequence<PseudoGcroDr<T>>(a0, a1, side, opts, p);
          expect_golden(golden, name, h);
        }
  // One MGS cell per engine: pseudo-block MGS books j + 1 reductions as
  // one CommModel message.
  for (const Method method : {Method::Block, Method::Pseudo}) {
    SolverOptions opts = recycle_options();
    opts.ortho = Ortho::Mgs;
    const std::string name =
        std::string(scalar) + (method == Method::Block ? "/gcrodr" : "/pseudo") + "/mgs";
    const std::uint64_t h =
        method == Method::Block
            ? run_sequence<GcroDr<T>>(a0, a1, PrecondSide::Right, opts, 3)
            : run_sequence<PseudoGcroDr<T>>(a0, a1, PrecondSide::Right, opts, 3);
    expect_golden(golden, name, h);
  }
}

TEST(GmresGolden, RecycleRealGrid) {
  const std::map<std::string, std::uint64_t> golden = {
      {"real/gcrodr/A/none/p1", 0xa957d49d9e83fb16ULL},
      {"real/gcrodr/A/none/p3", 0x48cbe5b9df6b488cULL},
      {"real/gcrodr/A/left/p1", 0xbb49b10ad3f700aULL},
      {"real/gcrodr/A/left/p3", 0xaa38b5a7e5a5c68bULL},
      {"real/gcrodr/A/right/p1", 0x66f08a8b64127099ULL},
      {"real/gcrodr/A/right/p3", 0x95790a2d2f332de4ULL},
      {"real/gcrodr/A/flexible/p1", 0x59f453e61180462bULL},
      {"real/gcrodr/A/flexible/p3", 0x7c4b95bb114b6cb1ULL},
      {"real/gcrodr/B/none/p1", 0x93cf77fd0faadbeaULL},
      {"real/gcrodr/B/none/p3", 0x6d2095e7ac429603ULL},
      {"real/gcrodr/B/left/p1", 0x2f01025abf2b28d4ULL},
      {"real/gcrodr/B/left/p3", 0x41f9c72a28dc474ULL},
      {"real/gcrodr/B/right/p1", 0x4bed35771e35ebd2ULL},
      {"real/gcrodr/B/right/p3", 0x11ef0cf7a85062d9ULL},
      {"real/gcrodr/B/flexible/p1", 0xf92d4ebdca1dcad3ULL},
      {"real/gcrodr/B/flexible/p3", 0x391cfef7767b475bULL},
      {"real/pseudo/A/none/p1", 0xa3871fd4ee0f35bfULL},
      {"real/pseudo/A/none/p3", 0x6e94a93555245305ULL},
      {"real/pseudo/A/left/p1", 0xa3518790fc305aecULL},
      {"real/pseudo/A/left/p3", 0xc5fecc7f179674ffULL},
      {"real/pseudo/A/right/p1", 0xd4d1195ef9357e4ULL},
      {"real/pseudo/A/right/p3", 0xab8200125db7a8d5ULL},
      {"real/pseudo/A/flexible/p1", 0x399ad0ed1487911fULL},
      {"real/pseudo/A/flexible/p3", 0x14ad8921fdb69aecULL},
      {"real/pseudo/B/none/p1", 0x688ff2d69e136529ULL},
      {"real/pseudo/B/none/p3", 0xcd9adc4c18d30071ULL},
      {"real/pseudo/B/left/p1", 0x822cfcee2fae5240ULL},
      {"real/pseudo/B/left/p3", 0xc385721459a1a5a5ULL},
      {"real/pseudo/B/right/p1", 0xe716657aa67c3f52ULL},
      {"real/pseudo/B/right/p3", 0xf2996a9f6eb267aULL},
      {"real/pseudo/B/flexible/p1", 0xa726f54aaabd293fULL},
      {"real/pseudo/B/flexible/p3", 0xec5865d0f2bfe4b9ULL},
      {"real/gcrodr/mgs", 0x29859f5ee78817ecULL},
      {"real/pseudo/mgs", 0x892b6dd247139e60ULL},
  };
  run_recycle_grid<double>("real", real_problem(), real_problem_next(), golden);
}

TEST(GmresGolden, RecycleComplexGrid) {
  const std::map<std::string, std::uint64_t> golden = {
      {"complex/gcrodr/A/none/p1", 0x9134bb59f35b3abdULL},
      {"complex/gcrodr/A/none/p3", 0x7abc09b93e4ac2c6ULL},
      {"complex/gcrodr/A/left/p1", 0x3b8c34872ee3fa02ULL},
      {"complex/gcrodr/A/left/p3", 0x7f86222e0c532cefULL},
      {"complex/gcrodr/A/right/p1", 0x7aac95b731b0b6feULL},
      {"complex/gcrodr/A/right/p3", 0x309e1e331baa5b88ULL},
      {"complex/gcrodr/A/flexible/p1", 0xc57a35d3795d42a7ULL},
      {"complex/gcrodr/A/flexible/p3", 0x825d38bb4c1e444ULL},
      {"complex/gcrodr/B/none/p1", 0x132cb44a54d51e81ULL},
      {"complex/gcrodr/B/none/p3", 0x114a948c09a64f97ULL},
      {"complex/gcrodr/B/left/p1", 0xce0b503c5699a0a7ULL},
      {"complex/gcrodr/B/left/p3", 0xdcff60fb77ecee9ULL},
      {"complex/gcrodr/B/right/p1", 0x99490601f6a7eba8ULL},
      {"complex/gcrodr/B/right/p3", 0xbcda2056717ea6e0ULL},
      {"complex/gcrodr/B/flexible/p1", 0x7d28bd2d8f7c9ebfULL},
      {"complex/gcrodr/B/flexible/p3", 0x1226ffc8266b8487ULL},
      {"complex/pseudo/A/none/p1", 0x5d1bd1d4aaaef99bULL},
      {"complex/pseudo/A/none/p3", 0x6b3dc1b721f2b937ULL},
      {"complex/pseudo/A/left/p1", 0x2898df4f01713992ULL},
      {"complex/pseudo/A/left/p3", 0xc852cab1a3c9a78cULL},
      {"complex/pseudo/A/right/p1", 0x56926d987d544b71ULL},
      {"complex/pseudo/A/right/p3", 0xeadd6f6752fd9d66ULL},
      {"complex/pseudo/A/flexible/p1", 0x34377e0c389231acULL},
      {"complex/pseudo/A/flexible/p3", 0x3010b8191122f5c7ULL},
      {"complex/pseudo/B/none/p1", 0x95525496aeb137c8ULL},
      {"complex/pseudo/B/none/p3", 0x2f476d9ad4f6a5a3ULL},
      {"complex/pseudo/B/left/p1", 0xcc71eb553cac6136ULL},
      {"complex/pseudo/B/left/p3", 0x876c922356113617ULL},
      {"complex/pseudo/B/right/p1", 0xfbdbfaa9828046ebULL},
      {"complex/pseudo/B/right/p3", 0x7f491a4a4b2a020dULL},
      {"complex/pseudo/B/flexible/p1", 0xc3ff6a124960c417ULL},
      {"complex/pseudo/B/flexible/p3", 0x5df9b20f053c0d2dULL},
      {"complex/gcrodr/mgs", 0xa5a3686dcb6c45b9ULL},
      {"complex/pseudo/mgs", 0xd6e266454578157eULL},
  };
  run_recycle_grid<cplx>("complex", complex_problem(), complex_problem_next(), golden);
}

// LGMRES with three augmentation vectors, per side.
template <class T>
std::uint64_t run_lgmres(const CsrMatrix<T>& a, PrecondSide side,
                         resilience::FaultInjector* inj = nullptr) {
  SolverOptions opts = grid_options();
  opts.restart = 10;
  opts.recycle = 3;
  opts.side = side;
  opts.fault = inj;
  CsrOperator<T> op(a);
  JacobiPreconditioner<T> jacobi(a);
  CommModel comm;
  const DenseMatrix<T> b = random_matrix<T>(a.rows(), 1, 53);
  std::vector<T> bv(b.col(0), b.col(0) + a.rows()), x(size_t(a.rows()), T(0));
  const SolveStats st = lgmres<T>(op, side == PrecondSide::None ? nullptr : &jacobi, bv, x, opts,
                                  &comm);
  const std::uint64_t h =
      solve_hash<T>(st, MatrixView<const T>(x.data(), a.rows(), 1, a.rows()), comm);
  return inj == nullptr ? h : with_visits(h, *inj);
}

enum class CgMethod { Cg, BlockCg };

// CG / block CG from a zero guess, unpreconditioned or with Jacobi.
template <class T>
std::uint64_t run_cg(CgMethod method, const CsrMatrix<T>& a, bool precond, index_t p,
                     resilience::FaultInjector* inj = nullptr) {
  SolverOptions opts = grid_options();
  opts.fault = inj;
  CsrOperator<T> op(a);
  JacobiPreconditioner<T> jacobi(a);
  CommModel comm;
  const DenseMatrix<T> b = random_matrix<T>(a.rows(), p, 59);
  DenseMatrix<T> x(a.rows(), p);
  Preconditioner<T>* m = precond ? &jacobi : nullptr;
  const SolveStats st = method == CgMethod::Cg
                            ? cg<T>(op, m, b.view(), x.view(), opts, &comm)
                            : block_cg<T>(op, m, b.view(), x.view(), opts, &comm);
  const std::uint64_t h =
      solve_hash<T>(st, MatrixView<const T>(x.data(), x.rows(), x.cols(), x.ld()), comm);
  return inj == nullptr ? h : with_visits(h, *inj);
}

template <class T>
void run_short_grid(const char* scalar, const CsrMatrix<T>& general, const CsrMatrix<T>& hpd,
                    const std::map<std::string, std::uint64_t>& golden) {
  for (const PrecondSide side :
       {PrecondSide::None, PrecondSide::Left, PrecondSide::Right, PrecondSide::Flexible})
    expect_golden(golden, std::string(scalar) + "/lgmres/" + side_name(side),
                  run_lgmres<T>(general, side));
  for (const CgMethod method : {CgMethod::Cg, CgMethod::BlockCg})
    for (const bool precond : {false, true})
      for (const index_t p : {index_t(1), index_t(3)})
        expect_golden(golden,
                      std::string(scalar) + (method == CgMethod::Cg ? "/cg/" : "/block_cg/") +
                          (precond ? "jacobi" : "none") + "/p" + std::to_string(p),
                      run_cg<T>(method, hpd, precond, p));
}

TEST(GmresGolden, ShortRecurrenceAndLgmres) {
  const std::map<std::string, std::uint64_t> golden = {
      {"real/lgmres/none", 0x6af63f9b921d1bc7ULL},
      {"real/lgmres/left", 0x4d6565b52655fd20ULL},
      {"real/lgmres/right", 0x7d9b5d935fadf025ULL},
      {"real/lgmres/flexible", 0x8ee204794b8e44b4ULL},
      {"real/cg/none/p1", 0xe5f271cec67f9442ULL},
      {"real/cg/none/p3", 0x6548751325a04426ULL},
      {"real/cg/jacobi/p1", 0x5b8275c378172325ULL},
      {"real/cg/jacobi/p3", 0xbf17e35d9c5a69a7ULL},
      {"real/block_cg/none/p1", 0xe5f271cec67f9442ULL},
      {"real/block_cg/none/p3", 0xa9289bf5c36f7ad9ULL},
      {"real/block_cg/jacobi/p1", 0x5b8275c378172325ULL},
      {"real/block_cg/jacobi/p3", 0xe339af9d7e62ceacULL},
      {"complex/lgmres/none", 0x66fd48c0ae9c3f34ULL},
      {"complex/lgmres/left", 0x4706144d053c2030ULL},
      {"complex/lgmres/right", 0x9abd0a27301c1d4eULL},
      {"complex/lgmres/flexible", 0xb25c7118f7e8a1cULL},
      {"complex/cg/none/p1", 0x2277344cc9f42a02ULL},
      {"complex/cg/none/p3", 0xa41edd02136303b2ULL},
      {"complex/cg/jacobi/p1", 0x674bcc8977f27c4fULL},
      {"complex/cg/jacobi/p3", 0x63d3314e294edb09ULL},
      {"complex/block_cg/none/p1", 0x2277344cc9f42a02ULL},
      {"complex/block_cg/none/p3", 0x3ddf052d10d34b3cULL},
      {"complex/block_cg/jacobi/p1", 0xa81a4b9a5f60fcb6ULL},
      {"complex/block_cg/jacobi/p3", 0x3815f9e2087e8b65ULL},
  };
  run_short_grid<double>("real", real_problem(), real_problem(), golden);
  run_short_grid<cplx>("complex", complex_problem(), complex_hpd_problem(), golden);
}

// One counting FaultInjector (no plan fires) per solver, right
// preconditioned where the solver has a side: the visit count of every
// hook site is part of the hash, and the attached injector turns on the
// true-residual epilogue.
TEST(GmresGolden, FaultInjectorVisits) {
  const std::map<std::string, std::uint64_t> golden = {
      {"gcrodr", 0xab2085ebc93022f6ULL},
      {"pseudo_gcrodr", 0x6d184ee5d6cc81c6ULL},
      {"gcrodr/left", 0x164c19d3972e9213ULL},
      {"pseudo_gcrodr/left", 0xfaa06e3c992a915fULL},
      // The one entry re-captured after the move onto SolveContext: LGMRES's
      // right-preconditioned update x += M^{-1}t now goes through the shared
      // hooked apply, one more PrecondApply visit per update (cycles - 1;
      // everything else in the hash, checked by subtracting them, is equal).
      {"lgmres/right", 0xec3716c968f8449bULL},
      {"lgmres/left", 0xb8eb988e99059bf0ULL},
      {"cg", 0x1d4c657333a90629ULL},
      {"block_cg", 0x855efec9326468b2ULL},
  };
  const auto a0 = real_problem();
  const auto a1 = real_problem_next();
  const auto run = [&](const std::string& name, auto&& solve) {
    resilience::FaultInjector inj;
    expect_golden(golden, name, solve(&inj));
  };
  run("gcrodr", [&](resilience::FaultInjector* inj) {
    return run_sequence<GcroDr<double>>(a0, a1, PrecondSide::Right, recycle_options(), 3, inj);
  });
  run("pseudo_gcrodr", [&](resilience::FaultInjector* inj) {
    return run_sequence<PseudoGcroDr<double>>(a0, a1, PrecondSide::Right, recycle_options(), 3,
                                              inj);
  });
  run("gcrodr/left", [&](resilience::FaultInjector* inj) {
    return run_sequence<GcroDr<double>>(a0, a1, PrecondSide::Left, recycle_options(), 3, inj);
  });
  run("pseudo_gcrodr/left", [&](resilience::FaultInjector* inj) {
    return run_sequence<PseudoGcroDr<double>>(a0, a1, PrecondSide::Left, recycle_options(), 3,
                                              inj);
  });
  run("lgmres/right", [&](resilience::FaultInjector* inj) {
    return run_lgmres<double>(a0, PrecondSide::Right, inj);
  });
  run("lgmres/left", [&](resilience::FaultInjector* inj) {
    return run_lgmres<double>(a0, PrecondSide::Left, inj);
  });
  run("cg", [&](resilience::FaultInjector* inj) {
    return run_cg<double>(CgMethod::Cg, a0, true, 3, inj);
  });
  run("block_cg", [&](resilience::FaultInjector* inj) {
    return run_cg<double>(CgMethod::BlockCg, a0, true, 3, inj);
  });
}

}  // namespace
}  // namespace bkr
