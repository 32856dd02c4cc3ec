// Golden oracle for block_gmres and pseudo_block_gmres.
//
// Each case hashes (FNV-1a, 64 bit) everything a solve reports: the
// residual history, the solution bits, the iteration counts (total and per
// RHS), the terminal status, the recovery count, the reduction and
// operator/preconditioner apply counters, and the CommModel's reduction
// calls and bytes. The table was captured from the dedicated GMRES solver
// bodies that preceded the shared Arnoldi engine, so every entry pins that
// running GMRES as GCRO-DR with k = 0 is bitwise what those bodies did.
// `cycles` is left out: its definition (Arnoldi cycles, not restarts + 1)
// changed with the merge.
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

#include "core/gmres.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/comm_model.hpp"
#include "precond/jacobi.hpp"
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

}  // namespace
}  // namespace bkr
