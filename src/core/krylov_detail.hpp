// Shared building blocks of the (block) Krylov implementations: the
// per-solve SolveContext, which owns the operator and preconditioner
// applies, the reduction accounting, the block orthogonalization schemes
// and the block QR normalization, all instrumented with the counts of the
// paper's section III-D and the per-phase timers of src/obs; and the
// solver entry run_solve that builds it.
#pragma once

#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/operator.hpp"
#include "core/solver.hpp"
#include "core/workspace.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace bkr::detail {

// Per-solve resilience state, one per SolveContext. Owns nothing; with no
// injector attached every fault hook is a pointer test.
template <class T>
struct Resilience {
  const RecoveryPolicy& policy;
  resilience::FaultInjector* fault = nullptr;
  // Orthonormal basis columns preceding the block being normalized; the
  // replacement ladder re-orthogonalizes substitute columns against it.
  MatrixView<const T> prior{};
  // Solver-maintained global (block) iteration count, for event records.
  index_t iteration = 0;
  // Block-recovery engagements consumed this solve (vs policy.max_recoveries).
  index_t used = 0;
};

// True when every entry of a residual-norm array is finite.
template <class R>
inline bool finite_norms(const R* v, index_t k) {
  for (index_t i = 0; i < k; ++i)
    if (!std::isfinite(static_cast<double>(v[i]))) return false;
  return true;
}

// Leading Krylov columns with a safely invertible R factor; stagnated
// directions past the first tiny (or non-finite: NaN compares false
// against every threshold, so it must be cut explicitly) diagonal are
// discarded. Shared by GMRES / GCRO-DR / pseudo-GCRO-DR.
template <class T>
index_t usable_columns(const IncrementalQR<T>& qr, index_t s) {
  real_t<T> dmax(0);
  for (index_t c = 0; c < s; ++c) {
    const real_t<T> d = abs_val(qr.r(c, c));
    if (std::isfinite(static_cast<double>(d))) dmax = std::max(dmax, d);
  }
  for (index_t c = 0; c < s; ++c) {
    const real_t<T> d = abs_val(qr.r(c, c));
    if (!std::isfinite(static_cast<double>(d)) ||
        d <= real_t<T>(1e-14) * std::max(dmax, real_t<T>(1e-300)))
      return c;
  }
  return s;
}

// True when a deadline is attached: the epoch default of
// SolverOptions::deadline is the disabled sentinel, so solves without one
// never read the clock on the hot path.
inline bool deadline_enabled(const SolverOptions& opts) {
  return opts.deadline.time_since_epoch().count() != 0;
}

// Cooperative cancellation/deadline poll (DESIGN.md §15), called once per
// (block) outer iteration at the top of every solver's hot loop and once
// at solve entry (so an already-expired deadline aborts before the first
// operator apply). With no token and no deadline attached — the default —
// this is two branch-predictable tests with no loads of shared state, so
// it is sanctioned inside BKR_HOT_LOOP by bkr-lint --hotpath. The relaxed
// load is deliberate: the only contract is "a flag set by another thread
// is observed at some subsequent iteration boundary".
BKR_HOT inline void poll_cancel(const SolverOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))
    throw BreakdownError(SolveStatus::Cancelled, "solve cancelled by token");
  if (deadline_enabled(opts) && std::chrono::steady_clock::now() >= opts.deadline)
    throw BreakdownError(SolveStatus::DeadlineExceeded, "solve deadline exceeded");
}

// Downcast the type-erased SolverOptions::workspace to the solve's scalar
// type; a null or mismatched attachment falls back to `fallback` (the
// per-solve one-shot workspace) so it can never corrupt a solve.
template <class T>
SolverWorkspace<T>* resolve_workspace(SolverWorkspaceBase* base, SolverWorkspace<T>* fallback) {
  if (base != nullptr)
    if (auto* typed = dynamic_cast<SolverWorkspace<T>*>(base)) return typed;
  return fallback;
}

// The side a solve runs on: None without a preconditioner, Flexible for
// a variable one requested on the right.
template <class T>
PrecondSide resolve_side(const Preconditioner<T>* m, const SolverOptions& opts) {
  if (m == nullptr) return PrecondSide::None;
  if (opts.side == PrecondSide::Right && m->is_variable()) return PrecondSide::Flexible;
  return opts.side;
}

// Everything one solve needs besides its own recurrence, built once by
// run_solve. The context owns the actions every solver body shares: the
// operator and preconditioner applies (each with its phase scope,
// counter and fault hook), the residual, the right-hand-side norm
// prologue, the solution update, the true-residual epilogue, the
// orthogonalization kernels and the reduction accounting. Applies, hooks
// and reductions are therefore booked in this one place; solver bodies
// never touch the apply or reduction counters, the CommModel or the
// trace's reduction phase directly.
template <class T>
struct SolveContext {
  using Real = real_t<T>;

  SolveContext(const char* method, const LinearOperator<T>& a, Preconditioner<T>* m,
               const SolverOptions& opts, SolveStats& st, CommModel* comm,
               SolverWorkspace<T>& ws)
      : method(method),
        a(a),
        m(m),
        side(resolve_side(m, opts)),
        opts(opts),
        st(st),
        comm(comm),
        trace(opts.trace),
        ex(opts.exec),
        shards(opts.shards),
        ws(ws),
        rz{opts.recovery, opts.fault} {}

  const char* method;
  const LinearOperator<T>& a;
  Preconditioner<T>* m;
  PrecondSide side;
  const SolverOptions& opts;
  SolveStats& st;
  CommModel* comm;
  obs::TraceSink* trace;
  const KernelExecutor* ex;
  index_t shards;
  SolverWorkspace<T>& ws;
  Resilience<T> rz;

  // Fault-injection hook: a pointer test when no injector is attached.
  void hook(resilience::FaultSite site, MatrixView<T> block) {
    if (rz.fault != nullptr) rz.fault->at(site, block);
  }

  // out = A in.
  BKR_HOT void apply_op(MatrixView<const T> in, MatrixView<T> out) {
    obs::ScopedPhase sp(trace, obs::Phase::Spmm);
    a.apply(in, out);
    ++st.operator_applies;
    hook(resilience::FaultSite::OperatorApply, out);
  }

  // out = M^{-1} in.
  BKR_HOT void apply_precond(MatrixView<const T> in, MatrixView<T> out) {
    obs::ScopedPhase sp(trace, obs::Phase::Precond);
    m->apply(in, out);
    ++st.precond_applies;
    hook(resilience::FaultSite::PrecondApply, out);
  }

  // out = M^{-1} in, or a copy without a preconditioner (the CG family).
  BKR_HOT void precondition(MatrixView<const T> in, MatrixView<T> out) {
    if (m != nullptr) {
      apply_precond(in, out);
    } else {
      copy_into<T>(in, out);
    }
  }

  // Z and W outputs of one preconditioned operator application on the
  // block V under side `s` (default: the solve's side): W is the vector
  // entering the Arnoldi recurrence; Z is the vector that reconstructs
  // the solution update (Z = M^{-1}V for right/flexible; scratch A V for
  // left). A block that already lives in solution space (a recycled U or
  // an LGMRES augmentation vector) passes the side it is applied under.
  BKR_HOT void apply_preconditioned(MatrixView<const T> v, MatrixView<T> z, MatrixView<T> w,
                                    PrecondSide s) {
    const auto zc = MatrixView<const T>(z.data(), z.rows(), z.cols(), z.ld());
    switch (s) {
      case PrecondSide::None:
        apply_op(v, w);
        break;
      case PrecondSide::Right:
      case PrecondSide::Flexible:
        apply_precond(v, z);
        apply_op(zc, w);
        break;
      case PrecondSide::Left:
        apply_op(v, z);
        apply_precond(zc, w);
        break;
    }
  }
  BKR_HOT void apply_preconditioned(MatrixView<const T> v, MatrixView<T> z, MatrixView<T> w) {
    apply_preconditioned(v, z, w, side);
  }

  // Residual R = B - A X, or M^{-1}(B - A X) under side Left (`scratch`
  // holds B - A X then). The CG family, which applies M symmetrically,
  // passes PrecondSide::None.
  void residual(MatrixView<const T> b, MatrixView<const T> x, MatrixView<T> r,
                DenseMatrix<T>& scratch, PrecondSide s) {
    const index_t n = b.rows(), p = b.cols();
    MatrixView<T> ax = r;
    if (s == PrecondSide::Left) {
      scratch.resize(n, p);
      ax = scratch.view();
    }
    apply_op(x, ax);
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) ax(i, c) = b(i, c) - ax(i, c);
    if (s == PrecondSide::Left) apply_precond(scratch.view(), r);
  }
  void residual(MatrixView<const T> b, MatrixView<const T> x, MatrixView<T> r,
                DenseMatrix<T>& scratch) {
    residual(b, x, r, scratch, side);
  }

  // Book `k` global reductions of `bytes` each: the SolveStats counter,
  // the communication model and the trace's reduction phase stay in
  // lockstep, so the counter-accounting tests can assert
  // stats.reductions == trace reduction count exactly.
  void reduce(std::int64_t k = 1, std::int64_t bytes = 8) {
    st.reductions += k;
    if (comm != nullptr)
      for (std::int64_t i = 0; i < k; ++i) comm->reduction(bytes);
    if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, k);
  }

  // `k` paper-count synchronizations fused into ONE communication-model
  // all-reduce of `bytes` (pseudo-block MGS batches its j + 1 dots).
  void reduce_batched(std::int64_t k, std::int64_t bytes) {
    st.reductions += k;
    if (comm != nullptr) comm->reduction(bytes);
    if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, k);
  }

  // Run `compute` — the local part of one global reduction per entry of
  // `bytes` — inside a Reduction phase scope, which contributes the trace
  // count itself.
  template <class F>
  BKR_HOT void reduction(std::initializer_list<std::int64_t> bytes, F&& compute) {
    obs::ScopedPhase sp(trace, obs::Phase::Reduction, std::int64_t(bytes.size()));
    compute();
    st.reductions += std::int64_t(bytes.size());
    if (comm != nullptr)
      for (const std::int64_t b : bytes) comm->reduction(b);
  }

  // Per-column norms with reduction accounting (one fused reduction). The
  // compute *is* the global reduction, so its time lands in that phase.
  // `shards > 0` selects the explicit binary-tree combine (DESIGN.md §13);
  // the tree's shape is a function of the problem size only — never of
  // the shard count — so sharded solves are bitwise identical at every
  // S >= 1.
  BKR_HOT void norms(MatrixView<const T> x, Real* out) {
    reduction({x.cols() * 8}, [&] {
      if (shards > 0) {
        tree_column_norms<T>(x, out, ex);
      } else {
        column_norms<T>(x, out, ex);
      }
    });
  }

  // Right-hand-side norms for the relative stopping test (‖M^{-1}b‖
  // under Left, where the test runs on the preconditioned residual),
  // zeros replaced by 1. False when a norm is not finite.
  bool rhs_norms(MatrixView<const T> b, Real* out, DenseMatrix<T>& scratch) {
    const index_t p = b.cols();
    if (side == PrecondSide::Left) {
      scratch.resize(b.rows(), p);
      {
        obs::ScopedPhase sp(trace, obs::Phase::Precond);
        m->apply(b, scratch.view());
        ++st.precond_applies;
      }
      norms(scratch.view(), out);
    } else {
      norms(b, out);
    }
    for (index_t c = 0; c < p; ++c)
      if (out[c] == Real(0)) out[c] = Real(1);
    return finite_norms(out, p);
  }

  // The solution-space image of a Krylov-space update `t`: M^{-1}t (into
  // `scratch`) under Right, `t` itself otherwise — Flexible bases and
  // recycled or augmentation vectors already live in solution space.
  MatrixView<const T> solution_update(MatrixView<const T> t, MatrixView<T> scratch) {
    if (side != PrecondSide::Right) return t;
    apply_precond(t, scratch);
    return MatrixView<const T>(scratch.data(), scratch.rows(), scratch.cols(), scratch.ld());
  }

  // x += solution_update(t).
  void update(MatrixView<T> x, MatrixView<const T> t, MatrixView<T> scratch) {
    const auto u = solution_update(t, scratch);
    for (index_t c = 0; c < u.cols(); ++c) axpy<T>(u.rows(), T(1), u.col(c), x.col(c));
  }

  // Fault-gated epilogue: a corrupted recurrence can drive the *estimated*
  // residual below tolerance while the true residual is arbitrary (the
  // estimate converges against the faulted operator, not A). When an
  // injector is attached — or the caller opts in via final_check —
  // recompute b - A x and demote `converged` to Faulted /
  // NonFiniteResidual if they disagree. The CG family passes its ‖b‖ and
  // allows 10 tol; the GMRES family, whose left-preconditioned test
  // converges on M^{-1}(b - A x), has ‖b‖ measured here and allows
  // 100 tol. Either bound only has to catch corruption, which is orders
  // of magnitude, not a rounding factor.
  BKR_COLD void true_residual_check(MatrixView<const T> b, MatrixView<const T> x,
                                    const Real* bnorm = nullptr) {
    if (!st.converged || (opts.fault == nullptr && !opts.recovery.final_check)) return;
    const index_t n = b.rows(), p = b.cols();
    DenseMatrix<T> q(n, p);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(x, q.view());
      ++st.operator_applies;
    }
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) q(i, c) = b(i, c) - q(i, c);
    std::vector<Real> rn(static_cast<size_t>(p)), bn(static_cast<size_t>(p));
    norms(MatrixView<const T>(q.data(), n, p, q.ld()), rn.data());
    Real factor(10);
    if (bnorm == nullptr) {
      norms(b, bn.data());
      for (auto& v : bn)
        if (!(v > Real(0))) v = Real(1);
      bnorm = bn.data();
      factor = Real(100);
    }
    for (index_t c = 0; c < p; ++c) {
      if (rn[size_t(c)] <= factor * opts.tol * bnorm[c]) continue;
      st.converged = false;
      st.status = finite_norms(&rn[size_t(c)], 1) ? SolveStatus::Faulted
                                                  : SolveStatus::NonFiniteResidual;
      break;
    }
  }

  // The k smallest eigenvectors of the deflation pencil T z = theta W z.
  // When the eigensolve fails (QR iteration non-convergence or a singular
  // pencil) the identity coefficients keep the leading columns instead —
  // the current recycle space or the leading Krylov directions — unless
  // the policy demands a hard failure.
  BKR_COLD DenseMatrix<T> deflation_vectors(const DenseMatrix<T>& tmat, const DenseMatrix<T>& wmat,
                                            index_t k, const char* what) {
    try {
      return smallest_gen_eig_vectors<T>(tmat, wmat, k);
    } catch (const EigFailure&) {
      if (!opts.recovery.shrink_recycle)
        throw BreakdownError(SolveStatus::EigSolveFailure, std::string(method) + ": " + what);
      DenseMatrix<T> pk(tmat.rows(), k);
      for (index_t j = 0; j < k; ++j) pk(j, j) = T(1);
      ++st.recoveries;
      if (trace != nullptr)
        trace->recovery(obs::RecoveryEvent{st.iterations, "deflation", "identity-pk", k});
      return pk;
    }
  }

  // Harmonic Ritz deflation after a first (unprojected) cycle: the k
  // smallest harmonic Ritz pairs of the s-column Hessenberg, via the
  // generalized form (R^H R) z = theta H_m^H z assembled from its
  // incremental QR (fig. 1 line 16 / the paper's eq. 2 reformulation).
  BKR_COLD DenseMatrix<T> harmonic_ritz_vectors(const IncrementalQR<T>& qr,
                                                const DenseMatrix<T>& hbar, index_t s,
                                                index_t k) {
    const DenseMatrix<T> r = qr.r_matrix();
    DenseMatrix<T> tmat(s, s);
    gemm<T>(Trans::C, Trans::N, T(1), MatrixView<const T>(r.data(), s, s, r.ld()),
            MatrixView<const T>(r.data(), s, s, r.ld()), T(0), tmat.view());
    DenseMatrix<T> wmat(s, s);
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < s; ++i) wmat(i, j) = conj(hbar(j, i));  // H_m^H
    return deflation_vectors(tmat, wmat, k, "harmonic Ritz extraction failed");
  }

  // Project W against the first `s` columns of the basis, writing the
  // coefficients into the first s rows of `h` (s x p view). Reduction
  // accounting follows section III-D: CGS fuses the projection into one
  // global reduction, MGS needs one per basis block of `block` columns.
  // The workspace provides the CGS2 reprojection scratch, so the default
  // scheme allocates nothing per iteration.
  BKR_HOT void project(MatrixView<const T> basis, index_t s, MatrixView<T> w, MatrixView<T> h,
                       index_t block) {
    if (s == 0) return;
    obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
    const auto v = basis.cols_view(0, s);
    const auto wc = MatrixView<const T>(w.data(), w.rows(), w.cols(), w.ld());
    switch (opts.ortho) {
      case Ortho::Cgs: {
        gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
        reduce(1);
        gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
        break;
      }
      case Ortho::Cgs2: {
        gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
        gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
        DenseMatrix<T>& h2 = ws.mat(kWsProjectScratch, s, w.cols());
        gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h2.view(), ex);
        gemm<T>(Trans::N, Trans::N, T(-1), v, h2.view(), T(1), w, ex);
        for (index_t c = 0; c < w.cols(); ++c)
          for (index_t i = 0; i < s; ++i) h(i, c) += h2(i, c);
        reduce(2);
        break;
      }
      case Ortho::Mgs: {
        for (index_t i0 = 0; i0 < s; i0 += block) {
          const index_t width = std::min(block, s - i0);
          const auto vi = basis.cols_view(i0, width);
          gemm<T>(Trans::C, Trans::N, T(1), vi, wc, T(0), h.block(i0, 0, width, w.cols()), ex);
          gemm<T>(Trans::N, Trans::N, T(-1), vi, h.block(i0, 0, width, w.cols()), T(1), w, ex);
          reduce(1);
        }
        break;
      }
    }
  }

  // Normalize a block in place: W = Q R via CholQR (single reduction),
  // falling back to Householder TSQR on breakdown. Returns false when even
  // the fallback produced a numerically rank-deficient R (exact block
  // breakdown) — unless the block is `resilient` and the policy enables
  // block recovery, in which case the final ladder rung replaces the dead
  // columns with seeded random directions re-orthogonalized against
  // rz.prior and reports success (the caller's cycle continues on a
  // full-rank block; the next restart recomputes the true residual, so a
  // stale Hessenberg column can only cost iterations, never correctness).
  // A non-resilient block (the requalified recycle space) also skips the
  // orthogonalization fault hook.
  BKR_HOT bool qr_block(MatrixView<T> w, MatrixView<T> r, bool resilient = true) {
    obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
    if (resilient) hook(resilience::FaultSite::Orthogonalization, w);
    const index_t n = w.rows(), p = w.cols();
    const bool recover = resilient && rz.policy.block_recovery;
    if (recover) {
      // Zero poisoned columns before the Gram matrix: one non-finite entry
      // would otherwise contaminate every factor column through CholQR's
      // triangular solve. The zeroed columns surface as dead below.
      for (index_t c = 0; c < p; ++c) {
        bool finite = true;
        for (index_t i = 0; i < n; ++i)
          if (!std::isfinite(static_cast<double>(abs_val(w(i, c))))) {
            finite = false;
            break;
          }
        if (!finite)
          for (index_t i = 0; i < n; ++i) w(i, c) = T(0);
      }
    }
    reduce(1, w.cols() * w.cols() * 8);
    if (!cholqr<T>(w, r, ex)) householder_tsqr<T>(w, r);
    real_t<T> dmax(0);
    for (index_t c = 0; c < r.cols(); ++c) {
      const real_t<T> d = abs_val(r(c, c));
      if (std::isfinite(static_cast<double>(d))) dmax = std::max(dmax, d);
    }
    const real_t<T> cutoff = real_t<T>(1e-14) * std::max(dmax, real_t<T>(1e-300));
    auto is_dead = [&](index_t c) {
      const real_t<T> d = abs_val(r(c, c));
      return !std::isfinite(static_cast<double>(d)) || d <= cutoff;
    };
    bool any_dead = false;
    for (index_t c = 0; c < p && !any_dead; ++c) any_dead = is_dead(c);
    if (!any_dead) return true;
    if (!recover || rz.used >= rz.policy.max_recoveries) return false;
    // Replacement ladder: off the iterate fast path by construction — it
    // only runs on an actual block breakdown, at most max_recoveries times
    // per solve — so allocation and trace construction are acceptable here.
    BKR_COLD {
      ++rz.used;
      ++st.recoveries;
      std::vector<index_t> alive, dead;
      for (index_t c = 0; c < p; ++c) (is_dead(c) ? dead : alive).push_back(c);
      // Seed varies per engagement so a second breakdown in the same solve
      // draws fresh directions, but reruns stay bit-identical.
      Rng rng(static_cast<unsigned>(rz.policy.seed + 0x9e3779b9ULL *
                                                          static_cast<std::uint64_t>(rz.used)));
      for (size_t di = 0; di < dead.size(); ++di) {
        const index_t c = dead[di];
        for (index_t i = 0; i < n; ++i) w(i, c) = rng.scalar<T>();
        // Two classical Gram-Schmidt passes against the prior basis, the
        // surviving block columns and the already-replaced ones; serial dots
        // keep the replacement deterministic at any thread count.
        for (int pass = 0; pass < 2; ++pass) {
          for (index_t q = 0; q < rz.prior.cols(); ++q) {
            const T h = dot<T>(n, rz.prior.col(q), w.col(c));
            axpy<T>(n, -h, rz.prior.col(q), w.col(c));
          }
          for (const index_t q : alive) {
            const T h = dot<T>(n, w.col(q), w.col(c));
            axpy<T>(n, -h, w.col(q), w.col(c));
          }
          for (size_t dj = 0; dj < di; ++dj) {
            const T h = dot<T>(n, w.col(dead[dj]), w.col(c));
            axpy<T>(n, -h, w.col(dead[dj]), w.col(c));
          }
        }
        const real_t<T> nrm = norm2<T>(n, w.col(c));
        if (!(nrm > real_t<T>(0)) || !std::isfinite(static_cast<double>(nrm))) return false;
        scal<T>(n, scalar_traits<T>::from_real(real_t<T>(1) / nrm), w.col(c));
      }
      // The replacement dots amount to one more fused synchronization.
      reduce(1, p * p * 8);
      // R still factors the *original* block over the surviving columns (its
      // dead diagonals are ~0, so backsolves keep excluding them); only
      // non-finite entries are scrubbed so Hessenberg assembly stays finite.
      for (index_t i = 0; i < r.rows(); ++i)
        for (index_t c = 0; c < r.cols(); ++c)
          if (!std::isfinite(static_cast<double>(abs_val(r(i, c))))) r(i, c) = T(0);
      if (trace != nullptr)
        trace->recovery(obs::RecoveryEvent{rz.iteration, "ortho", "replace-columns",
                                           static_cast<index_t>(dead.size())});
    }
    return true;
  }
};

// The one solver entry: validates the system and the options, resolves
// the workspace (a session's, or a one-shot fallback owned for the
// duration of the solve), builds the SolveContext and runs `body` on it.
// It owns the wall clock, the begin/end trace pairing, the terminal-status
// resolution and the translation of the two structured abort exceptions
// into SolveStats. `body` fills the stats through the context and
// returns, setting st.status only on explicit failure exits (the default
// covers budget exhaustion, the entry covers success).
template <class T, class F>
SolveStats run_solve(const char* method, const LinearOperator<T>& a, Preconditioner<T>* m,
                     MatrixView<const T> b, MatrixView<T> x, const SolverOptions& opts,
                     CommModel* comm, F&& body) {
  BKR_REQUIRE(a.n() > 0, "a.n", a.n());
  BKR_REQUIRE(b.rows() == a.n(), "b.rows", b.rows(), "a.n", a.n());
  BKR_REQUIRE(b.cols() >= 1, "b.cols", b.cols());
  BKR_ASSERT_SHAPE(x, b.rows(), b.cols());
  BKR_REQUIRE(m == nullptr || m->n() == a.n(), "m.n", m == nullptr ? a.n() : m->n(), "a.n", a.n());
  BKR_REQUIRE(opts.restart >= 1, "opts.restart", opts.restart);
  BKR_REQUIRE(opts.recycle >= 0, "opts.recycle", opts.recycle);
  BKR_REQUIRE(opts.max_iterations >= 0, "opts.max_iterations", opts.max_iterations);
  // tol == 0 is the documented smoother mode: never converge, run exactly
  // max_iterations (see Cg.FixedIterationSmootherMode). Only negatives are
  // malformed.
  BKR_REQUIRE(opts.tol >= 0, "opts.tol", opts.tol);
  BKR_REQUIRE(opts.recovery.max_recoveries >= 0, "opts.recovery.max_recoveries",
              opts.recovery.max_recoveries);
  BKR_REQUIRE(opts.recovery.stagnation_window >= 1, "opts.recovery.stagnation_window",
              opts.recovery.stagnation_window);
  SolverWorkspace<T> one_shot;
  Timer timer;
  SolveStats st;
  SolveContext<T> ctx(method, a, m, opts, st, comm,
                      *resolve_workspace<T>(opts.workspace, &one_shot));
  obs::TraceSink* const trace = opts.trace;
  if (trace != nullptr) trace->begin_solve(method, a.n(), b.cols());
  try {
    poll_cancel(opts);  // expired-at-entry deadline: abort with 0 applies
    body(ctx);
  } catch (const resilience::InjectedFault& f) {
    st.converged = false;
    st.status = f.site() == resilience::FaultSite::PrecondApply
                    ? SolveStatus::PreconditionerFailure
                    : SolveStatus::Faulted;
  } catch (const BreakdownError& e) {
    st.converged = false;
    st.status = e.status();
  }
  if (st.converged) st.status = SolveStatus::Converged;
  st.seconds = timer.seconds();
  if (trace != nullptr) trace->end_solve(st.converged, st.iterations, st.cycles, st.seconds);
  if (opts.recovery.throw_on_failure && !st.converged &&
      st.status != SolveStatus::MaxIterations && st.status != SolveStatus::Stagnated &&
      st.status != SolveStatus::Cancelled && st.status != SolveStatus::DeadlineExceeded)
    throw BreakdownError(st.status, std::string(method) + ": " + status_name(st.status));
  return st;
}

}  // namespace bkr::detail
