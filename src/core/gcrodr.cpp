#include "core/gcrodr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/krylov_detail.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slot kWsProjectScratch is detail::project's).
enum : int { kWsUpdateT = kWsSolverBase, kWsYc, kWsSmallY };

// One (block) Arnoldi cycle, optionally on the projected operator
// (I - C C^H) op. Collects the raw block Hessenberg (hbar), its
// incremental QR, the least-squares RHS image (ghat), and — when
// projecting — the coupling matrix E = C^H op(V) (fig. 1 line 26).
template <class T>
struct ArnoldiCycle {
  DenseMatrix<T> v;     // n x (max_steps+1)p basis
  DenseMatrix<T> z;     // flexible preconditioned basis (n x max_steps*p)
  DenseMatrix<T> hbar;  // raw block Hessenberg
  DenseMatrix<T> ghat;
  DenseMatrix<T> e;  // kp x max_steps*p
  IncrementalQR<T> qr;
  index_t steps = 0;
  bool hit_tolerance = false;
  bool fatal = false;  // a residual estimate went non-finite mid-cycle
  // Iterate-loop scratch, reset (storage-reusing) at the top of run() so a
  // steady-state cycle touches the allocator nowhere inside the j-loop.
  DenseMatrix<T> ztmp, w, hcol, sblock, ecol;
  std::vector<double> relres;
  obs::IterationEvent ev;

  // Returns the usable Krylov dimension (0 on immediate breakdown).
  index_t run(detail::SolveContext<T>& ctx, MatrixView<const T> r0, MatrixView<const T> c,
              index_t max_steps, const std::vector<real_t<T>>& bnorm) {
    using Real = real_t<T>;
    const SolverOptions& opts = ctx.opts;
    SolveStats& st = ctx.st;
    obs::TraceSink* const trace = ctx.trace;
    const KernelExecutor* const ex = ctx.ex;
    const PrecondSide side = ctx.side;
    const index_t n = r0.rows(), p = r0.cols();
    const index_t kp = c.cols();
    v.resize(n, (max_steps + 1) * p);
    if (side == PrecondSide::Flexible) z.resize(n, max_steps * p);
    hbar.resize((max_steps + 1) * p, max_steps * p);
    ghat.resize((max_steps + 1) * p, p);
    if (kp > 0) {
      e.resize(kp, max_steps * p);
      ecol.resize(kp, p);
    }
    qr.reshape((max_steps + 1) * p, max_steps * p);
    steps = 0;
    hit_tolerance = false;
    fatal = false;

    ztmp.resize(n, p);
    w.resize(n, p);
    hcol.resize((max_steps + 2) * p, p);
    sblock.resize(p, p);
    relres.reserve(static_cast<size_t>(p));
    ev.residuals.reserve(static_cast<size_t>(p));
    if (opts.record_history)
      for (index_t cc = 0; cc < p; ++cc)
        st.history[size_t(cc)].reserve(st.history[size_t(cc)].size() +
                                       static_cast<size_t>(max_steps));

    copy_into<T>(r0, v.block(0, 0, n, p));
    // Rank-deficient residual blocks are tolerated here: breakdown is
    // detected per-column through usable_columns further down the cycle
    // (or repaired by the recovery ladder when it is enabled).
    ctx.rz.prior = MatrixView<const T>();
    ctx.rz.iteration = st.iterations;
    ctx.qr_block(v.block(0, 0, n, p), sblock.view());  // bkr-lint: allow(unchecked-factor)
    ghat.set_zero();
    for (index_t cc = 0; cc < p; ++cc)
      for (index_t rr = 0; rr <= cc; ++rr) ghat(rr, cc) = sblock(rr, cc);

    // Stagnation-triggered early restart: within a cycle the worst-column
    // estimate is monotone non-increasing, so a long flat run means the
    // space is wedged and restarting from the true residual is cheaper.
    Real stag_best = std::numeric_limits<Real>::infinity();
    index_t stag_count = 0;
    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts.max_iterations) {
      detail::poll_cancel(opts);
      const auto vj = MatrixView<const T>(v.col(j * p), n, p, v.ld());
      MatrixView<T> zj = (side == PrecondSide::Flexible) ? z.block(0, j * p, n, p) : ztmp.view();
      ctx.apply_preconditioned(vj, zj, w.view());
      if (kp > 0) {
        // Project against the recycled space: E_j = C^H w, w -= C E_j
        // (one additional reduction per iteration — the 2(m-k) vs m count
        // of section III-D).
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        gemm<T>(Trans::C, Trans::N, T(1), c, w.view(), T(0), ecol.view(), ex);
        ctx.reduce(1, kp * p * 8);
        gemm<T>(Trans::N, Trans::N, T(-1), c, ecol.view(), T(1), w.view(), ex);
        copy_into<T>(ecol.view(), e.block(0, j * p, kp, p));
      }
      hcol.set_zero();
      ctx.project(v.view(), (j + 1) * p, w.view(), hcol.view(), p);
      auto vnext = v.block(0, (j + 1) * p, n, p);
      copy_into<T>(w.view(), vnext);
      ctx.rz.prior = MatrixView<const T>(v.data(), n, (j + 1) * p, v.ld());
      ctx.rz.iteration = st.iterations;
      const bool full_rank = ctx.qr_block(vnext, sblock.view());
      for (index_t cc = 0; cc < p; ++cc)
        for (index_t rr = 0; rr <= cc; ++rr) hcol((j + 1) * p + rr, cc) = sblock(rr, cc);
      // Commit the Hessenberg columns even on a (happy) breakdown — the
      // least squares over them may hold the exact solution; the rank-
      // deficient tail is excluded by usable_columns.
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        for (index_t cc = 0; cc < p; ++cc) {
          for (index_t rr = 0; rr < (j + 2) * p; ++rr) hbar(rr, j * p + cc) = hcol(rr, cc);
          qr.add_column(hcol.col(cc), (j + 2) * p);
        }
        qr.apply_qt_range(ghat.view(), j * p);
      }
      ++j;
      ++st.iterations;
      bool all_small = true;
      Real worst(0);
      relres.assign(static_cast<size_t>(p), 0.0);
      for (index_t cc = 0; cc < p; ++cc) {
        const Real est = norm2<T>(p, &ghat(j * p, cc));
        relres[size_t(cc)] = est / bnorm[size_t(cc)];
        worst = std::max(worst, est / bnorm[size_t(cc)]);
        if (!std::isfinite(static_cast<double>(est))) fatal = true;
        if (opts.record_history) st.history[size_t(cc)].push_back(est / bnorm[size_t(cc)]);
        if (est > opts.tol * bnorm[size_t(cc)]) {
          all_small = false;
          ++st.per_rhs_iterations[size_t(cc)];
        }
      }
      if (trace != nullptr) {
        ev.cycle = st.cycles;
        ev.iteration = st.iterations;
        ev.basis_size = (j + 1) * p;
        ev.recycle_dim = kp;
        ev.residuals.assign(relres.begin(), relres.end());
        trace->iteration(ev);
      }
      steps = j;
      if (fatal) break;
      if (all_small) {
        hit_tolerance = true;
        break;
      }
      if (!full_rank) break;
      if (worst < stag_best * (Real(1) - Real(1e-12))) {
        stag_best = worst;
        stag_count = 0;
      } else if (opts.recovery.early_restart && ++stag_count >= opts.recovery.stagnation_window) {
        ++st.recoveries;
        if (trace != nullptr)
          trace->recovery(obs::RecoveryEvent{st.iterations, "cycle", "early-restart", 0});
        break;
      }
    }
    steps = j;
    return detail::usable_columns(qr, steps * p);
  }

  // Least-squares solution Y over the first s Krylov columns, into `y`.
  void least_squares(index_t s, DenseMatrix<T>& y) const {
    copy_into<T>(MatrixView<const T>(ghat.data(), s, y.cols(), ghat.ld()), y.view());
    const DenseMatrix<T> r = qr.r_matrix();
    trsm_left_upper<T>(MatrixView<const T>(r.data(), s, s, r.ld()), y.view());
  }

  // The basis reconstructing solution updates (preconditioned space for
  // flexible, Krylov space otherwise).
  [[nodiscard]] MatrixView<const T> update_basis(PrecondSide side, index_t n, index_t s) const {
    const DenseMatrix<T>& basis = (side == PrecondSide::Flexible) ? z : v;
    return MatrixView<const T>(basis.data(), n, s, basis.ld());
  }
};

// True when every entry of a block is exactly zero: a null solution
// update, after which a deterministic restart would replay the cycle.
template <class T>
bool all_zero(MatrixView<const T> y) {
  for (index_t c = 0; c < y.cols(); ++c)
    for (index_t i = 0; i < y.rows(); ++i)
      if (y(i, c) != T(0)) return false;
  return true;
}

}  // namespace

template <class T>
SolveStats GcroDr<T>::solve(const LinearOperator<T>& a, Preconditioner<T>* m,
                            MatrixView<const T> b, MatrixView<T> x, CommModel* comm,
                            bool new_matrix) {
  using Real = real_t<T>;
  const index_t n = a.n(), p = b.cols();
  const index_t mdim = opts_.restart;
  if (opts_.recycle < 0) throw std::invalid_argument("GcroDr: opts.recycle (k) must be >= 0");
  // k = 0 is (block) GMRES(m): every recycle step below is skipped.
  const index_t k = std::min(opts_.recycle, mdim - 1);
  const index_t kp = k * p;
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  ++solves_;

  auto body = [&](detail::SolveContext<T>& ctx) {
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;
  const PrecondSide side = ctx.side;
  SolverWorkspace<T>& ws = ctx.ws;

  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  DenseMatrix<T> scratch;
  if (!ctx.rhs_norms(b, bnorm.data(), scratch)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p);
  ctx.residual(b, x, r.view(), scratch);
  ctx.norms(r.view(), rnorm.data());
  if (opts_.record_history)
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
  if (!detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  auto converged = [&] {
    for (index_t c = 0; c < p; ++c)
      if (rnorm[size_t(c)] > opts_.tol * bnorm[size_t(c)]) return false;
    return true;
  };
  if (converged()) {
    st.converged = true;
    return;
  }

  DenseMatrix<T> ztmp(n, p);
  ArnoldiCycle<T> cycle;

  if (kp > 0 && u_.cols() > 0) {
    if (matrix_changed) {
      // Lines 4-6: [Q, R] = distributed_qr(op(U)); C = Q; U = U R^{-1}.
      // U lives in solution space, so a flexible solve applies A alone.
      c_.resize(n, u_.cols());
      DenseMatrix<T> tmp(n, u_.cols());
      ctx.apply_preconditioned(u_.view(), tmp.view(), c_.view(),
                               side == PrecondSide::Flexible ? PrecondSide::None : side);
      DenseMatrix<T> rq(u_.cols(), u_.cols());
      // A rank-deficient recycled space only degrades the deflation; the
      // subsequent trsm keeps U consistent with whatever rank survived.
      ctx.qr_block(c_.view(), rq.view(), false);  // bkr-lint: allow(unchecked-factor)
      trsm_right_upper<T>(rq.view(), u_.view(), ex);
    }
    // Lines 8-9: X += U C^H R, R -= C C^H R (one fused reduction).
    DenseMatrix<T> y0(u_.cols(), p);
    ctx.reduction({u_.cols() * p * 8}, [&] {
      gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), y0.view(), ex);
    });
    DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
    gemm<T>(Trans::N, Trans::N, T(1), u_.view(), y0.view(), T(0), t.view(), ex);
    ctx.update(x, t.view(), ztmp.view());
    gemm<T>(Trans::N, Trans::N, T(-1), c_.view(), y0.view(), T(1), r.view(), ex);
    ctx.norms(r.view(), rnorm.data());
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    if (converged()) {
      st.converged = true;
      return;
    }
  }

  // Restart cycles. Until a recycled space exists (always, for k = 0) a
  // cycle is m steps of plain (block) GMRES (fig. 1 lines 11-20); after
  // that, m - k steps on the projected operator (I - C C^H) op (lines
  // 22-39).
  while (st.iterations < opts_.max_iterations) {
    ++st.cycles;
    const index_t kcur = kp > 0 ? u_.cols() : 0;
    // The recycle step closing this cycle: the first cycle seeds U_k, C_k
    // (lines 16-20); later ones refresh them when the matrix changed.
    const bool seed = kp > 0 && kcur == 0;
    const bool refresh = kcur > 0 && matrix_changed;
    // C^H R_{j-1} for the solution update (line 28; one reduction — this
    // is "the update of the least squares problem" of section III-D).
    DenseMatrix<T>* yc = nullptr;
    if (kcur > 0) {
      yc = &ws.mat(kWsYc, kcur, p);
      ctx.reduction({kcur * p * 8}, [&] {
        gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), yc->view(), ex);
      });
    }

    const index_t s = cycle.run(ctx, r.view(),
                                kcur > 0 ? MatrixView<const T>(c_.view()) : MatrixView<const T>(),
                                kcur > 0 ? mdim - k : mdim, bnorm);
    if (cycle.fatal) {
      // The least squares over a poisoned Hessenberg would corrupt x;
      // leave the iterate as it was.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (s == 0 && !cycle.hit_tolerance) {
      st.status = SolveStatus::Stagnated;
      break;  // no usable direction was produced
    }
    if (s > 0) {
      DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
      bool null_update = true;
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        DenseMatrix<T>& ym = ws.mat(kWsSmallY, s, p);
        cycle.least_squares(s, ym);
        null_update = all_zero<T>(ym.view());
        gemm<T>(Trans::N, Trans::N, T(1), cycle.update_basis(side, n, s), ym.view(), T(0),
                t.view(), ex);
        if (kcur > 0) {
          // Y_k = C^H R_{j-1} - E Y_m (line 28); X += U Y_k rides along.
          gemm<T>(Trans::N, Trans::N, T(-1),
                  MatrixView<const T>(cycle.e.data(), kcur, s, cycle.e.ld()), ym.view(), T(1),
                  yc->view());
          null_update = null_update && all_zero<T>(yc->view());
          gemm<T>(Trans::N, Trans::N, T(1), u_.view(), yc->view(), T(1), t.view(), ex);
        }
      }
      ctx.update(x, t.view(), ztmp.view());
      if (null_update && !cycle.hit_tolerance && side != PrecondSide::Flexible && !seed &&
          !refresh) {
        // An exactly zero update leaves x and the recycled space as they
        // were, so the next cycle replays this one from an identical state
        // (the restart is deterministic for a fixed preconditioner):
        // provably wedged, so stop now.
        st.status = SolveStatus::Stagnated;
        break;
      }
    }
    if (seed && s > 0) {
      // Harmonic Ritz deflation seeds U_k, C_k (lines 16-20).
      obs::ScopedPhase sp(trace, obs::Phase::RestartEig);
      const DenseMatrix<T> pk = ctx.harmonic_ritz_vectors(cycle.qr, cycle.hbar, s, std::min(kp, s));
      const index_t k_eff = pk.cols();
      // [Q, R] = qr(Hbar * Pk); C = V_{m+1} Q; U = basis * Pk * R^{-1}.
      DenseMatrix<T> hp((cycle.steps + 1) * p, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1),
              MatrixView<const T>(cycle.hbar.data(), (cycle.steps + 1) * p, s, cycle.hbar.ld()),
              pk.view(), T(0), hp.view());
      HouseholderQR<T> hq(copy_of(hp));
      const DenseMatrix<T> q = hq.q_thin();
      const DenseMatrix<T> rq = hq.r();
      c_.resize(n, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1),
              MatrixView<const T>(cycle.v.data(), n, (cycle.steps + 1) * p, cycle.v.ld()), q.view(),
              T(0), c_.view(), ex);
      u_.resize(n, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1), cycle.update_basis(side, n, s), pk.view(), T(0), u_.view(), ex);
      trsm_right_upper<T>(rq.view(), u_.view(), ex);
    }
    // Recompute the true residual for the EPS test (lines 15 and 29).
    // A cycle that spent the budget without its estimates converging ends
    // the solve either way, so it skips the extra operator apply (a
    // GmresSmoother with s steps costs s + 1 applies, not s + 2).
    if (st.iterations < opts_.max_iterations || cycle.hit_tolerance) {
      ctx.residual(b, x, r.view(), scratch);
      ctx.norms(r.view(), rnorm.data());
      if (!detail::finite_norms(rnorm.data(), p)) {
        st.status = SolveStatus::NonFiniteResidual;
        break;
      }
      if (converged()) {
        st.converged = true;
        break;
      }
    }
    if (s == 0) {
      st.status = SolveStatus::Stagnated;
      break;
    }

    if (refresh) {
      // Lines 31-38: refresh the recycled space through the generalized
      // eigenproblem T z = theta W z.
      const index_t vcols = (cycle.steps + 1) * p;  // columns of the V basis
      const index_t rows = kcur + vcols;
      const index_t cols = kcur + s;
      // Scale U columns to unit norm (line 32; one fused reduction).
      // The norms run before the RestartEig scope opens so phase scopes
      // stay non-nested.
      std::vector<Real> unorm(static_cast<size_t>(kcur));
      ctx.norms(u_.view(), unorm.data());
      obs::ScopedPhase sp_eig(trace, obs::Phase::RestartEig);
      for (index_t c = 0; c < kcur; ++c) {
        const T inv = scalar_traits<T>::from_real(Real(1) / std::max(unorm[size_t(c)], Real(1e-300)));
        scal<T>(n, inv, u_.col(c));
      }
      // G = [[D_k, E], [0, Hbar]] with D_k = diag(1/||u_c||) so that
      // op([U_s, basis]) = [C, V] G.
      DenseMatrix<T> g(rows, cols);
      for (index_t c = 0; c < kcur; ++c)
        g(c, c) = scalar_traits<T>::from_real(Real(1) / std::max(unorm[size_t(c)], Real(1e-300)));
      for (index_t j = 0; j < s; ++j) {
        for (index_t i = 0; i < kcur; ++i) g(i, kcur + j) = cycle.e(i, j);
        for (index_t i = 0; i < vcols; ++i) g(kcur + i, kcur + j) = cycle.hbar(i, j);
      }
      DenseMatrix<T> tmat(cols, cols);
      gemm<T>(Trans::C, Trans::N, T(1), g.view(), g.view(), T(0), tmat.view());
      DenseMatrix<T> wmat(cols, cols);
      if (opts_.strategy == RecycleStrategy::B) {
        // Eq. 3b: W = G^H [I; 0] — the first `cols` rows of G, conjugated.
        for (index_t j = 0; j < cols; ++j)
          for (index_t i = 0; i < cols; ++i) wmat(i, j) = conj(g(j, i));
      } else {
        // Eq. 3a: W = G^H [[C^H U, 0], [V^H U, I]]; the [C V]^H U block
        // costs one extra global reduction.
        DenseMatrix<T> inner_mat(rows, cols);
        DenseMatrix<T> cu(rows, kcur);
        // [C V]^H U in two gemms sharing one reduction.
        gemm<T>(Trans::C, Trans::N, T(1), c_.view(), u_.view(), T(0),
                cu.block(0, 0, kcur, kcur), ex);
        gemm<T>(Trans::C, Trans::N, T(1),
                MatrixView<const T>(cycle.v.data(), n, vcols, cycle.v.ld()), u_.view(), T(0),
                cu.block(kcur, 0, vcols, kcur), ex);
        // Count-only: the time already lands in the enclosing RestartEig.
        ctx.reduce(1, rows * kcur * 8);
        copy_into<T>(MatrixView<const T>(cu.data(), rows, kcur, cu.ld()),
                     inner_mat.block(0, 0, rows, kcur));
        for (index_t j = 0; j < s; ++j) inner_mat(kcur + j, kcur + j) = T(1);
        gemm<T>(Trans::C, Trans::N, T(1), g.view(), inner_mat.view(), T(0), wmat.view());
      }
      // A failed pencil keeps the leading columns of [U, basis], still
      // re-orthonormalized below.
      const DenseMatrix<T> pk = ctx.deflation_vectors(tmat, wmat, std::min(kp, cols),
                                                      "deflation pencil eigensolve failed");
      const index_t knew = pk.cols();
      // [Q, R] = qr(G Pk); C = [C V] Q; U = [U basis] Pk R^{-1}.
      DenseMatrix<T> gp(rows, knew);
      gemm<T>(Trans::N, Trans::N, T(1), g.view(), pk.view(), T(0), gp.view());
      HouseholderQR<T> hq(copy_of(gp));
      const DenseMatrix<T> q = hq.q_thin();
      const DenseMatrix<T> rq = hq.r();
      DenseMatrix<T> cnew(n, knew);
      DenseMatrix<T> cv(n, rows);
      copy_into<T>(c_.view(), cv.block(0, 0, n, kcur));
      copy_into<T>(MatrixView<const T>(cycle.v.data(), n, vcols, cycle.v.ld()),
                   cv.block(0, kcur, n, vcols));
      gemm<T>(Trans::N, Trans::N, T(1), cv.view(), q.view(), T(0), cnew.view(), ex);
      DenseMatrix<T> ub(n, cols);
      copy_into<T>(u_.view(), ub.block(0, 0, n, kcur));
      copy_into<T>(cycle.update_basis(side, n, s), ub.block(0, kcur, n, s));
      DenseMatrix<T> unew(n, knew);
      gemm<T>(Trans::N, Trans::N, T(1), ub.view(), pk.view(), T(0), unew.view(), ex);
      trsm_right_upper<T>(rq.view(), unew.view(), ex);
      c_ = std::move(cnew);
      u_ = std::move(unew);
    }
  }
  };
  return detail::run_solve<T>(method_, a, m, b, x, opts_, comm,
                              [&](detail::SolveContext<T>& ctx) {
                                body(ctx);
                                ctx.true_residual_check(b, x);
                              });
}

template <class T>
void GcroDr<T>::install_recycled(DenseMatrix<T> u, DenseMatrix<T> c) {
  BKR_REQUIRE(u.rows() > 0 && u.cols() > 0 && u.rows() == c.rows() && u.cols() == c.cols(),
              "u.rows", u.rows(), "u.cols", u.cols(), "c.rows", c.rows(), "c.cols", c.cols());
  u_ = std::move(u);
  c_ = std::move(c);
  // solves_ stays untouched: the first solve still sees matrix_changed and
  // requalifies the seeded space through the distributed QR.
}

template class GcroDr<double>;
template class GcroDr<std::complex<double>>;

}  // namespace bkr
