// Pseudo-block GCRO-DR: p independent single-vector GCRO-DR instances
// advanced in lockstep with fused kernels (one SpMM / one batched
// reduction per global step), each lane owning its own k-column recycled
// subspace. This is the method of the paper's fig. 8 alternatives 5-6;
// with k = 0 it is pseudo-block GMRES.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/gcrodr.hpp"
#include "core/krylov_detail.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slot kWsProjectScratch is detail::project's).
enum : int { kWsVin = kWsSolverBase, kWsUpdateT, kWsHcol };  // mats_
enum : int { kWsLaneY = kWsSolverBase };                     // vecs_

// Per-RHS lane of a fused GCRO-DR run (single-vector, contiguous storage).
template <class T>
struct Lane {
  using Real = real_t<T>;

  DenseMatrix<T> v;     // n x (m+1) Arnoldi basis
  DenseMatrix<T> z;     // flexible basis
  DenseMatrix<T> hbar;  // (m+1) x m
  DenseMatrix<T> e;     // k x m coupling with the recycled space
  std::vector<T> ghat;
  IncrementalQR<T> qr;
  DenseMatrix<T> u, c;  // n x k_l recycled space (persists across solves)

  index_t steps = 0;    // steps completed in the current cycle
  bool active = false;  // still iterating in the current cycle
  bool converged = false;
  Real bnorm = Real(1), rnorm = Real(0);
  std::vector<T> yc;  // C^H r at cycle start

  void start_cycle(index_t n, index_t max_steps, PrecondSide side, index_t k) {
    v.resize(n, max_steps + 1);
    if (side == PrecondSide::Flexible) z.resize(n, max_steps);
    hbar.resize(max_steps + 1, max_steps);
    if (k > 0) e.resize(k, max_steps);
    ghat.assign(static_cast<size_t>(max_steps) + 1, T(0));
    qr.reshape(max_steps + 1, max_steps);
    steps = 0;
  }

  // Least squares y over the first s columns, into `y` (size s).
  void least_squares(index_t s, std::vector<T>& y) const {
    std::copy(ghat.begin(), ghat.begin() + s, y.begin());
    for (index_t i = s - 1; i >= 0; --i) {
      T acc = y[size_t(i)];
      for (index_t cc = i + 1; cc < s; ++cc) acc -= qr.r(i, cc) * y[size_t(cc)];
      y[size_t(i)] = acc / qr.r(i, i);
    }
  }

  [[nodiscard]] const DenseMatrix<T>& update_basis(PrecondSide side) const {
    return (side == PrecondSide::Flexible) ? z : v;
  }
};

// Refresh (or seed) a lane's recycled space from the cycle data.
// `with_projection` distinguishes the first cycle (harmonic Ritz of the
// plain Hessenberg) from later cycles (generalized pencil with the
// coupling block E and the scaled U).
template <class T>
BKR_COLD void refresh_lane_recycle(detail::SolveContext<T>& ctx, Lane<T>& lane, index_t k,
                                   index_t s, bool with_projection) {
  using Real = real_t<T>;
  if (s <= 0) return;
  const index_t n = ctx.a.n();
  const KernelExecutor* const ex = ctx.ex;
  const index_t vcols = lane.steps + 1;
  const index_t kcur = with_projection ? lane.u.cols() : 0;
  const index_t rows = kcur + vcols;
  const index_t cols = kcur + s;
  // G = [[D_k, E], [0, Hbar]] (first cycle: G = Hbar).
  DenseMatrix<T> g(rows, cols);
  if (with_projection) {
    for (index_t cc = 0; cc < kcur; ++cc) {
      const Real un = std::max(norm2<T>(n, lane.u.col(cc), ex), Real(1e-300));
      scal<T>(n, scalar_traits<T>::from_real(Real(1) / un), lane.u.col(cc));
      g(cc, cc) = scalar_traits<T>::from_real(Real(1) / un);
    }
    for (index_t j = 0; j < s; ++j) {
      for (index_t i = 0; i < kcur; ++i) g(i, kcur + j) = lane.e(i, j);
      for (index_t i = 0; i < vcols; ++i) g(kcur + i, kcur + j) = lane.hbar(i, j);
    }
  } else {
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < vcols; ++i) g(i, j) = lane.hbar(i, j);
  }
  DenseMatrix<T> pk;
  const index_t knew = std::min(k, cols);
  if (!with_projection) {
    pk = ctx.harmonic_ritz_vectors(lane.qr, lane.hbar, s, knew);
  } else {
    DenseMatrix<T> tmat(cols, cols);
    gemm<T>(Trans::C, Trans::N, T(1), g.view(), g.view(), T(0), tmat.view());
    DenseMatrix<T> wmat(cols, cols);
    if (ctx.opts.strategy == RecycleStrategy::B) {
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < cols; ++i) wmat(i, j) = conj(g(j, i));
    } else {
      DenseMatrix<T> inner_mat(rows, cols);
      // [C V]^H U (k columns).
      for (index_t cc = 0; cc < kcur; ++cc) {
        for (index_t i = 0; i < kcur; ++i)
          inner_mat(i, cc) = dot<T>(n, lane.c.col(i), lane.u.col(cc), ex);
        for (index_t i = 0; i < vcols; ++i)
          inner_mat(kcur + i, cc) = dot<T>(n, lane.v.col(i), lane.u.col(cc), ex);
      }
      for (index_t j = 0; j < s; ++j) inner_mat(kcur + j, kcur + j) = T(1);
      gemm<T>(Trans::C, Trans::N, T(1), g.view(), inner_mat.view(), T(0), wmat.view());
    }
    // A failed pencil keeps the leading columns of [U, basis],
    // re-orthonormalized below.
    pk = ctx.deflation_vectors(tmat, wmat, knew, "deflation pencil eigensolve failed");
  }
  // [Q, R] = qr(G Pk); C = [C V] Q; U = [U basis] Pk R^{-1}.
  DenseMatrix<T> gp(rows, knew);
  gemm<T>(Trans::N, Trans::N, T(1), g.view(), pk.view(), T(0), gp.view());
  HouseholderQR<T> hq(copy_of(gp));
  const DenseMatrix<T> q = hq.q_thin();
  const DenseMatrix<T> rq = hq.r();
  DenseMatrix<T> cv(n, rows);
  if (kcur > 0) copy_into<T>(lane.c.view(), cv.block(0, 0, n, kcur));
  copy_into<T>(MatrixView<const T>(lane.v.data(), n, vcols, lane.v.ld()),
               cv.block(0, kcur, n, vcols));
  DenseMatrix<T> cnew(n, knew);
  gemm<T>(Trans::N, Trans::N, T(1), cv.view(), q.view(), T(0), cnew.view(), ex);
  DenseMatrix<T> ub(n, cols);
  if (kcur > 0) copy_into<T>(lane.u.view(), ub.block(0, 0, n, kcur));
  const DenseMatrix<T>& basis = lane.update_basis(ctx.side);
  copy_into<T>(MatrixView<const T>(basis.data(), n, s, basis.ld()), ub.block(0, kcur, n, s));
  DenseMatrix<T> unew(n, knew);
  gemm<T>(Trans::N, Trans::N, T(1), ub.view(), pk.view(), T(0), unew.view(), ex);
  trsm_right_upper<T>(rq.view(), unew.view(), ex);
  lane.c = std::move(cnew);
  lane.u = std::move(unew);
}

}  // namespace

template <class T>
SolveStats PseudoGcroDr<T>::solve(const LinearOperator<T>& a, Preconditioner<T>* m,
                                  MatrixView<const T> b, MatrixView<T> x, CommModel* comm,
                                  bool new_matrix) {
  using Real = real_t<T>;
  const index_t n = a.n(), p = b.cols();
  const index_t mdim = opts_.restart;
  if (opts_.recycle < 0)
    throw std::invalid_argument("PseudoGcroDr: opts.recycle (k) must be >= 0");
  // k = 0 is pseudo-block GMRES(m): every recycle step below is skipped.
  const index_t k = std::min(opts_.recycle, mdim - 1);
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  const bool had_recycle = k > 0 && u_.cols() > 0 && lanes_ == p;
  ++solves_;

  auto body = [&](detail::SolveContext<T>& ctx) {
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;
  const PrecondSide side = ctx.side;
  SolverWorkspace<T>& ws = ctx.ws;

  std::vector<Lane<T>> lanes(static_cast<size_t>(p));
  if (had_recycle) {
    for (index_t l = 0; l < p; ++l) {
      lanes[size_t(l)].u.resize(n, k);
      lanes[size_t(l)].c.resize(n, k);
      for (index_t i = 0; i < k; ++i) {
        std::copy(u_.col(i * p + l), u_.col(i * p + l) + n, lanes[size_t(l)].u.col(i));
        std::copy(c_.col(i * p + l), c_.col(i * p + l) + n, lanes[size_t(l)].c.col(i));
      }
    }
  }

  DenseMatrix<T> scratch;
  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  if (!ctx.rhs_norms(b, bnorm.data(), scratch)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p), w(n, p), ztmp(n, p);
  ctx.residual(b, x, r.view(), scratch);
  ctx.norms(r.view(), rnorm.data());
  for (index_t l = 0; l < p; ++l) {
    lanes[size_t(l)].bnorm = bnorm[size_t(l)];
    lanes[size_t(l)].rnorm = rnorm[size_t(l)];
    lanes[size_t(l)].converged = rnorm[size_t(l)] <= opts_.tol * bnorm[size_t(l)];
    if (opts_.record_history)
      st.history[size_t(l)].push_back(rnorm[size_t(l)] / bnorm[size_t(l)]);
  }
  if (!detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  auto all_converged = [&] {
    for (const auto& lane : lanes)
      if (!lane.converged) return false;
    return true;
  };

  // Batched op([every lane's U]) for the re-orthonormalization and the
  // X += U C^H r correction (fig. 1 lines 3-9, per lane, fused).
  if (had_recycle) {
    if (matrix_changed) {
      DenseMatrix<T> uall(n, k * p), wall(n, k * p);
      for (index_t l = 0; l < p; ++l)
        copy_into<T>(lanes[size_t(l)].u.view(), uall.block(0, l * k, n, k));
      // U lives in solution space, so a flexible solve applies A alone.
      DenseMatrix<T> tmp(n, k * p);
      ctx.apply_preconditioned(uall.view(), tmp.view(), wall.view(),
                               side == PrecondSide::Flexible ? PrecondSide::None : side);
      // Per-lane CholQR of its k columns (one fused reduction).
      obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
      ctx.reduce(1, p * k * k * 8);
      for (index_t l = 0; l < p; ++l) {
        auto wl = wall.block(0, l * k, n, k);
        DenseMatrix<T> rq(k, k);
        if (!cholqr<T>(wl, rq.view(), ex)) householder_tsqr<T>(wl, rq.view());
        copy_into<T>(MatrixView<const T>(wl.data(), n, k, wl.ld()), lanes[size_t(l)].c.view());
        trsm_right_upper<T>(rq.view(), lanes[size_t(l)].u.view(), ex);
      }
    }
    // X += U C^H r; r -= C C^H r (fused dots: one reduction).
    DenseMatrix<T> t(n, p);
    t.set_zero();
    ctx.reduction({p * k * 8}, [&] {
      for (index_t l = 0; l < p; ++l) {
        auto& lane = lanes[size_t(l)];
        if (lane.converged) continue;
        std::vector<T> y0(static_cast<size_t>(k));
        for (index_t i = 0; i < k; ++i) y0[size_t(i)] = dot<T>(n, lane.c.col(i), r.col(l), ex);
        for (index_t i = 0; i < k; ++i) {
          axpy<T>(n, y0[size_t(i)], lane.u.col(i), t.col(l));
          axpy<T>(n, -y0[size_t(i)], lane.c.col(i), r.col(l));
        }
      }
    });
    ctx.update(x, t.view(), ztmp.view());
    // The projection changed the residual: refresh norms and flags.
    ctx.norms(r.view(), rnorm.data());
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    for (index_t l = 0; l < p; ++l) {
      lanes[size_t(l)].rnorm = rnorm[size_t(l)];
      lanes[size_t(l)].converged = rnorm[size_t(l)] <= opts_.tol * bnorm[size_t(l)];
    }
  }

  // Restart cycles. Until the lanes hold recycled spaces (always, for
  // k = 0) a cycle runs m unprojected steps; after that, m - k steps
  // projected against each lane's C. Iterate-loop scratch comes from
  // workspace slots so steady-state steps stay off the allocator.
  DenseMatrix<T>& vin = ws.mat(kWsVin, n, p);
  obs::IterationEvent ev;
  if (trace != nullptr) ev.residuals.reserve(static_cast<size_t>(p));
  bool seeded = had_recycle;
  bool fatal = false;
  while (!all_converged() && st.iterations < opts_.max_iterations) {
    ++st.cycles;
    const index_t max_steps = seeded ? (mdim - k) : mdim;
    // Cycle start: each lane's v_0 = r / ||r|| (the norms of the last
    // batched residual evaluation double as the "QR" of the p residuals)
    // and, once projecting, C^H r in one fused reduction.
    for (index_t l = 0; l < p; ++l) {
      auto& lane = lanes[size_t(l)];
      lane.active = !lane.converged;
      lane.start_cycle(n, max_steps, side, seeded ? lane.u.cols() : 0);
      if (!lane.active) continue;
      const Real beta = lane.rnorm;
      const T inv = scalar_traits<T>::from_real(Real(1) / beta);
      for (index_t i = 0; i < n; ++i) lane.v(i, 0) = r(i, l) * inv;
      lane.ghat[0] = scalar_traits<T>::from_real(beta);
    }
    if (seeded) {
      ctx.reduction({p * k * 8}, [&] {
        for (index_t l = 0; l < p; ++l) {
          auto& lane = lanes[size_t(l)];
          if (!lane.active) continue;
          lane.yc.assign(static_cast<size_t>(lane.u.cols()), T(0));
          for (index_t i = 0; i < lane.u.cols(); ++i)
            lane.yc[size_t(i)] = dot<T>(n, lane.c.col(i), r.col(l), ex);
        }
      });
    }
    if (opts_.record_history)
      for (index_t l = 0; l < p; ++l)
        st.history[size_t(l)].reserve(st.history[size_t(l)].size() +
                                      static_cast<size_t>(max_steps));

    index_t j = 0;
    BKR_HOT_LOOP while (j < max_steps && st.iterations < opts_.max_iterations) {
      detail::poll_cancel(opts_);
      // Assemble the batched operator input (zeroing locked lanes so inner
      // block preconditioners never see stale data).
      vin.set_zero();
      for (index_t l = 0; l < p; ++l)
        if (lanes[size_t(l)].active)
          std::copy(lanes[size_t(l)].v.col(j), lanes[size_t(l)].v.col(j) + n, vin.col(l));
      MatrixView<T> zj = ztmp.view();
      ctx.apply_preconditioned(vin.view(), zj, w.view());
      index_t nactive = 0;
      for (const auto& lane : lanes) nactive += lane.active ? 1 : 0;
      if (nactive == 0) break;
      // Projection against each lane's C (one fused reduction).
      if (seeded) {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        ctx.reduce(1, nactive * k * 8);
        for (index_t l = 0; l < p; ++l) {
          auto& lane = lanes[size_t(l)];
          if (!lane.active) continue;
          for (index_t i = 0; i < lane.u.cols(); ++i) {
            const T ei = dot<T>(n, lane.c.col(i), w.col(l), ex);
            lane.e(i, j) = ei;
            axpy<T>(n, -ei, lane.c.col(i), w.col(l));
          }
        }
      }
      // Fused CGS projection: every lane's dots batch into one reduction
      // (MGS is counted as its j + 1 synchronizations, CGS2 adds one).
      DenseMatrix<T>& hcol = ws.mat(kWsHcol, max_steps + 2, p);  // lane l in column l
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
        for (index_t l = 0; l < p; ++l) {
          auto& lane = lanes[size_t(l)];
          if (!lane.active) continue;
          if (side == PrecondSide::Flexible) std::copy(zj.col(l), zj.col(l) + n, lane.z.col(j));
          for (index_t i = 0; i <= j; ++i) hcol(i, l) = dot<T>(n, lane.v.col(i), w.col(l), ex);
        }
        ctx.reduce_batched((opts_.ortho == Ortho::Mgs) ? (j + 1) : 1, (j + 1) * nactive * 8);
        for (index_t l = 0; l < p; ++l) {
          auto& lane = lanes[size_t(l)];
          if (!lane.active) continue;
          for (index_t i = 0; i <= j; ++i) axpy<T>(n, -hcol(i, l), lane.v.col(i), w.col(l));
          if (opts_.ortho == Ortho::Cgs2) {
            for (index_t i = 0; i <= j; ++i) {
              const T h2 = dot<T>(n, lane.v.col(i), w.col(l), ex);
              hcol(i, l) += h2;
              axpy<T>(n, -h2, lane.v.col(i), w.col(l));
            }
          }
        }
        if (opts_.ortho == Ortho::Cgs2) ctx.reduce(1, (j + 1) * nactive * 8);
      }
      // Fused normalization (the per-lane Hessenberg QR updates ride in
      // the same scope; their cost is O(m) per lane).
      ctx.reduce(1, nactive * 8);
      {
        obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
        ctx.hook(resilience::FaultSite::Orthogonalization, w.view());
        for (index_t l = 0; l < p; ++l) {
          auto& lane = lanes[size_t(l)];
          if (!lane.active) continue;
          const Real hn = norm2<T>(n, w.col(l), ex);
          hcol(j + 1, l) = scalar_traits<T>::from_real(hn);
          if (hn > Real(0)) {
            const T inv = scalar_traits<T>::from_real(Real(1) / hn);
            for (index_t i = 0; i < n; ++i) lane.v(i, j + 1) = w(i, l) * inv;
          }
          for (index_t i = 0; i < j + 2; ++i) lane.hbar(i, j) = hcol(i, l);
          lane.qr.add_column(hcol.col(l), j + 2);
          lane.qr.apply_qt_range(
              MatrixView<T>(lane.ghat.data(), index_t(lane.ghat.size()), 1,
                            index_t(lane.ghat.size())),
              j);
          lane.steps = j + 1;
          const Real est = abs_val(lane.ghat[size_t(j) + 1]);
          lane.rnorm = est;
          if (!std::isfinite(static_cast<double>(est)) ||
              !std::isfinite(static_cast<double>(hn))) {
            fatal = true;
            lane.active = false;
          }
          if (opts_.record_history) st.history[size_t(l)].push_back(est / lane.bnorm);
          if (est > opts_.tol * lane.bnorm) ++st.per_rhs_iterations[size_t(l)];
          if (est <= opts_.tol * lane.bnorm || hn == Real(0)) lane.active = false;
        }
      }
      ++j;
      ++st.iterations;
      if (trace != nullptr) {
        ev.cycle = st.cycles;
        ev.iteration = st.iterations;
        ev.basis_size = (j + 1) * p;
        ev.recycle_dim = seeded ? k : 0;
        ev.residuals.resize(size_t(p));
        for (index_t l = 0; l < p; ++l)
          ev.residuals[size_t(l)] = lanes[size_t(l)].rnorm / lanes[size_t(l)].bnorm;
        trace->iteration(ev);
      }
      if (fatal) break;
      bool any = false;
      for (const auto& lane : lanes) any |= lane.active;
      if (!any) break;
    }
    if (fatal) {
      // A poisoned lane would corrupt the shared update and the recycle
      // refresh: stop with the last consistent iterate and recycle data.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }

    // Per-lane least squares and solution update.
    DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
    bool progress = false;
    bool null_update = true;
    {
      obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
      for (index_t l = 0; l < p; ++l) {
        auto& lane = lanes[size_t(l)];
        if (lane.converged || lane.steps == 0) continue;
        const index_t s = detail::usable_columns(lane.qr, lane.steps);
        if (s == 0) continue;
        progress = true;
        std::vector<T>& y = ws.vec(kWsLaneY, s);
        lane.least_squares(s, y);
        const auto& basis = lane.update_basis(side);
        for (index_t i = 0; i < s; ++i) {
          null_update = null_update && y[size_t(i)] == T(0);
          axpy<T>(n, y[size_t(i)], basis.col(i), t.col(l));
        }
        if (seeded) {
          // Y_k = C^H r - E y (fig. 1 line 28).
          for (index_t i = 0; i < lane.u.cols(); ++i) {
            for (index_t cc = 0; cc < s; ++cc) lane.yc[size_t(i)] -= lane.e(i, cc) * y[size_t(cc)];
            null_update = null_update && lane.yc[size_t(i)] == T(0);
            axpy<T>(n, lane.yc[size_t(i)], lane.u.col(i),
                    side == PrecondSide::Flexible ? x.col(l) : t.col(l));
          }
        }
      }
    }
    if (!progress) {
      st.status = SolveStatus::Stagnated;
      break;  // no lane produced a usable direction
    }
    ctx.update(x, t.view(), ztmp.view());
    bool estimates_converged = true;
    for (const auto& lane : lanes)
      estimates_converged = estimates_converged && lane.rnorm <= opts_.tol * lane.bnorm;
    // The recycled spaces change after the first cycle, and after every
    // cycle while the matrix changes (section III-B).
    const bool refresh = k > 0 && (!seeded || matrix_changed);
    if (null_update && !estimates_converged && side != PrecondSide::Flexible && !refresh) {
      // Nothing moved, so the next cycle would replay this one: wedged.
      st.status = SolveStatus::Stagnated;
      break;
    }
    // A cycle that spent the budget without its estimates converging ends
    // the solve either way: skip the true-residual recompute.
    if (st.iterations < opts_.max_iterations || estimates_converged) {
      ctx.residual(b, x, r.view(), scratch);
      ctx.norms(r.view(), rnorm.data());
      if (!detail::finite_norms(rnorm.data(), p)) {
        // Break before refreshing the recycled spaces so they keep the last
        // consistent state.
        st.status = SolveStatus::NonFiniteResidual;
        break;
      }
      for (index_t l = 0; l < p; ++l) {
        lanes[size_t(l)].rnorm = rnorm[size_t(l)];
        lanes[size_t(l)].converged = rnorm[size_t(l)] <= opts_.tol * bnorm[size_t(l)];
      }
    }
    if (refresh) {
      obs::ScopedPhase sp(trace, obs::Phase::RestartEig);
      if (seeded) ctx.reduce(1, p * k * 8);  // fused ||u_i|| scaling norms
      for (index_t l = 0; l < p; ++l) {
        auto& lane = lanes[size_t(l)];
        if (lane.steps == 0) continue;
        const index_t s = detail::usable_columns(lane.qr, lane.steps);
        refresh_lane_recycle<T>(ctx, lane, k, s, seeded);
      }
      if (opts_.strategy == RecycleStrategy::A && seeded)
        ctx.reduce(1, p * k * 8);  // [C V]^H U of eq. 3a (fused over lanes)
    }
    seeded = k > 0;
  }

  // Persist the recycled spaces (interleaved storage).
  index_t kmin = k;
  for (const auto& lane : lanes) kmin = std::min(kmin, lane.u.cols());
  if (kmin > 0) {
    lanes_ = p;
    u_.resize(n, kmin * p);
    c_.resize(n, kmin * p);
    for (index_t l = 0; l < p; ++l)
      for (index_t i = 0; i < kmin; ++i) {
        std::copy(lanes[size_t(l)].u.col(i), lanes[size_t(l)].u.col(i) + n, u_.col(i * p + l));
        std::copy(lanes[size_t(l)].c.col(i), lanes[size_t(l)].c.col(i) + n, c_.col(i * p + l));
      }
  }
  st.converged = all_converged();
  };
  return detail::run_solve<T>(method_, a, m, b, x, opts_, comm,
                              [&](detail::SolveContext<T>& ctx) {
                                body(ctx);
                                ctx.true_residual_check(b, x);
                              });
}

template <class T>
void PseudoGcroDr<T>::install_recycled(DenseMatrix<T> u, DenseMatrix<T> c, index_t lanes) {
  BKR_REQUIRE(u.rows() > 0 && u.cols() > 0 && u.rows() == c.rows() && u.cols() == c.cols(),
              "u.rows", u.rows(), "u.cols", u.cols(), "c.rows", c.rows(), "c.cols", c.cols());
  BKR_REQUIRE(lanes > 0 && u.cols() % lanes == 0, "lanes", lanes, "u.cols", u.cols());
  u_ = std::move(u);
  c_ = std::move(c);
  lanes_ = lanes;
  // solves_ stays untouched; a first solve whose RHS count matches `lanes`
  // requalifies the space (matrix_changed path), any other count ignores it.
}

template class PseudoGcroDr<double>;
template class PseudoGcroDr<std::complex<double>>;

}  // namespace bkr
