#include "core/cg.hpp"

#include <algorithm>
#include <cmath>

#include "core/krylov_detail.hpp"

namespace bkr {

namespace {

template <class T>
void cg_body(detail::SolveContext<T>& ctx, MatrixView<const T> b, MatrixView<T> x) {
  using Real = real_t<T>;
  const SolverOptions& opts = ctx.opts;
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;
  const index_t n = b.rows(), p = b.cols();
  // Sharded solves route every synchronization through the explicit tree
  // combine; the fold shape is shard-count independent (DESIGN.md §13).
  const bool tree = opts.shards > 0;
  auto cdot = [&](const T* u, const T* v) {
    return tree ? tree_dot<T>(n, u, v, ex) : dot<T>(n, u, v, ex);
  };

  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  ctx.norms(b, bnorm.data());
  for (auto& v : bnorm)
    if (v == Real(0)) v = Real(1);
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p), z(n, p), q(n, p), d(n, p);
  ctx.residual(b, x, r.view(), z, PrecondSide::None);
  ctx.norms(r.view(), rnorm.data());
  if (opts.record_history)
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
  if (!detail::finite_norms(bnorm.data(), p) || !detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }

  ctx.precondition(r.view(), z.view());
  copy_into<T>(MatrixView<const T>(z.data(), n, p, z.ld()), d.view());
  std::vector<T> rho(static_cast<size_t>(p)), rho_old(static_cast<size_t>(p));
  ctx.reduction({p * 8}, [&] {
    for (index_t c = 0; c < p; ++c) rho[size_t(c)] = cdot(r.col(c), z.col(c));
  });

  auto converged = [&] {
    for (index_t c = 0; c < p; ++c)
      if (rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) return false;
    return true;
  };
  // A lane whose search direction exposed an indefinite or non-finite
  // curvature is frozen: it can make no further progress and would
  // otherwise loop to max_iterations.
  std::vector<char> lane_dead(static_cast<size_t>(p), 0);
  auto live_work = [&] {
    for (index_t c = 0; c < p; ++c)
      if (lane_dead[size_t(c)] == 0 && rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) return true;
    return false;
  };

  obs::IterationEvent ev;
  if (trace != nullptr) ev.residuals.reserve(static_cast<size_t>(p));
  if (opts.record_history) {
    const size_t hint = static_cast<size_t>(std::min<index_t>(opts.max_iterations, 256)) + 1;
    for (index_t c = 0; c < p; ++c) st.history[size_t(c)].reserve(hint);
  }

  BKR_HOT_LOOP while (live_work() && st.iterations < opts.max_iterations) {
    detail::poll_cancel(opts);
    ctx.apply_op(MatrixView<const T>(d.data(), n, p, d.ld()), q.view());
    // Fused alpha = rho / (d, q) and (later) residual norms: two global
    // reductions, counted by the scope. The interleaved axpy updates ride
    // in the same span (separating them would split every column loop).
    ctx.reduction({p * 8, p * 8}, [&] {
      for (index_t c = 0; c < p; ++c) {
        if (lane_dead[size_t(c)] != 0) continue;
        const T dq = cdot(d.col(c), q.col(c));
        const Real dqr = real_part(dq);
        if (!std::isfinite(static_cast<double>(dqr)) || dqr < Real(0)) {
          // Indefinite operator (negative curvature) or numerical poison.
          lane_dead[size_t(c)] = 1;
          st.status = std::isfinite(static_cast<double>(dqr)) ? SolveStatus::Breakdown
                                                              : SolveStatus::NonFiniteResidual;
          continue;
        }
        if (dq == T(0)) continue;  // converged/breakdown lane
        const T alpha = rho[size_t(c)] / dq;
        axpy<T>(n, alpha, d.col(c), x.col(c));
        axpy<T>(n, -alpha, q.col(c), r.col(c));
      }
      if (tree) {
        tree_column_norms<T>(r.view(), rnorm.data(), ex);
      } else {
        column_norms<T>(r.view(), rnorm.data(), ex);
      }
    });
    ++st.iterations;
    for (index_t c = 0; c < p; ++c) {
      if (opts.record_history)
        st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
      if (rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) ++st.per_rhs_iterations[size_t(c)];
    }
    if (trace != nullptr) {
      ev.cycle = 1;
      ev.iteration = st.iterations;
      ev.basis_size = p;
      ev.residuals.resize(size_t(p));
      for (index_t c = 0; c < p; ++c)
        ev.residuals[size_t(c)] = rnorm[size_t(c)] / bnorm[size_t(c)];
      trace->iteration(ev);
    }
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (converged()) break;
    ctx.precondition(r.view(), z.view());
    std::swap(rho, rho_old);
    ctx.reduction({p * 8}, [&] {
      for (index_t c = 0; c < p; ++c) rho[size_t(c)] = cdot(r.col(c), z.col(c));
    });
    for (index_t c = 0; c < p; ++c) {
      const T beta = (rho_old[size_t(c)] == T(0)) ? T(0) : rho[size_t(c)] / rho_old[size_t(c)];
      for (index_t i = 0; i < n; ++i) d(i, c) = z(i, c) + beta * d(i, c);
    }
  }
  st.converged = detail::finite_norms(rnorm.data(), p) && converged();
  // The CG recursion can be lied to by a faulted operator: the recursive
  // residual drifts away from b - A x.
  ctx.true_residual_check(b, x, bnorm.data());
}

}  // namespace

template <class T>
SolveStats cg(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
              MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  return detail::run_solve<T>("cg", a, m, b, x, opts, comm,
                              [&](detail::SolveContext<T>& ctx) { cg_body<T>(ctx, b, x); });
}

template SolveStats cg<double>(const LinearOperator<double>&, Preconditioner<double>*,
                               MatrixView<const double>, MatrixView<double>, const SolverOptions&,
                               CommModel*);
template SolveStats cg<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                             Preconditioner<std::complex<double>>*,
                                             MatrixView<const std::complex<double>>,
                                             MatrixView<std::complex<double>>,
                                             const SolverOptions&, CommModel*);

}  // namespace bkr
