#include "core/session.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace bkr {

namespace {

constexpr const char* kMethodNames[kSessionMethodCount] = {
    "cg", "block_cg", "block_gmres", "pseudo_block_gmres", "lgmres", "gcrodr", "pseudo_gcrodr",
};

// Fold a per-column single-RHS SolveStats into the block-shaped record a
// session solve returns: iteration-like counters take the worst column
// (the block-iteration analogue), work counters and time add up, and the
// per-column diagnostics keep one slot per RHS.
void merge_column(SolveStats& acc, const SolveStats& col) {
  acc.converged = acc.converged && col.converged;
  if (!col.converged) acc.status = col.status;
  acc.recoveries += col.recoveries;
  acc.iterations = std::max(acc.iterations, col.iterations);
  acc.cycles = std::max(acc.cycles, col.cycles);
  acc.reductions += col.reductions;
  acc.operator_applies += col.operator_applies;
  acc.precond_applies += col.precond_applies;
  acc.seconds += col.seconds;
  acc.history.push_back(col.history.empty() ? std::vector<double>{} : col.history.front());
  acc.per_rhs_iterations.push_back(col.iterations);
}

// Attach the session-owned workspace before the config is stored (and
// before gcro_/pgcro_ copy the options), keeping a caller-attached
// workspace if one is already present.
SessionConfig bind_workspace(SessionConfig config, SolverWorkspaceBase* ws) {
  if (config.options.workspace == nullptr) config.options.workspace = ws;
  return config;
}

}  // namespace

const char* session_method_name(SessionMethod m) {
  const int i = static_cast<int>(m);
  return (i >= 0 && i < kSessionMethodCount) ? kMethodNames[i] : "unknown";
}

template <class T>
SolverSession<T>::SolverSession(const CsrMatrix<T>& a, Preconditioner<T>* m, SessionConfig config,
                                CommModel* comm)
    : a_(&a),
      m_(m),
      cfg_(bind_workspace(std::move(config), &ws_)),
      comm_(comm),
      op_(a, comm, cfg_.options.exec),
      gcro_(cfg_.options),
      pgcro_(cfg_.options) {
  BKR_REQUIRE(a.rows() == a.cols() && a.rows() > 0, "rows", a.rows(), "cols", a.cols());
  BKR_REQUIRE(m == nullptr || m->n() == a.rows(), "m.n", m == nullptr ? index_t(0) : m->n(),
              "rows", a.rows());
  BKR_REQUIRE(cfg_.options.recycle >= 0, "recycle", cfg_.options.recycle);
  if (cfg_.options.shards > 0) {
    // The sharded operator attaches its shard count to the comm model; a
    // monolithic session clears any count a previous binding left behind.
    sharded_ = std::make_unique<ShardedOperator<T>>(a, cfg_.options.shards, comm,
                                                    cfg_.options.exec, cfg_.options.fault);
  } else if (comm != nullptr) {
    comm->set_shards(0);
  }
  key_.fingerprint = operator_fingerprint(a);
  key_.method = std::uint32_t(cfg_.method);
  key_.scalar = is_complex_v<T> ? 1 : 0;
  // k = 0 runs the recycling engines as GMRES: nothing to warm-start.
  if (cfg_.cache != nullptr && session_method_recycles(cfg_.method) &&
      cfg_.options.recycle > 0) {
    RecycleSpace space;
    if (cfg_.cache->fetch(key_, &space, cfg_.options.trace)) {
      DenseMatrix<T> u, c;
      if (space.unpack(&u, &c)) {
        if (cfg_.method == SessionMethod::GcroDr) {
          gcro_.install_recycled(std::move(u), std::move(c));
          warm_ = true;
        } else if (space.lanes > 0) {
          pgcro_.install_recycled(std::move(u), std::move(c), space.lanes);
          warm_ = true;
        }
      }
    }
  }
}

template <class T>
SolverSession<T>::~SolverSession() {
  if (cfg_.store_on_destroy) flush();
}

template <class T>
bool SolverSession<T>::flush() {
  if (cfg_.cache == nullptr || !session_method_recycles(cfg_.method)) return false;
  if (cfg_.method == SessionMethod::GcroDr) {
    if (!gcro_.has_recycled_space()) return false;
    cfg_.cache->store(key_, RecycleSpace::pack(gcro_.recycled_u(), gcro_.recycled_c(), 0),
                      cfg_.options.trace);
    return true;
  }
  if (!pgcro_.has_recycled_space()) return false;
  cfg_.cache->store(
      key_,
      RecycleSpace::pack(pgcro_.recycled_u(), pgcro_.recycled_c(), pgcro_.recycle_lanes()),
      cfg_.options.trace);
  return true;
}

template <class T>
SolveStats SolverSession<T>::solve(MatrixView<const T> b, MatrixView<T> x) {
  BKR_REQUIRE(b.rows() == a_->rows() && x.rows() == a_->rows() && b.cols() == x.cols() &&
                  b.cols() > 0,
              "b.rows", b.rows(), "x.rows", x.rows(), "b.cols", b.cols(), "x.cols", x.cols());
  // A session binds one operator for its whole life, so every solve after
  // the first runs the sequence fast path (new_matrix = false); the first
  // solve keeps new_matrix = true so a warm-start space installed from the
  // cache is requalified before use.
  const bool first = stats_.solves == 0;
  SolveStats st;
  switch (cfg_.method) {
    case SessionMethod::Cg:
      st = cg<T>(oper(), m_, b, x, cfg_.options, comm_);
      break;
    case SessionMethod::BlockCg:
      st = block_cg<T>(oper(), m_, b, x, cfg_.options, comm_);
      break;
    case SessionMethod::BlockGmres:
      st = block_gmres<T>(oper(), m_, b, x, cfg_.options, comm_);
      break;
    case SessionMethod::PseudoBlockGmres:
      st = pseudo_block_gmres<T>(oper(), m_, b, x, cfg_.options, comm_);
      break;
    case SessionMethod::Lgmres:
      st = solve_lgmres(b, x);
      break;
    case SessionMethod::GcroDr:
      st = gcro_.solve(oper(), m_, b, x, comm_, first);
      break;
    case SessionMethod::PseudoGcroDr:
      st = pgcro_.solve(oper(), m_, b, x, comm_, first);
      break;
  }
  stats_.accumulate(st);
  return st;
}

// LGMRES has a single-RHS entry point; a session batch runs the columns
// back to back (each column's augmentation space starts fresh — the
// method does not carry state across systems, section II-C).
template <class T>
SolveStats SolverSession<T>::solve_lgmres(MatrixView<const T> b, MatrixView<T> x) {
  const index_t n = a_->rows(), p = b.cols();
  if (p == 1) {
    std::vector<T> bc(b.col(0), b.col(0) + n), xc(x.col(0), x.col(0) + n);
    const SolveStats st = lgmres<T>(oper(), m_, bc, xc, cfg_.options, comm_);
    std::copy(xc.begin(), xc.end(), x.col(0));
    return st;
  }
  SolveStats acc;
  acc.converged = true;
  acc.status = SolveStatus::Converged;
  for (index_t c = 0; c < p; ++c) {
    std::vector<T> bc(b.col(c), b.col(c) + n), xc(x.col(c), x.col(c) + n);
    const SolveStats st = lgmres<T>(oper(), m_, bc, xc, cfg_.options, comm_);
    std::copy(xc.begin(), xc.end(), x.col(c));
    merge_column(acc, st);
  }
  if (acc.converged) acc.status = SolveStatus::Converged;
  return acc;
}

template class SolverSession<double>;
template class SolverSession<std::complex<double>>;

}  // namespace bkr
