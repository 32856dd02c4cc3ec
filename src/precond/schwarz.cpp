#include "precond/schwarz.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/graph.hpp"

namespace bkr {

template <class T>
SchwarzPreconditioner<T>::SchwarzPreconditioner(const CsrMatrix<T>& a, SchwarzOptions opts)
    : n_(a.rows()), opts_(opts) {
  const Graph g = adjacency_of(a);
  const PouKind pou = (opts_.kind == SchwarzKind::Asm) ? PouKind::Multiplicity : PouKind::Boolean;
  OverlappingDecomposition dec = make_decomposition(g, opts_.subdomains, opts_.overlap, pou);
  locals_.resize(static_cast<size_t>(opts_.subdomains));
  // Per-lane accumulation slots: each subdomain build writes only its own
  // entry, so the lane bodies never touch stats_mutex_; everything is
  // merged once after the parallel_for (hot-path-lock discipline).
  std::vector<double> setup_times(static_cast<size_t>(opts_.subdomains), 0.0);
  std::vector<index_t> factor_nnz(static_cast<size_t>(opts_.subdomains), 0);
  std::vector<index_t> sub_rows(static_cast<size_t>(opts_.subdomains), 0);

  auto build_one = [&](index_t i) BKR_COLD {
    Timer timer;
    Local local;
    local.rows = std::move(dec.rows[size_t(i)]);
    if (opts_.kind == SchwarzKind::Asm) {
      // ASM adds overlapping contributions without weighting.
      local.weights.assign(local.rows.size(), 1.0);
    } else {
      local.weights = std::move(dec.pou[size_t(i)]);
    }
    CsrMatrix<T> sub = extract_submatrix(a, local.rows);
    if (opts_.kind == SchwarzKind::Oras && opts_.impedance != 0.0) {
      // Impedance (optimized Robin) transmission condition: perturb the
      // diagonal of rows whose global stencil is cut by the subdomain
      // boundary. Imaginary shift for complex (Maxwell) problems, real
      // shift otherwise.
      std::vector<char> inside(static_cast<size_t>(n_), 0);
      for (const index_t row : local.rows) inside[size_t(row)] = 1;
      auto& values = sub.values();
      for (index_t li = 0; li < sub.rows(); ++li) {
        const index_t gi = local.rows[size_t(li)];
        bool cut = false;
        for (index_t l = a.rowptr()[size_t(gi)]; l < a.rowptr()[size_t(gi) + 1] && !cut; ++l)
          cut = inside[size_t(a.colind()[size_t(l)])] == 0;
        if (!cut) continue;
        for (index_t l = sub.rowptr()[size_t(li)]; l < sub.rowptr()[size_t(li) + 1]; ++l)
          if (sub.colind()[size_t(l)] == li) {
            const auto mag = abs_val(values[size_t(l)]);
            if constexpr (is_complex_v<T>) {
              // Absorbing (impedance) condition: the imaginary part must
              // carry the same sign as the volume dissipation of the
              // time-harmonic operator (-i here, e^{-i omega t} convention).
              values[size_t(l)] -= T(0, opts_.impedance * mag);
            } else {
              values[size_t(l)] += T(opts_.impedance * mag);
            }
          }
      }
    }
    local.factor = std::make_unique<SparseLDLT<T>>(sub, opts_.ordering);
    // Reorder the overlapping set into factor order for apply().
    const std::vector<index_t>& perm = local.factor->perm();
    std::vector<index_t> rows(perm.size());
    std::vector<double> weights(perm.size());
    for (size_t k = 0; k < perm.size(); ++k) {
      rows[k] = local.rows[size_t(perm[k])];
      weights[k] = local.weights[size_t(perm[k])];
    }
    local.rows = std::move(rows);
    local.weights = std::move(weights);
    setup_times[size_t(i)] = timer.seconds();
    factor_nnz[size_t(i)] = local.factor->factor_nnz();
    sub_rows[size_t(i)] = index_t(local.rows.size());
    // Each iteration owns its slot, so the move needs no lock.
    locals_[size_t(i)] = std::move(local);
  };
  if (opts_.parallel) {
    ThreadPool::global().parallel_for(opts_.subdomains, build_one);
  } else {
    for (index_t i = 0; i < opts_.subdomains; ++i) build_one(i);
  }
  for (const index_t rows : sub_rows) largest_ = std::max(largest_, rows);
  const index_t lanes = opts_.parallel ? std::min(ThreadPool::global().size(), opts_.subdomains) : 1;
  return_scratch(checkout_scratch(lanes, 1));
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.largest_subdomain = largest_;
  for (index_t i = 0; i < opts_.subdomains; ++i) {
    stats_.setup_seconds_sum += setup_times[size_t(i)];
    stats_.setup_seconds_max = std::max(stats_.setup_seconds_max, setup_times[size_t(i)]);
    stats_.factor_nnz_total += factor_nnz[size_t(i)];
  }
}

// Once per apply, amortized over nsub local direct solves. The panels only
// grow, so steady-state applies of one width allocate nothing; a fresh
// Scratch is built only while another apply holds the spare one.
template <class T>
BKR_COLD auto SchwarzPreconditioner<T>::checkout_scratch(index_t lanes, index_t p)
    -> std::unique_ptr<Scratch> {
  std::unique_ptr<Scratch> scratch;
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!spare_.empty()) {
      scratch = std::move(spare_.back());
      spare_.pop_back();
    }
  }
  if (!scratch) scratch = std::make_unique<Scratch>();
  if (index_t(scratch->panels.size()) < lanes) scratch->panels.resize(size_t(lanes));
  for (auto& panel : scratch->panels)
    if (index_t(panel.size()) < largest_ * p) panel.resize(size_t(largest_ * p));
  scratch->times.resize(locals_.size());
  return scratch;
}

template <class T>
BKR_COLD void SchwarzPreconditioner<T>::return_scratch(std::unique_ptr<Scratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mutex_);
  spare_.push_back(std::move(scratch));
}

template <class T>
void SchwarzPreconditioner<T>::apply(MatrixView<const T> r, MatrixView<T> z) {
  BKR_REQUIRE(r.rows() == n_, "r.rows", r.rows(), "n", n_);
  BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
  const index_t p = r.cols();
  z.set_zero();
  const index_t nsub = index_t(locals_.size());
  const index_t lanes = opts_.parallel ? std::min(ThreadPool::global().size(), nsub) : 1;
  std::unique_ptr<Scratch> scratch = checkout_scratch(lanes, p);
  // Gather r into subdomain i's factor order, row-interleaved, and solve.
  auto solve_one = [&](index_t i, T* x) {
    Timer timer;
    const Local& local = locals_[size_t(i)];
    const index_t ni = index_t(local.rows.size());
    for (index_t k = 0; k < ni; ++k)
      for (index_t c = 0; c < p; ++c) x[k * p + c] = r(local.rows[size_t(k)], c);
    local.factor->solve_factor_order(x, p);
    scratch->times[size_t(i)] = timer.seconds();
  };
  // Waves of one subdomain per lane. The local solves of a wave are
  // independent; the weighted scatter-add then runs in subdomain order to
  // keep the (shared-memory) sum deterministic.
  for (index_t i0 = 0; i0 < nsub; i0 += lanes) {
    const index_t wave = std::min(lanes, nsub - i0);
    if (wave == 1) {
      solve_one(i0, scratch->panels[0].data());
    } else {
      ThreadPool::global().parallel_for(
          wave, [&](index_t t) { solve_one(i0 + t, scratch->panels[size_t(t)].data()); });
    }
    for (index_t t = 0; t < wave; ++t) {
      const Local& local = locals_[size_t(i0 + t)];
      const T* x = scratch->panels[size_t(t)].data();
      for (index_t k = 0; k < index_t(local.rows.size()); ++k) {
        const T w = scalar_traits<T>::from_real(real_t<T>(local.weights[size_t(k)]));
        for (index_t c = 0; c < p; ++c)
          z(local.rows[size_t(k)], c) += detail::cmul(w, x[k * p + c]);
      }
    }
  }
  double sum = 0, mx = 0;
  for (const double t : scratch->times) {
    sum += t;
    mx = std::max(mx, t);
  }
  return_scratch(std::move(scratch));
  // Once-per-apply bookkeeping, amortized over nsub local direct solves
  // and uncontended from the (serial) solver loop — cold by design.
  BKR_COLD {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.apply_seconds_sum += sum;
    stats_.apply_seconds_max += mx;
    ++stats_.applications;
  }
}

template <class T>
SchwarzStats SchwarzPreconditioner<T>::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

template class SchwarzPreconditioner<double>;
template class SchwarzPreconditioner<std::complex<double>>;

}  // namespace bkr
