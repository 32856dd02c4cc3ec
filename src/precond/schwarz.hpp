// Overlapping Schwarz preconditioners: ASM, RAS, and the paper's
// one-level ORAS (eq. 6).
//
// The matrix graph is partitioned into N subdomains (SCOTCH stand-in),
// grown by `overlap` layers (the T_i^delta construction of section V-A).
// Each subdomain's local matrix is factored with the sparse direct solver;
// one application performs N independent local multi-RHS solves — a block
// of p RHS is one forward elimination + backward substitution per
// subdomain (the property fig. 6 quantifies) — combined as:
//   ASM :  z = sum_i R_i^T        B_i^{-1} R_i r
//   RAS :  z = sum_i R_i^T D_i    B_i^{-1} R_i r     (D_i Boolean PoU)
//   ORAS:  RAS with the local Dirichlet matrices replaced by matrices
//          with an impedance (optimized Robin) term on interface rows —
//          algebraically, B_i = A|_i + i*beta*|diag| (complex problems)
//          or + beta*|diag| (real) on rows cut by the decomposition.
//
// Each subdomain keeps its overlapping set in the order of its factor, so
// apply() gathers the residual straight into a row-interleaved solve panel
// and scatters from it. Panels are per lane and sized at set-up to the
// largest subdomain; the scatter-add runs in subdomain order, so z does
// not depend on the lane count.
//
// Per-subdomain setup/apply times are recorded and reduced as both a sum
// (the single-node cost) and a max (the critical path of an ideal
// distributed run) — the basis of the fig. 7 scaling reproduction.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/contracts.hpp"
#include "core/operator.hpp"
#include "direct/factor.hpp"
#include "sparse/partition.hpp"

namespace bkr {

enum class SchwarzKind { Asm, Ras, Oras };

struct SchwarzOptions {
  index_t subdomains = 4;
  index_t overlap = 1;         // delta
  SchwarzKind kind = SchwarzKind::Ras;
  double impedance = 0.0;      // beta of the ORAS transmission condition
  FactorOrdering ordering = FactorOrdering::NestedDissection;
  bool parallel = true;        // run local solves on the thread pool
};

struct SchwarzStats {
  double setup_seconds_sum = 0;   // total local factorization work
  double setup_seconds_max = 0;   // critical path across subdomains
  double apply_seconds_sum = 0;   // accumulated over all apply() calls
  double apply_seconds_max = 0;   // accumulated critical path
  index_t applications = 0;
  index_t factor_nnz_total = 0;
  index_t largest_subdomain = 0;
};

template <class T>
class SchwarzPreconditioner final : public Preconditioner<T> {
 public:
  SchwarzPreconditioner(const CsrMatrix<T>& a, SchwarzOptions opts);

  [[nodiscard]] index_t n() const override { return n_; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override;

  // Snapshot of the accumulated counters (thread-safe; apply() may be
  // running concurrently on other threads).
  [[nodiscard]] SchwarzStats stats() const;
  [[nodiscard]] index_t subdomains() const { return index_t(locals_.size()); }

 private:
  struct Local {
    std::vector<index_t> rows;    // global indices of the overlapping set, factor order
    std::vector<double> weights;  // partition of unity, factor order
    std::unique_ptr<SparseLDLT<T>> factor;
  };
  // Working memory of one apply(): a row-interleaved panel per lane and
  // the per-subdomain timings. Applies running concurrently on one
  // preconditioner each check out their own.
  struct Scratch {
    std::vector<std::vector<T>> panels;
    std::vector<double> times;
  };

  std::unique_ptr<Scratch> checkout_scratch(index_t lanes, index_t p);
  void return_scratch(std::unique_ptr<Scratch> scratch);

  index_t n_ = 0;
  SchwarzOptions opts_;
  std::vector<Local> locals_;
  index_t largest_ = 0;  // rows of the largest subdomain
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Scratch>> spare_ BKR_GUARDED_BY(scratch_mutex_);
  mutable std::mutex stats_mutex_;
  SchwarzStats stats_ BKR_GUARDED_BY(stats_mutex_);
};

extern template class SchwarzPreconditioner<double>;
extern template class SchwarzPreconditioner<std::complex<double>>;

}  // namespace bkr
