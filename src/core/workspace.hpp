// SolverWorkspace: preallocated per-iteration temporaries for the Krylov
// solvers (DESIGN.md §11, "Hot-path discipline").
//
// The paper's scalability argument needs the per-iteration cost dominated
// by the block kernels, so the iterate loops must not touch the allocator.
// Every scratch block a solver used to construct fresh each iteration or
// cycle (Hessenberg columns, CGS2 reprojection coefficients, least-squares
// copies, direction updates) is instead acquired from a SolverWorkspace
// slot. A slot acquire has exactly the semantics of a fresh zero-
// initialized object of the requested shape — the backing storage is
// reused, the *values* are bitwise identical to the legacy allocating code
// — so solves with and without an attached workspace produce identical
// histories (asserted by tests/test_workspace.cpp).
//
// Ownership (ROADMAP item 1): a SolverSession owns one workspace for its
// whole life and threads it to every solve through
// SolverOptions::workspace, so a solve sequence reaches a steady state
// with zero per-iteration heap allocations (measured by the alloc_churn
// row of bench_kernels). One-shot entry points get a per-solve fallback
// inside detail::run_solve — still allocation-free per iteration after
// the first restart cycle, just not across solves.
#pragma once

#include <deque>
#include <vector>

#include "common/contracts.hpp"
#include "la/dense.hpp"
#include "la/qr.hpp"

namespace bkr {

// Type-erased handle carried by SolverOptions (which is scalar-agnostic).
// detail::resolve_workspace downcasts to the solve's scalar type and falls
// back to a local workspace on a mismatch, so a mis-attached workspace
// degrades to the one-shot path instead of corrupting a solve.
class SolverWorkspaceBase {
 public:
  virtual ~SolverWorkspaceBase() = default;
};

// Shared slot assignments. Slot 0 is reserved for the CGS2 reprojection
// scratch inside detail::project (called from every solver); solver bodies
// number their private slots upward from kWsSolverBase.
inline constexpr int kWsProjectScratch = 0;
inline constexpr int kWsSolverBase = 1;

template <class T>
class SolverWorkspace final : public SolverWorkspaceBase {
 public:
  // Shaped, zero-filled matrix slot: value-identical to a fresh
  // DenseMatrix<T>(rows, cols). Capacity only ever grows, so re-acquiring
  // a slot at a previously seen (or smaller) shape never allocates.
  DenseMatrix<T>& mat(int slot, index_t rows, index_t cols) {
    DenseMatrix<T>& m = at(mats_, slot);
    m.resize(rows, cols);  // bkr-lint: allow(hot-path-alloc) capacity-reusing by construction
    return m;
  }

  // Zero-filled scalar vector slot (fresh std::vector<T>(n) semantics).
  std::vector<T>& vec(int slot, index_t n) {
    std::vector<T>& v = at(vecs_, slot);
    v.assign(static_cast<size_t>(n), T(0));  // bkr-lint: allow(hot-path-alloc) capacity-reusing by construction
    return v;
  }

  // Zero-filled real vector slot (residual estimates, event payloads).
  std::vector<double>& dvec(int slot, index_t n) {
    std::vector<double>& v = at(dvecs_, slot);
    v.assign(static_cast<size_t>(n), 0.0);  // bkr-lint: allow(hot-path-alloc) capacity-reusing by construction
    return v;
  }

  // Incremental-QR slot, reset to the state of a freshly constructed
  // IncrementalQR<T>(max_rows, max_cols) with storage reuse.
  IncrementalQR<T>& qr(int slot, index_t max_rows, index_t max_cols) {
    IncrementalQR<T>& q = at(qrs_, slot);
    q.reshape(max_rows, max_cols);
    return q;
  }

 private:
  // Pools are deques: solvers hold references to earlier slots (e.g. a
  // direction buffer kept across the iterate loop) while acquiring later
  // ones, and deque growth never moves existing elements.
  template <class V>
  static typename V::value_type& at(V& pool, int slot) {
    BKR_REQUIRE(slot >= 0, "slot", index_t(slot));
    while (static_cast<size_t>(slot) >= pool.size()) pool.emplace_back();
    return pool[static_cast<size_t>(slot)];
  }

  std::deque<DenseMatrix<T>> mats_;
  std::deque<std::vector<T>> vecs_;
  std::deque<std::vector<double>> dvecs_;
  std::deque<IncrementalQR<T>> qrs_;
};

}  // namespace bkr
