// Sparse symmetric direct solver (the PARDISO stand-in).
//
// LDL^T factorization of a symmetric matrix — real SPD (Poisson,
// elasticity subdomains) or complex *symmetric* (time-harmonic Maxwell,
// A = A^T without conjugation) — using the up-looking row algorithm of
// Davis's LDL, preceded by a nested-dissection fill-reducing ordering.
//
// The solve phase accepts a block of p contiguous right-hand sides and
// traverses the factor once for the whole block (single forward
// elimination + backward substitution, exactly the property the paper
// exploits in section V-B3 / fig. 6: the factor is the large, memory-bound
// data structure, so solving p RHS together multiplies arithmetic
// intensity by p). RHS panels can additionally be spread over threads.
//
// The solve runs on a row-interleaved panel: entry (i, r) of the block in
// factor order lives at x[i*p + r], so the p values every factor entry
// touches are contiguous. Each column keeps the operation order of a
// column-by-column sweep, so a width-p solve is bitwise equal to p
// width-1 solves.
#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

#include "direct/ordering.hpp"
#include "la/dense.hpp"
#include "sparse/csr.hpp"

namespace bkr {

enum class FactorOrdering { NestedDissection, Rcm, Natural };

template <class T>
class SparseLDLT {
 public:
  // Factors the matrix eagerly; throws std::runtime_error on a (numerically)
  // singular pivot. The matrix must be structurally and numerically
  // symmetric (unconjugated).
  explicit SparseLDLT(const CsrMatrix<T>& a,
                      FactorOrdering ordering = FactorOrdering::NestedDissection);

  [[nodiscard]] index_t n() const { return n_; }
  [[nodiscard]] index_t factor_nnz() const { return index_t(li_.size()) + n_; }

  // X := A^{-1} B, in place, for a block of B.cols() RHS. `threads` > 1
  // splits the RHS into panels executed on the global thread pool.
  void solve(MatrixView<T> b, index_t threads = 1) const;

  // Convenience out-of-place single/multi RHS solve.
  void solve_copy(MatrixView<const T> b, MatrixView<T> x, index_t threads = 1) const {
    copy_into<T>(b, x);
    solve(x, threads);
  }

  // The factor, read by the oracle tests: L in CSC form (unit
  // diagonal implicit, entries strictly below it) and D^{-1}.
  [[nodiscard]] const std::vector<index_t>& l_colptr() const { return lp_; }
  [[nodiscard]] const std::vector<index_t>& l_rowind() const { return li_; }
  [[nodiscard]] const std::vector<T>& l_values() const { return lx_; }
  [[nodiscard]] const std::vector<T>& d_inverse() const { return dinv_; }

  // Fill-reducing ordering, factor index -> matrix index. Callers that
  // gather their right-hand sides straight into factor order use it with
  // solve_factor_order.
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }

  // X := A^{-1} B in place on p RHS already in factor order and stored
  // row-interleaved: entry (k, r) at x[k*p + r], k indexing perm().
  void solve_factor_order(T* x, index_t p) const { solve_panel(x, p, p); }

 private:
  // Solves columns [0, w) of a row-interleaved panel with row stride ld,
  // in register panels of 8 columns, then a 4/2/1 tail.
  void solve_panel(T* x, index_t ld, index_t w) const;

  index_t n_ = 0;
  std::vector<index_t> perm_;      // new -> old
  std::vector<index_t> lp_;        // column pointers of L (CSC), size n+1
  std::vector<index_t> li_;        // row indices of L
  std::vector<T> lx_;              // values of L (unit diagonal implicit)
  std::vector<T> dinv_;            // T(1) / D, formed once at factorization
};

extern template class SparseLDLT<double>;
extern template class SparseLDLT<std::complex<double>>;

}  // namespace bkr
