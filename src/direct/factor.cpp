#include "direct/factor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/types.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/graph.hpp"

namespace bkr {

template <class T>
SparseLDLT<T>::SparseLDLT(const CsrMatrix<T>& a, FactorOrdering ordering) : n_(a.rows()) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseLDLT: matrix must be square");
  const Graph g = adjacency_of(a);
  switch (ordering) {
    case FactorOrdering::NestedDissection:
      perm_ = nested_dissection(g);
      break;
    case FactorOrdering::Rcm:
      perm_ = rcm_ordering(g);
      break;
    case FactorOrdering::Natural:
      perm_.resize(size_t(n_));
      std::iota(perm_.begin(), perm_.end(), index_t(0));
      break;
  }
  const CsrMatrix<T> pa = permute_symmetric(a, perm_);

  // --- symbolic: elimination tree and column counts (upper triangle) ---
  const index_t n = n_;
  std::vector<index_t> parent(size_t(n), -1);
  std::vector<index_t> flag(size_t(n), -1);
  std::vector<index_t> lnz(size_t(n), 0);
  for (index_t k = 0; k < n; ++k) {
    parent[size_t(k)] = -1;
    flag[size_t(k)] = k;
    for (index_t p = pa.rowptr()[size_t(k)]; p < pa.rowptr()[size_t(k) + 1]; ++p) {
      index_t i = pa.colind()[size_t(p)];
      if (i >= k) continue;
      for (; flag[size_t(i)] != k; i = parent[size_t(i)]) {
        if (parent[size_t(i)] == -1) parent[size_t(i)] = k;
        ++lnz[size_t(i)];
        flag[size_t(i)] = k;
      }
    }
  }
  lp_.resize(size_t(n) + 1);
  lp_[0] = 0;
  for (index_t k = 0; k < n; ++k) lp_[size_t(k) + 1] = lp_[size_t(k)] + lnz[size_t(k)];
  li_.resize(size_t(lp_[size_t(n)]));
  lx_.resize(size_t(lp_[size_t(n)]));
  std::vector<T> d(static_cast<size_t>(n));

  // --- numeric: up-looking LDL^T (Davis's LDL, unconjugated) -----------
  std::vector<T> y(size_t(n), T(0));
  std::vector<index_t> pattern(static_cast<size_t>(n));
  std::vector<index_t> lfill(size_t(n), 0);  // current fill of each column
  std::fill(flag.begin(), flag.end(), index_t(-1));
  real_t<T> dmax(0);
  for (index_t k = 0; k < n; ++k) {
    index_t top = n;
    flag[size_t(k)] = k;
    y[size_t(k)] = T(0);
    for (index_t p = pa.rowptr()[size_t(k)]; p < pa.rowptr()[size_t(k) + 1]; ++p) {
      index_t i = pa.colind()[size_t(p)];
      if (i > k) continue;
      y[size_t(i)] += pa.values()[size_t(p)];
      index_t len = 0;
      for (; flag[size_t(i)] != k; i = parent[size_t(i)]) {
        pattern[size_t(len++)] = i;
        flag[size_t(i)] = k;
      }
      while (len > 0) pattern[size_t(--top)] = pattern[size_t(--len)];
    }
    d[size_t(k)] = y[size_t(k)];
    y[size_t(k)] = T(0);
    for (; top < n; ++top) {
      const index_t i = pattern[size_t(top)];
      const T yi = y[size_t(i)];
      y[size_t(i)] = T(0);
      const index_t p2 = lp_[size_t(i)] + lfill[size_t(i)];
      for (index_t p = lp_[size_t(i)]; p < p2; ++p)
        y[size_t(li_[size_t(p)])] -= detail::cmul(lx_[size_t(p)], yi);
      const T lki = yi / d[size_t(i)];
      d[size_t(k)] -= detail::cmul(lki, yi);
      li_[size_t(p2)] = k;
      lx_[size_t(p2)] = lki;
      ++lfill[size_t(i)];
    }
    const auto mag = abs_val(d[size_t(k)]);
    dmax = std::max(dmax, mag);
    if (mag <= real_t<T>(1e-14) * std::max(dmax, real_t<T>(1)))
      throw std::runtime_error("SparseLDLT: zero pivot at column " + std::to_string(k));
  }
  dinv_.resize(size_t(n));
  for (index_t k = 0; k < n; ++k) dinv_[size_t(k)] = T(1) / d[size_t(k)];
}

template <class T>
template <bool Single>
void SparseLDLT<T>::sweep(T* x, index_t ld, index_t w) const {
  if constexpr (Single) w = 1;
  const index_t n = n_;
  const index_t* lp = lp_.data();
  const index_t* li = li_.data();
  const T* lx = lx_.data();
  // L Y = B (forward); the factor is traversed once for all w columns.
  for (index_t j = 0; j < n; ++j) {
    const T* xj = x + j * ld;
    if constexpr (Single) {
      const T yj = *xj;
      for (index_t l = lp[j]; l < lp[j + 1]; ++l) x[li[l] * ld] -= detail::cmul(lx[l], yj);
    } else {
      for (index_t l = lp[j]; l < lp[j + 1]; ++l) {
        T* xi = x + li[l] * ld;
        const T lij = lx[l];
        for (index_t r = 0; r < w; ++r) xi[r] -= detail::cmul(lij, xj[r]);
      }
    }
  }
  // D Z = Y.
  for (index_t j = 0; j < n; ++j) {
    T* xj = x + j * ld;
    const T inv = dinv_[size_t(j)];
    for (index_t r = 0; r < w; ++r) xj[r] = detail::cmul(xj[r], inv);
  }
  // L^T X = Z (backward); rows below j are final, so column j accumulates
  // in factor order.
  for (index_t j = n - 1; j >= 0; --j) {
    T* xj = x + j * ld;
    if constexpr (Single) {
      T s = *xj;
      for (index_t l = lp[j]; l < lp[j + 1]; ++l) s -= detail::cmul(lx[l], x[li[l] * ld]);
      *xj = s;
    } else {
      for (index_t l = lp[j]; l < lp[j + 1]; ++l) {
        const T* xi = x + li[l] * ld;
        const T lij = lx[l];
        for (index_t r = 0; r < w; ++r) xj[r] -= detail::cmul(lij, xi[r]);
      }
    }
  }
}

template <class T>
void SparseLDLT<T>::solve_panel(T* x, index_t ld, index_t w) const {
  if (w == 1) {
    sweep<true>(x, ld, w);
  } else {
    sweep<false>(x, ld, w);
  }
}

template <class T>
void SparseLDLT<T>::solve(MatrixView<T> b, index_t threads) const {
  const index_t n = n_;
  const index_t p = b.cols();
  assert(b.rows() == n);
  // Permute rows into factor order in a row-interleaved scratch panel.
  std::vector<T> scratch(static_cast<size_t>(n * p));
  for (index_t r = 0; r < p; ++r) {
    const T* src = b.col(r);
    for (index_t i = 0; i < n; ++i) scratch[size_t(i * p + r)] = src[perm_[size_t(i)]];
  }
  if (threads <= 1 || p == 1) {
    solve_panel(scratch.data(), p, p);
  } else {
    const index_t panels = std::min(threads, p);
    const index_t width = (p + panels - 1) / panels;
    ThreadPool::global().parallel_for(panels, [&](index_t t) {
      const index_t j0 = t * width;
      const index_t w = std::min(width, p - j0);
      if (w > 0) solve_panel(scratch.data() + j0, p, w);
    });
  }
  for (index_t r = 0; r < p; ++r) {
    T* dst = b.col(r);
    for (index_t i = 0; i < n; ++i) dst[perm_[size_t(i)]] = scratch[size_t(i * p + r)];
  }
}

template class SparseLDLT<double>;
template class SparseLDLT<std::complex<double>>;

}  // namespace bkr
