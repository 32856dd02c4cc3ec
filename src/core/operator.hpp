// Operator and preconditioner interfaces for the Krylov solvers.
//
// Everything a solver touches is a block operation on p contiguous
// columns: Y = A X (SpMM) and Z = M^{-1} R. This is the layout contract
// that lets pseudo-block and block methods fuse work (paper section V-B)
// and lets direct subdomain solvers run one forward/backward substitution
// for the whole block (section V-B3).
#pragma once

#include "la/dense.hpp"
#include "parallel/comm_model.hpp"
#include "resilience/fault_injector.hpp"
#include "sparse/csr.hpp"
#include "sparse/sharded.hpp"

namespace bkr {

template <class T>
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  [[nodiscard]] virtual index_t n() const = 0;
  // Y = A X for a block of X.cols() columns.
  virtual void apply(MatrixView<const T> x, MatrixView<T> y) const = 0;
};

// CSR-backed operator; records one halo-exchange round per application in
// the communication model (the traffic a distributed SpMM would incur).
// An optional executor (not owned) parallelizes the SpMM row-partitioned;
// the result is bitwise identical to the serial apply at any thread count.
template <class T>
class CsrOperator final : public LinearOperator<T> {
 public:
  explicit CsrOperator(const CsrMatrix<T>& a, CommModel* comm = nullptr,
                       const KernelExecutor* exec = nullptr)
      : a_(&a), comm_(comm), exec_(exec) {}

  [[nodiscard]] index_t n() const override { return a_->rows(); }
  void apply(MatrixView<const T> x, MatrixView<T> y) const override {
    a_->spmm(x, y, exec_);
    if (comm_ != nullptr) comm_->halo_exchange(x.cols() * 8);
  }
  [[nodiscard]] const CsrMatrix<T>& matrix() const { return *a_; }

 private:
  const CsrMatrix<T>* a_;
  CommModel* comm_;
  const KernelExecutor* exec_;
};

// Sharded SPMD operator (DESIGN.md §13): wraps a ShardedCsrOperator and
// records the *executed* communication of every apply — the real gathered
// halo bytes and the real shard-neighbour message count — instead of the
// modeled single-round figure of CsrOperator. An attached FaultInjector is
// wired to the halo hook, so the chaos suite can corrupt halo payloads in
// flight (FaultSite::ShardHalo).
template <class T>
class ShardedOperator final : public LinearOperator<T> {
 public:
  explicit ShardedOperator(const CsrMatrix<T>& a, index_t shards, CommModel* comm = nullptr,
                           const KernelExecutor* exec = nullptr,
                           resilience::FaultInjector* fault = nullptr)
      : shop_(a, shards), comm_(comm), exec_(exec) {
    if (comm_ != nullptr) comm_->set_shards(shop_.shard_count());
    if (fault != nullptr) {
      shop_.set_halo_hook([fault](index_t /*shard*/, MatrixView<T> halo) {
        fault->at(resilience::FaultSite::ShardHalo, halo);
      });
    }
  }

  [[nodiscard]] index_t n() const override { return shop_.n(); }
  void apply(MatrixView<const T> x, MatrixView<T> y) const override {
    shop_.spmm(x, y, exec_);
    if (comm_ != nullptr)
      comm_->halo_exchange(std::int64_t(shop_.halo_entries()) * x.cols() * 8,
                           shop_.halo_messages());
  }
  // The monolithic source matrix: fingerprints (and therefore recycle
  // cache keys) are shard-count invariant.
  [[nodiscard]] const CsrMatrix<T>& matrix() const { return shop_.source(); }
  [[nodiscard]] const ShardedCsrOperator<T>& sharded() const { return shop_; }

 private:
  ShardedCsrOperator<T> shop_;
  CommModel* comm_;
  const KernelExecutor* exec_;
};

template <class T>
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  [[nodiscard]] virtual index_t n() const = 0;
  // Z = M^{-1} R (block). Non-const: nonlinear preconditioners (Krylov
  // smoothers) carry mutable inner state / statistics.
  virtual void apply(MatrixView<const T> r, MatrixView<T> z) = 0;
  // Variable (nonlinear / nondeterministic) preconditioners force the
  // flexible solver variants (paper section III-C).
  [[nodiscard]] virtual bool is_variable() const { return false; }
};

template <class T>
class IdentityPreconditioner final : public Preconditioner<T> {
 public:
  explicit IdentityPreconditioner(index_t n) : n_(n) {}
  [[nodiscard]] index_t n() const override { return n_; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override { copy_into<T>(r, z); }

 private:
  index_t n_;
};

}  // namespace bkr
