#include "core/gmres.hpp"

#include "core/gcrodr.hpp"

namespace bkr {

namespace {

// GMRES is GCRO-DR with an empty recycled space (fig. 1 with k = 0): the
// engines skip every recycle step, so a wrapper only pins recycle = 0 and
// keeps its own trace label.
template <class Engine>
struct WithoutRecycling : Engine {
  WithoutRecycling(SolverOptions opts, const char* method) : Engine(no_recycle(opts), method) {}
  static SolverOptions no_recycle(SolverOptions opts) {
    opts.recycle = 0;
    return opts;
  }
};

}  // namespace

template <class T>
SolveStats block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                       MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  return WithoutRecycling<GcroDr<T>>(opts, "block_gmres").solve(a, m, b, x, comm);
}

template <class T>
SolveStats pseudo_block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m,
                              MatrixView<const T> b, MatrixView<T> x, const SolverOptions& opts,
                              CommModel* comm) {
  return WithoutRecycling<PseudoGcroDr<T>>(opts, "pseudo_block_gmres").solve(a, m, b, x, comm);
}

template SolveStats block_gmres<double>(const LinearOperator<double>&, Preconditioner<double>*,
                                        MatrixView<const double>, MatrixView<double>,
                                        const SolverOptions&, CommModel*);
template SolveStats block_gmres<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                                      Preconditioner<std::complex<double>>*,
                                                      MatrixView<const std::complex<double>>,
                                                      MatrixView<std::complex<double>>,
                                                      const SolverOptions&, CommModel*);
template SolveStats pseudo_block_gmres<double>(const LinearOperator<double>&,
                                               Preconditioner<double>*, MatrixView<const double>,
                                               MatrixView<double>, const SolverOptions&,
                                               CommModel*);
template SolveStats pseudo_block_gmres<std::complex<double>>(
    const LinearOperator<std::complex<double>>&, Preconditioner<std::complex<double>>*,
    MatrixView<const std::complex<double>>, MatrixView<std::complex<double>>, const SolverOptions&,
    CommModel*);

}  // namespace bkr
