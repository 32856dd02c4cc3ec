#include "host_probe.hpp"

#include <chrono>
#include <complex>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

using cd = std::complex<double>;

// About the size and row length of the antenna chamber's matrix, so the
// probe's working set sits in the same cache levels as the solver's.
constexpr int kRows = 1200;
constexpr int kPerRow = 25;
constexpr int kSpmvReps = 40;
// Projections of vectors on a 160-vector basis, the basis of block
// GCRO-DR(20) at block width 8: 3 MB streamed through the caches.
constexpr int kBasis = 160, kBlock = 2, kProjectReps = 1;

struct Inputs {
  std::vector<int> rowptr, colind;
  std::vector<cd> values, x, y;
  std::vector<cd> basis, block, h;

  Inputs() {
    std::uint64_t s = 0x2545f4914f6cdd1dULL;
    auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    rowptr.push_back(0);
    for (int i = 0; i < kRows; ++i) {
      for (int k = 0; k < kPerRow; ++k) {
        // Banded with scattered off-band entries, like an edge-element
        // matrix under a bandwidth-reducing order.
        const int off = int(next() % 200) - 100;
        colind.push_back(((i + off) % kRows + kRows) % kRows);
        values.emplace_back(double(next() % 1000) * 1e-3, double(next() % 1000) * 1e-3);
      }
      rowptr.push_back(int(colind.size()));
    }
    x.assign(kRows, cd(1.0, 0.5));
    y.assign(kRows, cd(0.0));
    basis.assign(size_t(kRows) * kBasis, cd(0.3, 0.2));
    block.assign(size_t(kRows) * kBlock, cd(1.0, 0.0));
    h.assign(kBasis * kBlock, cd(0.0));
  }
};

}  // namespace

double host_probe_ms() {
  static Inputs in;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kSpmvReps; ++r) {
    for (int i = 0; i < kRows; ++i) {
      cd sum = 0;
      for (int l = in.rowptr[i]; l < in.rowptr[i + 1]; ++l) sum += in.values[l] * in.x[in.colind[l]];
      in.y[i] = sum;
    }
    // Feed the result back so no repetition can be optimized away.
    in.x[r % kRows] += in.y[0] * 1e-12;
  }
  for (int r = 0; r < kProjectReps; ++r) {
    for (int j = 0; j < kBlock; ++j)
      for (int c = 0; c < kBasis; ++c) {
        cd sum = 0;
        for (int i = 0; i < kRows; ++i) sum += std::conj(in.basis[c * kRows + i]) * in.block[j * kRows + i];
        in.h[j * kBasis + c] = sum;
      }
    in.block[r % kRows] += in.h[0] * 1e-12;
  }
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
