// Golden oracle for the restart eigensolve of (B)GCRO-DR.
//
// Each case hashes (FNV-1a, 64 bit) the bits of the k columns that
// smallest_gen_eig_vectors (the pencil T z = theta W z of fig. 1 line 33)
// or smallest_eig_vectors (line 16) returns, for real and complex scalars
// at orders 8, 40 and 160 and k = 5 and 40. The table pins the Householder
// reduction, the shifted QR sweep, the back substitution and the Q y
// product bit for bit: a reordering that changes one rounding fails it.
// Failures of the decomposition itself (singular W, non-finite pencil)
// must still surface as EigFailure, which GCRO-DR's recovery catches.
//
// A mismatching or missing entry prints the hash it computed as a table
// line, so a deliberate numerics change regenerates the table from the
// test output.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "la/eig.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using testing::random_matrix;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, size_t count, std::uint64_t h) {
  const auto* c = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < count; ++i) {
    h ^= c[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t matrix_hash(const DenseMatrix<T>& m) {
  std::uint64_t h = kFnvOffset;
  for (index_t j = 0; j < m.cols(); ++j) h = fnv1a(m.col(j), size_t(m.rows()) * sizeof(T), h);
  return h;
}

// A GCRO-DR-like pencil: T random, W random plus a dominant diagonal so
// the LU reduction to standard form is well conditioned.
template <class T>
void pencil(index_t n, unsigned seed, DenseMatrix<T>& t, DenseMatrix<T>& w) {
  t = random_matrix<T>(n, n, seed);
  w = random_matrix<T>(n, n, seed + 1);
  for (index_t i = 0; i < n; ++i) w(i, i) += T(double(n));
}

const std::map<std::string, std::uint64_t> kGolden = {
    {"gen real n=8 k=5", 0x153257549d62741cULL},
    {"std real n=8 k=5", 0x7ce0933e835200a9ULL},
    {"gen real n=40 k=5", 0x38b68660de6ac062ULL},
    {"std real n=40 k=5", 0xf1dc109078d27715ULL},
    {"gen real n=40 k=40", 0xc218324b2878b1c3ULL},
    {"std real n=40 k=40", 0x13a9ce4380fc3118ULL},
    {"gen real n=160 k=5", 0xfe56ebd2033ea71eULL},
    {"std real n=160 k=5", 0x8ff3a0f7ae0bbefaULL},
    {"gen real n=160 k=40", 0x40f194a40e12f6a3ULL},
    {"std real n=160 k=40", 0xd7044e8d5a55f8ebULL},
    {"gen complex n=8 k=5", 0x9981f69ce50b55f7ULL},
    {"std complex n=8 k=5", 0xdf36d60b57c394b0ULL},
    {"gen complex n=40 k=5", 0xc3bd34c5bb90c7eaULL},
    {"std complex n=40 k=5", 0xdf1c19e8355065d8ULL},
    {"gen complex n=40 k=40", 0x93b56d244f16f02fULL},
    {"std complex n=40 k=40", 0x4c7b2e42eb46bfe5ULL},
    {"gen complex n=160 k=5", 0x2b8d51f14b7429b9ULL},
    {"std complex n=160 k=5", 0x1c50d9710211b440ULL},
    {"gen complex n=160 k=40", 0x10235caedc468262ULL},
    {"std complex n=160 k=40", 0x43edf2586e51a0dcULL},
};

void check(const std::string& name, std::uint64_t got) {
  const auto it = kGolden.find(name);
  if (it == kGolden.end() || it->second != got) {
    ADD_FAILURE() << "eig oracle mismatch for " << name << "; computed table line:\n"
                  << "    {\"" << name << "\", 0x" << std::hex << got << "ULL},";
  }
}

template <class T>
void run_cases(const char* scalar) {
  unsigned seed = is_complex_v<T> ? 900 : 800;
  for (const index_t n : {index_t(8), index_t(40), index_t(160)}) {
    DenseMatrix<T> t, w;
    pencil<T>(n, seed, t, w);
    const DenseMatrix<T> a = random_matrix<T>(n, n, seed + 2);
    seed += 10;
    for (const index_t k : {index_t(5), index_t(40)}) {
      if (k > n) continue;
      const std::string suffix =
          std::string(scalar) + " n=" + std::to_string(n) + " k=" + std::to_string(k);
      const DenseMatrix<T> pg = smallest_gen_eig_vectors<T>(t, w, k);
      ASSERT_EQ(pg.cols(), k);
      check("gen " + suffix, matrix_hash(pg));
      const DenseMatrix<T> ps = smallest_eig_vectors<T>(a, k);
      ASSERT_EQ(ps.cols(), k);
      check("std " + suffix, matrix_hash(ps));
    }
  }
}

TEST(EigOracle, SelectedEigenvectorsMatchGoldenHashes) {
  run_cases<double>("real");
  run_cases<std::complex<double>>("complex");
}

template <class T>
void expect_failures() {
  DenseMatrix<T> t, w;
  pencil<T>(12, 77, t, w);
  // Singular W: an exactly zero column.
  DenseMatrix<T> ws = copy_of(w);
  for (index_t i = 0; i < ws.rows(); ++i) ws(i, 3) = T(0);
  EXPECT_THROW(smallest_gen_eig_vectors<T>(t, ws, 4), EigFailure);
  // NaN pencil: the QR iteration can never deflate.
  DenseMatrix<T> tn = copy_of(t);
  tn(5, 2) = T(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(smallest_gen_eig_vectors<T>(tn, w, 4), EigFailure);
  DenseMatrix<T> an = copy_of(t);
  an(0, 0) = T(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(smallest_eig_vectors<T>(an, 4), EigFailure);
}

TEST(EigOracle, SingularOrNonFinitePencilThrowsEigFailure) {
  expect_failures<double>();
  expect_failures<std::complex<double>>();
}

}  // namespace
}  // namespace bkr
