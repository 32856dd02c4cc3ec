// Contract checking for kernel and solver entry points.
//
// The dense LA kernels, the sparse kernels and the solver drivers silently
// corrupt results when a dimension, leading dimension or factorization
// status code is mishandled; in checked builds every such entry point
// validates its contract and throws ContractViolation (with file:line and
// the offending operand values) instead. In release builds the macros
// compile to nothing — the operands are not even evaluated — so the hot
// paths carry zero overhead.
//
// Activation, per translation unit, in priority order:
//   1. BKR_FORCE_CONTRACTS (0/1)  — per-TU override, used by the tests;
//   2. BKR_ENABLE_CONTRACTS (0/1) — build-level switch (CMake -DBKR_CONTRACTS=ON,
//      always on for the unit-test target and the sanitizer presets);
//   3. default: on when NDEBUG is not defined (plain Debug builds).
//
// Macro summary (all variadic arguments are name/value pairs reported in
// the exception message, e.g. BKR_REQUIRE(n > 0, "n", n)):
//   BKR_REQUIRE(cond, ...)            — precondition on caller-supplied data
//   BKR_ENSURE(cond, ...)             — postcondition on produced data
//   BKR_ASSERT(cond, ...)             — internal invariant
//   BKR_ASSERT_SHAPE(view, rows, cols) — matrix/view dimension check
//
// Like <cassert>, the macro section below sits outside the include guard:
// a TU may re-include this header with a different BKR_FORCE_CONTRACTS to
// switch checking on or off mid-file (the contract tests use this to prove
// the compiled-out form evaluates nothing).
#ifndef BKR_COMMON_CONTRACTS_HPP_
#define BKR_COMMON_CONTRACTS_HPP_

#include <complex>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bkr::contracts {

enum class Kind { Precondition, Postcondition, Invariant, Shape };

inline const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::Precondition: return "precondition";
    case Kind::Postcondition: return "postcondition";
    case Kind::Invariant: return "invariant";
    case Kind::Shape: return "shape contract";
  }
  return "contract";
}

// Thrown by every failed contract. Derives from logic_error: a violation
// is a programming error in the caller, unlike the std::runtime_error
// family used for numerical failures (singular pivots, non-convergence).
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(Kind kind, const std::string& what)
      : std::logic_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

template <class V>
std::string repr(const V& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

// Operand formatting: describe("m", m, "n", n) -> "m=3, n=4".
inline std::string describe() { return {}; }
template <class V, class... Rest>
std::string describe(const char* name, const V& value, const Rest&... rest) {
  std::string out = std::string(name) + "=" + repr(value);
  const std::string tail = describe(rest...);
  if (!tail.empty()) {
    out += ", ";
    out += tail;
  }
  return out;
}

[[noreturn]] void fail(Kind kind, const char* condition, const char* file, long line,
                       const std::string& operands);

// True when the bkr library objects themselves were compiled with checks
// (tests use this to skip firing expectations against an unchecked lib).
[[nodiscard]] bool library_checks_enabled() noexcept;

}  // namespace bkr::contracts

// ---------------------------------------------------------------------------
// Concurrency annotations (DESIGN.md §7, "bkr-analyze"). Unconditional
// no-ops in every build mode — they exist purely as machine-readable
// source markers for the cross-TU project-model stage of tools/bkr_lint:
//
//   BKR_GUARDED_BY(mu)       on a data member: every access must happen in
//                            a scope that visibly holds `mu` (lock_guard /
//                            unique_lock / scoped_lock / .lock()), or in a
//                            function annotated BKR_REQUIRES_LOCK(mu).
//   BKR_ACQUIRED_BEFORE(mu)  on a mutex member: this mutex is always
//                            acquired before `mu`; the analyzer flags any
//                            observed reverse nesting (lock-order check).
//   BKR_REQUIRES_LOCK(mu)    after a function declarator: callers must hold
//                            `mu`; the analyzer seeds the function's lock
//                            set with it instead of flagging its accesses.
//   BKR_LOCK_FREE            on a member synchronized by its own atomicity;
//                            the analyzer verifies the declared type is a
//                            std::atomic so the marker cannot go stale.
//   BKR_THREAD_CONFINED      on a member owned by the attaching thread by
//                            protocol (e.g. a per-solve trace sink); the
//                            analyzer flags any access from inside a lambda
//                            handed to parallel_for/KernelExecutor::run.
//
// Placement convention: directly after the declarator name, before any
// initializer — `SchwarzStats stats_ BKR_GUARDED_BY(stats_mutex_);`.
#define BKR_GUARDED_BY(mu)
#define BKR_ACQUIRED_BEFORE(mu)
#define BKR_REQUIRES_LOCK(mu)
#define BKR_LOCK_FREE
#define BKR_THREAD_CONFINED

// ---------------------------------------------------------------------------
// Hot-path annotations (DESIGN.md §11, "bkr-hotpath"). Unconditional no-ops
// like the concurrency markers above — they seed the call-graph hot-path
// stage of tools/bkr_lint:
//
//   BKR_HOT       in a function head: the function is per-iteration work
//                 (a kernel, an orthogonalization step). Hotness propagates
//                 transitively to every project function it calls, and the
//                 hot-path discipline rules (no allocation growth without a
//                 visible reserve, no locks, no I/O, no throw outside the
//                 breakdown protocol) apply to the whole hot region.
//   BKR_COLD      in a function head or before a bare `{` block inside hot
//                 code: a slow path (recovery ladder, restart eigenproblem,
//                 setup). The rules are suspended inside it and calls made
//                 from it do not spread hotness. On a class head it exempts
//                 that interface's virtual methods from hot-path-virtual
//                 (observational interfaces such as trace sinks, whose
//                 hot-path cost is a null-pointer test).
//   BKR_HOT_LOOP  directly before a loop statement: the per-iteration
//                 iterate loop of a solver. Inside its body two stricter
//                 rules also fire: no container/matrix construction at all
//                 (hot-path-alloc) and no virtual dispatch through a
//                 project interface (hot-path-virtual).
//
// Placement convention: `BKR_HOT void gemm(...)` / `class BKR_COLD Sink` /
// `BKR_HOT_LOOP while (it < max) { ... }`.
#define BKR_HOT
#define BKR_COLD
#define BKR_HOT_LOOP

// ---------------------------------------------------------------------------
// Precision-flow annotations (DESIGN.md §14, "bkr-fpflow"). Unconditional
// no-ops like the lock and hot-path markers above — they are the vocabulary
// of the intra-function precision-flow stage of tools/bkr_lint, which is
// the precondition for any mixed-precision kernel: before
// a kernel may narrow to fp32, the analyzer must know *where* narrowing is
// permitted and *which* denominators and accumulations are guarded.
//
//   BKR_PRECISION_BOUNDARY  on a statement or function head: this is the
//                           deliberate fp32 <-> fp64 conversion point of a
//                           mixed-precision component (e.g. the promotion
//                           of an fp32 SpMM result back to the fp64 outer
//                           iteration). Marks the component for the
//                           oracle-mismatch reachability rule.
//   BKR_ALLOW_NARROWING     on a statement or function head: the double ->
//                           float (or complex<double> -> complex<float>)
//                           flow on this line / in this function is
//                           intentional. Without it, every narrowing
//                           assignment, initialization, cast or return is
//                           an implicit-narrowing finding.
//   BKR_GUARDED_DIV         on a statement: the division by a computed
//                           norm / dot / pivot on this line is protected by
//                           an invariant the analyzer cannot see (e.g. an
//                           early return that excludes the zero case).
//                           Requires a justification comment, like a
//                           baseline entry.
//   BKR_TOLERANCE_ORACLE(c) in a test file: the suite containing it is the
//                           tolerance-based oracle covering the narrowing
//                           component `c` (a class or function name). Every
//                           solver-reachable BKR_ALLOW_NARROWING component
//                           must be named by exactly such an annotation or
//                           bkr-fpflow reports oracle-mismatch.
//
// Placement convention: `BKR_ALLOW_NARROWING const float vf = float(v);` /
// `BKR_GUARDED_DIV const T tau = num / beta;  // beta != 0: early return` /
// `BKR_TOLERANCE_ORACLE(Fp32Spmm);` at test-file scope.
#define BKR_PRECISION_BOUNDARY
#define BKR_ALLOW_NARROWING
#define BKR_GUARDED_DIV
#define BKR_TOLERANCE_ORACLE(component)

#endif  // BKR_COMMON_CONTRACTS_HPP_

// ---------------------------------------------------------------------------
// Macro layer. Deliberately OUTSIDE the include guard (assert.h-style) so a
// re-include with a different BKR_FORCE_CONTRACTS re-selects the macros.
// ---------------------------------------------------------------------------

#undef BKR_CONTRACTS_ACTIVE
#if defined(BKR_FORCE_CONTRACTS)
#if BKR_FORCE_CONTRACTS
#define BKR_CONTRACTS_ACTIVE 1
#else
#define BKR_CONTRACTS_ACTIVE 0
#endif
#elif defined(BKR_ENABLE_CONTRACTS) && BKR_ENABLE_CONTRACTS
#define BKR_CONTRACTS_ACTIVE 1
#elif !defined(NDEBUG)
#define BKR_CONTRACTS_ACTIVE 1
#else
#define BKR_CONTRACTS_ACTIVE 0
#endif

#undef BKR_REQUIRE
#undef BKR_ENSURE
#undef BKR_ASSERT
#undef BKR_ASSERT_SHAPE
#undef BKR_CONTRACT_DETAIL_CHECK

#if BKR_CONTRACTS_ACTIVE

#define BKR_CONTRACT_DETAIL_CHECK(kind, cond, ...)                                       \
  do {                                                                                   \
    if (!(cond))                                                                         \
      ::bkr::contracts::fail(kind, #cond, __FILE__, __LINE__,                            \
                             ::bkr::contracts::describe(__VA_ARGS__));                   \
  } while (false)

#define BKR_REQUIRE(cond, ...) \
  BKR_CONTRACT_DETAIL_CHECK(::bkr::contracts::Kind::Precondition, cond, __VA_ARGS__)
#define BKR_ENSURE(cond, ...) \
  BKR_CONTRACT_DETAIL_CHECK(::bkr::contracts::Kind::Postcondition, cond, __VA_ARGS__)
#define BKR_ASSERT(cond, ...) \
  BKR_CONTRACT_DETAIL_CHECK(::bkr::contracts::Kind::Invariant, cond, __VA_ARGS__)

#define BKR_ASSERT_SHAPE(view, expected_rows, expected_cols)                             \
  do {                                                                                   \
    if ((view).rows() != (expected_rows) || (view).cols() != (expected_cols))            \
      ::bkr::contracts::fail(                                                            \
          ::bkr::contracts::Kind::Shape, #view, __FILE__, __LINE__,                      \
          ::bkr::contracts::describe("rows", (view).rows(), "cols", (view).cols(),       \
                                     "expected_rows", (expected_rows), "expected_cols",  \
                                     (expected_cols)));                                  \
  } while (false)

#else  // compiled out: type-check the condition, evaluate nothing

#define BKR_REQUIRE(cond, ...) static_cast<void>(sizeof(!(cond)))
#define BKR_ENSURE(cond, ...) static_cast<void>(sizeof(!(cond)))
#define BKR_ASSERT(cond, ...) static_cast<void>(sizeof(!(cond)))
#define BKR_ASSERT_SHAPE(view, expected_rows, expected_cols) \
  static_cast<void>(sizeof((view).rows() + (expected_rows) + (expected_cols)))

#endif  // BKR_CONTRACTS_ACTIVE
