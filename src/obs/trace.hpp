// Solver observability: per-phase scoped timers and per-iteration event
// records for every iterative method.
//
// The paper's argument is quantitative — reduction counts, SpMM counts and
// time-to-solution per method (figs. 2-8) — so the solvers expose *where*
// a solve spends its time and synchronizations, not just end-of-solve
// aggregates. A solver is handed an optional TraceSink through
// SolverOptions::trace; when the pointer is null the instrumentation
// compiles down to a pointer test (no clock read, no allocation, no
// virtual call) so the hot path is unaffected.
//
// Phases partition the instrumented work; scopes never nest, so the sum of
// per-phase seconds approximates the solve wall time (the uninstrumented
// remainder is block copies and solution axpy updates, a few percent).
// See DESIGN.md "Telemetry" for the schema and the accounting contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace bkr::obs {

// Where instrumented time is spent inside a solve. Kept in sync with
// kPhaseNames in trace.cpp.
enum class Phase : int {
  Spmm = 0,            // operator (block) applications A·V
  Precond,             // preconditioner applications M^{-1}·R
  OrthoProjection,     // Gram-Schmidt projections against the basis
  OrthoNormalization,  // CholQR / TSQR block normalization
  Reduction,           // global synchronization points (norms, fused dots)
  SmallDense,          // Hessenberg QR updates, least squares, basis combos
  RestartEig,          // deflation eigenproblem + recycle-space refresh
};

inline constexpr int kPhaseCount = 7;

// Stable lowercase identifier ("spmm", "precond", ...) used in JSON/CSV.
const char* phase_name(Phase p);

// One record per (block) iteration of any method.
struct IterationEvent {
  index_t cycle = 0;       // restart cycle (1-based, as in SolveStats)
  index_t iteration = 0;   // global (block) iteration count so far
  index_t basis_size = 0;  // Krylov basis columns held at this point
  index_t recycle_dim = 0; // recycled columns C_k in play (0 = none)
  // Per RHS column: relative residual estimate after this iteration.
  std::vector<double> residuals;
};

// One record per RecycleCache interaction observed by a session: the
// cache's hit/miss/store/evict traffic keyed by operator fingerprint, so
// a warm-started solve is distinguishable from a cold one in the trace.
struct CacheEvent {
  std::string action;         // "hit" | "miss" | "store" | "evict"
  std::uint64_t key = 0;      // operator fingerprint of the entry
  std::int64_t bytes = 0;     // payload bytes moved (0 for a miss)
};

// One record per sharded communication round (SPMD layer): the CommModel
// mirrors the *executed* message traffic of the sharded operator — halo
// gathers per apply, point-to-point merges per tree reduction — so a
// trace can audit the real communication structure, not just the modeled
// log2(P) cost.
struct CommEvent {
  std::string kind;           // "halo" | "reduction-tree"
  index_t shards = 0;         // shard count in effect when the event fired
  std::int64_t messages = 0;  // point-to-point messages this round
  std::int64_t rounds = 0;    // tree levels (ceil(log2 shards); 1 for halo)
  std::int64_t bytes = 0;     // payload bytes moved
};

// One record per recovery-ladder engagement (resilience layer): a
// "recovered" solve is distinguishable from a clean one in the trace, and
// the chaos suite can assert exactly which rung fired.
struct RecoveryEvent {
  index_t iteration = 0;  // global (block) iteration count when it fired
  std::string site;       // "ortho" | "deflation" | "cycle" | "coarse-space"
  std::string action;     // "replace-columns" | "identity-pk" | "early-restart"
                          // | "residual-replacement"
  index_t columns = 0;    // basis columns affected (0 when not applicable)
};

// Consumer interface. Implementations must tolerate any call order the
// solvers produce: phases and iterations arrive between begin_solve /
// end_solve pairs; a sink may be reused across many solves (the sequence
// API) and accumulates one record per solve.
//
// BKR_COLD on the class head: observability is virtual by design — the
// dispatch is null-guarded and once per (block) iteration, amortized over
// the iteration's kernel work — so bkr-analyze --hotpath exempts calls
// through this interface from the hot-path-virtual rule.
class BKR_COLD TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin_solve(const char* method, index_t n, index_t nrhs) = 0;
  virtual void end_solve(bool converged, index_t iterations, index_t cycles, double seconds) = 0;
  // `seconds` of work attributed to phase `p`; `count` occurrences (for
  // Reduction, the number of global synchronizations the span fused).
  virtual void phase(Phase p, double seconds, std::int64_t count = 1) = 0;
  virtual void iteration(const IterationEvent& ev) = 0;
  // Recovery-escalation event. Default no-op so pre-existing sinks stay
  // source compatible.
  virtual void recovery(const RecoveryEvent&) {}
  // RecycleCache event (sessions layer). Default no-op, like recovery():
  // cache traffic happens outside begin/end solve pairs, so sinks that only
  // model per-solve records can ignore it.
  virtual void cache(const CacheEvent&) {}
  // Sharded communication event (SPMD layer). Default no-op: only sinks
  // auditing the executed message structure need to observe it.
  virtual void comm(const CommEvent&) {}
};

// RAII phase timer: no-op (a single pointer test, no clock read) when the
// sink is null. `count` is the number of occurrences the span represents
// (e.g. a fused pair of global reductions passes 2).
class ScopedPhase {
 public:
  ScopedPhase(TraceSink* sink, Phase p, std::int64_t count = 1)
      : sink_(sink), phase_(p), count_(count) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (sink_ != nullptr)
      sink_->phase(phase_,
                   std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count(),
                   count_);
  }

 private:
  TraceSink* sink_;
  Phase phase_;
  std::int64_t count_;
  std::chrono::steady_clock::time_point start_;
};

// Default sink: accumulates per-phase totals and the full iteration event
// log per solve, exportable as JSON or CSV. Not thread-safe; attach one
// instance per concurrently running solver.
class SolverTrace final : public TraceSink {
 public:
  struct PhaseTotals {
    double seconds = 0;
    std::int64_t count = 0;
  };

  struct SolveRecord {
    std::string method;
    index_t n = 0;
    index_t nrhs = 0;
    bool converged = false;
    index_t iterations = 0;
    index_t cycles = 0;
    double seconds = 0;
    PhaseTotals phases[kPhaseCount];
    std::vector<IterationEvent> events;
    std::vector<RecoveryEvent> recoveries;
  };

  void begin_solve(const char* method, index_t n, index_t nrhs) override;
  void end_solve(bool converged, index_t iterations, index_t cycles, double seconds) override;
  void phase(Phase p, double seconds, std::int64_t count = 1) override;
  void iteration(const IterationEvent& ev) override;
  void recovery(const RecoveryEvent& ev) override;
  void cache(const CacheEvent& ev) override;
  void comm(const CommEvent& ev) override;

  [[nodiscard]] const std::vector<SolveRecord>& solves() const { return solves_; }
  // Recovery events across every recorded solve.
  [[nodiscard]] std::int64_t recovery_count() const;
  // Cache traffic is accumulated at trace level, not per solve record
  // (it happens between solves and the bkr-trace-1 JSON schema stays
  // unchanged); counters filter by action ("hit", "miss", "store", ...).
  [[nodiscard]] const std::vector<CacheEvent>& cache_events() const { return cache_events_; }
  [[nodiscard]] std::int64_t cache_event_count(const std::string& action) const;
  // Comm events mirror cache events: accumulated at trace level (they can
  // arrive outside begin/end solve pairs), filtered by kind.
  [[nodiscard]] const std::vector<CommEvent>& comm_events() const { return comm_events_; }
  [[nodiscard]] std::int64_t comm_event_count(const std::string& kind) const;

  // Totals across every recorded solve.
  [[nodiscard]] PhaseTotals phase_totals(Phase p) const;
  [[nodiscard]] double phase_seconds(Phase p) const { return phase_totals(p).seconds; }
  [[nodiscard]] std::int64_t phase_count(Phase p) const { return phase_totals(p).count; }
  // Sum of the per-phase seconds of every solve (the quantity compared
  // against the SolveStats wall time in the accounting tests).
  [[nodiscard]] double total_phase_seconds() const;
  [[nodiscard]] double total_solve_seconds() const;

  void clear();

  // JSON document: {"schema":"bkr-trace-1","solves":[...]} — see DESIGN.md.
  void write_json(std::ostream& os) const;
  // CSV: one row per (solve, phase) with seconds and count.
  void write_csv(std::ostream& os) const;
  // File variants; return false if the file could not be opened.
  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;

 private:
  // Events arriving outside begin/end pairs open an implicit record so a
  // misattached sink never drops data.
  SolveRecord& current();

  std::vector<SolveRecord> solves_ BKR_THREAD_CONFINED;
  std::vector<CacheEvent> cache_events_ BKR_THREAD_CONFINED;
  std::vector<CommEvent> comm_events_ BKR_THREAD_CONFINED;
  bool open_ BKR_THREAD_CONFINED = false;
};

}  // namespace bkr::obs
