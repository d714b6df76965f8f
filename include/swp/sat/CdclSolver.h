//===- swp/sat/CdclSolver.h - Incremental CDCL SAT solver -------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained conflict-driven clause-learning SAT solver in the
/// MiniSat lineage: two-watched-literal unit propagation, VSIDS-style
/// variable activities with a decision heap, first-UIP clause learning,
/// Luby restarts, phase saving, and incremental solving under assumption
/// literals.  The scheduling encoder (CnfEncoder) keeps one instance alive
/// across candidate initiation intervals so clauses learned at period T
/// keep pruning the search at T+1.
///
/// Literals are MiniSat-coded ints: variable v as 2*v (positive) or 2*v+1
/// (negated).  Variables are created with newVar() and never removed; the
/// clause database only grows (scheduling instances are small enough that
/// clause-database reduction buys nothing).
///
/// Clause storage is one flat arena: each clause, problem or learned, is a
/// header word (size << 1 | learnt) followed by its literals inline, and
/// is named by its 32-bit offset (a clause reference).  Watch lists and
/// propagation reasons hold those offsets, which stay valid while the
/// arena grows, and adding a clause allocates nothing per clause (see
/// DESIGN.md Section 10).
///
/// The search cooperates with the rest of the failure domain: it polls a
/// CancellationToken, honours wall-clock and conflict budgets, and polls
/// FaultSite::SatConflict at every conflict so the fuzz harness can prove
/// an injected search death never turns into a fake infeasibility proof
/// (a faulted solve always reports Unknown/SatStop::Fault, never Unsat).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SAT_CDCLSOLVER_H
#define SWP_SAT_CDCLSOLVER_H

#include "swp/support/Cancellation.h"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace swp {

/// A MiniSat-coded literal: 2*var + (negated ? 1 : 0).
using SatLit = int;

inline SatLit mkLit(int Var, bool Neg = false) { return 2 * Var + (Neg ? 1 : 0); }
inline int litVar(SatLit L) { return L >> 1; }
inline bool litNeg(SatLit L) { return (L & 1) != 0; }
inline SatLit litNot(SatLit L) { return L ^ 1; }

/// Outcome of a solve() call.
enum class SatStatus {
  /// A model was found; read it back with modelValue().
  Sat,
  /// Proven unsatisfiable under the given assumptions.
  Unsat,
  /// A budget, cancellation, or injected fault stopped the search before a
  /// proof; lastStop() says which.
  Unknown,
};

/// Short lowercase name of \p S ("sat", "unsat", "unknown").
const char *satStatusName(SatStatus S);

/// Why a solve() returned Unknown (SatStop::None after Sat/Unsat).
enum class SatStop {
  None,
  TimeLimit,
  ConflictLimit,
  Cancelled,
  Fault,
};

/// Search budgets of one solve() call.
struct SatLimits {
  /// Wall-clock budget in seconds (polled every few hundred conflicts).
  double TimeLimitSec = 1e18;
  /// Conflict budget for this call.
  std::int64_t ConflictLimit = INT64_MAX;
  /// Cooperative cancellation, polled alongside the time limit.
  CancellationToken Cancel;
};

/// Lifetime counters (monotone across solve() calls; snapshot around a call
/// to get per-call numbers).
struct SatStats {
  std::int64_t Decisions = 0;
  std::int64_t Propagations = 0;
  std::int64_t Conflicts = 0;
  std::int64_t LearnedClauses = 0;
  std::int64_t LearnedLiterals = 0;
  std::int64_t Restarts = 0;
  std::int64_t InjectedFaults = 0;
};

/// The solver.  Not thread-safe; one instance per scheduling job.
class CdclSolver {
public:
  CdclSolver();
  ~CdclSolver();
  CdclSolver(const CdclSolver &) = delete;
  CdclSolver &operator=(const CdclSolver &) = delete;

  /// Creates a fresh variable; \returns its index.
  int newVar();

  int numVars() const { return NumVars; }
  int numClauses() const { return NumProblemClauses; }

  /// Adds a problem clause at decision level 0 (between solves).  The
  /// literals are sorted and deduplicated into reused scratch space; a
  /// clause with opposing literals or one already true at level 0 is
  /// dropped, literals false at level 0 are removed, a unit is enqueued
  /// and propagated at once, and anything longer is copied into the arena.
  /// An empty clause or a level-0 conflict makes the instance globally
  /// unsat.  \returns false when the database is globally unsat.
  bool addClause(std::span<const SatLit> Lits);
  /// Same, for a braced literal list: builds no temporary vector.
  bool addClause(std::initializer_list<SatLit> Lits) {
    return addClause(std::span<const SatLit>(Lits.begin(), Lits.size()));
  }

  /// True when no level-0 contradiction has been derived yet.
  bool ok() const { return Ok; }

  /// Solves under \p Assumptions (all assumed true for this call only).
  SatStatus solve(const std::vector<SatLit> &Assumptions,
                  const SatLimits &Limits = {});

  /// Model value of \p Var after a Sat answer.
  bool modelValue(int Var) const {
    return Model[static_cast<std::size_t>(Var)] > 0;
  }

  /// What stopped the last solve() (SatStop::None unless it was Unknown).
  SatStop lastStop() const { return LastStop; }

  /// Suggests the first decision polarity of \p Var (phase saving seed).
  void setPolarity(int Var, bool Value);

  const SatStats &stats() const { return Stats; }

private:
  struct Impl;
  Impl *P;

  int NumVars = 0;
  int NumProblemClauses = 0;
  bool Ok = true;
  SatStop LastStop = SatStop::None;
  SatStats Stats;
  std::vector<std::int8_t> Model;
};

} // namespace swp

#endif // SWP_SAT_CDCLSOLVER_H
