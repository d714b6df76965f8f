//===- swp/core/Driver.h - Rate-optimal scheduling driver -------*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rate-optimal search loop of the paper's experiments: compute the
/// lower bound T_lb = max(T_dep, T_res), then try T = T_lb, T_lb+1, ...
/// solving the unified scheduling+mapping MILP at each T until one is
/// feasible.  T violating the modulo-scheduling precondition are skipped
/// (they admit no fixed-mapping schedule), exactly as in the paper.
///
/// The found schedule is rate-optimal when every smaller T was *proven*
/// infeasible; time/node limits censor proofs and are reported per attempt
/// (the paper's "10/30" time-limit note).
///
/// The sweep itself (sweepPeriods) is written once and shared by both exact
/// engines: scheduleLoop hands it the MILP step scheduleAtT, satScheduleLoop
/// (swp/sat/SatScheduler.h) a step over one incremental SAT engine.
/// TimeLimitPerT / NodeLimitPerT bound either engine per candidate T: wall
/// clock and branch-and-bound nodes for the MILP, wall clock and CDCL
/// conflicts for SAT.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CORE_DRIVER_H
#define SWP_CORE_DRIVER_H

#include "swp/core/Formulation.h"
#include "swp/core/Schedule.h"
#include "swp/solver/BranchAndBound.h"
#include "swp/support/Status.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace swp {

/// Options of the rate-optimal search.
struct SchedulerOptions {
  MappingKind Mapping = MappingKind::Fixed;
  /// Wall-clock limit per candidate T, seconds (either engine).
  double TimeLimitPerT = 10.0;
  /// Effort limit per candidate T: branch-and-bound nodes for the MILP,
  /// CDCL conflicts for SAT.
  std::int64_t NodeLimitPerT = INT64_MAX;
  /// Search window: candidate T ranges over [T_lb, T_lb + MaxTSlack].
  int MaxTSlack = 64;
  /// Optimize the coloring objective instead of stopping at the first
  /// feasible schedule.
  bool ColoringObjective = false;
  /// At the rate-optimal T, find the schedule minimizing total Ning-Gao
  /// buffers (the Section 7 extension via [18]); implies solving to
  /// optimality instead of first feasibility.
  bool MinimizeBuffers = false;
  /// Run the independent verifier on every schedule found (cheap).
  bool VerifySchedules = true;
  /// Try an LP-rounding primal probe before branch and bound: round the LP
  /// relaxation's A matrix to offsets, complete the mapping by first-fit
  /// circular-arc coloring and the K vector by Bellman-Ford.  This is the
  /// analogue of the primal heuristics commercial MILP codes run
  /// internally; it never affects infeasibility proofs (those always come
  /// from the exhaustive search or the LP itself).
  bool LpRoundingProbe = true;
  /// Cooperative cancellation/deadline token, polled between candidate T
  /// and inside the branch-and-bound node loop.  A default token never
  /// fires; the scheduling service installs per-loop deadlines here.
  CancellationToken Cancel;
};

/// LP effort spent by one solve (see LpStats): how much simplex work the
/// answer cost, and how much of it started warm.
struct LpEffort {
  std::int64_t Pivots = 0;
  std::int64_t Refactorizations = 0;
  std::int64_t Solves = 0;
  std::int64_t WarmSolves = 0;

  LpEffort &operator+=(const LpEffort &O) {
    Pivots += O.Pivots;
    Refactorizations += O.Refactorizations;
    Solves += O.Solves;
    WarmSolves += O.WarmSolves;
    return *this;
  }
};

/// One candidate-T attempt record.
struct TAttempt {
  int T = 0;
  /// True when T was skipped for violating the modulo constraint.
  bool ModuloSkipped = false;
  MilpStatus Status = MilpStatus::Unknown;
  /// What censored this attempt's proof (SearchStop::None when nothing
  /// did) — distinguishes time limit / node limit / cancellation.
  SearchStop StopReason = SearchStop::None;
  double Seconds = 0.0;
  /// Branch-and-bound nodes (MILP) or CDCL conflicts (SAT).
  std::int64_t Nodes = 0;
  /// Simplex effort behind this attempt (probe + all node relaxations).
  LpEffort Lp;
};

/// One candidate-T step of the sweep: decides period \p T, writes the
/// schedule to \p Out when one is found and the typed error to \p Error
/// when the attempt fails, and \returns the attempt record.
using PeriodSolveFn =
    std::function<TAttempt(int T, ModuloSchedule &Out, Status &Error)>;

/// Which rung of the service's fallback ladder produced the schedule.
/// The ladder degrades ILP -> slack-modulo -> iterative-modulo; None means
/// the primary (ILP or portfolio) path answered.
enum class FallbackRung {
  None,
  SlackModulo,
  IterativeModulo,
};

/// Short stable name of \p R ("none", "slack-modulo", ...).
const char *fallbackRungName(FallbackRung R);

/// Result of the rate-optimal search.
struct SchedulerResult {
  /// The schedule (T == 0 when none was found within the window/limits).
  ModuloSchedule Schedule;
  int TDep = 0;
  int TRes = 0;
  int TLowerBound = 0;
  /// True when every T below the found one was proven infeasible.
  bool ProvenRateOptimal = false;
  /// True when the independent verifier rejected an extracted schedule
  /// (a bug — never expected; the schedule is then discarded).
  bool VerifyFailed = false;
  /// True when the search was cut short by the options' cancellation
  /// token (deadline or explicit cancel); the result covers only the T
  /// attempted before the cut.
  bool Cancelled = false;
  /// Typed library error (ok() when the search ran normally).  A non-ok
  /// status can coexist with a found schedule when a fallback rung
  /// answered after the primary path failed.
  Status Error;
  /// Which fallback rung produced Schedule (None on the primary path);
  /// set by the scheduling service's fallback ladder.
  FallbackRung Fallback = FallbackRung::None;
  /// True when fault-injection sites fired during this solve; such results
  /// never claim censored-proof optimality and are never cached.
  bool FaultsSeen = false;
  /// True when this result was served from the ResultCache (warm hit); the
  /// cached copy itself stores false, so a hit differs from its cold solve
  /// only in this flag.
  bool CacheHit = false;
  /// Watchdog retries the service spent on this job (transient faults).
  int Retries = 0;
  double TotalSeconds = 0.0;
  std::int64_t TotalNodes = 0;
  /// Simplex effort summed over every attempt.
  LpEffort TotalLp;
  std::vector<TAttempt> Attempts;

  bool found() const { return Schedule.T > 0; }

  /// Renders the per-attempt SearchStop chain ("T=3 infeasible; T=4
  /// lp-stall; ...") — the evidence trail behind an unfound/censored
  /// result.
  std::string stopChain() const;
};

/// The candidate-T sweep shared by both exact engines: validates the
/// input (errors carry phase \p Phase), computes the bounds, skips
/// modulo-infeasible T, and calls \p SolveAtT on every other T of the
/// window until one yields a schedule.  It polls Opts.Cancel between
/// attempts, keeps the first typed error, verifies the found schedule when
/// Opts.VerifySchedules is set, claims rate optimality only when every
/// smaller T was proven infeasible, and flags injected faults that fired
/// during the sweep.
SchedulerResult sweepPeriods(const Ddg &G, const MachineModel &Machine,
                             const SchedulerOptions &Opts, const char *Phase,
                             const PeriodSolveFn &SolveAtT);

/// Runs the rate-optimal search for \p G on \p Machine with the MILP.
SchedulerResult scheduleLoop(const Ddg &G, const MachineModel &Machine,
                             const SchedulerOptions &Opts = {});

/// Builds and solves the MILP for one fixed \p T; \returns the attempt
/// record (status, what censored the search, seconds, nodes, simplex
/// effort) and, when feasible, writes the extracted schedule to \p Out.
/// \p ErrorOut, when non-null, receives the typed error of a failed
/// attempt.
TAttempt scheduleAtT(const Ddg &G, const MachineModel &Machine, int T,
                     const SchedulerOptions &Opts, ModuloSchedule &Out,
                     Status *ErrorOut = nullptr);

} // namespace swp

#endif // SWP_CORE_DRIVER_H
