//===- Driver.cpp - Rate-optimal scheduling driver ------------------------===//

#include "swp/core/Driver.h"

#include "swp/core/CircularArcs.h"
#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/solver/Simplex.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <cmath>

using namespace swp;

namespace {

enum class ProbeOutcome { Found, NotFound, LpInfeasible };

int ceilDiv(int A, int B) {
  return A >= 0 ? (A + B - 1) / B : -((-A) / B);
}

/// Completes pattern offsets into a full schedule: the K vector by
/// Bellman-Ford over the k-difference constraints, the mapping by first-fit
/// circular-arc coloring.  \returns false when either step fails.
bool completeSchedule(const Ddg &G, const MachineModel &Machine, int T,
                      MappingKind Mapping, const std::vector<int> &Offsets,
                      ModuloSchedule &Out) {
  const int N = G.numNodes();
  // K vector: k_j - k_i >= ceil((lat - T*m + off_i - off_j) / T).
  std::vector<int> K(static_cast<size_t>(N), 0);
  for (int Pass = 0; Pass <= N; ++Pass) {
    bool Changed = false;
    for (const DdgEdge &E : G.edges()) {
      int W = ceilDiv(E.Latency - T * E.Distance +
                          Offsets[static_cast<size_t>(E.Src)] -
                          Offsets[static_cast<size_t>(E.Dst)],
                      T);
      int Cand = K[static_cast<size_t>(E.Src)] + W;
      if (Cand > K[static_cast<size_t>(E.Dst)]) {
        if (Pass == N)
          return false; // Positive cycle: offsets dependence-infeasible.
        K[static_cast<size_t>(E.Dst)] = Cand;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  Out.T = T;
  Out.StartTime.assign(static_cast<size_t>(N), 0);
  for (int I = 0; I < N; ++I)
    Out.StartTime[static_cast<size_t>(I)] =
        K[static_cast<size_t>(I)] * T + Offsets[static_cast<size_t>(I)];
  Out.Mapping.clear();
  if (Mapping == MappingKind::RunTime)
    return true;

  Out.Mapping.assign(static_cast<size_t>(N), 0);
  for (int R = 0; R < Machine.numTypes(); ++R) {
    std::vector<int> Ops = G.nodesOfClass(R);
    if (Ops.empty())
      continue;
    std::vector<int> TypeOffsets;
    std::vector<const ReservationTable *> Tables;
    for (int Op : Ops) {
      TypeOffsets.push_back(Offsets[static_cast<size_t>(Op)]);
      Tables.push_back(&Machine.tableFor(G.node(Op)));
    }
    std::vector<int> Colors = firstFitUnitColoring(Tables, T, TypeOffsets);
    for (size_t Ix = 0; Ix < Ops.size(); ++Ix) {
      if (Colors[Ix] >= Machine.type(R).Count)
        return false; // First-fit needed more units than exist.
      Out.Mapping[static_cast<size_t>(Ops[Ix])] = Colors[Ix];
    }
  }
  return true;
}

/// LP-rounding primal probe (see SchedulerOptions::LpRoundingProbe).  Runs
/// on the shared workspace, so the branch-and-bound that usually follows
/// starts from the relaxation's optimal basis instead of from scratch.
///
/// Two stages: static rounding of the relaxation's optimum, then a
/// dive-and-fix walk (fix the most decided instruction to its
/// highest-mass slot, warm re-solve, round again).  The dive makes the
/// probe robust to which degenerate vertex the simplex happens to land
/// on — static rounding alone is hostage to that tie-break.
ProbeOutcome lpRoundingProbe(const Ddg &G, const MachineModel &Machine, int T,
                             MappingKind Mapping, const MilpModel &M,
                             SparseLp &Workspace, const FormulationVars &Vars,
                             const CancellationToken &Cancel,
                             ModuloSchedule &Out) {
  LpResult Lp = Workspace.solve(Cancel);
  if (Lp.Status == LpStatus::Infeasible)
    return ProbeOutcome::LpInfeasible;
  if (Lp.Status != LpStatus::Optimal)
    return ProbeOutcome::NotFound;

  const int N = G.numNodes();
  // Two rounding variants: argmax of the A column, and the rounded
  // expected offset sum_t t*a[t][i].
  auto tryRound = [&](const std::vector<double> &X) {
    for (int Variant = 0; Variant < 2; ++Variant) {
      std::vector<int> Offsets(static_cast<size_t>(N), 0);
      for (int I = 0; I < N; ++I) {
        if (Variant == 0) {
          double BestVal = -1.0;
          for (int Slot = 0; Slot < T; ++Slot) {
            double V = X[static_cast<size_t>(
                Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)])];
            if (V > BestVal + 1e-9) {
              BestVal = V;
              Offsets[static_cast<size_t>(I)] = Slot;
            }
          }
        } else {
          double Expect = 0.0;
          for (int Slot = 0; Slot < T; ++Slot)
            Expect += Slot * X[static_cast<size_t>(
                                 Vars.A[static_cast<size_t>(Slot)]
                                       [static_cast<size_t>(I)])];
          Offsets[static_cast<size_t>(I)] =
              std::min(T - 1, std::max(0, static_cast<int>(
                                              std::llround(Expect))));
        }
      }
      ModuloSchedule Candidate;
      if (!completeSchedule(G, Machine, T, Mapping, Offsets, Candidate))
        continue;
      if (verifySchedule(G, Machine, Candidate).Ok) {
        Out = std::move(Candidate);
        return true;
      }
    }
    return false;
  };
  if (tryRound(Lp.X))
    return ProbeOutcome::Found;

  // Dive-and-fix.  Fixing a slot that turns the LP infeasible is undone
  // by forbidding that slot instead (still a relaxation of the remaining
  // subproblem); a small miss budget bounds the thrashing.  Bounds are
  // local — the model is untouched and the caller's branch-and-bound
  // re-solves under its own bound vectors, warm from wherever the dive
  // ended.
  std::vector<double> Lb(static_cast<size_t>(M.numVars()));
  std::vector<double> Ub(static_cast<size_t>(M.numVars()));
  for (int I = 0; I < M.numVars(); ++I) {
    Lb[static_cast<size_t>(I)] = M.var(I).Lb;
    Ub[static_cast<size_t>(I)] = M.var(I).Ub;
  }
  std::vector<char> FixedOp(static_cast<size_t>(N), 0);
  int Misses = 0;
  for (int Round = 0; Round < 2 * N; ++Round) {
    int BestOp = -1;
    int BestSlot = 0;
    double BestVal = -1.0;
    for (int I = 0; I < N; ++I) {
      if (FixedOp[static_cast<size_t>(I)])
        continue;
      for (int Slot = 0; Slot < T; ++Slot) {
        double V = Lp.X[static_cast<size_t>(
            Vars.A[static_cast<size_t>(Slot)][static_cast<size_t>(I)])];
        if (V > BestVal) {
          BestVal = V;
          BestOp = I;
          BestSlot = Slot;
        }
      }
    }
    if (BestOp < 0)
      break; // Everything fixed; the round after the last fix already ran.
    VarId AV =
        Vars.A[static_cast<size_t>(BestSlot)][static_cast<size_t>(BestOp)];
    Lb[static_cast<size_t>(AV)] = 1.0;
    LpResult Next = Workspace.solve(Lb, Ub, Cancel);
    if (Next.Status == LpStatus::Infeasible) {
      Lb[static_cast<size_t>(AV)] = 0.0;
      Ub[static_cast<size_t>(AV)] = 0.0;
      if (++Misses > 3)
        return ProbeOutcome::NotFound;
      Next = Workspace.solve(Lb, Ub, Cancel);
      if (Next.Status != LpStatus::Optimal)
        return ProbeOutcome::NotFound;
      Lp = std::move(Next);
      continue;
    }
    if (Next.Status != LpStatus::Optimal)
      return ProbeOutcome::NotFound; // Cancelled or numerical trouble.
    FixedOp[static_cast<size_t>(BestOp)] = 1;
    Lp = std::move(Next);
    if (tryRound(Lp.X))
      return ProbeOutcome::Found;
  }
  return ProbeOutcome::NotFound;
}

} // namespace

TAttempt swp::scheduleAtT(const Ddg &G, const MachineModel &Machine, int T,
                          const SchedulerOptions &Opts, ModuloSchedule &Out,
                          Status *ErrorOut) {
  Stopwatch Watch;
  TAttempt Attempt;
  Attempt.T = T;
  if (ErrorOut)
    *ErrorOut = Status();
  auto Done = [&](MilpStatus S, SearchStop Stop) {
    Attempt.Status = S;
    Attempt.StopReason = Stop;
    Attempt.Seconds = Watch.seconds();
    return Attempt;
  };

  // Malformed inputs become typed errors instead of downstream asserts or
  // garbage models; T < 1 admits no schedule by definition of the
  // initiation interval.
  if (T < 1 || !G.isWellFormed(Machine.numTypes()) || !Machine.acceptsDdg(G)) {
    if (ErrorOut)
      *ErrorOut = Status(StatusCode::InvalidInput,
                         T < 1 ? "initiation interval T must be >= 1"
                               : "DDG is malformed or uses op classes the "
                                 "machine does not define")
                     .withPhase("schedule-at-t")
                     .withT(T)
                     .withInstance(G.name());
    return Done(MilpStatus::Error, SearchStop::Fault);
  }

  FaultInjector &FI = FaultInjector::instance();
  // Fault injection: the MILP model allocation fails.
  if (FI.shouldFire(FaultSite::Alloc)) {
    if (ErrorOut)
      *ErrorOut = Status(StatusCode::ResourceExhausted,
                         "injected allocation failure building the MILP model")
                     .withPhase("model-build")
                     .withT(T)
                     .withInstance(G.name());
    return Done(MilpStatus::Error, SearchStop::Fault);
  }
  // Fault soundness: an injected spurious "LP infeasible" must never turn
  // into a fake infeasibility proof (and from there into a false
  // rate-optimality claim), so snapshot the site's fire count and
  // downgrade any Infeasible answer produced while it moved.  Concurrent
  // solves can inflate the delta; that only downgrades more, never less.
  const std::uint64_t SpuriousBefore = FI.fired(FaultSite::LpInfeasible);
  auto Faulted = [&FI, SpuriousBefore]() {
    return FI.fired(FaultSite::LpInfeasible) > SpuriousBefore;
  };

  const bool Optimizing = Opts.ColoringObjective || Opts.MinimizeBuffers;
  FormulationOptions FOpts;
  FOpts.Mapping = Opts.Mapping;
  FOpts.ColoringObjective = Opts.ColoringObjective;
  FOpts.BufferObjective = Opts.MinimizeBuffers;
  // Pure feasibility checks can pin one instruction's pattern step
  // (rotation symmetry breaking); the optimizing path keeps the full
  // symmetric model because its warm start is lifted from an un-rotated
  // schedule.
  FOpts.BreakRotation = !Optimizing;
  FormulationVars Vars;
  MilpModel M = buildScheduleModel(G, Machine, T, FOpts, Vars);

  MilpOptions MOpts;
  MOpts.Cancel = Opts.Cancel;
  if (Optimizing) {
    // Get any feasible schedule first (cheap: probe + first-incumbent
    // search) and lift it into a warm start, so a censored optimization
    // never returns anything worse than plain feasibility scheduling.
    SchedulerOptions FeasOpts = Opts;
    FeasOpts.ColoringObjective = false;
    FeasOpts.MinimizeBuffers = false;
    ModuloSchedule FeasSched;
    TAttempt Feas = scheduleAtT(G, Machine, T, FeasOpts, FeasSched);
    Attempt.Lp += Feas.Lp;
    if (Feas.Status == MilpStatus::Infeasible)
      return Done(MilpStatus::Infeasible, SearchStop::None);
    if (Feas.Status == MilpStatus::Optimal ||
        Feas.Status == MilpStatus::Feasible)
      MOpts.WarmStart = scheduleToAssignment(G, Machine, T, FOpts, Vars,
                                             FeasSched, M.numVars());
  }

  // One LP workspace serves the rounding probe and every branch-and-bound
  // node of this T; presolve runs once here.
  SparseLp Workspace(M);
  auto Finish = [&](MilpStatus S, SearchStop Stop) {
    const LpStats &WS = Workspace.stats();
    Attempt.Lp.Pivots += WS.totalPivots();
    Attempt.Lp.Refactorizations += WS.Refactorizations;
    Attempt.Lp.Solves += WS.Solves;
    Attempt.Lp.WarmSolves += WS.WarmSolves;
    return Done(S, Stop);
  };

  // The rounding probe completes offsets with a topology-blind first-fit
  // coloring; on a constraining topology its candidates essentially never
  // verify, so skip straight to branch and bound there.
  const bool ProbeUseful = !(Opts.Mapping == MappingKind::Fixed &&
                             Machine.topologyConstrains());
  if (!Optimizing && Opts.LpRoundingProbe && ProbeUseful) {
    // Primal probe: can settle feasibility (rounded incumbent) or
    // infeasibility (LP relaxation empty) without branching.  The dive
    // stage gets a slice of the per-T budget via a nested deadline so a
    // slow dive can never starve the branch-and-bound that follows.
    CancellationSource ProbeDeadline(Opts.Cancel);
    if (Opts.TimeLimitPerT < 1e8)
      ProbeDeadline.setDeadlineAfter(Opts.TimeLimitPerT * 0.25);
    ModuloSchedule Probed;
    ProbeOutcome Probe =
        lpRoundingProbe(G, Machine, T, Opts.Mapping, M, Workspace, Vars,
                        ProbeDeadline.token(), Probed);
    if (Probe == ProbeOutcome::LpInfeasible)
      return Faulted() ? Finish(MilpStatus::Unknown, SearchStop::Fault)
                       : Finish(MilpStatus::Infeasible, SearchStop::None);
    if (Probe == ProbeOutcome::Found) {
      Out = std::move(Probed);
      return Finish(MilpStatus::Optimal, SearchStop::None);
    }
  }

  MOpts.TimeLimitSec = Opts.TimeLimitPerT;
  MOpts.NodeLimit = Opts.NodeLimitPerT;
  MOpts.StopAtFirstIncumbent = !Optimizing;
  MilpResult Res = solveMilp(Workspace, M, MOpts);
  Attempt.Nodes = Res.Nodes;
  if (Res.Status == MilpStatus::Error && ErrorOut)
    *ErrorOut = Status(Res.Error)
                    .withPhase("milp")
                    .withT(T)
                    .withInstance(G.name());
  if (Res.Status == MilpStatus::Infeasible && Faulted())
    return Finish(MilpStatus::Unknown, SearchStop::Fault);
  if (Res.hasSolution())
    Out = extractSchedule(G, Machine, T, FOpts, Vars, Res.X);
  return Finish(Res.Status, Res.StopReason);
}

SchedulerResult swp::sweepPeriods(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts,
                                  const char *Phase,
                                  const PeriodSolveFn &SolveAtT) {
  SchedulerResult Result;
  // Validate before any analysis: recurrenceMii asserts on zero-distance
  // cycles, and a DDG referencing op classes the machine lacks has no
  // reservation tables to schedule against.  Such inputs return a typed
  // error, never an abort.
  if (!G.isWellFormed(Machine.numTypes()) || !Machine.acceptsDdg(G)) {
    Result.Error = Status(StatusCode::InvalidInput,
                          "DDG is malformed or uses op classes the machine "
                          "does not define")
                       .withPhase(Phase)
                       .withInstance(G.name());
    return Result;
  }
  Result.TDep = recurrenceMii(G);
  Result.TRes = Machine.resourceMii(G);
  Result.TLowerBound = std::max({1, Result.TDep, Result.TRes});

  const std::uint64_t FiredBefore = FaultInjector::instance().totalFired();
  Stopwatch Total;
  bool AllBelowProven = true;
  for (int T = Result.TLowerBound;
       T <= Result.TLowerBound + Opts.MaxTSlack; ++T) {
    if (Opts.Cancel.cancelled()) {
      Result.Cancelled = true;
      break;
    }
    if (!Machine.moduloFeasible(G, T)) {
      // No fixed-assignment schedule can exist at this T (paper Sec. 2);
      // the skip is itself a proof of infeasibility.
      TAttempt Skipped;
      Skipped.T = T;
      Skipped.ModuloSkipped = true;
      Skipped.Status = MilpStatus::Infeasible;
      Result.Attempts.push_back(Skipped);
      continue;
    }

    ModuloSchedule Candidate;
    Status AttemptError;
    const TAttempt Attempt = SolveAtT(T, Candidate, AttemptError);
    Result.TotalNodes += Attempt.Nodes;
    Result.TotalLp += Attempt.Lp;
    Result.Attempts.push_back(Attempt);

    if (Attempt.StopReason == SearchStop::Cancelled)
      Result.Cancelled = true;

    if (Attempt.Status == MilpStatus::Error) {
      // Keep the first typed error for the caller.  Invalid input will
      // fail identically at every T, so stop; transient faults (injected
      // allocation death) leave larger T worth trying, but this T's proof
      // is censored.
      if (Result.Error.isOk())
        Result.Error = AttemptError;
      AllBelowProven = false;
      if (AttemptError.code() == StatusCode::InvalidInput)
        break;
      continue;
    }

    if (Attempt.Status == MilpStatus::Optimal ||
        Attempt.Status == MilpStatus::Feasible) {
      if (Opts.VerifySchedules) {
        VerifyResult V = verifySchedule(G, Machine, Candidate);
        if (!V.Ok) {
          Result.VerifyFailed = true;
          break;
        }
      }
      Result.Schedule = std::move(Candidate);
      Result.ProvenRateOptimal = AllBelowProven;
      break;
    }
    if (Attempt.Status != MilpStatus::Infeasible)
      AllBelowProven = false; // Limit censored the proof at this T.
    if (Result.Cancelled)
      break; // A cancelled attempt proves nothing; larger T are moot too.
  }
  Result.FaultsSeen =
      FaultInjector::instance().totalFired() > FiredBefore;
  Result.TotalSeconds = Total.seconds();
  return Result;
}

SchedulerResult swp::scheduleLoop(const Ddg &G, const MachineModel &Machine,
                                  const SchedulerOptions &Opts) {
  return sweepPeriods(G, Machine, Opts, "driver",
                      [&](int T, ModuloSchedule &Out, Status &Error) {
                        return scheduleAtT(G, Machine, T, Opts, Out, &Error);
                      });
}

const char *swp::fallbackRungName(FallbackRung R) {
  switch (R) {
  case FallbackRung::None:
    return "none";
  case FallbackRung::SlackModulo:
    return "slack-modulo";
  case FallbackRung::IterativeModulo:
    return "iterative-modulo";
  }
  return "?";
}

std::string SchedulerResult::stopChain() const {
  std::string Out;
  for (const TAttempt &A : Attempts) {
    if (!Out.empty())
      Out += "; ";
    Out += "T=" + std::to_string(A.T) + " ";
    if (A.ModuloSkipped) {
      Out += "modulo-skip";
      continue;
    }
    Out += milpStatusName(A.Status);
    if (A.StopReason != SearchStop::None)
      Out += std::string("/") + searchStopName(A.StopReason);
  }
  if (Out.empty())
    Out = Cancelled ? "cancelled before any attempt" : "no attempts";
  return Out;
}
