//===- SatScheduler.cpp - SAT-backed rate-optimal search ------------------===//

#include "swp/sat/SatScheduler.h"

#include "swp/core/Verifier.h"
#include "swp/ddg/Analysis.h"
#include "swp/support/FaultInjector.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>

using namespace swp;

SatScheduler::SatScheduler(const Ddg &Graph, const MachineModel &M,
                           MappingKind Kind)
    : G(Graph), Machine(M), Mapping(Kind) {
  Valid = G.isWellFormed(Machine.numTypes()) && Machine.acceptsDdg(G);
  if (Valid) {
    Solver = std::make_unique<CdclSolver>();
    Encoder = std::make_unique<CnfEncoder>(G, Machine, Mapping, *Solver);
  }
}

SatScheduler::~SatScheduler() = default;

const SatStats &SatScheduler::stats() const {
  static const SatStats Empty;
  return Solver ? Solver->stats() : Empty;
}

SatAttempt SatScheduler::solveAtT(int T, double TimeLimitSec,
                                  std::int64_t ConflictLimit,
                                  CancellationToken Cancel) {
  Stopwatch Watch;
  SatAttempt A;
  auto finish = [&](MilpStatus St, SearchStop Stop) {
    A.Status = St;
    A.Stop = Stop;
    A.Seconds = Watch.seconds();
    return A;
  };

  if (!Valid || T < 1) {
    A.Error = Status(StatusCode::InvalidInput,
                     T < 1 && Valid
                         ? "initiation interval T must be >= 1"
                         : "DDG is malformed or uses op classes the machine "
                           "does not define")
                  .withPhase("sat-schedule-at-t")
                  .withT(T)
                  .withInstance(G.name());
    return finish(MilpStatus::Error, SearchStop::Fault);
  }

  FaultInjector &FI = FaultInjector::instance();
  // Fault injection: building the CNF slice fails, like the MILP model
  // allocation in scheduleAtT.
  if (FI.shouldFire(FaultSite::Alloc)) {
    A.Error = Status(StatusCode::ResourceExhausted,
                     "injected allocation failure building the CNF encoding")
                  .withPhase("cnf-build")
                  .withT(T)
                  .withInstance(G.name());
    return finish(MilpStatus::Error, SearchStop::Fault);
  }

  if (Encoder->triviallyInfeasible(T))
    return finish(MilpStatus::Infeasible, SearchStop::None);

  // Fault soundness, belt and braces: the solver already reports Unknown
  // (never Unsat) when the injected conflict fault fires, but mirror the
  // driver's downgrade anyway so no future refactor can turn an injected
  // death into a fake infeasibility proof.
  const std::uint64_t FaultsBefore = FI.fired(FaultSite::SatConflict);

  const std::vector<SatLit> Assumptions{Encoder->selector(T)};
  const std::int64_t ConflictsStart = Solver->stats().Conflicts;
  ModuloSchedule Sched;
  std::vector<int> CycleNodes, Offsets;

  for (;;) {
    A.Conflicts = Solver->stats().Conflicts - ConflictsStart;
    if (Cancel.cancelled())
      return finish(MilpStatus::Unknown, SearchStop::Cancelled);
    const double Remaining = TimeLimitSec - Watch.seconds();
    if (Remaining <= 0.0)
      return finish(MilpStatus::Unknown, SearchStop::TimeLimit);
    SatLimits Limits;
    Limits.TimeLimitSec = Remaining;
    Limits.ConflictLimit = ConflictLimit - A.Conflicts;
    Limits.Cancel = Cancel;
    if (Limits.ConflictLimit <= 0)
      return finish(MilpStatus::Unknown, SearchStop::NodeLimit);

    const SatStatus St = Solver->solve(Assumptions, Limits);
    A.Conflicts = Solver->stats().Conflicts - ConflictsStart;

    if (St == SatStatus::Unknown) {
      switch (Solver->lastStop()) {
      case SatStop::TimeLimit:
        return finish(MilpStatus::Unknown, SearchStop::TimeLimit);
      case SatStop::ConflictLimit:
        return finish(MilpStatus::Unknown, SearchStop::NodeLimit);
      case SatStop::Cancelled:
        return finish(MilpStatus::Unknown, SearchStop::Cancelled);
      case SatStop::Fault:
      case SatStop::None:
        return finish(MilpStatus::Unknown, SearchStop::Fault);
      }
    }
    if (St == SatStatus::Unsat) {
      if (FI.fired(FaultSite::SatConflict) > FaultsBefore)
        return finish(MilpStatus::Unknown, SearchStop::Fault);
      return finish(MilpStatus::Infeasible, SearchStop::None);
    }

    // Sat: complete the model; recurrence cycles the pairwise encoding
    // cannot see are refined lazily until a completion exists.
    if (Encoder->decode(T, Sched, CycleNodes, Offsets)) {
      A.Schedule = std::move(Sched);
      return finish(MilpStatus::Optimal, SearchStop::None);
    }
    Encoder->blockCycle(T, CycleNodes, Offsets);
    ++A.CycleBlocks;
  }
}

SchedulerResult swp::satScheduleLoop(const Ddg &G, const MachineModel &Machine,
                                     const SchedulerOptions &Opts) {
  SchedulerResult Result;
  if (!G.isWellFormed(Machine.numTypes()) || !Machine.acceptsDdg(G)) {
    Result.Error = Status(StatusCode::InvalidInput,
                          "DDG is malformed or uses op classes the machine "
                          "does not define")
                       .withPhase("sat-driver")
                       .withInstance(G.name());
    return Result;
  }
  Result.TDep = recurrenceMii(G);
  Result.TRes = Machine.resourceMii(G);
  Result.TLowerBound = std::max({1, Result.TDep, Result.TRes});

  const std::uint64_t FiredBefore = FaultInjector::instance().totalFired();
  Stopwatch Total;
  SatScheduler Engine(G, Machine, Opts.Mapping);
  bool AllBelowProven = true;
  for (int T = Result.TLowerBound;
       T <= Result.TLowerBound + Opts.MaxTSlack; ++T) {
    if (Opts.Cancel.cancelled()) {
      Result.Cancelled = true;
      break;
    }
    TAttempt Attempt;
    Attempt.T = T;
    if (!Machine.moduloFeasible(G, T)) {
      Attempt.ModuloSkipped = true;
      Attempt.Status = MilpStatus::Infeasible;
      Result.Attempts.push_back(Attempt);
      continue;
    }

    SatAttempt A = Engine.solveAtT(T, Opts.TimeLimitPerT, Opts.NodeLimitPerT,
                                   Opts.Cancel);
    Attempt.Status = A.Status;
    Attempt.StopReason = A.Stop;
    Attempt.Seconds = A.Seconds;
    Attempt.Nodes = A.Conflicts;
    Result.TotalNodes += A.Conflicts;
    Result.Attempts.push_back(Attempt);

    if (A.Stop == SearchStop::Cancelled)
      Result.Cancelled = true;

    if (A.Status == MilpStatus::Error) {
      if (Result.Error.isOk())
        Result.Error = A.Error;
      AllBelowProven = false;
      if (A.Error.code() == StatusCode::InvalidInput)
        break;
      continue;
    }

    if (A.Status == MilpStatus::Optimal ||
        A.Status == MilpStatus::Feasible) {
      if (Opts.VerifySchedules) {
        VerifyResult V = verifySchedule(G, Machine, A.Schedule);
        if (!V.Ok) {
          Result.VerifyFailed = true;
          break;
        }
      }
      Result.Schedule = std::move(A.Schedule);
      Result.ProvenRateOptimal = AllBelowProven;
      break;
    }
    if (A.Status != MilpStatus::Infeasible)
      AllBelowProven = false;
    if (Result.Cancelled)
      break;
  }
  Result.FaultsSeen =
      FaultInjector::instance().totalFired() > FiredBefore;
  Result.TotalSeconds = Total.seconds();
  return Result;
}
