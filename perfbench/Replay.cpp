//===- perfbench/Replay.cpp - Traced in-process layer replay --------------===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
//
// The traced run answers "which layer took the time" without touching the
// program: after the traced closed-loop pass, the benchmark calls each
// module's public functions itself on a deterministic sample of the same
// requests, with the same options the daemon used, and records a span
// around every call.  Effort counters the wire does not carry (simplex
// pivots, SAT cycle-blocking rounds, CNF size) come from here too.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/core/Formulation.h"
#include "swp/ddg/Analysis.h"
#include "swp/heuristics/IterativeModulo.h"
#include "swp/heuristics/SlackModulo.h"
#include "swp/sat/CdclSolver.h"
#include "swp/sat/CnfEncoder.h"
#include "swp/sat/SatScheduler.h"
#include "swp/service/Admission.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCache.h"
#include "swp/service/ResultCodec.h"
#include "swp/service/SchedulerService.h"
#include "swp/solver/Presolve.h"
#include "swp/solver/Simplex.h"
#include "swp/textio/Parser.h"

#include <stdexcept>

using namespace swp;
using namespace swpbench;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Keeps a result alive past the optimizer without printing it.
template <typename T> void keep(const T &V) {
  asm volatile("" : : "g"(&V) : "memory");
}

} // namespace

int TraceLane::open(const char *Name, int RequestId) {
  const int Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back({Name, nowNs(), 0, Parent, RequestId});
  Stack.push_back(static_cast<int>(Spans.size()) - 1);
  return Stack.back();
}

void TraceLane::close(int Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Stack.pop_back();
}

double swpbench::meanSpanMicros(const std::vector<const TraceLane *> &Lanes,
                                const char *Name) {
  double Sum = 0.0;
  std::int64_t Count = 0;
  for (const TraceLane *L : Lanes)
    for (const Span &S : L->spans())
      if (std::string_view(S.Name) == Name) {
        Sum += static_cast<double>(S.EndNs - S.StartNs);
        ++Count;
      }
  return Count == 0 ? 0.0 : Sum / static_cast<double>(Count) / 1000.0;
}

ReplayCounters swpbench::replayLayers(
    const Inputs &In, const std::vector<int> &Sample,
    const std::vector<net::ScheduleResponseMsg> &Responses,
    const FirstAnswers &First, TraceLane &Lane) {
  const WorkloadSpec &Spec = *In.Spec;
  const SchedulerOptions Sched = schedulerOptions(Spec);
  const std::string Scheduler = Spec.Scheduler;
  const bool Portfolio = Scheduler == "portfolio";
  const bool Sat = Scheduler == "sat";
  const ExactEngine Engine = Sat ? ExactEngine::Sat : ExactEngine::Ilp;

  ReplayCounters C;
  // The replica cache has the daemon's capacity and holds what set-up left
  // in the daemon's, so lookups and inserts run against a cache of the
  // same size (it lacks the misses of the timed pass it did not replay).
  // The admission controller has the daemon's thresholds, but never more
  // than one request in flight.
  ResultCache Cache(16, cachePerShardCapacity(In));
  AdmissionController Admission;
  std::vector<MachineModel> Parsed;
  for (const MachineInput &M : In.Machines) {
    Expected<MachineModel> P = parseMachineText(M.Text);
    if (!P.ok())
      throw std::runtime_error("machine text does not parse");
    Parsed.push_back(std::move(*P));
  }
  for (const Request &Req : In.Setup) {
    const LoopInput &L = In.Loops[static_cast<size_t>(Req.Loop)];
    ByteReader R(First[static_cast<size_t>(Req.Loop)]);
    SchedulerResult Res;
    if (!decodeSchedulerResult(R, Res) || !R.done())
      throw std::runtime_error("set-up answer does not decode");
    Cache.insert(fingerprintJob(L.G, Parsed[static_cast<size_t>(L.Machine)],
                                Sched, Portfolio, SafetyDeadlineSeconds,
                                static_cast<int>(Engine)),
                 Res);
  }
  for (size_t K = 0; K < Sample.size(); ++K) {
    const int Id = Sample[K];
    const Request &Req = In.Timed[static_cast<size_t>(Id)];
    const LoopInput &L = In.Loops[static_cast<size_t>(Req.Loop)];
    const std::string &MachineText =
        In.Machines[static_cast<size_t>(L.Machine)].Text;
    const net::ScheduleResponseMsg &Resp = Responses[K];
    Scoped Root(&Lane, "replay.request", Id);
    ++C.Requests;

    // net: the request and response codecs.
    net::ScheduleRequestMsg Msg{Req.Tenant, Scheduler, SafetyDeadlineSeconds,
                                MachineText, L.Text};
    {
      Scoped S(&Lane, "net.encode", Id);
      ByteWriter W;
      net::encodeScheduleRequest(W, Msg);
      C.RequestBytes += static_cast<double>(W.data().size() +
                                            net::FrameHeaderSize);
    }
    {
      ByteWriter W;
      net::encodeScheduleResponse(W, Resp);
      C.ResponseBytes += static_cast<double>(W.data().size() +
                                             net::FrameHeaderSize);
      Scoped S(&Lane, "net.decode", Id);
      ByteReader R(W.data());
      net::ScheduleResponseMsg Back;
      if (!net::decodeScheduleResponse(R, Back) || !R.done())
        throw std::runtime_error("response does not decode");
      keep(Back);
    }

    // textio: what the daemon parses per request, and the client's print.
    MachineModel Machine;
    Ddg G;
    {
      Scoped S(&Lane, "textio.parse_machine", Id);
      Expected<MachineModel> M = parseMachineText(MachineText);
      if (!M.ok())
        throw std::runtime_error("machine text does not parse");
      Machine = std::move(*M);
    }
    {
      Scoped S(&Lane, "textio.parse_loop", Id);
      Expected<Ddg> P = parseLoopText(L.Text, Machine);
      if (!P.ok())
        throw std::runtime_error("loop text does not parse");
      G = std::move(*P);
    }
    {
      Scoped S(&Lane, "textio.print_loop", Id);
      std::string Text = printLoop(G, Machine);
      keep(Text);
    }

    // service: admission, fingerprint, cache, result codec.
    {
      Scoped S(&Lane, "service.admit", Id);
      AdmissionDecision D =
          Admission.admit(Req.Tenant, SafetyDeadlineSeconds);
      if (D.admitted())
        Admission.complete();
    }
    Fingerprint Key;
    {
      Scoped S(&Lane, "service.fingerprint", Id);
      Key = fingerprintJob(G, Machine, Sched, Portfolio,
                           SafetyDeadlineSeconds, static_cast<int>(Engine));
    }
    bool Hit;
    {
      Scoped S(&Lane, "service.cache_lookup", Id);
      SchedulerResult Out;
      Hit = Cache.lookup(Key, Out);
    }
    if (Hit != Resp.Result.CacheHit)
      ++C.Mismatches;
    if (!Hit) {
      Scoped S(&Lane, "service.cache_insert", Id);
      Cache.insert(Key, Resp.Result);
    }
    {
      Scoped S(&Lane, "service.result_encode", Id);
      std::vector<std::uint8_t> Bytes = schedulerResultBytes(Resp.Result);
      keep(Bytes);
    }
    int TLb;
    {
      Scoped S(&Lane, "ddg.bounds", Id);
      TLb = std::max({1, recurrenceMii(G), Machine.resourceMii(G)});
    }

    // A cache hit solves nothing in the daemon; neither does the replay.
    if (Resp.Result.CacheHit)
      continue;
    ++C.Misses;
    // The same safety deadline as the daemon's, over the whole replay of
    // this miss.
    CancellationSource Deadline;
    Deadline.setDeadlineAfter(SafetyDeadlineSeconds);
    SchedulerOptions Opts = Sched;
    Opts.Cancel = Deadline.token();
    const bool Compare =
        Resp.Result.Fallback == FallbackRung::None && !Resp.Result.Cancelled;
    {
      Scoped S(&Lane, "heuristics.ims", Id);
      ImsOptions O;
      O.MaxTSlack = Sched.MaxTSlack;
      keep(iterativeModuloSchedule(G, Machine, O));
    }
    {
      Scoped S(&Lane, "heuristics.slack", Id);
      SlackOptions O;
      O.MaxTSlack = Sched.MaxTSlack;
      keep(slackModuloSchedule(G, Machine, O));
    }

    if (Sat) {
      {
        Scoped S(&Lane, "sat.encode", Id);
        CdclSolver Solver;
        CnfEncoder Enc(G, Machine, Sched.Mapping, Solver);
        keep(Enc.selector(TLb));
        C.SatVars += Solver.numVars();
        C.SatClauses += Solver.numClauses();
      }
      SatScheduler Engine(G, Machine, Sched.Mapping);
      int Found = 0;
      for (int T = TLb; T <= TLb + Sched.MaxTSlack && Found == 0; ++T) {
        if (!Machine.moduloFeasible(G, T))
          continue;
        Scoped S(&Lane, "sat.solve_at_t", Id);
        SatAttempt A = Engine.solveAtT(T, Sched.TimeLimitPerT,
                                       Sched.NodeLimitPerT, Opts.Cancel);
        C.SatConflicts += static_cast<double>(A.Conflicts);
        C.SatCycleBlocks += A.CycleBlocks;
        C.SatCensored += A.Stop != SearchStop::None;
        if (A.Status == MilpStatus::Optimal || A.Status == MilpStatus::Feasible)
          Found = T;
      }
      if (Compare && !Deadline.token().cancelled() &&
          Found != Resp.Result.Schedule.T)
        ++C.Mismatches;
      continue;
    }

    // ILP stages at T_lb, one call per stage.
    {
      FormulationOptions FOpts;
      FOpts.Mapping = Sched.Mapping;
      FOpts.ColoringObjective = false;
      FOpts.BreakRotation = true;
      FormulationVars Vars;
      MilpModel Model;
      {
        Scoped S(&Lane, "core.build_model", Id);
        Model = buildScheduleModel(G, Machine, TLb, FOpts, Vars);
      }
      C.ModelCols += Model.numVars();
      C.ModelRows += Model.numConstraints();
      for (const ModelConstraint &Row : Model.constraints())
        C.ModelNonzeros += static_cast<double>(Row.Expr.terms().size());
      {
        Scoped S(&Lane, "solver.presolve", Id);
        keep(presolveModel(Model));
      }
      {
        Scoped S(&Lane, "solver.root_lp", Id);
        SparseLp Lp(Model);
        keep(Lp.solve(Opts.Cancel));
        C.RootLpPivots += static_cast<double>(Lp.stats().totalPivots());
      }
    }
    // The whole exact path the service runs for a miss: the ILP sweep, or
    // the portfolio race on ppc604-repeat.
    SchedulerResult R;
    {
      Scoped S(&Lane, "solver.milp", Id);
      R = Portfolio ? portfolioSchedule(G, Machine, Opts)
                    : exactSchedule(G, Machine, Opts, Engine);
    }
    C.BnbNodes += static_cast<double>(R.TotalNodes);
    C.LpPivots += static_cast<double>(R.TotalLp.Pivots);
    for (const TAttempt &A : R.Attempts)
      C.SolverCensored += A.StopReason != SearchStop::None;
    if (Compare && !R.Cancelled && R.Schedule.T != Resp.Result.Schedule.T)
      ++C.Mismatches;
  }
  return C;
}
