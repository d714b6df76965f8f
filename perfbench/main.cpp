//===- perfbench/main.cpp - swpbench: end-to-end benchmark through swpd ---===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
//
// One process starts an in-process swpd (net::Daemon) on a private socket
// and drives it as a closed loop on two net::DaemonClient connections:
// each connection sends its next request only after the previous answer
// arrived and was checked.  Every answer is checked client-side (verifier,
// cycle-accurate replay, II >= T_lb, cache hits byte-identical to their
// first answer).
//
//   swpbench --workload W --seed N --seconds S --trace 0|1 [--self-check]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// requests untraced, then traced on a fresh daemon, replays a sample of
// them layer by layer in-process, and prints the per-layer metrics.  The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/core/Verifier.h"
#include "swp/net/Client.h"
#include "swp/net/Daemon.h"
#include "swp/service/ResultCodec.h"
#include "swp/sim/DynamicSimulator.h"
#include "swp/support/Stopwatch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <memory>
#include <mutex>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace swp;
using namespace swpbench;
namespace fs = std::filesystem;

namespace {

/// Client connections of the closed loop (the VM has 4 cores; the daemon
/// gets one worker per connection).
constexpr int Connections = 2;
/// Set-up (daemon start + warm-up) repetitions; setup_s is their median.
constexpr int SetupReps = 5;
/// Requests the traced run replays layer by layer (an even stride).
constexpr int ReplayCap = 1000;
/// Iterations of the client-side cycle-accurate replay of each schedule.
constexpr int ReplayIterations = 8;
/// Safety stop: a pass that runs this long stops sending, so one run always
/// ends within 180 s.  Every request it never sent counts as attempted and
/// failed, and the run is reported as incorrect.
constexpr double HardStopSeconds = 60.0;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  bool SelfCheck = false;
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

//===-- Failures ---------------------------------------------------------===//

class Failures {
public:
  void add(const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Count++ < 10)
      std::fprintf(stderr, "swpbench: check failed: %s\n", Why.c_str());
  }
  int count() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Count;
  }

private:
  mutable std::mutex Mutex;
  int Count = 0;
};

//===-- A private daemon -------------------------------------------------===//

/// A daemon on a fresh socket in its own directory under .bench_run/, no
/// snapshot directory; both directory and socket are removed on
/// destruction, so no run inherits a warm cache and concurrent runs cannot
/// collide.
class PrivateDaemon {
public:
  explicit PrivateDaemon(const Inputs &In) {
    static std::atomic<int> Counter{0};
    Dir = fs::path(".bench_run") /
          ("swpd-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter++));
    fs::create_directories(Dir);
    net::DaemonOptions O;
    O.SocketPath = (Dir / "s").string();
    O.Service.Jobs = Connections;
    O.Service.Sched = schedulerOptions(*In.Spec);
    // Thresholds far above the client count: nothing is shed or degraded.
    O.Admission.MaxInFlight = 64;
    O.Admission.ReducedEffortAt = 32;
    O.Admission.HeuristicOnlyAt = 48;
    O.IoTimeoutSeconds = 120.0;
    O.MaxServices = 8;
    O.CachePerShardCapacity = cachePerShardCapacity(In);
    D = std::make_unique<net::Daemon>(std::move(O));
  }
  ~PrivateDaemon() {
    D->stop();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    fs::remove(".bench_run", Ec); // Only succeeds once empty.
  }
  PrivateDaemon(const PrivateDaemon &) = delete;
  PrivateDaemon &operator=(const PrivateDaemon &) = delete;

  net::Daemon &daemon() { return *D; }
  const std::string &socket() const { return D->socketPath(); }

private:
  fs::path Dir;
  std::unique_ptr<net::Daemon> D;
};

//===-- Resident memory ---------------------------------------------------===//

/// Resident memory of this process now and at its peak (VmRSS, VmHWM), in
/// MiB.  Without /proc the peak falls back to ru_maxrss and "now" to 0.
struct Rss {
  double NowMb = 0.0;
  double PeakMb = 0.0;
};

Rss readRss() {
  Rss R;
  std::ifstream F("/proc/self/status");
  for (std::string Line; std::getline(F, Line);) {
    double *Field = Line.rfind("VmRSS:", 0) == 0   ? &R.NowMb
                    : Line.rfind("VmHWM:", 0) == 0 ? &R.PeakMb
                                                   : nullptr;
    if (Field)
      *Field = std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  }
  if (R.PeakMb == 0.0) {
    struct rusage U;
    getrusage(RUSAGE_SELF, &U);
    R.PeakMb = static_cast<double>(U.ru_maxrss) / 1024.0;
  }
  return R;
}

/// Sets the peak resident memory (VmHWM) back to the current resident
/// memory; \returns false where the kernel does not allow it.
bool resetPeakRss() {
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.flush();
  return static_cast<bool>(F);
}

//===-- The closed loop --------------------------------------------------===//

std::uint64_t mix(std::uint64_t H, std::uint64_t V) {
  return (H ^ V) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

double percentileOf(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Rank = static_cast<size_t>(
      std::ceil(P * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double median(std::vector<double> V) { return percentileOf(std::move(V), 0.5); }

/// The percentiles are medians over an odd number of blocks of consecutive
/// requests, at most MaxBlocks and each at least MinBlockRequests (so every
/// block's p99 has ten samples beyond it).  A burst of load from outside
/// the benchmark then moves a few blocks, not the result: over ten seeds of
/// ppc604-repeat, one such burst spread the whole-pass p99 by 27% of its
/// median, against 7-12% for the median over blocks in other sets.
constexpr int MaxBlocks = 15;
constexpr int MinBlockRequests = 1000;

struct PassStats {
  /// Completed requests per second of the closed loop: Connections over
  /// the mean round trip over the whole pass (Little's law).  Built from
  /// the RTT alone, so the client's own checks and the drain at the end of
  /// a pass (one connection idle while the other finishes its last solve)
  /// stay out.  Not a median over blocks: a block of ppc604-ilp holds few
  /// enough heavy loops that block rates ranged 1500-3000/s in one pass.
  double LoopsPerS = 0.0;
  double P50Ms = 0.0;
  double P99Ms = 0.0;
  /// Fewest latency samples in a block, and fewest beyond its p99.
  int BlockSamples = 0;
  int BlockBeyondP99 = 0;
  /// Per-block p50 in request order (provenance: drift within a pass
  /// shows here).
  std::vector<double> BlockP50Ms;
  /// Mean client-side work per request outside the RTT (building the
  /// request, checking the answer), in ms.
  double ClientCheckMs = 0.0;
};

/// Number of blocks a pass of \p N requests is cut into.
int blockCount(size_t N) {
  const int K = std::min<int>(MaxBlocks, static_cast<int>(N) / MinBlockRequests);
  return std::max(1, K % 2 ? K : K - 1);
}

PassStats passStats(const std::vector<Answer> &Answers) {
  std::vector<double> Rtt;
  double Busy = 0.0, Check = 0.0;
  for (const Answer &A : Answers)
    if (A.Sent) {
      Busy += A.RttSeconds;
      Check += A.CycleSeconds - A.RttSeconds;
      Rtt.push_back(A.RttSeconds * 1e3);
    }
  PassStats S;
  if (Rtt.empty())
    return S;
  S.LoopsPerS = Connections * Rtt.size() / Busy;
  S.ClientCheckMs = Check * 1e3 / Rtt.size();
  const int K = blockCount(Rtt.size());
  std::vector<double> P99;
  S.BlockSamples = S.BlockBeyondP99 = static_cast<int>(Rtt.size());
  for (int B = 0; B < K; ++B) {
    const std::vector<double> Block(Rtt.begin() + Rtt.size() * B / K,
                                    Rtt.begin() + Rtt.size() * (B + 1) / K);
    const double Tail = percentileOf(Block, 0.99);
    S.BlockP50Ms.push_back(percentileOf(Block, 0.5));
    P99.push_back(Tail);
    S.BlockSamples = std::min(S.BlockSamples, static_cast<int>(Block.size()));
    S.BlockBeyondP99 = std::min(
        S.BlockBeyondP99,
        static_cast<int>(std::count_if(Block.begin(), Block.end(),
                                       [&](double V) { return V > Tail; })));
  }
  S.P50Ms = median(S.BlockP50Ms);
  S.P99Ms = median(P99);
  return S;
}

/// Checks one answer; \returns why it fails ("" when it passes).
std::string checkAnswer(const Inputs &In, const Request &Req,
                        const Expected<net::ScheduleResponseMsg> &R, Answer &A,
                        FirstAnswers &First, bool RecordFirst, TraceLane *TL,
                        int Id) {
  if (!R.ok())
    return "transport: " + R.status().str();
  const net::ScheduleResponseMsg &M = *R;
  if (M.Outcome != net::ResponseOutcome::Solved &&
      M.Outcome != net::ResponseOutcome::Unsolved)
    return std::string("outcome ") + net::responseOutcomeName(M.Outcome) +
           ": " + M.Reason;
  if (M.Degradation != DegradationLevel::None)
    return std::string("degraded: ") + degradationLevelName(M.Degradation);
  if (!M.HasResult)
    return "answer carries no result";
  const SchedulerResult &Res = M.Result;
  const LoopInput &L = In.Loops[static_cast<size_t>(Req.Loop)];
  const MachineModel &Machine =
      In.Machines[static_cast<size_t>(L.Machine)].Machine;

  A.Found = Res.found();
  A.Proven = Res.ProvenRateOptimal;
  A.Hit = Res.CacheHit;
  A.Cancelled = Res.Cancelled;
  A.T = Res.Schedule.T;
  A.TLowerBound = L.TLowerBound;
  A.Attempts = static_cast<int>(Res.Attempts.size());
  A.Fallback = Res.Fallback;
  A.ServerSeconds = Res.CacheHit ? 0.0 : Res.TotalSeconds;
  std::uint64_t E = mix(mix(mix(0, static_cast<std::uint64_t>(A.T)), A.Proven),
                        static_cast<std::uint64_t>(A.Fallback));
  for (const TAttempt &At : Res.Attempts) {
    A.ModuloSkipped += At.ModuloSkipped;
    E = mix(mix(mix(mix(E, static_cast<std::uint64_t>(At.T)),
                    static_cast<std::uint64_t>(At.Status)),
                static_cast<std::uint64_t>(At.StopReason)),
            static_cast<std::uint64_t>(At.Nodes));
  }
  A.Effort = E;

  if (Res.TLowerBound != L.TLowerBound)
    return "daemon T_lb " + std::to_string(Res.TLowerBound) +
           " != client T_lb " + std::to_string(L.TLowerBound);
  if (Res.VerifyFailed || Res.FaultsSeen ||
      (!Res.Error.isOk() && !Res.Cancelled))
    return "result carries an error: " + Res.Error.str();
  if (A.Proven && !A.Found)
    return "proven without a schedule";
  if (A.Hit != Req.ExpectHit)
    return A.Hit ? "unexpected cache hit" : "expected cache hit missed";
  const std::vector<std::uint8_t> &Want =
      First[static_cast<size_t>(Req.Loop)];
  if (A.Hit) {
    Scoped S(TL, "check.bytes", Id);
    SchedulerResult Copy = Res;
    Copy.CacheHit = false;
    if (Want.empty() || schedulerResultBytes(Copy) != Want)
      return "cache hit differs from its first answer";
    return ""; // Identical to an answer already verified and replayed.
  }
  if (A.Found) {
    if (A.T < L.TLowerBound)
      return "II below T_lb";
    {
      Scoped S(TL, "core.verify", Id);
      VerifyResult V = verifySchedule(L.G, Machine, Res.Schedule);
      if (!V.Ok)
        return "verifier rejects the schedule: " + V.Error;
    }
    {
      Scoped S(TL, "sim.replay", Id);
      std::string Err;
      if (!replaySchedule(L.G, Machine, Res.Schedule, ReplayIterations, &Err))
        return "replay rejects the schedule: " + Err;
    }
  }
  if (RecordFirst)
    First[static_cast<size_t>(Req.Loop)] = schedulerResultBytes(Res);
  return "";
}

/// Sends \p Reqs through the daemon as a closed loop on Connections
/// connections; \p Out gets one answer per request.  \p Lanes (traced runs) gets one lane per connection;
/// answers to the request ids in \p Keep are stored in \p Kept.
/// \p BlockPeaksMb gets the peak resident memory of each block of requests
/// (the blocks of passStats), or stays empty where the peak cannot be reset.
void runPass(const Inputs &In, const std::string &Socket,
             const std::vector<Request> &Reqs, std::vector<Answer> &Out,
             FirstAnswers &First, bool RecordFirst, Failures &Fail,
             std::vector<TraceLane> *Lanes = nullptr,
             const std::vector<int> *Keep = nullptr,
             std::vector<net::ScheduleResponseMsg> *Kept = nullptr,
             std::vector<double> *BlockPeaksMb = nullptr) {
  Out.assign(Reqs.size(), Answer());
  const size_t N = Reqs.size();
  const size_t K = static_cast<size_t>(blockCount(N));
  const bool Peaks = BlockPeaksMb && resetPeakRss();
  if (Peaks)
    BlockPeaksMb->assign(K, 0.0);
  std::vector<int> SlotOf;
  if (Keep) {
    SlotOf.assign(Reqs.size(), -1);
    for (size_t K = 0; K < Keep->size(); ++K)
      SlotOf[static_cast<size_t>((*Keep)[K])] = static_cast<int>(K);
    Kept->assign(Keep->size(), {});
  }
  std::atomic<size_t> Next{0};
  std::atomic<bool> Stop{false};
  Stopwatch Watch;
  auto Worker = [&](int Lane) {
    TraceLane *TL = Lanes ? &(*Lanes)[static_cast<size_t>(Lane)] : nullptr;
    Expected<net::DaemonClient> Client =
        net::DaemonClient::connect(Socket, 120.0);
    if (!Client.ok()) {
      Fail.add("connect: " + Client.status().str());
      return;
    }
    for (;;) {
      const size_t I = Next.fetch_add(1);
      if (I >= Reqs.size())
        return;
      if (Peaks) {
        // Request I starts block B: close block B - 1.
        const size_t B = (I * K + N - 1) / N;
        if (B >= 1 && B < K && N * B / K == I) {
          (*BlockPeaksMb)[B - 1] = readRss().PeakMb;
          resetPeakRss();
        }
      }
      if (Watch.seconds() > HardStopSeconds) {
        if (!Stop.exchange(true))
          std::fprintf(stderr, "swpbench: pass stopped after %.0f s\n",
                       HardStopSeconds);
        return;
      }
      const Clock::time_point Begin = Clock::now();
      const Request &Req = Reqs[I];
      const LoopInput &L = In.Loops[static_cast<size_t>(Req.Loop)];
      net::ScheduleRequestMsg Msg{
          Req.Tenant, In.Spec->Scheduler, SafetyDeadlineSeconds,
          In.Machines[static_cast<size_t>(L.Machine)].Text, L.Text};
      Answer &A = Out[I];
      A.Sent = true;
      const int Id = static_cast<int>(I);
      const Clock::time_point T0 = Clock::now();
      Expected<net::ScheduleResponseMsg> R = [&] {
        Scoped S(TL, "client.rpc", Id);
        return Client->schedule(Msg);
      }();
      A.RttSeconds =
          std::chrono::duration<double>(Clock::now() - T0).count();
      const std::string Why =
          checkAnswer(In, Req, R, A, First, RecordFirst, TL, Id);
      if (Why.empty())
        A.Ok = true;
      else
        Fail.add("request " + std::to_string(I) + ": " + Why);
      A.CycleSeconds =
          std::chrono::duration<double>(Clock::now() - Begin).count();
      if (Keep && SlotOf[I] >= 0 && R.ok())
        (*Kept)[static_cast<size_t>(SlotOf[I])] = std::move(*R);
      if (!R.ok())
        return; // The connection is gone.
    }
  };
  std::vector<std::thread> Threads;
  for (int C = 0; C < Connections; ++C)
    Threads.emplace_back(Worker, C);
  for (std::thread &T : Threads)
    T.join();
  if (Peaks)
    BlockPeaksMb->back() = readRss().PeakMb;
}

//===-- Measurement ------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Measurement {
  std::vector<Metric> Metrics;
  std::vector<Answer> Answers;
  ReplayCounters Replay;
  int Attempted = 0;
  int Failed = 0;
  int DeadlineCancels = 0;
  PassStats Pass;
  std::vector<TraceLane> Lanes;
  /// Before any daemon starts, and at the end of the timed pass (its peak
  /// is the timed pass's where the peak can be reset, else the run's).
  Rss RssBaseline, RssPeak;
  /// Peak resident memory of each block of the timed pass.  The peak of a
  /// whole pass is that of its single largest CNF or LP, which the seed
  /// decides: over five 25 s cgra-sat seeds it spread 18% of its median.
  /// The median over blocks is the memory a typical stretch of the pass
  /// holds, and blocks by request count (not by time) put the median at the
  /// same point of a growing cache on every run.
  std::vector<double> RssBlockPeaksMb;
};

/// A pass the safety stop cut is a failed run: the requests it never sent
/// would otherwise drop out of every figure unnoticed.
void requireAllSent(const std::vector<Answer> &Answers, Failures &Fail,
                    const char *Pass) {
  const auto Unsent = std::count_if(Answers.begin(), Answers.end(),
                                    [](const Answer &A) { return !A.Sent; });
  if (Unsent != 0)
    Fail.add(std::string(Pass) + " pass stopped after " +
             std::to_string(static_cast<int>(HardStopSeconds)) + " s with " +
             std::to_string(Unsent) + " requests unsent");
}

/// Starts a daemon and sends the set-up requests through it; \returns the
/// daemon, ready for the timed pass.
std::unique_ptr<PrivateDaemon> setUp(const Inputs &In, FirstAnswers &First,
                                     Failures &Fail) {
  auto D = std::make_unique<PrivateDaemon>(In);
  if (Status St = D->daemon().start(); !St.isOk()) {
    Fail.add("daemon start: " + St.str());
    return D;
  }
  std::vector<Answer> Out;
  runPass(In, D->socket(), In.Setup, Out, First, true, Fail);
  requireAllSent(Out, Fail, "set-up");
  return D;
}

/// Daemon counters before/after a pass.
struct StatsDelta {
  net::DaemonStats Before, After;
  std::uint64_t d(std::uint64_t ServiceStats::*F) const {
    return After.Service.*F - Before.Service.*F;
  }
};

void addCount(Failures &Fail, std::uint64_t V, const char *What) {
  if (V != 0)
    Fail.add(std::string(What) + " = " + std::to_string(V));
}

Measurement measure(const Inputs &In, bool Traced, Failures &Fail) {
  Measurement M;
  FirstAnswers First(In.Loops.size());
  // The benchmark's own memory (inputs, answer records) is resident before
  // any daemon starts; peak_rss_mb is what the daemon and the pass add.
  std::vector<Answer> P(In.Timed.size());
  M.RssBaseline = readRss();
  std::vector<double> SetupTimes;
  std::unique_ptr<PrivateDaemon> D;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    D.reset(); // A fresh daemon each time: nothing stays warm.
    Stopwatch W;
    D = setUp(In, First, Fail);
    SetupTimes.push_back(W.seconds());
  }

  runPass(In, D->socket(), In.Timed, P, First, false, Fail, nullptr, nullptr,
          nullptr, &M.RssBlockPeaksMb);
  const net::DaemonStats Untraced = D->daemon().stats();
  M.RssPeak = readRss();
  if (!M.RssBlockPeaksMb.empty())
    M.RssPeak.PeakMb = *std::max_element(M.RssBlockPeaksMb.begin(),
                                         M.RssBlockPeaksMb.end());
  D.reset();
  requireAllSent(P, Fail, "timed");
  addCount(Fail, Untraced.FrameErrors, "frame errors");
  addCount(Fail, Untraced.IoErrors, "I/O errors");

  // Every timed request is attempted; one the safety stop never sent is
  // not ok.
  double LogRatio = 0.0;
  int Found = 0, Proven = 0, Ok = 0;
  M.Attempted = static_cast<int>(P.size());
  for (const Answer &A : P) {
    M.DeadlineCancels += A.Cancelled;
    Ok += A.Ok;
    Found += A.Ok && A.Found;
    Proven += A.Ok && A.Proven;
    if (A.Ok && A.Found)
      LogRatio += std::log(static_cast<double>(A.T) / A.TLowerBound);
  }
  M.Failed = M.Attempted - Ok;
  const double Att = std::max(1, M.Attempted);
  M.Pass = passStats(P);
  M.Answers = std::move(P);

  if (!Traced) {
    M.Metrics = {
        {"loops_per_s", M.Pass.LoopsPerS, "1/s"},
        {"latency_p50_ms", M.Pass.P50Ms, "ms"},
        {"latency_p99_ms", M.Pass.P99Ms, "ms"},
        {"found_ratio", Found / Att, "ratio"},
        {"proven_ratio", Proven / Att, "ratio"},
        {"ii_over_lb", std::exp(LogRatio / std::max(1, Found)), "ratio"},
        {"ok_ratio", Ok / Att, "ratio"},
        {"peak_rss_mb",
         (M.RssBlockPeaksMb.empty() ? M.RssPeak.PeakMb
                                    : median(M.RssBlockPeaksMb)) -
             M.RssBaseline.NowMb,
         "MiB"},
        {"setup_s", median(SetupTimes), "s"},
    };
    return M;
  }

  // The traced run: same requests, fresh daemon, spans on; then the
  // in-process layer replay of an even sample.
  std::vector<int> Sample;
  // An odd stride, so a workload with a periodic request mix (every 8th
  // ppc604-repeat request is a first-seen loop) still samples every phase.
  const size_t Stride = ((In.Timed.size() + ReplayCap - 1) / ReplayCap) | 1;
  for (size_t I = 0; I < In.Timed.size(); I += Stride)
    Sample.push_back(static_cast<int>(I));
  std::vector<net::ScheduleResponseMsg> Kept;
  M.Lanes.resize(Connections + 1);
  FirstAnswers TracedFirst(In.Loops.size());
  D = setUp(In, TracedFirst, Fail);
  StatsDelta S;
  S.Before = D->daemon().stats();
  std::vector<Answer> TP;
  runPass(In, D->socket(), In.Timed, TP, TracedFirst, false, Fail, &M.Lanes,
          &Sample, &Kept);
  S.After = D->daemon().stats();
  D.reset();
  requireAllSent(TP, Fail, "traced");
  M.Replay = replayLayers(In, Sample, Kept, TracedFirst, M.Lanes.back());
  if (M.Replay.Mismatches != 0)
    Fail.add(std::to_string(M.Replay.Mismatches) +
             " in-process replays disagree with the daemon");

  std::vector<const TraceLane *> Lanes;
  for (const TraceLane &L : M.Lanes)
    Lanes.push_back(&L);
  auto Us = [&](const char *Name) { return meanSpanMicros(Lanes, Name); };
  const ReplayCounters &C = M.Replay;
  const double Misses = std::max(1, C.Misses);
  const double Reqs = std::max(1, C.Requests);

  std::vector<double> Overhead;
  double Attempts = 0, Skipped = 0, Solved = 0;
  for (const Answer &A : M.Answers) {
    if (!A.Sent)
      continue;
    Overhead.push_back((A.RttSeconds - A.ServerSeconds) * 1e3);
    if (!A.Hit) {
      Attempts += A.Attempts;
      Skipped += A.ModuloSkipped;
      ++Solved;
    }
  }
  const std::uint64_t Hits = S.d(&ServiceStats::CacheHits);
  const std::uint64_t Lookups = Hits + S.d(&ServiceStats::CacheMisses);
  const std::uint64_t HeurWins =
      S.d(&ServiceStats::PortfolioHeuristicWins) +
      S.d(&ServiceStats::PortfolioFallbacks) +
      S.d(&ServiceStats::FallbackSlackWins) +
      S.d(&ServiceStats::FallbackImsWins);
  const std::uint64_t Shed =
      S.After.Admission.Shed - S.Before.Admission.Shed;
  const std::uint64_t Degraded =
      S.After.Admission.ReducedEffort + S.After.Admission.HeuristicOnly -
      S.Before.Admission.ReducedEffort - S.Before.Admission.HeuristicOnly;
  addCount(Fail, S.After.FrameErrors, "frame errors");
  addCount(Fail, S.After.IoErrors, "I/O errors");
  addCount(Fail, Shed, "shed requests");
  addCount(Fail, Degraded, "degraded requests");
  const double LoopsPerS = M.Pass.LoopsPerS;
  const double TracedLoopsPerS = passStats(TP).LoopsPerS;
  int ReplayFailures = 0;
  for (const Answer &A : TP)
    ReplayFailures += A.Sent && !A.Ok;

  M.Metrics = {
      {"trace.untraced_loops_per_s", LoopsPerS, "1/s"},
      {"trace.traced_loops_per_s", TracedLoopsPerS, "1/s"},
      {"trace.overhead", 1.0 - TracedLoopsPerS / LoopsPerS, "ratio"},
      {"net.overhead_p50_ms", median(Overhead), "ms"},
      {"net.request_bytes", C.RequestBytes / Reqs, "bytes"},
      {"net.response_bytes", C.ResponseBytes / Reqs, "bytes"},
      {"net.encode_us", Us("net.encode"), "us"},
      {"net.decode_us", Us("net.decode"), "us"},
      {"net.frame_errors", static_cast<double>(S.After.FrameErrors), "count"},
      {"net.io_errors", static_cast<double>(S.After.IoErrors), "count"},
      {"textio.parse_machine_us", Us("textio.parse_machine"), "us"},
      {"textio.parse_loop_us", Us("textio.parse_loop"), "us"},
      {"textio.print_loop_us", Us("textio.print_loop"), "us"},
      {"service.fingerprint_us", Us("service.fingerprint"), "us"},
      {"service.cache_lookup_us", Us("service.cache_lookup"), "us"},
      {"service.cache_insert_us", Us("service.cache_insert"), "us"},
      {"service.admit_us", Us("service.admit"), "us"},
      {"service.result_encode_us", Us("service.result_encode"), "us"},
      {"service.cache_hit_ratio",
       Lookups ? static_cast<double>(Hits) / static_cast<double>(Lookups) : 0,
       "ratio"},
      {"service.cache_size", static_cast<double>(S.After.Service.CacheSize),
       "count"},
      {"service.censored_proofs",
       static_cast<double>(S.d(&ServiceStats::CensoredProofs)), "count"},
      {"service.fallback_rungs",
       static_cast<double>(S.d(&ServiceStats::FallbackSlackWins) +
                           S.d(&ServiceStats::FallbackImsWins)),
       "count"},
      {"service.shed", static_cast<double>(Shed), "count"},
      {"service.degraded", static_cast<double>(Degraded), "count"},
      {"ddg.bounds_us", Us("ddg.bounds"), "us"},
      {"core.t_attempts_per_loop", Solved ? Attempts / Solved : 0,
       "count/loop"},
      {"core.modulo_skipped", Skipped, "count"},
      {"core.build_model_us", Us("core.build_model"), "us"},
      {"core.model_rows", C.ModelRows / Misses, "count/loop"},
      {"core.model_cols", C.ModelCols / Misses, "count/loop"},
      {"core.model_nonzeros", C.ModelNonzeros / Misses, "count/loop"},
      {"core.verify_us", Us("core.verify"), "us"},
      {"solver.presolve_us", Us("solver.presolve"), "us"},
      {"solver.root_lp_us", Us("solver.root_lp"), "us"},
      {"solver.root_lp_pivots", C.RootLpPivots / Misses, "count/loop"},
      {"solver.milp_us", Us("solver.milp"), "us"},
      {"solver.bnb_nodes", C.BnbNodes / Misses, "count/loop"},
      {"solver.lp_pivots", C.LpPivots / Misses, "count/loop"},
      {"solver.censored_attempts", static_cast<double>(C.SolverCensored),
       "count"},
      {"sat.encode_us", Us("sat.encode"), "us"},
      {"sat.solve_at_t_us", Us("sat.solve_at_t"), "us"},
      {"sat.conflicts", C.SatConflicts / Misses, "count/loop"},
      {"sat.cycle_blocks", C.SatCycleBlocks / Misses, "count/loop"},
      {"sat.blocks_per_conflict",
       C.SatConflicts > 0 ? C.SatCycleBlocks / C.SatConflicts : 0, "ratio"},
      {"sat.vars", C.SatVars / Misses, "count/loop"},
      {"sat.clauses", C.SatClauses / Misses, "count/loop"},
      {"sat.censored_attempts", static_cast<double>(C.SatCensored), "count"},
      {"heuristics.ims_us", Us("heuristics.ims"), "us"},
      {"heuristics.slack_us", Us("heuristics.slack"), "us"},
      {"heuristics.won_share",
       Solved ? static_cast<double>(HeurWins) / Solved : 0, "ratio"},
      {"sim.replay_us", Us("sim.replay"), "us"},
      {"sim.replay_failures", static_cast<double>(ReplayFailures), "count"},
  };
  return M;
}

//===-- Output -----------------------------------------------------------===//

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string list(const std::vector<double> &V) {
  std::string Out = "[";
  char Buf[32];
  for (size_t I = 0; I < V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.4g", I ? ", " : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

const char *compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void writeTrace(const Options &O, const Measurement &M) {
  fs::create_directories(".bench_out");
  const std::string Path = ".bench_out/trace-" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".jsonl";
  std::ofstream F(Path);
  for (size_t L = 0; L < M.Lanes.size(); ++L)
    for (const Span &S : M.Lanes[L].spans())
      F << "{\"lane\":" << L << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"request\":" << S.RequestId
        << "}\n";
  std::printf("trace: %s\n", Path.c_str());
}

void printResult(const Options &O, const Inputs &In, const Measurement &M,
                 double GenSeconds, bool Correct) {
  const WorkloadSpec &W = *In.Spec;
  std::printf(
      "{\"provenance\": {\"commit\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
      "\"workload\": %s, \"seed\": %llu, \"run_seconds\": %d, "
      "\"scheduler\": %s, \"effort_per_t\": %lld, \"max_t_slack\": %d, "
      "\"connections\": %d, \"loop\": \"closed\", \"setup_reps\": %d, "
      "\"cache_per_shard\": %zu, "
      "\"setup_requests\": %zu, \"timed_requests\": %zu, "
      "\"latency_samples\": %d, \"blocks\": %d, "
      "\"block_samples_min\": %d, \"block_samples_beyond_p99_min\": %d, "
      "\"duplicates_skipped\": %d, \"deadline_cancels\": %d, "
      "\"replayed_requests\": %d, "
      "\"replayed_misses\": %d, \"input_digest\": \"%016llx\", "
      "\"input_generation_s\": %.3f, \"client_check_ms\": %.4f, "
      "\"rss_baseline_mb\": %.1f, \"rss_peak_at_baseline_mb\": %.1f, "
      "\"rss_peak_mb\": %.1f, \"rss_block_peaks_mb\": %s, "
      "\"block_p50_ms\": %s}}\n",
      quoted(O.Commit).c_str(), quoted(O.SourceDigest).c_str(),
      quoted(SWPBENCH_BUILD_TYPE).c_str(), quoted(compilerName()).c_str(),
      std::thread::hardware_concurrency(), quoted(W.Name).c_str(),
      static_cast<unsigned long long>(O.Seed), O.Seconds,
      quoted(W.Scheduler).c_str(), static_cast<long long>(W.EffortPerT),
      W.MaxTSlack, Connections, SetupReps, cachePerShardCapacity(In),
      In.Setup.size(), In.Timed.size(),
      M.Attempted, static_cast<int>(M.Pass.BlockP50Ms.size()),
      M.Pass.BlockSamples, M.Pass.BlockBeyondP99,
      In.DuplicatesSkipped, M.DeadlineCancels, M.Replay.Requests,
      M.Replay.Misses,
      static_cast<unsigned long long>(In.Digest), GenSeconds,
      M.Pass.ClientCheckMs, M.RssBaseline.NowMb, M.RssBaseline.PeakMb,
      M.RssPeak.PeakMb, list(M.RssBlockPeaksMb).c_str(),
      list(M.Pass.BlockP50Ms).c_str());
  for (const Metric &Mt : M.Metrics)
    std::printf("%-28s %14.6g %s\n", Mt.Name.c_str(), Mt.Value,
                Mt.Unit.c_str());
  std::string Json =
      "{\"correct\": " + std::string(Correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max(1, M.Attempted)) +
      ", \"failed\": " + std::to_string(M.Attempted > 0 ? M.Failed : 1) +
      ", \"metrics\": {";
  for (size_t I = 0; I < M.Metrics.size(); ++I)
    Json += (I ? ", " : "") + quoted(M.Metrics[I].Name) + ": {\"value\": " +
            num(M.Metrics[I].Value) + ", \"unit\": " +
            quoted(M.Metrics[I].Unit) + "}";
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
}

//===-- Determinism self-check -------------------------------------------===//

/// Runs the traced measurement twice on one seed and compares every
/// per-request effort chain, ratio and replay counter; then checks that
/// seed + 1 yields a different request set.  \returns 0 when all hold.
int selfCheck(const Options &O, const Inputs &In, Failures &Fail) {
  Measurement A = measure(In, true, Fail);
  Measurement B = measure(In, true, Fail);
  int Bad = 0;
  auto Expect = [&](bool Cond, const std::string &What) {
    std::printf("self-check %-44s %s\n", What.c_str(), Cond ? "ok" : "FAIL");
    Bad += !Cond;
  };
  bool SameEffort = A.Answers.size() == B.Answers.size();
  for (size_t I = 0; SameEffort && I < A.Answers.size(); ++I)
    SameEffort = A.Answers[I].Effort == B.Answers[I].Effort &&
                 A.Answers[I].Hit == B.Answers[I].Hit &&
                 A.Answers[I].Found == B.Answers[I].Found;
  Expect(SameEffort, "per-request T chain, nodes/conflicts, hits");
  for (const char *Name :
       {"service.cache_hit_ratio", "core.t_attempts_per_loop",
        "solver.bnb_nodes", "solver.lp_pivots", "solver.root_lp_pivots",
        "sat.conflicts", "sat.cycle_blocks", "sat.clauses",
        "heuristics.won_share", "service.censored_proofs"}) {
    auto Get = [&](const Measurement &M) {
      for (const Metric &Mt : M.Metrics)
        if (Mt.Name == Name)
          return Mt.Value;
      return -1.0;
    };
    Expect(Get(A) == Get(B), std::string(Name) + " repeats");
  }
  // Ratio metrics over the same answers.
  auto Ratios = [](const Measurement &M) {
    int F = 0, P = 0;
    double L = 0;
    for (const Answer &X : M.Answers)
      if (X.Ok && X.Found) {
        ++F;
        P += X.Proven;
        L += std::log(static_cast<double>(X.T) / X.TLowerBound);
      }
    return std::vector<double>{double(F), double(P), L};
  };
  Expect(Ratios(A) == Ratios(B), "found/proven/ii_over_lb repeat");
  const Inputs Other = makeInputs(*In.Spec, O.Seed + 1, O.Seconds);
  Expect(Other.Digest != In.Digest, "seed + 1 gives another request set");
  Expect(Fail.count() == 0, "no failed check in either run");
  std::printf("%s\n", Bad == 0 ? "SELF-CHECK PASS" : "SELF-CHECK FAIL");
  return Bad == 0 ? 0 : 1;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--workload")
      O.Workload = Val();
    else if (A == "--seed")
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atoi(Val().c_str());
    else if (A == "--trace")
      O.Trace = Val() == "1";
    else if (A == "--self-check")
      O.SelfCheck = true;
    else if (A == "--commit")
      O.Commit = Val();
    else if (A == "--source-digest")
      O.SourceDigest = Val();
    else
      return false;
  }
  return findWorkload(O.Workload) && O.Seconds >= 1;
}

} // namespace

int main(int Argc, char **Argv) {
#ifdef __GLIBC__
  // A fixed mmap threshold (glibc's 128 KiB default, but no longer raised
  // on the fly): large solver temporaries go back to the system when freed
  // instead of staying in the heap between cached results, so peak_rss_mb
  // follows live memory.  Left dynamic, its spread over five seeds of
  // ppc604-ilp was about 15% of the median, against about 6% pinned.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: swpbench --workload {%s} --seed N --seconds S "
                 "--trace 0|1 [--self-check]\n",
                 workloadNames().c_str());
    return 2;
  }
  try {
    Stopwatch Gen;
    const Inputs In = makeInputs(*findWorkload(O.Workload), O.Seed, O.Seconds);
    const double GenSeconds = Gen.seconds();
    Failures Fail;
    if (O.SelfCheck)
      return selfCheck(O, In, Fail);
    const Measurement M = measure(In, O.Trace, Fail);
    if (O.Trace)
      writeTrace(O, M);
    const bool Correct = Fail.count() == 0 && M.Failed == 0 && M.Attempted > 0;
    printResult(O, In, M, GenSeconds, Correct);
    return Correct ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "swpbench: %s\n", E.what());
    return 1;
  }
}
