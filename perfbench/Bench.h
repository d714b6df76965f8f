//===- perfbench/Bench.h - End-to-end benchmark declarations ----*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the swpbench benchmark: the workload inputs made from
/// a seed, the per-request answer record the closed loop keeps, the span
/// tracer, and the in-process layer replay of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PERFBENCH_BENCH_H
#define SWP_PERFBENCH_BENCH_H

#include "swp/core/Driver.h"
#include "swp/ddg/Ddg.h"
#include "swp/machine/MachineModel.h"
#include "swp/net/Wire.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace swpbench {

/// One benchmark workload.  Effort is bounded only by counters: the per-T
/// budget is ILP branch-and-bound nodes or SAT conflicts, and MaxTSlack
/// bounds how many candidate T a miss may try.
struct WorkloadSpec {
  const char *Name;
  /// swpd scheduler name sent with every request.
  const char *Scheduler;
  std::int64_t EffortPerT;
  int MaxTSlack;
  /// Timed requests per --seconds: the request count is fixed by the seed
  /// and the run length, never by the clock, so every ratio and effort
  /// counter repeats exactly for one seed.  Calibrated so that a run lasts
  /// about --seconds on a 4-core x86-64 VM.
  double RequestsPerSecond;
  /// Distinct loops sent during set-up (warm-up, or the hot set to prime).
  int SetupLoops;
  /// Per-shard capacity of the daemon's result cache, or 0 for room for
  /// every loop a run sends.  See cachePerShardCapacity.
  std::size_t CachePerShard;
};

/// \returns the workload called \p Name, or nullptr.
const WorkloadSpec *findWorkload(const std::string &Name);
/// Comma-separated workload names (for usage messages).
std::string workloadNames();

struct MachineInput {
  swp::MachineModel Machine;
  std::string Text;
};

struct LoopInput {
  int Machine = 0;
  /// The loop exactly as the daemon will parse it from Text.
  swp::Ddg G;
  std::string Text;
  /// Client-side T_lb = max(1, T_dep, T_res).
  int TLowerBound = 0;
};

struct Request {
  int Loop = 0;
  std::string Tenant;
  /// Whether the daemon must answer from its cache — a property of the
  /// request sequence alone (see makeInputs).
  bool ExpectHit = false;
};

struct Inputs {
  const WorkloadSpec *Spec = nullptr;
  std::vector<MachineInput> Machines;
  std::vector<LoopInput> Loops;
  /// Sent during set-up, never timed.
  std::vector<Request> Setup;
  std::vector<Request> Timed;
  /// Structural duplicates the generators produced and the benchmark
  /// skipped (every loop it sends for the first time is distinct).
  int DuplicatesSkipped = 0;
  /// Hash over every machine and loop text in order.
  std::uint64_t Digest = 0;
};

/// Generates the inputs of \p Spec for \p Seed and a run of \p Seconds.
Inputs makeInputs(const WorkloadSpec &Spec, std::uint64_t Seed,
                  int Seconds);

/// Per-shard capacity of the daemon's result cache (16 shards).  By default
/// there is room for every loop a run sends, so no primed ppc604-repeat loop
/// is evicted and each cache hit is a property of the request sequence.  A
/// workload that never repeats a loop may fix a capacity its set-up fills:
/// the cache then holds the same number of entries through the whole pass.
/// On cgra-sat a cache that grew from 800 to 12,800 entries through a 20 s
/// pass raised the block p50 by 35-50% from the first block to the last;
/// filled during set-up, the block p50 stayed flat.
std::size_t cachePerShardCapacity(const Inputs &In);

/// First answer (schedulerResultBytes) per loop index, recorded while
/// priming; a later hit must equal its first answer except for CacheHit.
using FirstAnswers = std::vector<std::vector<std::uint8_t>>;

/// Deadline every request carries.  Effort is bounded by counters, and no
/// request of a normal run comes near it (the slowest take ~2 s); it exists
/// because the node budget does not bound LP pivots: the root LP of one
/// 24-node PPC-604 loop at T = 48 (ppc604-ilp seed 203, request 10251)
/// takes 151,737 pivots and 75 s.  A request it cuts is answered by the
/// fallback ladder and counted as deadline_cancels in the provenance.
inline constexpr double SafetyDeadlineSeconds = 10.0;

/// The scheduler options every keyed service of the daemon runs with.
swp::SchedulerOptions schedulerOptions(const WorkloadSpec &Spec);

/// What the closed loop keeps of one answer.
struct Answer {
  bool Sent = false;
  /// Answered in-protocol and passed every client-side check.
  bool Ok = false;
  bool Found = false;
  bool Proven = false;
  bool Hit = false;
  /// Cut by SafetyDeadlineSeconds.
  bool Cancelled = false;
  int T = 0;
  int TLowerBound = 0;
  int Attempts = 0;
  int ModuloSkipped = 0;
  swp::FallbackRung Fallback = swp::FallbackRung::None;
  double RttSeconds = 0.0;
  /// RTT plus the client's own work on the request (building it, checking
  /// the answer): one turn of the closed loop.
  double CycleSeconds = 0.0;
  /// Server-side solve time (0 on a cache hit, which solves nothing).
  double ServerSeconds = 0.0;
  /// Hash of the per-T chain: T, status, stop reason, nodes/conflicts.
  std::uint64_t Effort = 0;
};

//===-- Tracing ----------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

struct Span {
  const char *Name;
  std::int64_t StartNs;
  std::int64_t EndNs;
  /// Index of the enclosing span in the same lane (-1 for a root).
  int Parent;
  int RequestId;
};

/// Spans of one thread, kept in memory until the run writes them out.
class TraceLane {
public:
  /// Opens a span; \returns its index for close().
  int open(const char *Name, int RequestId);
  void close(int Index);
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a null lane records nothing (the untraced run).
class Scoped {
public:
  Scoped(TraceLane *Lane, const char *Name, int RequestId)
      : Lane(Lane), Index(Lane ? Lane->open(Name, RequestId) : -1) {}
  ~Scoped() {
    if (Lane)
      Lane->close(Index);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  TraceLane *Lane;
  int Index;
};

/// Effort counters of the in-process replay, summed over replayed misses.
struct ReplayCounters {
  int Requests = 0;
  int Misses = 0;
  double RequestBytes = 0, ResponseBytes = 0;
  double ModelRows = 0, ModelCols = 0, ModelNonzeros = 0;
  double RootLpPivots = 0, BnbNodes = 0, LpPivots = 0;
  int SolverCensored = 0;
  double SatVars = 0, SatClauses = 0, SatConflicts = 0, SatCycleBlocks = 0;
  int SatCensored = 0;
  /// Replays that disagree with the daemon: a different exact-engine II,
  /// or a different cache verdict.
  int Mismatches = 0;
};

/// Replays the layers behind each sampled request in-process, with spans
/// around every call into a module's public functions.  \p Responses holds
/// the daemon's answer to each sampled request; \p First the set-up
/// answers, which prime the replica cache as they primed the daemon's.
ReplayCounters replayLayers(const Inputs &In, const std::vector<int> &Sample,
                            const std::vector<swp::net::ScheduleResponseMsg>
                                &Responses,
                            const FirstAnswers &First, TraceLane &Lane);

/// Mean duration in microseconds of every span called \p Name.
double meanSpanMicros(const std::vector<const TraceLane *> &Lanes,
                      const char *Name);

} // namespace swpbench

#endif // SWP_PERFBENCH_BENCH_H
