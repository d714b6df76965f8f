//===- perfbench/Workloads.cpp - Seeded benchmark inputs ------------------===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
//
// Why each workload exists, and what it is predicted not to move, is
// recorded in perfbench/README.md.  Every loop a workload sends for the
// first time is structurally distinct (by the daemon's own DDG fingerprint),
// so which requests hit the result cache is a property of the sequence,
// never of how the two client connections interleave.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "swp/ddg/Analysis.h"
#include "swp/machine/Catalog.h"
#include "swp/service/Fingerprint.h"
#include "swp/service/ResultCache.h"
#include "swp/support/Rng.h"
#include "swp/textio/Parser.h"
#include "swp/workload/Corpus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

using namespace swp;
using namespace swpbench;

namespace {

// ILP: 20 nodes/T and at most 4 candidate T per miss.  At 20k nodes/T one
// paper-corpus loop (seed 19950618, loop 856) takes 48.6 s; at 500 nodes/T
// single loops still take up to 9.6 s (24-node loops cost ~6 ms per B&B
// node at T ~ 28), which no run of a few seconds can average out.
// SAT: 100 conflicts/T and at most 2 candidate T.  The conflict budget does
// not bound lazy cycle-blocking rounds, so a censored kernel costs far more
// than its conflicts suggest: at 5000 conflicts/T a 16-node 5x5 kernel took
// 8-9 s, and with the default 64-T window CGRA 3x3 kernel 144 of seed 7
// runs 13k blocking rounds per T and sweeps for minutes.  At 500/T about 1%
// of kernels take 0.1-0.7 s, p99 falls on the edge of that mode, and it
// spread 92-367 ms over ten seeds; at 100/T the same kernels cost ~20 ms.
const WorkloadSpec Workloads[] = {
    {"ppc604-ilp", "ilp", 20, 3, 2300.0, 2000, 0},
    {"cgra-sat", "sat", 100, 1, 700.0, 800, 32},
    {"ppc604-repeat", "portfolio", 20, 3, 22000.0, 4096, 0},
};

/// Share of ppc604-repeat requests that are first-seen loops: every
/// FreshEvery-th request; the rest repeat the primed hot set.
constexpr int FreshEvery = 8;
constexpr double ZipfExponent = 1.0;
constexpr int Tenants = 4;

std::uint64_t fnv(std::uint64_t H, const std::string &S) {
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

/// Draws distinct loops for one machine from a seeded generator stream.
class LoopSource {
public:
  LoopSource(Inputs &In, int Machine, bool Cgra, std::uint64_t Seed)
      : In(In), Machine(Machine), Cgra(Cgra), Stream(Seed) {}

  /// Continues from a new generator stream; loops already drawn stay seen.
  void reseed(std::uint64_t Seed) { Stream = Rng(Seed); }

  /// Appends the next structurally new loop to In.Loops; \returns its index.
  int next() {
    const MachineModel &M = In.Machines[static_cast<size_t>(Machine)].Machine;
    for (;;) {
      const std::uint64_t LoopSeed = Stream.next();
      Ddg Raw = Cgra ? generateRandomCgraLoop(M, LoopSeed)
                     : generateRandomLoop(M, LoopSeed);
      LoopInput L;
      L.Machine = Machine;
      L.Text = printLoop(Raw, M);
      Expected<Ddg> Parsed = parseLoopText(L.Text, M);
      if (!Parsed.ok())
        throw std::runtime_error("generated loop does not parse: " +
                                 Parsed.status().str());
      L.G = std::move(*Parsed);
      if (!Seen.insert(fingerprintDdg(L.G)).second) {
        ++In.DuplicatesSkipped;
        continue;
      }
      L.TLowerBound =
          std::max({1, recurrenceMii(L.G), M.resourceMii(L.G)});
      In.Loops.push_back(std::move(L));
      return static_cast<int>(In.Loops.size()) - 1;
    }
  }

private:
  Inputs &In;
  int Machine;
  bool Cgra;
  Rng Stream;
  std::unordered_set<Fingerprint, FingerprintHasher> Seen;
};

} // namespace

const WorkloadSpec *swpbench::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::string swpbench::workloadNames() {
  std::string Out;
  for (const WorkloadSpec &W : Workloads)
    Out += (Out.empty() ? "" : ", ") + std::string(W.Name);
  return Out;
}

SchedulerOptions swpbench::schedulerOptions(const WorkloadSpec &Spec) {
  SchedulerOptions O;
  // Effort is bounded by counters; the clock limit is set so it never fires.
  O.TimeLimitPerT = 1e9;
  O.NodeLimitPerT = Spec.EffortPerT;
  O.MaxTSlack = Spec.MaxTSlack;
  return O;
}

std::size_t swpbench::cachePerShardCapacity(const Inputs &In) {
  if (In.Spec->CachePerShard != 0)
    return In.Spec->CachePerShard;
  // A quarter of all loops per shard: four times the mean shard load.
  return std::max(ResultCache::DefaultPerShardCapacity,
                  (In.Setup.size() + In.Timed.size()) / 4);
}

Inputs swpbench::makeInputs(const WorkloadSpec &Spec, std::uint64_t Seed,
                            int Seconds) {
  Inputs In;
  In.Spec = &Spec;
  const std::string Name = Spec.Name;
  const bool Cgra = Name == "cgra-sat";
  const int NumTimed = std::max(
      1, static_cast<int>(std::lround(Seconds * Spec.RequestsPerSecond)));

  // CGRA traffic spreads over several catalog grids, so machine texts with
  // topologies exercise textio and the daemon's keyed-service LRU.
  const std::vector<std::string> MachineNames =
      Cgra ? std::vector<std::string>{"cgra-mesh-3x3", "cgra-mesh-4x4",
                                      "cgra-mesh-5x5", "cgra-torus-4x4"}
           : std::vector<std::string>{"ppc604-like"};
  const std::uint64_t NameHash = fnv(0xcbf29ce484222325ULL, Name);
  Rng Mix(NameHash ^ Seed);
  std::vector<LoopSource> Sources;
  Sources.reserve(MachineNames.size());
  for (const std::string &MName : MachineNames) {
    MachineInput MI;
    if (!buildCatalogMachine(MName, MI.Machine))
      throw std::runtime_error("unknown catalog machine " + MName);
    MI.Text = printMachine(MI.Machine);
    In.Machines.push_back(std::move(MI));
    // Set-up loops come from a stream that does not depend on the seed,
    // so setup_s times the same work on every run.  With seeded set-up
    // loops, setup_s spread 0.45-0.83 s over ten ppc604-ilp seeds, while
    // repeats of one seed read within 6%.
    Sources.emplace_back(In, static_cast<int>(In.Machines.size()) - 1, Cgra,
                         fnv(NameHash, MName));
  }
  const bool Repeat = Name == "ppc604-repeat";
  const size_t NumMachines = Sources.size();
  // Request I that is first-seen goes to machine I mod NumMachines.
  auto IsFresh = [&](int I) {
    return !Repeat || I % FreshEvery == FreshEvery - 1;
  };

  for (int I = 0; I < Spec.SetupLoops; ++I) {
    Request R;
    R.Loop = Sources[static_cast<size_t>(I) % NumMachines].next();
    R.Tenant = "warmup";
    In.Setup.push_back(std::move(R));
  }

  // Every timed first-seen loop is drawn up front, from the seed, and
  // shuffled per machine.  A source that skips structural duplicates runs
  // out of small loops first, so loops taken in draw order grow through a
  // pass (on ppc604-ilp the mean node count climbs from 6.4 to 6.9 over the
  // pass, and p50 latency with it); shuffled, every stretch of a pass sees
  // the same mix.
  for (LoopSource &S : Sources)
    S.reseed(Mix.next());
  std::vector<std::vector<int>> Pool(NumMachines);
  for (int I = 0; I < NumTimed; ++I)
    if (IsFresh(I))
      Pool[I % NumMachines].push_back(Sources[I % NumMachines].next());
  for (std::vector<int> &P : Pool)
    for (size_t I = P.size(); I > 1; --I)
      std::swap(P[I - 1], P[static_cast<size_t>(
                              Mix.intIn(0, static_cast<int>(I) - 1))]);
  std::vector<size_t> Used(NumMachines, 0);
  auto Fresh = [&](int I, std::string Tenant) {
    const size_t M = static_cast<size_t>(I) % NumMachines;
    Request R;
    R.Loop = Pool[M][Used[M]++];
    R.Tenant = std::move(Tenant);
    return R;
  };

  if (!Repeat) {
    for (int I = 0; I < NumTimed; ++I)
      In.Timed.push_back(Fresh(I, "bench"));
  } else {
    // Zipf over the primed hot set (rank 0 hottest), with every
    // FreshEvery-th request a first-seen loop: a cache write beside the
    // reads, and a real heuristic/ILP solve.
    std::vector<double> Cdf(In.Setup.size());
    double Sum = 0.0;
    for (size_t R = 0; R < Cdf.size(); ++R)
      Cdf[R] = Sum +=
          1.0 / std::pow(static_cast<double>(R + 1), ZipfExponent);
    for (double &C : Cdf)
      C /= Sum;
    for (int I = 0; I < NumTimed; ++I) {
      const std::string Tenant =
          "tenant-" + std::to_string(Mix.intIn(0, Tenants - 1));
      if (IsFresh(I)) {
        In.Timed.push_back(Fresh(I, Tenant));
        continue;
      }
      const double U = Mix.unit();
      const size_t Rank = static_cast<size_t>(
          std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
      Request R;
      R.Loop = In.Setup[std::min(Rank, Cdf.size() - 1)].Loop;
      R.Tenant = Tenant;
      R.ExpectHit = true;
      In.Timed.push_back(std::move(R));
    }
  }

  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (const MachineInput &M : In.Machines)
    H = fnv(H, M.Text);
  for (const std::vector<Request> *Seq : {&In.Setup, &In.Timed})
    for (const Request &R : *Seq)
      H = fnv(fnv(H, R.Tenant), In.Loops[static_cast<size_t>(R.Loop)].Text);
  In.Digest = H;
  return In;
}
