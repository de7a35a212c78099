//===- Experiment.cpp - Parallel workload×strategy driver ---------------------===//

#include "core/Experiment.h"

#include "core/ProfileCache.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

using namespace srp;
using namespace srp::core;

// Work-stealing by atomic index: the schedule (which worker runs which
// index) is nondeterministic; determinism is the callback's contract —
// each invocation owns all its state and deposits into its own slot.
void srp::core::parallelFor(unsigned Threads, size_t N,
                            const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Worker = [&Next, &Fn, N] {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      Fn(I);
    }
  };

  size_t NumWorkers = Threads > 1 ? std::min<size_t>(Threads, N) : 1;
  if (NumWorkers <= 1) {
    Worker();
    return;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(NumWorkers);
  for (size_t T = 0; T < NumWorkers; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
}

std::vector<PipelineResult>
srp::core::runExperiments(const std::vector<Experiment> &Exps,
                          const ExperimentOptions &Opts) {
  std::vector<PipelineResult> Results(Exps.size());
  // One profile cache for the whole grid: every config of a workload
  // shares the memoized train run (deterministic at any thread count,
  // see ProfileCache.h).
  ProfileCache PC;
  // Hand out every workload's first config before any workload's second:
  // the train runs of distinct workloads then proceed side by side, and
  // later configs find their snapshot ready instead of waiting on it.
  // Results still land by input index.
  std::vector<size_t> Order(Exps.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<unsigned> Rank(Exps.size());
  std::map<const Workload *, unsigned> Seen;
  for (size_t I = 0; I < Exps.size(); ++I)
    Rank[I] = Seen[Exps[I].W]++;
  std::stable_sort(Order.begin(), Order.end(),
                   [&Rank](size_t A, size_t B) { return Rank[A] < Rank[B]; });
  parallelFor(Opts.Threads, Exps.size(), [&](size_t K) {
    size_t I = Order[K];
    const Experiment &E = Exps[I];
    PipelineResult R = runPipeline(*E.W, E.Config, &PC);
    if (Opts.CheckOracle && R.Ok &&
        R.Output != oracleOutput(*E.W, E.Config.InterpFuel)) {
      R.Ok = false;
      R.Error = "simulated output diverges from the interpreter oracle";
    }
    Results[I] = std::move(R);
  });
  return Results;
}
