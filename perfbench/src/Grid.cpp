//===- Grid.cpp - paper-grid and grid-parallel workloads ------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation grid: the ten standard workloads under the
/// conservative, baseline and ALAT strategies at train 1 / ref 4, the
/// grid srp-bench times. paper-grid runs it as 30 serial
/// core::runPipeline calls sharing one fresh ProfileCache per round;
/// grid-parallel hands the same 30 pipelines to core::runExperiments
/// with two workers.
///
/// Checks: every pipeline's simulated output equals the interpreter's
/// output on the same ref build (core::oracleOutput), and every
/// pipeline's deterministic result equals a reference run of the same
/// (workload, config): on paper-grid, its own first run; on
/// grid-parallel, a serial runPipeline made after the timed phase.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Experiment.h"
#include "core/ProfileCache.h"
#include "support/Hash.h"
#include "support/RNG.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <numeric>

using namespace perfbench;
using namespace srp;

namespace {

class GridWorkload : public Workload {
public:
  explicit GridWorkload(bool Parallel) : Parallel(Parallel) {}

  unsigned workers() const override { return Parallel ? 2 : 1; }
  size_t distinctOps() const override { return Exps.size(); }

  void setUp(uint64_t Seed) override {
    Ws = workloads::standardWorkloads();
    Strategies = paperStrategies();
    Exps.clear();
    for (const core::Workload &W : Ws)
      for (const auto &[Name, C] : Strategies)
        Exps.push_back({&W, C, W.Name + "/" + Name});
    Order.resize(Exps.size());
    std::iota(Order.begin(), Order.end(), 0);
    Shuffle = RNG(Seed * 0x9e3779b97f4a7c15ULL + 1);
    clearRecords();
  }

  RoundTiming runRound(Tracer *T) override {
    RoundTiming RT;
    std::vector<core::PipelineResult> Res(Exps.size());
    if (Parallel)
      parallelRound(T, RT, Res);
    else
      serialRound(T, RT, Res);
    for (size_t I = 0; I < Res.size(); ++I)
      Recs.push_back(recordOf(I, Res[I]));
    return RT;
  }

  void clearRecords() override { Recs.clear(); }

  uint64_t check(Tracer *T) override {
    computeReferences(T);
    uint64_t Failed = 0;
    for (const OpRec &R : Recs)
      Failed += !(R.Ok && outputMatches(R) && resultMatches(R));
    return Failed;
  }

  uint64_t simCycles() const override { return SimCycles; }

  unsigned selfTestNegatives(std::string &Log) override {
    unsigned Missed = 0;
    const core::Experiment &E = Exps.front();
    core::ProfileCache PC;
    core::PipelineResult R = core::runPipeline(*E.W, E.Config, &PC);
    if (!(outputMatches(recordOf(0, R)) && resultMatches(recordOf(0, R)))) {
      Log += "  unperturbed reference pipeline failed its checks\n";
      ++Missed;
    }
    core::PipelineResult ChangedLine = R;
    if (!ChangedLine.Output.empty())
      ChangedLine.Output.front() += "0";
    else
      ChangedLine.Output.push_back("0");
    bool Caught = !outputMatches(recordOf(0, ChangedLine));
    Log += std::string("  changed output line vs interpreter oracle: ") +
           (Caught ? "caught" : "MISSED") + "\n";
    Missed += !Caught;
    core::PipelineResult OffByOne = R;
    ++OffByOne.Sim.Counters.RetiredLoads;
    Caught = !resultMatches(recordOf(0, OffByOne));
    Log += std::string("  counter off by one vs ") +
           (Parallel ? "serial grid" : "first run") + ": " +
           (Caught ? "caught" : "MISSED") + "\n";
    Missed += !Caught;
    return Missed;
  }

private:
  struct OpRec {
    uint32_t Distinct = 0;
    bool Ok = false;
    uint64_t OutHash = 0;
    uint64_t KeyHash = 0;
    uint64_t Cycles = 0;
  };

  static OpRec recordOf(size_t Distinct, const core::PipelineResult &R) {
    OpRec Rec;
    Rec.Distinct = static_cast<uint32_t>(Distinct);
    Rec.Ok = R.Ok;
    Rec.OutHash = outputHash(R.Output);
    Rec.KeyHash = fnv1a64(resultKey(R));
    Rec.Cycles = R.Sim.Counters.Cycles;
    return Rec;
  }

  bool outputMatches(const OpRec &R) const {
    return R.OutHash == OracleHash[R.Distinct / Strategies.size()];
  }
  bool resultMatches(const OpRec &R) const {
    return R.KeyHash == RefKey[R.Distinct];
  }

  /// What core::runPipeline puts in its state.
  static std::function<void(core::PipelineState &)>
  initFor(const core::Experiment &E, core::ProfileCache *PC) {
    return [&E, PC](core::PipelineState &S) {
      S.W = E.W;
      S.Config = E.Config;
      S.ProfCache = PC;
    };
  }

  void serialRound(Tracer *T, RoundTiming &RT,
                   std::vector<core::PipelineResult> &Res) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Shuffle.nextBelow(I)]);
    core::ProfileCache PC;
    SpanScope Round(T, "round", 0, 0);
    RoundClock Clock;
    for (size_t I : Order) {
      const core::Experiment &E = Exps[I];
      double Start = wallNow();
      if (T) {
        Res[I] = runStandardPasses(initFor(E, &PC), T, "core.runPipeline",
                                   Round.id(), ++NextOp);
      } else {
        Res[I] = core::runPipeline(*E.W, E.Config, &PC);
      }
      RT.OpMs.push_back((wallNow() - Start) * 1e3);
    }
    Clock.stop(RT);
  }

  /// Two workers. Untraced, the round is one core::runExperiments call
  /// and an op's latency is the sum of its pass times (the pipeline's own
  /// timer; the pool hides per-pipeline boundaries). Traced, the same
  /// pool (core::parallelFor, shared ProfileCache) runs the instrumented
  /// pipelines.
  void parallelRound(Tracer *T, RoundTiming &RT,
                     std::vector<core::PipelineResult> &Res) {
    SpanScope Round(T, "round", 0, 0);
    RoundClock Clock;
    if (T) {
      core::ProfileCache PC;
      uint64_t FirstOp = NextOp + 1;
      NextOp += Exps.size();
      core::parallelFor(2, Exps.size(), [&](size_t I) {
        Res[I] = runStandardPasses(initFor(Exps[I], &PC), T,
                                   "core.runPipeline", Round.id(),
                                   FirstOp + I);
      });
    } else {
      core::ExperimentOptions Opts;
      Opts.Threads = 2;
      Res = core::runExperiments(Exps, Opts);
    }
    Clock.stop(RT);
    for (const core::PipelineResult &R : Res) {
      uint64_t Us = 0;
      for (const core::PipelineResult::PassTiming &PT : R.Timings)
        Us += PT.Micros;
      RT.OpMs.push_back(static_cast<double>(Us) * 1e-3);
    }
  }

  /// Interpreter output per workload, and the reference result per
  /// distinct pipeline.
  void computeReferences(Tracer *T) {
    OracleHash.clear();
    for (const core::Workload &W : Ws) {
      SpanScope S(T, "interp.reference", 0, 0);
      OracleHash.push_back(outputHash(core::oracleOutput(W)));
    }
    RefKey.assign(Exps.size(), 0);
    std::vector<bool> Have(Exps.size(), false);
    SimCycles = 0;
    if (Parallel) {
      // The serial grid paper-grid times, one runPipeline at a time.
      core::ProfileCache PC;
      for (size_t I = 0; I < Exps.size(); ++I) {
        OpRec Ref = recordOf(I, core::runPipeline(*Exps[I].W, Exps[I].Config,
                                                  &PC));
        RefKey[I] = Ref.KeyHash;
        SimCycles += Ref.Cycles;
      }
      return;
    }
    for (const OpRec &R : Recs)
      if (!Have[R.Distinct]) {
        Have[R.Distinct] = true;
        RefKey[R.Distinct] = R.KeyHash;
        SimCycles += R.Cycles;
      }
  }

  bool Parallel;
  std::vector<core::Workload> Ws;
  std::vector<std::pair<std::string, core::PipelineConfig>> Strategies;
  std::vector<core::Experiment> Exps;
  std::vector<size_t> Order;
  RNG Shuffle{1};
  uint64_t NextOp = 0;
  std::vector<OpRec> Recs;
  std::vector<uint64_t> OracleHash;
  std::vector<uint64_t> RefKey;
  uint64_t SimCycles = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makePaperGrid() {
  return std::make_unique<GridWorkload>(false);
}

std::unique_ptr<Workload> perfbench::makeGridParallel() {
  return std::make_unique<GridWorkload>(true);
}
