//===- ExperimentTest.cpp - Parallel experiment driver tests -------------------===//
//
// The determinism contract of core::runExperiments: a pipeline run is a
// pure function of (workload, config), so the counters coming back must
// be byte-identical for any thread count. PipelineResult::Timings is
// wall-clock and explicitly excluded (see core/Pipeline.h). The grid's
// single-flight memo (core::ProfileCache) runs each train profile and
// each distinct simulation once; the tests here pin both counts and
// that a memoized simulation equals a fresh one. CI runs this suite
// under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/Pass.h"
#include "core/SingleFlight.h"

#include "support/Stats.h"

#include "ir/IRBuilder.h"
#include "workloads/LoopHelper.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

using namespace srp;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// A Figure 1(a)-in-a-loop kernel: the invariant load of `a` crosses a
/// may-aliasing store every iteration, so the ALAT strategy speculates
/// while the baseline falls back to software checking — both paths of the
/// pipeline get exercised.
Workload specKernel() {
  Workload W;
  W.Name = "speckernel";
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(200 * Scale);
    Symbol *A = M.createGlobal("a", TypeKind::Int);
    Symbol *B2 = M.createGlobal("b", TypeKind::Int);
    Symbol *P = M.createGlobal("p", TypeKind::Int);
    Symbol *Zero = M.createGlobal("always_zero", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(directRef(A), Operand::constInt(7));
    // p may point at a (decoy path) but really points at b.
    {
      BasicBlock *Decoy = B.createBlock("decoy");
      BasicBlock *Join = B.createBlock("seeded");
      unsigned TZ = B.emitLoad(directRef(Zero));
      B.setCondBr(Operand::temp(TZ), Decoy, Join);
      B.setBlock(Decoy);
      unsigned TA = B.emitAddrOf(A);
      B.emitStore(directRef(P), Operand::temp(TA));
      B.setBr(Join);
      B.setBlock(Join);
      unsigned TB = B.emitAddrOf(B2);
      B.emitStore(directRef(P), Operand::temp(TB));
    }
    workloads::LoopCtx L =
        workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned T1 = B.emitLoad(directRef(A));
      B.emitStore(indirectRef(P, TypeKind::Int), Operand::temp(L.IdxTemp));
      unsigned T2 = B.emitLoad(directRef(A));
      unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                                 Operand::temp(T2));
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(TS));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
  };
  return W;
}

/// Everything of a result that must be thread-count independent (all of
/// it except Timings).
void expectIdentical(const PipelineResult &A, const PipelineResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(0, std::memcmp(&A.Sim.Counters, &B.Sim.Counters,
                           sizeof(A.Sim.Counters)));
  EXPECT_EQ(0, std::memcmp(&A.Promotion, &B.Promotion,
                           sizeof(A.Promotion)));
  EXPECT_EQ(A.MaxStackedRegs, B.MaxStackedRegs);
  EXPECT_EQ(A.SpecDiags.size(), B.SpecDiags.size());
}

std::vector<Experiment> grid(const Workload &W) {
  std::vector<Experiment> Exps;
  for (const char *Strategy : {"conservative", "baseline", "alat"}) {
    PipelineConfig C =
        configFor(Strategy[0] == 'c'   ? pre::PromotionConfig::conservative()
                  : Strategy[0] == 'b' ? pre::PromotionConfig::baselineO3()
                                       : pre::PromotionConfig::alat());
    Exps.push_back({&W, C, std::string(W.Name) + "/" + Strategy});
  }
  return Exps;
}

TEST(ExperimentTest, ParallelCountersMatchSerialByteForByte) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);

  ExperimentOptions Serial;
  Serial.Threads = 1;
  Serial.CheckOracle = true;
  std::vector<PipelineResult> SerialR = runExperiments(Exps, Serial);

  ExperimentOptions Parallel;
  Parallel.Threads = 4;
  Parallel.CheckOracle = true;
  std::vector<PipelineResult> ParallelR = runExperiments(Exps, Parallel);

  ASSERT_EQ(SerialR.size(), Exps.size());
  ASSERT_EQ(ParallelR.size(), Exps.size());
  for (size_t I = 0; I < Exps.size(); ++I) {
    EXPECT_TRUE(SerialR[I].Ok) << Exps[I].Label << ": " << SerialR[I].Error;
    expectIdentical(SerialR[I], ParallelR[I]);
  }
  // The grid is not degenerate: the strategies really differ.
  EXPECT_LT(SerialR[2].Sim.Counters.RetiredLoads,
            SerialR[0].Sim.Counters.RetiredLoads)
      << "alat must retire fewer loads than conservative";
}

TEST(ExperimentTest, ResultsComeBackInInputOrder) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);
  ExperimentOptions Opts;
  Opts.Threads = 3;
  std::vector<PipelineResult> R = runExperiments(Exps, Opts);
  ASSERT_EQ(R.size(), 3u);
  // Index 0 is conservative, 2 is alat — distinguishable by ALAT checks.
  EXPECT_EQ(R[0].Sim.Counters.AlatChecks, 0u);
  EXPECT_GT(R[2].Sim.Counters.AlatChecks, 0u);
}

TEST(ExperimentTest, MoreThreadsThanExperiments) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = {
      {&W, configFor(pre::PromotionConfig::alat()), "only"}};
  ExperimentOptions Opts;
  Opts.Threads = 8;
  Opts.CheckOracle = true;
  std::vector<PipelineResult> R = runExperiments(Exps, Opts);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].Ok) << R[0].Error;
}

/// Single-flight ProfileCache: four workers racing over the three configs
/// of one workload interpret its train input exactly once — the others
/// wait for (or hit) the one snapshot — and still match a serial run.
TEST(ExperimentTest, TrainRunIsInterpretedOnce) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);
  ExperimentOptions Serial;
  Serial.Threads = 1;
  std::vector<PipelineResult> SerialR = runExperiments(Exps, Serial);

  StatsRegistry &Stats = StatsRegistry::get();
  Stats.clear();
  ExperimentOptions Parallel;
  Parallel.Threads = 4;
  std::vector<PipelineResult> ParallelR = runExperiments(Exps, Parallel);
  EXPECT_EQ(Stats.value("profile.cache.misses"), 1u);
  EXPECT_EQ(Stats.value("profile.cache.hits") +
                Stats.value("profile.cache.waits"),
            2u);
  for (size_t I = 0; I < Exps.size(); ++I) {
    EXPECT_TRUE(ParallelR[I].Ok) << ParallelR[I].Error;
    expectIdentical(SerialR[I], ParallelR[I]);
  }
}

/// A train run that fails (here: starved of fuel) releases every config
/// waiting on it with the same error, and nothing hangs.
TEST(ExperimentTest, FailedTrainRunReleasesWaiters) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);
  for (Experiment &E : Exps)
    E.Config.InterpFuel = 100;
  ExperimentOptions Parallel;
  Parallel.Threads = 4;
  std::vector<PipelineResult> R = runExperiments(Exps, Parallel);
  ASSERT_EQ(R.size(), Exps.size());
  for (const PipelineResult &PR : R) {
    EXPECT_FALSE(PR.Ok);
    EXPECT_EQ(PR.Error, "train run failed: fuel exhausted");
  }
}

/// Compiles \p W under \p Config without any cache; the state keeps the
/// decoded binary.
std::unique_ptr<PipelineState> compile(const Workload &W,
                                       const PipelineConfig &Config) {
  auto S = std::make_unique<PipelineState>();
  S->W = &W;
  S->Config = Config;
  PassManager PM;
  addStandardPasses(PM);
  EXPECT_TRUE(PM.run(*S)) << S->Result.Error;
  return S;
}

void expectSameSim(const arch::SimResult &A, const arch::SimResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.ExitValue, B.ExitValue);
  EXPECT_EQ(0, std::memcmp(&A.Counters, &B.Counters, sizeof(A.Counters)));
  EXPECT_EQ(0, std::memcmp(&A.Alat, &B.Alat, sizeof(A.Alat)));
}

/// The paper grid (10 workloads x 3 strategies) compiles 21 distinct
/// binaries: conservative and baseline promotion produce the same binary
/// for every workload but vortex. The memo simulates each once at any
/// thread count, and every memoized result equals a fresh simulation of
/// that pipeline's own binary.
TEST(ExperimentTest, PaperGridSimulatesEachDistinctBinaryOnce) {
  std::vector<Workload> Ws = workloads::standardWorkloads();
  std::vector<Experiment> Exps;
  for (const Workload &W : Ws)
    for (const pre::PromotionConfig &PC :
         {pre::PromotionConfig::conservative(),
          pre::PromotionConfig::baselineO3(), pre::PromotionConfig::alat()})
      Exps.push_back({&W, configFor(PC), W.Name});

  std::vector<arch::SimResult> Direct;
  for (const Experiment &E : Exps) {
    std::unique_ptr<PipelineState> S = compile(*E.W, E.Config);
    Direct.push_back(arch::simulate(*S->Decoded, E.Config.Sim));
  }

  StatsRegistry &Stats = StatsRegistry::get();
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("-j" + std::to_string(Threads));
    Stats.clear();
    ExperimentOptions Opts;
    Opts.Threads = Threads;
    std::vector<PipelineResult> R = runExperiments(Exps, Opts);
    EXPECT_EQ(Stats.value("sim.cache.misses"), 21u);
    EXPECT_EQ(Stats.value("sim.cache.hits") + Stats.value("sim.cache.waits"),
              9u);
    EXPECT_EQ(Stats.value("profile.cache.misses"), 10u);
    ASSERT_EQ(R.size(), Exps.size());
    for (size_t I = 0; I < Exps.size(); ++I) {
      SCOPED_TRACE(Exps[I].Label + " #" + std::to_string(I));
      EXPECT_TRUE(R[I].Ok) << R[I].Error;
      expectSameSim(R[I].Sim, Direct[I]);
    }
  }
}

/// An ALAT-using binary keys its fault plan and ALAT geometry; an
/// ALAT-free one shares one entry across both.
TEST(ExperimentTest, SimulationMemoKeysWhatCanChangeTheRun) {
  Workload W = specKernel();
  std::unique_ptr<PipelineState> Alat =
      compile(W, configFor(pre::PromotionConfig::alat()));
  std::unique_ptr<PipelineState> Plain =
      compile(W, configFor(pre::PromotionConfig::conservative()));
  ASSERT_TRUE(arch::usesAlat(*Alat->Decoded));
  ASSERT_FALSE(arch::usesAlat(*Plain->Decoded));

  StatsRegistry &Stats = StatsRegistry::get();
  Stats.clear();
  ProfileCache PC;
  arch::SimConfig A, B;
  A.Faults = arch::FaultPlan::fromSeed(3);
  B.Faults = arch::FaultPlan::fromSeed(4);
  expectSameSim(PC.simulate(*Alat->Decoded, A),
                arch::simulate(*Alat->Decoded, A));
  expectSameSim(PC.simulate(*Alat->Decoded, B),
                arch::simulate(*Alat->Decoded, B));
  EXPECT_EQ(PC.numSimulations(), 2u);
  expectSameSim(PC.simulate(*Alat->Decoded, B),
                arch::simulate(*Alat->Decoded, B));
  EXPECT_EQ(PC.numSimulations(), 2u);
  EXPECT_EQ(Stats.value("sim.cache.hits"), 1u);

  arch::SimConfig Small;
  Small.Alat.Entries = 16;
  PC.simulate(*Plain->Decoded, arch::SimConfig());
  expectSameSim(PC.simulate(*Plain->Decoded, Small),
                arch::simulate(*Plain->Decoded, Small));
  EXPECT_EQ(PC.numSimulations(), 3u);
  EXPECT_EQ(Stats.value("sim.cache.misses"), 3u);
  EXPECT_EQ(Stats.value("sim.cache.hits"), 2u);
}

/// A trap is a deterministic result of the key (the budget is part of
/// it), so it is memoized with its exact error text.
TEST(ExperimentTest, BudgetTrapIsMemoized) {
  Workload W = specKernel();
  std::unique_ptr<PipelineState> S =
      compile(W, configFor(pre::PromotionConfig::alat()));
  arch::SimConfig C;
  C.MaxInstructions = 100;
  const arch::SimResult Fresh = arch::simulate(*S->Decoded, C);
  ASSERT_FALSE(Fresh.Ok);
  EXPECT_EQ(Fresh.Error, "instruction budget exhausted");

  StatsRegistry &Stats = StatsRegistry::get();
  Stats.clear();
  ProfileCache PC;
  expectSameSim(PC.simulate(*S->Decoded, C), Fresh);
  expectSameSim(PC.simulate(*S->Decoded, C), Fresh);
  EXPECT_EQ(Stats.value("sim.cache.misses"), 1u);
  EXPECT_EQ(Stats.value("sim.cache.hits"), 1u);
}

/// The memo holds at most MaxEntries finished simulations, dropping the
/// oldest: the first key is recomputed, the newest is still a hit.
TEST(ExperimentTest, SimulationMemoIsBounded) {
  Workload W = specKernel();
  std::unique_ptr<PipelineState> S =
      compile(W, configFor(pre::PromotionConfig::conservative()));
  ProfileCache PC;
  auto Budget = [](uint64_t N) {
    arch::SimConfig C;
    C.MaxInstructions = N;
    return C;
  };
  const size_t N = ProfileCache::MaxEntries + 6;
  for (uint64_t I = 1; I <= N; ++I)
    PC.simulate(*S->Decoded, Budget(I));
  EXPECT_EQ(PC.numSimulations(), ProfileCache::MaxEntries);

  StatsRegistry &Stats = StatsRegistry::get();
  Stats.clear();
  PC.simulate(*S->Decoded, Budget(N));
  EXPECT_EQ(Stats.value("sim.cache.hits"), 1u);
  PC.simulate(*S->Decoded, Budget(1));
  EXPECT_EQ(Stats.value("sim.cache.misses"), 1u);
  EXPECT_EQ(PC.numSimulations(), ProfileCache::MaxEntries);
}

/// A leader that drops its claim without publishing (an exception in
/// its computation) fails the key: a waiter is released with an error
/// instead of blocking forever, and the next caller leads afresh.
TEST(ExperimentTest, AbandonedLeadReleasesWaiters) {
  SingleFlight<int> SF("test.flight", 4);
  SingleFlight<int>::Claim Waiter;
  {
    SingleFlight<int>::Claim Lead = SF.acquire("k");
    ASSERT_TRUE(Lead.Lead);
    std::thread T([&] { Waiter = SF.acquire("k"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Lead = SingleFlight<int>::Claim(); // abandons the lead
    T.join();
  }
  // The waiter either blocked and got the error, or arrived after the
  // abandon and leads a fresh attempt itself.
  if (!Waiter.Lead) {
    EXPECT_EQ(Waiter.Error, "computation abandoned");
  }
  Waiter = SingleFlight<int>::Claim();
  EXPECT_EQ(SF.size(), 0u);

  SingleFlight<int>::Claim C = SF.acquire("k");
  ASSERT_TRUE(C.Lead);
  SF.publish(C, std::make_shared<const int>(7));
  SingleFlight<int>::Claim D = SF.acquire("k");
  EXPECT_FALSE(D.Lead);
  ASSERT_TRUE(D.Value);
  EXPECT_EQ(*D.Value, 7);
}

} // namespace
