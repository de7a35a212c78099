//===- DecodedModuleTest.cpp - decoded micro-op stream tests -----*- C++ -*-===//
//
// The decoded executor (arch/Decoded.h, arch/DecodedSim.cpp) must be a
// pure performance transformation: for every program, every counter the
// legacy per-instruction loop produces must come out of the decoded
// stream byte-for-byte identical, including under fault injection and
// instruction budgets (the paths where fusion and pointer-PC dispatch
// are most at risk). These tests pin that contract over the checked-in
// fuzz repro corpus and a wide sweep of random programs, and pin the
// decode itself as a deterministic function of the MModule (two decodes
// of one module memcmp equal). They also prove the rule behind
// arch::simulationKey's ALAT-free case: without an ALAT op in the
// stream, the ALAT geometry, the fault plan and st.a cannot change a
// simulation.
//
//===----------------------------------------------------------------------===//

#include "arch/Decoded.h"
#include "arch/Simulator.h"

#include "alias/AliasAnalysis.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "core/Pass.h"
#include "fuzz/RandomProgram.h"
#include "ir/CFG.h"
#include "ir/Parser.h"
#include "pre/Promoter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

using namespace srp;
using namespace srp::arch;

namespace {

/// Lowers \p M to register-allocated machine code.
std::unique_ptr<codegen::MModule> lower(ir::Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  return MM;
}

/// Asserts that the decoded executor and the legacy loop produce the
/// same run, counter for counter.
void expectParity(const codegen::MModule &MM, const SimConfig &Config,
                  const char *What) {
  SCOPED_TRACE(What);
  SimResult Legacy = simulateLegacy(MM, Config);
  DecodedModule DM(MM);
  SimResult Decoded = simulate(DM, Config);

  EXPECT_EQ(Legacy.Ok, Decoded.Ok);
  EXPECT_EQ(Legacy.Error, Decoded.Error);
  EXPECT_EQ(Legacy.Output, Decoded.Output);
  EXPECT_EQ(Legacy.ExitValue, Decoded.ExitValue);

  const PerfCounters &L = Legacy.Counters, &D = Decoded.Counters;
  EXPECT_EQ(L.Cycles, D.Cycles);
  EXPECT_EQ(L.Instructions, D.Instructions);
  EXPECT_EQ(L.RetiredLoads, D.RetiredLoads);
  EXPECT_EQ(L.RetiredStores, D.RetiredStores);
  EXPECT_EQ(L.DataAccessCycles, D.DataAccessCycles);
  EXPECT_EQ(L.AlatChecks, D.AlatChecks);
  EXPECT_EQ(L.AlatCheckFailures, D.AlatCheckFailures);
  EXPECT_EQ(L.ChkARecoveries, D.ChkARecoveries);
  EXPECT_EQ(L.RseCycles, D.RseCycles);
  EXPECT_EQ(L.RseSpills, D.RseSpills);
  EXPECT_EQ(L.RseFills, D.RseFills);
  EXPECT_EQ(L.TakenBranches, D.TakenBranches);
  EXPECT_EQ(L.L1Hits, D.L1Hits);
  EXPECT_EQ(L.L1Misses, D.L1Misses);
  EXPECT_EQ(L.L2Hits, D.L2Hits);
  EXPECT_EQ(L.L2Misses, D.L2Misses);

  const AlatStats &LA = Legacy.Alat, &DA = Decoded.Alat;
  EXPECT_EQ(LA.Allocations, DA.Allocations);
  EXPECT_EQ(LA.Invalidations, DA.Invalidations);
  EXPECT_EQ(LA.FalseInvalidations, DA.FalseInvalidations);
  EXPECT_EQ(LA.CapacityEvictions, DA.CapacityEvictions);
  EXPECT_EQ(LA.CheckHits, DA.CheckHits);
  EXPECT_EQ(LA.CheckMisses, DA.CheckMisses);
}

/// The parity sweep one program gets: the plain run, a fault-injected
/// run (ld.c misses and chk.a recoveries fire on promoted code), and a
/// tight instruction budget (the mid-flight trap path — a fused pair
/// must not retire its second op past the budget).
void sweepConfigs(const codegen::MModule &MM) {
  expectParity(MM, SimConfig(), "default config");

  SimConfig Faulted;
  Faulted.Faults = FaultPlan::fromSeed(7);
  expectParity(MM, Faulted, "fault plan seed 7");

  SimConfig Budget;
  Budget.MaxInstructions = 100;
  expectParity(MM, Budget, "100-instruction budget");
}

/// Parses, promotes (ALAT strategy, static heuristics — no profiles),
/// and lowers one .sir text. Promotion matters here: it is what puts
/// ld.a/ld.c/chk.a and recovery blocks into the stream.
std::unique_ptr<codegen::MModule> compileText(const std::string &Text,
                                              bool Promote) {
  ir::Module M;
  std::string Error;
  EXPECT_TRUE(ir::parseModule(Text, M, Error)) << Error;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  if (Promote) {
    alias::SteensgaardAnalysis AA(M);
    pre::promoteModule(M, AA, nullptr, nullptr,
                       pre::PromotionConfig::alat());
  }
  return lower(M);
}

/// Decoding is a pure function of the MModule: two independent decodes
/// must produce byte-identical op streams (this is what lets repeat
/// simulations share one stream — PipelineState::Decoded, the serve
/// daemon, DiffOracle fault re-sims).
TEST(DecodedModule, ByteStableDecode) {
  ir::Module M;
  fuzz::buildRandomProgram(M, 1);
  auto MM = lower(M);

  DecodedModule A(*MM);
  DecodedModule B(*MM);
  ASSERT_EQ(A.numOps(), B.numOps());
  ASSERT_GT(A.numOps(), 0u);
  EXPECT_EQ(A.mainIndex(), B.mainIndex());
  EXPECT_EQ(std::memcmp(A.ops(), B.ops(), A.numOps() * sizeof(DecodedOp)),
            0);
}

/// Every checked-in fuzzer repro — each one a minimized program that
/// once broke the promoter — runs identically on both engines, both
/// unpromoted and under the ALAT strategy.
TEST(DecodedModule, ReproCorpusParity) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(SRP_SOURCE_DIR) / "fuzz-repros";
  ASSERT_TRUE(fs::exists(Dir)) << Dir << " missing";
  unsigned Replayed = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sir")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << "cannot read " << Entry.path();
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();
    for (bool Promote : {false, true}) {
      SCOPED_TRACE(Entry.path().filename().string() +
                   (Promote ? " promoted" : " unpromoted"));
      auto MM = compileText(Text, Promote);
      sweepConfigs(*MM);
    }
    ++Replayed;
  }
  EXPECT_GT(Replayed, 0u) << "corpus is empty";
}

/// 500 random programs through the full config sweep. Promotion runs on
/// every fourth seed (it triples compile time); the unpromoted majority
/// still covers the whole scalar/branch/call/memory op surface.
TEST(DecodedModule, RandomProgramParity) {
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    if (Seed % 4 == 0) {
      alias::SteensgaardAnalysis AA(M);
      pre::promoteModule(M, AA, nullptr, nullptr,
                         pre::PromotionConfig::alat());
    }
    auto MM = lower(M);
    if (Seed % 4 == 0)
      sweepConfigs(*MM);
    else
      expectParity(*MM, SimConfig(), "default config");
  }
}

std::string formatConfig(const SimConfig &C) {
  return "alat " + std::to_string(C.Alat.Entries) + "x" +
         std::to_string(C.Alat.Ways) + ", faults " + C.Faults.describe();
}

/// Every field of two simulations, byte for byte.
void expectSameRun(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.ExitValue, B.ExitValue);
  EXPECT_EQ(0, std::memcmp(&A.Counters, &B.Counters, sizeof(A.Counters)));
  EXPECT_EQ(0, std::memcmp(&A.Alat, &B.Alat, sizeof(A.Alat)));
}

/// The ALAT-free key rule: a stream with no ALAT op simulates
/// identically under every ALAT geometry, fault plan and st.a setting,
/// and simulationKey gives all of them one key. Returns the number of
/// configs checked.
unsigned expectAlatBlind(const DecodedModule &DM) {
  EXPECT_FALSE(usesAlat(DM));
  const SimResult Base = simulate(DM, SimConfig());
  const std::string BaseKey = simulationKey(DM, SimConfig());
  unsigned Checked = 0;
  for (unsigned Entries : {8u, 16u, 32u, 64u})
    for (unsigned Ways : {1u, 2u})
      for (uint64_t FaultSeed : {3u, 7u, 11u}) {
        SimConfig C;
        C.Alat.Entries = Entries;
        C.Alat.Ways = Ways;
        C.Faults = FaultPlan::fromSeed(FaultSeed);
        C.UseStA = FaultSeed != 7;
        SCOPED_TRACE(formatConfig(C));
        expectSameRun(Base, simulate(DM, C));
        EXPECT_EQ(BaseKey, simulationKey(DM, C));
        ++Checked;
      }
  return Checked;
}

/// The grid's conservative and baseline binaries (no ALAT ops by
/// construction), every repro compiled unpromoted, and 200 unpromoted
/// random programs.
TEST(DecodedModule, AlatFreeStreamsIgnoreAlatConfig) {
  std::vector<core::Workload> Ws = workloads::standardWorkloads();
  for (const core::Workload &W : Ws)
    for (const pre::PromotionConfig &PC :
         {pre::PromotionConfig::conservative(),
          pre::PromotionConfig::baselineO3()}) {
      SCOPED_TRACE(W.Name);
      core::PipelineState S;
      S.W = &W;
      S.Config = core::configFor(PC);
      core::PassManager PM;
      core::addStandardPasses(PM);
      ASSERT_TRUE(PM.run(S)) << S.Result.Error;
      EXPECT_EQ(expectAlatBlind(*S.Decoded), 24u);
    }

  namespace fs = std::filesystem;
  unsigned Repros = 0;
  for (const auto &Entry :
       fs::directory_iterator(fs::path(SRP_SOURCE_DIR) / "fuzz-repros")) {
    if (Entry.path().extension() != ".sir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    std::ifstream In(Entry.path());
    std::stringstream Buf;
    Buf << In.rdbuf();
    auto MM = compileText(Buf.str(), /*Promote=*/false);
    expectAlatBlind(DecodedModule(*MM));
    ++Repros;
  }
  EXPECT_GT(Repros, 0u);

  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    auto MM = lower(M);
    expectAlatBlind(DecodedModule(*MM));
  }
}

/// The key is exact: an ALAT-using stream keys the ALAT config and the
/// fault plan, and any other field change gives a different key too.
TEST(DecodedModule, SimulationKeySeparatesWhatCanMatter) {
  core::Workload W = workloads::standardWorkloads().front();
  core::PipelineState S;
  S.W = &W;
  S.Config = core::configFor(pre::PromotionConfig::alat());
  core::PassManager PM;
  core::addStandardPasses(PM);
  ASSERT_TRUE(PM.run(S)) << S.Result.Error;
  const DecodedModule &DM = *S.Decoded;
  ASSERT_TRUE(usesAlat(DM));
  const std::string Base = simulationKey(DM, SimConfig());
  EXPECT_EQ(Base, simulationKey(DM, SimConfig()));
  SimConfig C;
  C.Faults = FaultPlan::fromSeed(3);
  EXPECT_NE(Base, simulationKey(DM, C));
  C = SimConfig();
  C.Alat.Entries = 16;
  EXPECT_NE(Base, simulationKey(DM, C));
  C = SimConfig();
  C.UseStA = false;
  EXPECT_NE(Base, simulationKey(DM, C));
  C = SimConfig();
  C.MaxInstructions = 100;
  EXPECT_NE(Base, simulationKey(DM, C));
  C = SimConfig();
  C.Memory.L2Latency = 10;
  EXPECT_NE(Base, simulationKey(DM, C));
}

} // namespace
