//===- PassManagerTest.cpp - Pass manager tests ------------------------------===//
//
// The pass-composition contract of runPipeline: the standard pass list,
// per-pass timing in PipelineResult::Timings, and --disable-pass
// semantics (graceful diagnostics when a dependency is missing).
//
//===----------------------------------------------------------------------===//

#include "core/Pass.h"

#include "ir/IRBuilder.h"
#include "workloads/LoopHelper.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// A loop-invariant load kernel — small, but enough for every pass to do
/// real work.
Workload tinyWorkload() {
  Workload W;
  W.Name = "tiny";
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(50 * Scale);
    Symbol *Cell = M.createGlobal("cell", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(directRef(Cell), Operand::constInt(5));
    workloads::LoopCtx L =
        workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned T = B.emitLoad(directRef(Cell));
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(T));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
  };
  return W;
}

TEST(PassManagerTest, StandardPassList) {
  std::vector<std::string> Names = standardPassNames();
  std::vector<std::string> Expected = {"build",     "profile",
                                       "promote",   "specverify",
                                       "taintflow", "lower",
                                       "regalloc",  "simulate"};
  EXPECT_EQ(Names, Expected);

  PassManager PM;
  addStandardPasses(PM);
  for (const std::string &Name : Names) {
    const Pass *P = PM.find(Name);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_FALSE(P->description().empty()) << Name;
  }
  EXPECT_EQ(PM.find("nonexistent"), nullptr);
}

TEST(PassManagerTest, TimingsCoverEveryPassThatRan) {
  Workload W = tinyWorkload();
  PipelineResult R = runPipeline(W, configFor(pre::PromotionConfig::alat()));
  ASSERT_TRUE(R.Ok) << R.Error;
  std::vector<std::string> Expected = standardPassNames();
  ASSERT_EQ(R.Timings.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(R.Timings[I].Name, Expected[I]);
}

TEST(PassManagerTest, DisabledPassIsSkipped) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"promote"};
  PipelineResult R = runPipeline(W, C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Promotion.PromotedExprs, 0u);
  for (const PipelineResult::PassTiming &T : R.Timings)
    EXPECT_NE(T.Name, "promote");
  // The unpromoted program still simulates correctly.
  EXPECT_EQ(R.Output, oracleOutput(W));
}

TEST(PassManagerTest, DisablingADependencyFailsGracefully) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"lower"};
  PipelineResult R = runPipeline(W, C);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("lower disabled"), std::string::npos) << R.Error;
}

TEST(PassManagerTest, DisablingSimulateLeavesNoOutput) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"simulate"};
  PipelineResult R = runPipeline(W, C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Output.empty());
}

} // namespace
