//===- PreStagesTest.cpp - Per-stage tests for the SSAPRE split ----------------===//
//
// Drives the promotion stages (src/pre/PromotionContext.h) individually:
// builds a function, prepares a PromotionContext exactly the way the
// orchestrator does, then runs PhiInsertion → Rename → DownSafety →
// WillBeAvail and asserts on the intermediate Φ/version webs instead of
// the final IR. PromoterTest covers the end-to-end behaviour; these tests
// pin the stage contracts the split introduced, and the orchestrator's
// reuse of one function's analyses across its two promotion runs.
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

#include "alias/AliasAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "pre/CopyProp.h"
#include "pre/Promoter.h"
#include "support/OStream.h"

#include <gtest/gtest.h>

#include <optional>

using namespace srp;
using namespace srp::ir;
using namespace srp::pre;
using namespace srp::pre::detail;

namespace {

/// One train run of \p M, recording its alias and edge profiles.
interp::RunResult train(Module &M, interp::AliasProfile &AP,
                        interp::EdgeProfile &EP) {
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.setEdgeProfile(&EP);
  return Train.run();
}

/// Builds the analysis state for function 0 of \p M the way
/// promoteFunction does, up to and including candidate collection, and
/// exposes the stages on top of it.
struct StageHarness {
  Module &M;
  PromotionConfig Config;
  interp::AliasProfile AP;
  interp::EdgeProfile EP;
  std::optional<alias::SteensgaardAnalysis> AA;
  std::optional<ssa::DominatorTree> DT;
  std::optional<ssa::LoopInfo> LI;
  std::optional<PromotionContext> Ctx;

  StageHarness(Module &M, const PromotionConfig &Config, bool UseProfile)
      : M(M), Config(Config) {
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();
    if (UseProfile) {
      interp::RunResult R = train(M, AP, EP);
      EXPECT_TRUE(R.Ok) << R.Error;
    }
    AA.emplace(M);
    Function &F = *M.function(0);
    DT.emplace(F);
    LI.emplace(*DT);
    Ctx.emplace(F, *AA, UseProfile ? &AP : nullptr,
                UseProfile ? &EP : nullptr, this->Config, *DT, *LI);
    Ctx->CanonData = Ctx->H.canonicalMap([this](const ssa::ChiRecord &Chi) {
      return Ctx->chiCollapsibleData(Chi);
    });
    Ctx->CanonAddr = Ctx->H.canonicalMap([this](const ssa::ChiRecord &Chi) {
      return Ctx->chiCollapsibleAddr(Chi);
    });
    computeTempDefs(*Ctx);
    collectExpressions(*Ctx);
  }

  /// The candidate for direct loads/stores of \p S; null if none.
  ExprInfo *exprFor(const Symbol *S) {
    for (auto &[Key, E] : Ctx->Exprs)
      if (Key.BaseId == S->Id)
        return &E;
    return nullptr;
  }

  /// Runs PhiInsertion's Φ placement and Rename for \p E.
  ExprWork renameOf(ExprInfo &E) {
    EXPECT_TRUE(exprEligible(*Ctx, E));
    ExprWork W;
    insertPhis(*Ctx, E, W);
    renameExpression(*Ctx, E, W);
    return W;
  }

  /// The Φ of \p W placed in \p BB, or null.
  ExprPhi *phiIn(ExprWork &W, const BasicBlock *BB) {
    for (ExprPhi &Phi : W.Phis)
      if (Phi.BB == BB)
        return &Phi;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// Rename
//===----------------------------------------------------------------------===//

/// a = 1; x = a; y = a — one version for all three occurrences; both
/// loads are redundant (store-load and load-load reuse).
TEST(PreStagesTest, RenameStraightLineReuse) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(1));
  unsigned T1 = B.emitLoad(directRef(A));
  unsigned T2 = B.emitLoad(directRef(A));
  unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setRet();

  StageHarness H(M, PromotionConfig::conservative(), /*UseProfile=*/false);
  ExprInfo *E = H.exprFor(A);
  ASSERT_NE(E, nullptr);
  ASSERT_EQ(E->Occs.size(), 3u);
  ExprWork W = H.renameOf(*E);
  EXPECT_TRUE(W.Phis.empty()) << "straight line needs no expression phi";
  EXPECT_TRUE(E->Occs[0].IsStore);
  EXPECT_TRUE(E->Occs[1].Redundant) << "load after the defining store";
  EXPECT_TRUE(E->Occs[2].Redundant) << "load after an identical load";
  EXPECT_EQ(E->Occs[0].Version, E->Occs[1].Version);
  EXPECT_EQ(E->Occs[1].Version, E->Occs[2].Version);
}

/// a = 1; x = a; a = 2; y = a — the second store starts a new version;
/// each load is redundant with its dominating store, and the two loads
/// carry distinct versions.
TEST(PreStagesTest, RenameStoreStartsNewVersion) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(1));
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(directRef(A), Operand::constInt(2));
  unsigned T2 = B.emitLoad(directRef(A));
  unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setRet();

  StageHarness H(M, PromotionConfig::conservative(), /*UseProfile=*/false);
  ExprInfo *E = H.exprFor(A);
  ASSERT_NE(E, nullptr);
  ASSERT_EQ(E->Occs.size(), 4u);
  ExprWork W = H.renameOf(*E);
  (void)W;
  EXPECT_TRUE(E->Occs[1].Redundant);
  EXPECT_TRUE(E->Occs[3].Redundant);
  EXPECT_EQ(E->Occs[0].Version, E->Occs[1].Version);
  EXPECT_EQ(E->Occs[2].Version, E->Occs[3].Version);
  EXPECT_NE(E->Occs[1].Version, E->Occs[3].Version)
      << "the intervening store must kill the first version";
}

/// Figure 1(a) shape: x = a; *p = ...; y = a with p really pointing
/// elsewhere. Conservatively the χ kills the reuse; with the alias
/// profile and the ALAT strategy, Rename's canonical collapse makes the
/// second load redundant (the speculative reuse the paper promotes).
TEST(PreStagesTest, RenameSpeculativeCollapseAcrossChi) {
  auto BuildFig1a = [](Module &M, Symbol *&A) {
    A = M.createGlobal("a", TypeKind::Int);
    Symbol *B2 = M.createGlobal("b", TypeKind::Int);
    Symbol *P = M.createGlobal("p", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    unsigned TA = B.emitAddrOf(A);
    unsigned TB = B.emitAddrOf(B2);
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(P), Operand::temp(TB)); // runtime: p = &b
    B.emitStore(directRef(A), Operand::constInt(7));
    unsigned T1 = B.emitLoad(directRef(A));
    B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
    unsigned T2 = B.emitLoad(directRef(A));
    unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                               Operand::temp(T2));
    B.emitPrint(Operand::temp(TS));
    B.setRet();
  };

  // Conservative: the may-aliasing store breaks the version.
  {
    Module M;
    Symbol *A = nullptr;
    BuildFig1a(M, A);
    StageHarness H(M, PromotionConfig::conservative(), /*UseProfile=*/true);
    ExprInfo *E = H.exprFor(A);
    ASSERT_NE(E, nullptr);
    ASSERT_EQ(E->Occs.size(), 3u); // store a, load, load
    H.renameOf(*E);
    EXPECT_TRUE(E->Occs[1].Redundant);
    EXPECT_FALSE(E->Occs[2].Redundant)
        << "conservative rename must respect the chi";
  }
  // ALAT + profile: the chi is speculatively collapsed.
  {
    Module M;
    Symbol *A = nullptr;
    BuildFig1a(M, A);
    StageHarness H(M, PromotionConfig::alat(), /*UseProfile=*/true);
    ExprInfo *E = H.exprFor(A);
    ASSERT_NE(E, nullptr);
    H.renameOf(*E);
    EXPECT_TRUE(E->Occs[1].Redundant);
    EXPECT_TRUE(E->Occs[2].Redundant)
        << "speculative rename collapses the profiled-cold chi";
    EXPECT_EQ(E->Occs[1].Version, E->Occs[2].Version);
  }
}

//===----------------------------------------------------------------------===//
// DownSafety
//===----------------------------------------------------------------------===//

/// Builds a diamond with a load of `a` in the left arm. \p LoadInJoin
/// adds a load right at the join (Φ down-safe) versus only on one path
/// past a second branch (Φ not down-safe).
struct Diamond {
  Module M;
  Symbol *A = nullptr;
  BasicBlock *Join = nullptr;

  explicit Diamond(bool LoadInJoin) {
    A = M.createGlobal("a", TypeKind::Int);
    Symbol *C = M.createGlobal("c", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(directRef(A), Operand::constInt(3));
    BasicBlock *L = B.createBlock("left");
    BasicBlock *R = B.createBlock("right");
    Join = B.createBlock("join");
    unsigned TC = B.emitLoad(directRef(C));
    B.setCondBr(Operand::temp(TC), L, R);
    B.setBlock(L);
    unsigned T1 = B.emitLoad(directRef(A));
    B.emitPrint(Operand::temp(T1));
    B.setBr(Join);
    B.setBlock(R);
    B.setBr(Join);
    B.setBlock(Join);
    if (LoadInJoin) {
      unsigned T2 = B.emitLoad(directRef(A));
      B.emitPrint(Operand::temp(T2));
      B.setRet();
    } else {
      BasicBlock *K = B.createBlock("cold");
      BasicBlock *X = B.createBlock("exit");
      unsigned TC2 = B.emitLoad(directRef(C));
      B.setCondBr(Operand::temp(TC2), K, X);
      B.setBlock(K);
      unsigned T2 = B.emitLoad(directRef(A));
      B.emitPrint(Operand::temp(T2));
      B.setBr(X);
      B.setBlock(X);
      B.setRet();
    }
  }
};

TEST(PreStagesTest, DownSafeWhenAnticipatedOnAllPaths) {
  Diamond D(/*LoadInJoin=*/true);
  StageHarness H(D.M, PromotionConfig::conservative(), /*UseProfile=*/false);
  ExprInfo *E = H.exprFor(D.A);
  ASSERT_NE(E, nullptr);
  ExprWork W = H.renameOf(*E);
  ExprPhi *Phi = H.phiIn(W, D.Join);
  ASSERT_NE(Phi, nullptr) << "expression phi expected at the join";
  computeDownSafety(*H.Ctx, *E, W);
  EXPECT_TRUE(Phi->DownSafe)
      << "a real occurrence in the phi block anticipates on every path";

  // And the full availability answer: inserting on the right edge makes
  // the join load redundant, so the phi will be available.
  computeWillBeAvail(*H.Ctx, *E, W);
  EXPECT_TRUE(Phi->willBeAvail());
}

TEST(PreStagesTest, NotDownSafeWhenAPathSkipsTheReload) {
  Diamond D(/*LoadInJoin=*/false);
  StageHarness H(D.M, PromotionConfig::conservative(), /*UseProfile=*/false);
  ExprInfo *E = H.exprFor(D.A);
  ASSERT_NE(E, nullptr);
  ExprWork W = H.renameOf(*E);
  ExprPhi *Phi = H.phiIn(W, D.Join);
  ASSERT_NE(Phi, nullptr);
  computeDownSafety(*H.Ctx, *E, W);
  EXPECT_FALSE(Phi->DownSafe)
      << "the join->exit path never evaluates the expression, and "
         "conservative promotion must not speculate an insertion";
}

//===----------------------------------------------------------------------===//
// Orchestrator: analyses reused across the strategy and cleanup runs
//===----------------------------------------------------------------------===//

/// Two functions. `main` is a speculative loop-invariant load (Fig. 3)
/// whose entry branches either into the loop header or around the loop,
/// so the entry→header edge is critical: the ALAT run's hoisted ld.sa
/// lands in a new split block, and the cleanup run needs fresh
/// dominators. `flat` loads one global once — nothing to promote, so its
/// analyses carry over to the cleanup run unchanged.
void buildReuseModule(Module &M) {
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  unsigned TA = B.emitAddrOf(A);
  unsigned TC = B.emitAddrOf(C);
  // Statically p and q may each point to a or c; at run time p=&a, q=&c.
  B.emitStore(directRef(P), Operand::temp(TC));
  B.emitStore(directRef(Q), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TC));
  B.emitStore(directRef(A), Operand::constInt(1000));
  B.emitStore(directRef(I), Operand::constInt(0));
  unsigned TGo = B.emitLoad(directRef(I));
  unsigned TEnter = B.emitAssign(Opcode::CmpEq, Operand::temp(TGo),
                                 Operand::constInt(0));
  B.setCondBr(Operand::temp(TEnter), Hdr, Exit);
  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TCmp =
      B.emitAssign(Opcode::CmpLt, Operand::temp(TI), Operand::constInt(50));
  B.setCondBr(Operand::temp(TCmp), Body, Exit);
  B.setBlock(Body);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TI));
  unsigned TP = B.emitLoad(indirectRef(P, TypeKind::Int));
  unsigned TAdd =
      B.emitAssign(Opcode::Add, Operand::temp(TP), Operand::temp(TI));
  B.emitPrint(Operand::temp(TAdd));
  unsigned TInc =
      B.emitAssign(Opcode::Add, Operand::temp(TI), Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);
  B.setBlock(Exit);
  B.setRet();

  B.startFunction("flat");
  B.emitPrint(Operand::temp(B.emitLoad(directRef(C))));
  B.setRet();

  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    M.function(FI)->recomputeCFG();
}

std::string printed(const Function &F) {
  std::string Text;
  StringOStream OS(Text);
  printFunction(F, OS);
  return Text;
}

/// promoteModule builds each function's dominators and loops once and
/// hands them to the conservative cleanup run only when the strategy run
/// left the function unchanged. The reference runs both stages with
/// freshly built analyses every time, so the printed IR must agree on
/// both paths. Reusing the tree the split edge in `main` made stale
/// trips promoteFunction's stale-tree assert; the cleanup run plans
/// nothing here, so the IR alone would not show it.
TEST(PreStagesTest, CleanupRunRebuildsAnalysesOnlyAfterMutation) {
  Module Promoted, Reference;
  buildReuseModule(Promoted);
  buildReuseModule(Reference);
  interp::AliasProfile AP, RefAP;
  interp::EdgeProfile EP, RefEP;
  interp::RunResult Trained = train(Promoted, AP, EP);
  train(Reference, RefAP, RefEP);
  ASSERT_TRUE(Trained.Ok) << Trained.Error;
  ASSERT_EQ(Trained.Output.size(), 50u);

  const Function &Main = *Promoted.function(0);
  const Function &Flat = *Promoted.function(1);
  size_t MainBlocks = Main.numBlocks();
  std::string FlatBefore = printed(Flat);

  alias::SteensgaardAnalysis AA(Promoted);
  promoteModule(Promoted, AA, &AP, &EP, PromotionConfig::alat());
  EXPECT_GT(Main.numBlocks(), MainBlocks)
      << "the hoisted ld.sa must split the critical entry edge";
  EXPECT_EQ(printed(Flat), FlatBefore) << "nothing to promote in flat";

  alias::SteensgaardAnalysis RefAA(Reference);
  for (unsigned FI = 0; FI < Reference.numFunctions(); ++FI) {
    Function &F = *Reference.function(FI);
    for (const PromotionConfig &Cfg :
         {PromotionConfig::alat(), PromotionConfig::conservative()}) {
      ssa::DominatorTree DT(F);
      ssa::LoopInfo LI(DT);
      PromotionContext Ctx(F, RefAA, &RefAP, &RefEP, Cfg, DT, LI);
      runPromotion(Ctx);
      propagateCopies(F);
      F.recomputeCFG();
    }
  }
  for (unsigned FI = 0; FI < Promoted.numFunctions(); ++FI)
    EXPECT_EQ(printed(*Promoted.function(FI)),
              printed(*Reference.function(FI)))
        << "function " << Promoted.function(FI)->getName();

  interp::Interpreter After(Promoted);
  interp::RunResult R = After.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, Trained.Output);
}

} // namespace
