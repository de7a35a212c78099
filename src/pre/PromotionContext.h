//===- PromotionContext.h - Shared state of the SSAPRE stages ---*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The working state shared by the staged SSAPRE promotion pass. The
/// algorithm (see Promoter.h for the paper mapping) is split into one
/// translation unit per stage:
///
///   PhiInsertion.cpp  — candidate collection and Φ-insertion at the
///                       iterated dominance frontier;
///   Rename.cpp        — the speculative Rename dominator walk;
///   DownSafety.cpp    — all-paths anticipation + control speculation;
///   WillBeAvail.cpp   — CanBeAvail ∧ ¬Later with profitability gates;
///   CodeMotion.cpp    — crossed-χ analysis and mutation planning;
///   ApplyPlan.cpp     — the batched IR mutations;
///   CheckCleanup.cpp  — erasure of unobservable checks;
///   Promoter.cpp      — the per-function orchestrator.
///
/// Stages communicate through PromotionContext (per-function state) and
/// ExprWork (the per-expression Φ/version web). Everything here lives in
/// srp::pre::detail: it is internal to the pass but deliberately linkable
/// so the per-stage unit tests (tests/PreStagesTest.cpp) can drive each
/// stage in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PRE_PROMOTIONCONTEXT_H
#define SRP_PRE_PROMOTIONCONTEXT_H

#include "interp/Profile.h"
#include "pre/Promotion.h"
#include "ssa/HSSA.h"
#include "support/Error.h"

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

namespace srp::pre::detail {

/// Grouping key of a lexical expression (one promotion candidate).
struct ExprKey {
  unsigned BaseId;
  unsigned Depth;
  int IndexKind; // 0 none, 1 temp, 2 const
  uint64_t IndexVal;
  int64_t Offset;
  uint8_t ValueType;

  static ExprKey of(const ir::MemRef &Ref) {
    ExprKey K;
    K.BaseId = Ref.Base->Id;
    K.Depth = Ref.Depth;
    switch (Ref.Index.K) {
    case ir::Operand::Kind::None:
      K.IndexKind = 0;
      K.IndexVal = 0;
      break;
    case ir::Operand::Kind::Temp:
      K.IndexKind = 1;
      K.IndexVal = Ref.Index.TempId;
      break;
    case ir::Operand::Kind::ConstInt:
      K.IndexKind = 2;
      K.IndexVal = static_cast<uint64_t>(Ref.Index.IntVal);
      break;
    case ir::Operand::Kind::ConstFloat:
      SRP_UNREACHABLE("float index");
    }
    K.Offset = Ref.Offset;
    K.ValueType = static_cast<uint8_t>(Ref.ValueType);
    return K;
  }

  bool operator<(const ExprKey &O) const {
    return std::tie(BaseId, Depth, IndexKind, IndexVal, Offset, ValueType) <
           std::tie(O.BaseId, O.Depth, O.IndexKind, O.IndexVal, O.Offset,
                    O.ValueType);
  }
};

/// One real occurrence (a load or store of the expression).
struct Occurrence {
  ir::Stmt *S = nullptr;
  ir::BasicBlock *BB = nullptr;
  unsigned OrderInBlock = 0; ///< statement position at analysis time
  bool IsStore = false;

  // Filled by Rename:
  unsigned Version = ~0u; ///< ExprVer id this occurrence uses/defines.
  bool Redundant = false; ///< uses an existing version
  bool RawEqual = false;  ///< redundant with identical raw versions
};

/// Expression version created by Rename (a "hypothetical temporary"
/// version in the paper's terms).
struct ExprVer {
  enum class DefKind : uint8_t { Real, Phi };
  DefKind Kind = DefKind::Real;
  unsigned DefOcc = ~0u;          ///< Real: index into Occs.
  unsigned PhiId = ~0u;           ///< Phi: index into Phis.
  std::vector<unsigned> CanonSig; ///< canonical constituent versions
  std::vector<unsigned> RawSig;   ///< raw constituent versions
  bool HasRealUse = false;
  /// Real versions created by a load that matched a Φ version: when the
  /// Φ cannot be materialized, this occurrence anchors later reuses
  /// (SSAPRE's reload-from-first-occurrence behaviour).
  unsigned RefinesVer = ~0u;
};

/// Expression Φ (capital-Φ in SSAPRE).
struct ExprPhi {
  ir::BasicBlock *BB = nullptr;
  unsigned Version = ~0u;         ///< ExprVer id it defines.
  std::vector<unsigned> Operands; ///< ExprVer id or ~0u (⊥); by pred.
  bool DownSafe = false;
  bool CanBeAvail = true;
  bool Later = true;
  bool Unprofitable = false;

  bool willBeAvail() const { return CanBeAvail && !Later && !Unprofitable; }
};

/// A planned mutation, applied after all analysis.
struct MutationPlan {
  // Edge insertions: load of the expression at the end of From (or a
  // split block) on edge From->To.
  struct EdgeInsert {
    ir::BasicBlock *From;
    ir::BasicBlock *To;
    ir::MemRef Ref;
    unsigned Temp;
    unsigned AddrTemp; ///< NoTemp if unused
    ir::SpecFlag Flag;
  };
  // Rewrites of defining loads: retarget Dst to Temp, set flag/addr, and
  // add `<oldDst> = copy Temp` after.
  struct DefLoadRewrite {
    ir::Stmt *S;
    unsigned Temp;
    unsigned AddrTemp;
    ir::SpecFlag Flag;
  };
  // After a defining store: st.a marking or an extra ld.a / plain copy.
  struct DefStoreRewrite {
    ir::Stmt *S;
    ir::MemRef Ref;
    unsigned Temp;
    unsigned AddrTemp;
    bool UseStA;
    bool NeedAlat; ///< otherwise a plain copy of the stored value
  };
  // Redundant load elimination: erase S, map Dst to Temp.
  struct ReuseRewrite {
    ir::Stmt *S;
    unsigned Temp;
  };
  // In-place checking reuse: keep the load but turn it into a checking
  // load writing Temp (invala mode and the ChecksAtReuse placement).
  struct InvalaReuse {
    ir::Stmt *S;
    unsigned Temp;
    ir::SpecFlag Flag = ir::SpecFlag::LdCnc;
    unsigned AddrSrc = ir::NoTemp;
  };
  // ALAT check statement after a store.
  struct CheckInsert {
    ir::Stmt *After;
    ir::MemRef Ref;
    unsigned Temp;
    unsigned AddrTemp; ///< address source; NoTemp to re-walk the chain
    bool Cascade;      ///< chk.a (recovery) instead of ld.c
  };
  // Software compare+forward after a store.
  struct SoftwareCheckInsert {
    ir::Stmt *After;       ///< the aliasing store
    unsigned Temp;         ///< promoted temp to conditionally overwrite
    unsigned ExprAddrTemp; ///< temp holding the expression's address
    bool ExprAddrIsChainPtr = false; ///< indirect: holds chain pointer
    int64_t ExtraOffset = 0;         ///< constant index*8 + offset
  };
  struct InvalaInsert {
    ir::BasicBlock *BB; ///< inserted at block start
    unsigned Temp;
  };
  // Direct-ref expressions needing an address temp materialized at entry.
  struct AddrMaterialize {
    ir::MemRef Ref;
    unsigned Temp;
  };

  std::vector<EdgeInsert> EdgeInserts;
  std::vector<DefLoadRewrite> DefLoads;
  std::vector<DefStoreRewrite> DefStores;
  std::vector<ReuseRewrite> Reuses;
  std::vector<InvalaReuse> InvalaReuses;
  std::vector<CheckInsert> Checks;
  std::vector<SoftwareCheckInsert> SoftwareChecks;
  std::vector<InvalaInsert> Invalas;
  std::vector<AddrMaterialize> AddrMats;
};

/// One candidate expression of the current function.
struct ExprInfo {
  ir::MemRef Ref;
  std::vector<Occurrence> Occs;            ///< dominator-preorder sorted
  std::vector<ssa::ObjectId> Constituents; ///< level objects, base first
  unsigned IndexTemp = ir::NoTemp;
};

/// The per-expression Φ/version web the stages hand to each other.
struct ExprWork {
  std::vector<ExprPhi> Phis;
  std::vector<ExprVer> Vers;
  std::vector<unsigned> PhiAtBlock; ///< by block id; ~0u if none
  /// Occurrence indices grouped by block, in block order (filled by
  /// Rename, reused by DownSafety).
  std::map<ir::BasicBlock *, std::vector<unsigned>> BlockOccs;
};

/// Wall time spent per stage (microseconds), recorded by the orchestrator
/// into StatsRegistry under "pre.<stage>.us".
struct StageTimings {
  uint64_t PhiInsertion = 0;
  uint64_t Rename = 0;
  uint64_t DownSafety = 0;
  uint64_t WillBeAvail = 0;
  uint64_t CodeMotion = 0;
  uint64_t Apply = 0;
  uint64_t Cleanup = 0;
};

/// Analysis and planning state for one function. Holds the inputs (alias
/// analysis, profiles, config), the function analyses (dominators, loops
/// — owned by the caller, pre::promoteFunction), the HSSA form, and the
/// accumulated mutation plan.
class PromotionContext {
public:
  PromotionContext(ir::Function &F, const alias::AliasAnalysis &AA,
                   const interp::AliasProfile *Profile,
                   const interp::EdgeProfile *Edges,
                   const PromotionConfig &Config,
                   const ssa::DominatorTree &DT, const ssa::LoopInfo &LI)
      : F(F), AA(AA), Profile(Profile), Edges(Edges), Config(Config),
        DT(DT), LI(LI), H(F, DT, AA, Profile) {}

  PromotionContext(const PromotionContext &) = delete;
  PromotionContext &operator=(const PromotionContext &) = delete;

  ir::Function &F;
  const alias::AliasAnalysis &AA;
  const interp::AliasProfile *Profile;
  const interp::EdgeProfile *Edges;
  const PromotionConfig &Config;
  const ssa::DominatorTree &DT;
  const ssa::LoopInfo &LI;
  ssa::HSSA H;

  std::vector<std::vector<unsigned>> CanonData; ///< strategy collapse
  std::vector<std::vector<unsigned>> CanonAddr; ///< cascade collapse
  std::map<ExprKey, ExprInfo> Exprs;
  std::vector<ir::BasicBlock *> TempDefBlock; ///< by temp id; null if none
  std::vector<unsigned> TempDefCount;         ///< defs per temp
  MutationPlan Plan;
  PromotionStats Stats;
  std::map<std::pair<ir::BasicBlock *, ir::BasicBlock *>, ir::BasicBlock *>
      SplitBlocks;
  /// Promoted temps with their expression ref, for the cleanup pass.
  std::vector<std::pair<unsigned, bool>> PromotedTemps; ///< (temp, indirect)

  /// Whether the active strategy can speculate across this χ on the data
  /// level (ALAT χ_s or a software-checkable store χ).
  bool chiCollapsibleData(const ssa::ChiRecord &Chi) const;
  /// ... and on an address level (chk.a cascade recovery only, §2.4).
  bool chiCollapsibleAddr(const ssa::ChiRecord &Chi) const;

  /// Canonical constituent signature of raw versions \p Raw.
  std::vector<unsigned> canonSigAt(const ExprInfo &E,
                                   const std::vector<unsigned> &Raw) const;
  std::vector<unsigned> rawSigAtEntry(const ExprInfo &E,
                                      ir::BasicBlock *BB) const;
  std::vector<unsigned> rawSigAtExit(const ExprInfo &E,
                                     ir::BasicBlock *BB) const;
  std::vector<unsigned> rawSigOfOcc(const ExprInfo &E,
                                    const Occurrence &O) const;
};

//===----------------------------------------------------------------------===//
// Stage entry points (one translation unit each; see file comment)
//===----------------------------------------------------------------------===//

/// PhiInsertion.cpp: records every temp's defining block (promotion input
/// IR is single-assignment; earlier promotion passes may have broken
/// that, which eligibility checks catch).
void computeTempDefs(PromotionContext &Ctx);

/// PhiInsertion.cpp: gathers promotion candidates into Ctx.Exprs in
/// dominator preorder.
void collectExpressions(PromotionContext &Ctx);

/// PhiInsertion.cpp: true if \p E can be processed at all (has a load,
/// all constituents known, single-def index temp).
bool exprEligible(const PromotionContext &Ctx, const ExprInfo &E);

/// PhiInsertion.cpp: places expression Φs at the iterated dominance
/// frontier of occurrences and constituent definitions.
void insertPhis(PromotionContext &Ctx, const ExprInfo &E, ExprWork &W);

/// Rename.cpp: the speculative Rename walk — assigns versions to
/// occurrences and Φ operands by canonical-signature comparison.
void renameExpression(PromotionContext &Ctx, ExprInfo &E, ExprWork &W);

/// DownSafety.cpp: all-paths anticipation plus the §2.3 control-
/// speculation override for profitable non-down-safe Φs.
void computeDownSafety(PromotionContext &Ctx, const ExprInfo &E,
                       ExprWork &W);

/// WillBeAvail.cpp: CanBeAvail ∧ ¬Later with the edge-profile
/// profitability gate on insertions.
void computeWillBeAvail(PromotionContext &Ctx, const ExprInfo &E,
                        ExprWork &W);

/// CodeMotion.cpp: capture points, crossed-χ feasibility, and the
/// mutation plan for \p E (appends to Ctx.Plan).
void planCodeMotion(PromotionContext &Ctx, ExprInfo &E, ExprWork &W);

/// ApplyPlan.cpp: applies Ctx.Plan to the IR in one batch.
void applyPlan(PromotionContext &Ctx);

/// CheckCleanup.cpp: erases checks whose promoted temp has no reaching
/// definition or no observable use afterwards.
void cleanupChecks(PromotionContext &Ctx);

/// Promoter.cpp: runs all stages for one function and returns the stats.
/// \p Timings, when given, receives the per-stage wall time.
PromotionStats runPromotion(PromotionContext &Ctx,
                            StageTimings *Timings = nullptr);

} // namespace srp::pre::detail

#endif // SRP_PRE_PROMOTIONCONTEXT_H
