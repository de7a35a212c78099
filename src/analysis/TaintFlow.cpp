//===- TaintFlow.cpp - Speculative secret-taint dataflow ---------------------===//

#include "analysis/TaintFlow.h"

#include "alias/Andersen.h"
#include "ir/Printer.h"
#include "ssa/Dominators.h"
#include "ssa/HSSA.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace srp;
using namespace srp::analysis;
using namespace srp::ir;
using interp::Shadow;

const char *analysis::taintDiagKindName(TaintDiagKind Kind) {
  switch (Kind) {
  case TaintDiagKind::SpecSecretAddress:
    return "spec-secret-address";
  case TaintDiagKind::SpecSecretBranch:
    return "spec-secret-branch";
  case TaintDiagKind::SpecSecretOutput:
    return "spec-secret-output";
  }
  SRP_UNREACHABLE("invalid taint diag kind");
}

std::string analysis::formatTaintDiag(const TaintDiag &D,
                                      std::string_view File) {
  std::string Out;
  if (!File.empty())
    Out += std::string(File) + ":";
  Out += formatString("%u: error: ", D.Line);
  Out += D.Message;
  Out += formatString(" [%s]", taintDiagKindName(D.Kind));
  Out += formatString("\n  in %s, block %s", D.FunctionName.c_str(),
                      D.BlockName.c_str());
  if (!D.StmtText.empty())
    Out += ": " + D.StmtText;
  return Out;
}

namespace srp::analysis {

/// The module fixpoint engine. Builds HSSA once per function, then
/// iterates: per-function forward dataflow on temp shadows (flow-
/// sensitive; OR-join at block heads) with monotone weak updates to the
/// module-wide symbol shadows, until nothing changes. A final reporting
/// pass re-runs each function's transfer with the stable state and emits
/// diagnostics at the sinks.
class TaintSolver {
public:
  TaintSolver(ir::Module &M, TaintFlow &TF) : M(M), TF(TF) {
    for (const auto &[S, Index] : interp::specSiteIndex(M))
      TF.SiteBits[S] = 1ULL << Index;
    for (unsigned I = 0, E = M.numSymbols(); I != E; ++I)
      if (M.symbol(I)->Secret) {
        TF.SymShadow[I].Secret = true;
        TF.AnySecret = true;
      }
    if (!TF.AnySecret)
      return;
    // HSSA is immutable once built and the analysis never mutates the IR,
    // so one build per function serves every iteration.
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
      ir::Function &F = *M.function(FI);
      if (F.numBlocks() == 0)
        continue;
      Doms.push_back(std::make_unique<ssa::DominatorTree>(F));
      Forms.push_back(std::make_unique<ssa::HSSA>(F, *Doms.back(), *TF.AA,
                                                  /*Profile=*/nullptr));
    }
    solve();
    report();
  }

private:
  /// Dataflow state: one shadow per temp.
  using State = std::vector<Shadow>;

  static bool merge(Shadow &Into, const Shadow &From) {
    bool Changed = (From.Secret && !Into.Secret) ||
                   (From.Spec & ~Into.Spec) != 0;
    Into.merge(From);
    return Changed;
  }

  Shadow operandShadow(const State &In, const Operand &Op) const {
    if (Op.isTemp() && Op.TempId < In.size())
      return In[Op.TempId];
    return Shadow();
  }

  /// Content shadow of one HSSA object: symbols read their own cell,
  /// virtual variables widen to their points-to set (wild when empty).
  Shadow objectShadow(const ssa::HSSA &H, ssa::ObjectId Obj,
                      const ir::Function *F) const {
    const ssa::SSAObject &O = H.object(Obj);
    if (!O.isVirtual())
      return TF.SymShadow[O.Sym->Id];
    Shadow Sh;
    auto Pointees = TF.AA->mayPointees(O.Ref, F);
    if (Pointees.empty())
      return TF.WildShadow;
    for (const Symbol *Sym : Pointees)
      Sh.merge(TF.SymShadow[Sym->Id]);
    return Sh;
  }

  /// Weak-updates the content of one HSSA object with \p Sh. Returns
  /// true if any shadow grew.
  bool taintObject(const ssa::HSSA &H, ssa::ObjectId Obj,
                   const ir::Function *F, const Shadow &Sh) {
    const ssa::SSAObject &O = H.object(Obj);
    if (!O.isVirtual())
      return merge(TF.SymShadow[O.Sym->Id], Sh);
    auto Pointees = TF.AA->mayPointees(O.Ref, F);
    if (Pointees.empty())
      return merge(TF.WildShadow, Sh);
    bool Changed = false;
    for (const Symbol *Sym : Pointees)
      Changed |= merge(TF.SymShadow[Sym->Id], Sh);
    return Changed;
  }

  /// Shadow the address-chain walk of \p S accumulates: the content of
  /// every level object the walk dereferences, plus the advanced load's
  /// own site bit (a chain cell an ld.a walks is itself speculative).
  /// Mirrors Execution::computeAccessAddress's WalkShadow.
  Shadow walkShadow(const ssa::HSSA &H, const ir::Stmt &S,
                    const ir::Function *F) const {
    const ssa::StmtAccess *AI = H.accessInfo(&S);
    Shadow Sh;
    if (!AI)
      return Sh;
    unsigned Depth = S.Ref.Depth;
    for (unsigned L = 0; L < Depth && L < AI->LevelObjs.size(); ++L)
      Sh.merge(objectShadow(H, AI->LevelObjs[L], F));
    if (S.Kind == StmtKind::Load && isAdvancedFlag(S.Flag))
      Sh.Spec |= TF.siteBitOf(&S);
    return Sh;
  }

  /// Content shadow of the data object (the cell the final read/write
  /// touches).
  Shadow dataShadow(const ssa::HSSA &H, const ir::Stmt &S,
                    const ir::Function *F) const {
    const ssa::StmtAccess *AI = H.accessInfo(&S);
    return AI ? objectShadow(H, AI->dataObj(), F) : Shadow();
  }

  void setTemp(State &In, unsigned Temp, const Shadow &Sh) {
    if (Temp != NoTemp && Temp < In.size())
      In[Temp] = Sh;
  }

  /// One statement's transfer on \p In. When \p GrewMemory is non-null,
  /// memory/summary weak updates are applied and their growth reported
  /// through it; the reporting pass passes null and \p Sink to collect
  /// diagnostics instead.
  void transfer(const ssa::HSSA &H, const ir::Function *F, const Stmt &S,
                State &In, bool *GrewMemory,
                std::vector<TaintDiag> *Sink, const BasicBlock *BB) {
    switch (S.Kind) {
    case StmtKind::Assign: {
      Shadow Sh = operandShadow(In, S.A);
      Sh.merge(operandShadow(In, S.B));
      Sh.merge(operandShadow(In, S.C));
      setTemp(In, S.Dst, Sh);
      break;
    }
    case StmtKind::Load: {
      bool IsChkA = S.Flag == SpecFlag::ChkA || S.Flag == SpecFlag::ChkAnc;
      Shadow AddrShadow;
      if (S.hasAddrSrc() && !IsChkA) {
        // The load reuses a saved pointer: its speculative history is the
        // saved temp's, not the chain's.
        if (S.AddrSrc < In.size())
          AddrShadow = In[S.AddrSrc];
      } else {
        AddrShadow = walkShadow(H, S, F);
        // chk.a re-walks the chain architecturally and refreshes the
        // saved pointer (flow-sensitive strong update, like the
        // interpreter's).
        if (IsChkA && S.AddrSrc != NoTemp)
          setTemp(In, S.AddrSrc, AddrShadow);
      }
      if (S.Ref.hasIndex())
        AddrShadow.merge(operandShadow(In, S.Ref.Index));
      if (S.AddrDst != NoTemp)
        setTemp(In, S.AddrDst, AddrShadow);
      emitIf(Sink, TaintDiagKind::SpecSecretAddress, AddrShadow, F, BB, &S);
      Shadow DstShadow = dataShadow(H, S, F);
      DstShadow.merge(AddrShadow);
      if (isAdvancedFlag(S.Flag))
        DstShadow.Spec |= TF.siteBitOf(&S);
      // Checking loads (ld.c / chk.a) re-define Dst without an advanced
      // bit: the check is the commit point, after it the value is
      // architectural.
      setTemp(In, S.Dst, DstShadow);
      break;
    }
    case StmtKind::Store: {
      Shadow AddrShadow = walkShadow(H, S, F);
      if (S.Ref.hasIndex())
        AddrShadow.merge(operandShadow(In, S.Ref.Index));
      if (S.AddrDst != NoTemp)
        setTemp(In, S.AddrDst, AddrShadow);
      emitIf(Sink, TaintDiagKind::SpecSecretAddress, AddrShadow, F, BB, &S);
      if (GrewMemory) {
        const ssa::StmtAccess *AI = H.accessInfo(&S);
        if (AI)
          *GrewMemory |=
              taintObject(H, AI->dataObj(), F, operandShadow(In, S.A));
      }
      break;
    }
    case StmtKind::AddrOf:
      setTemp(In, S.Dst,
              S.Ref.hasIndex() ? operandShadow(In, S.Ref.Index) : Shadow());
      break;
    case StmtKind::Alloc:
      setTemp(In, S.Dst, Shadow());
      break;
    case StmtKind::Call: {
      if (GrewMemory) {
        const auto &Formals = S.Callee->formals();
        for (size_t I = 0; I < S.Args.size() && I < Formals.size(); ++I)
          *GrewMemory |= merge(TF.SymShadow[Formals[I]->Id],
                               operandShadow(In, S.Args[I]));
      }
      setTemp(In, S.Dst, RetSummary[S.Callee]);
      break;
    }
    case StmtKind::Invala:
      break;
    case StmtKind::Print:
      emitIf(Sink, TaintDiagKind::SpecSecretOutput, operandShadow(In, S.A),
             F, BB, &S);
      break;
    }
  }

  void transferTerminator(const ir::Function *F, const BasicBlock *BB,
                          State &Out, bool *GrewMemory,
                          std::vector<TaintDiag> *Sink) {
    const Terminator &T = BB->term();
    if (T.Kind == TermKind::CondBr)
      emitIf(Sink, TaintDiagKind::SpecSecretBranch,
             operandShadow(Out, T.Cond), F, BB, /*S=*/nullptr);
    if (T.Kind == TermKind::Ret && GrewMemory && !T.RetVal.isNone())
      *GrewMemory |=
          merge(RetSummary[F], operandShadow(Out, T.RetVal));
  }

  void emitIf(std::vector<TaintDiag> *Sink, TaintDiagKind Kind,
              const Shadow &Sh, const ir::Function *F, const BasicBlock *BB,
              const Stmt *S) {
    if (!Sink || !Sh.leaks())
      return;
    TaintDiag D;
    D.Kind = Kind;
    D.FunctionName = F->getName();
    D.BlockName = BB->getName();
    D.SpecMask = Sh.Spec;
    if (S) {
      D.StmtText = stmtToString(*S);
      D.Line = S->Line;
    } else {
      // Terminators carry no line; attribute branch leaks to the block's
      // final statement, matching the interpreter's dynamic trace.
      D.Line = BB->size() ? BB->stmt(BB->size() - 1)->Line : 0;
    }
    const char *What = Kind == TaintDiagKind::SpecSecretAddress
                           ? "an access address"
                       : Kind == TaintDiagKind::SpecSecretBranch
                           ? "a branch condition"
                           : "program output";
    D.Message = formatString(
        "secret-derived value reaches %s inside a speculative window "
        "(advanced-load sites 0x%llx)",
        What, static_cast<unsigned long long>(Sh.Spec));
    Sink->push_back(std::move(D));
  }

  const ssa::HSSA *formOf(const ir::Function *F) const {
    for (const auto &H : Forms)
      if (&H->function() == F)
        return H.get();
    return nullptr;
  }

  /// Runs one function's forward dataflow to a local fixpoint under the
  /// current module state. Returns true if memory/summaries grew. Leaves
  /// the per-block OUT states in BlockOut[F].
  bool solveFunction(ir::Function &F) {
    const ssa::HSSA *H = formOf(&F);
    if (!H)
      return false;
    auto &Out = BlockOut[&F];
    Out.assign(F.numBlocks(), State(F.numTemps()));
    bool GrewMemory = false;
    bool LocalChanged = true;
    // The state is finite and every transfer monotone in it, so the loop
    // terminates; the block count bounds the longest acyclic chain.
    while (LocalChanged) {
      LocalChanged = false;
      for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
        BasicBlock *BB = F.block(BI);
        State In(F.numTemps());
        for (const BasicBlock *P : BB->preds())
          for (unsigned T = 0; T < In.size(); ++T)
            In[T].merge(Out[P->getId()][T]);
        for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI)
          transfer(*H, &F, *BB->stmt(SI), In, &GrewMemory,
                   /*Sink=*/nullptr, BB);
        transferTerminator(&F, BB, In, &GrewMemory, /*Sink=*/nullptr);
        for (unsigned T = 0; T < In.size(); ++T)
          LocalChanged |= merge(Out[BI][T], In[T]);
      }
    }
    return GrewMemory;
  }

  void solve() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      ++TF.Iterations;
      for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI)
        Changed |= solveFunction(*M.function(FI));
      // Summaries feeding call sites change temp states too, so one more
      // sweep runs whenever anything grew; the finite lattice bounds the
      // iteration count.
    }
  }

  /// Emits diagnostics and the final per-temp shadows with the stable
  /// state. Re-runs each block's transfer from its (now stable) IN.
  void report() {
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
      ir::Function &F = *M.function(FI);
      const ssa::HSSA *H = formOf(&F);
      if (!H)
        continue;
      auto &Out = BlockOut[&F];
      State &Final = TF.TempShadows[&F];
      Final.assign(F.numTemps(), Shadow());
      for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
        BasicBlock *BB = F.block(BI);
        State In(F.numTemps());
        for (const BasicBlock *P : BB->preds())
          for (unsigned T = 0; T < In.size(); ++T)
            In[T].merge(Out[P->getId()][T]);
        for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI)
          transfer(*H, &F, *BB->stmt(SI), In, /*GrewMemory=*/nullptr,
                   &TF.Diags, BB);
        transferTerminator(&F, BB, In, /*GrewMemory=*/nullptr, &TF.Diags);
        for (unsigned T = 0; T < In.size(); ++T)
          Final[T].merge(In[T]);
      }
    }
  }

  ir::Module &M;
  TaintFlow &TF;
  std::vector<std::unique_ptr<ssa::DominatorTree>> Doms;
  std::vector<std::unique_ptr<ssa::HSSA>> Forms;
  std::map<const ir::Function *, Shadow> RetSummary;
  std::map<const ir::Function *, std::vector<State>> BlockOut;
};

} // namespace srp::analysis

TaintFlow::TaintFlow(ir::Module &M, const TaintFlowConfig &Config) {
  if (Config.AA) {
    AA = Config.AA;
  } else {
    // Lint-path instance: taint webs query only the references secret
    // values reach, so demand mode solves a fraction of the program.
    OwnedAA = std::make_unique<alias::AndersenAnalysis>(
        M, alias::AndersenAnalysis::SolveMode::Demand);
    AA = OwnedAA.get();
  }
  SymShadow.assign(M.numSymbols(), Shadow());
  TaintSolver Solver(M, *this);
}

TaintFlow::~TaintFlow() = default;

Shadow TaintFlow::tempShadow(const ir::Function *F, unsigned Temp) const {
  auto It = TempShadows.find(F);
  if (It == TempShadows.end() || Temp >= It->second.size())
    return Shadow();
  return It->second[Temp];
}

Shadow TaintFlow::symbolShadow(const ir::Symbol *Sym) const {
  return Sym && Sym->Id < SymShadow.size() ? SymShadow[Sym->Id] : Shadow();
}

uint64_t TaintFlow::siteBitOf(const ir::Stmt *S) const {
  auto It = SiteBits.find(S);
  return It == SiteBits.end() ? 0 : It->second;
}

const char *TaintFlow::aliasName() const { return AA->name(); }
