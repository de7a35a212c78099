//===- Decode.cpp - Decode-once op stream for the IR interpreter ------------===//

#include "interp/Decode.h"

#include "interp/Interpreter.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_map>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;
using namespace srp::interp::decode;

namespace {

constexpr uint64_t round64(uint64_t Bytes) { return (Bytes + 63) & ~63ULL; }

/// Storage of an object of \p Bytes (the interpreter's allocation rule:
/// whole 8-byte cells, at least one).
constexpr uint64_t cellBytes(uint64_t Bytes) {
  Bytes = (Bytes + 7) & ~7ULL;
  return Bytes == 0 ? 8 : Bytes;
}

using FuncEntry = std::pair<const Function *, uint32_t>;
bool byFunction(const FuncEntry &L, const FuncEntry &R) {
  return std::less<const Function *>()(L.first, R.first);
}

class Decoder {
public:
  Decoder(const Module &M, Program &P) : M(M), P(P) {}

  void run() {
    layoutGlobals();
    size_t NumStmts = 0, NumBlocks = 0;
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
      const Function *F = M.function(FI);
      FuncIndex.emplace_back(F, FI);
      NumBlocks += F->numBlocks();
      for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI)
        NumStmts += F->block(BI)->size();
    }
    std::sort(FuncIndex.begin(), FuncIndex.end(), byFunction);
    P.Ops.reserve(NumStmts + 2 * NumBlocks);
    P.Mem.reserve(NumStmts);
    P.Blocks.reserve(NumBlocks);
    P.Edges.reserve(2 * NumBlocks);
    SlotOff.assign(M.numSymbols(), 0);
    P.Funcs.resize(M.numFunctions());
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI)
      decodeFunction(FI);
    if (const Function *Main = M.findFunction("main"))
      P.MainIdx = functionIndex(Main);
  }

private:
  void layoutGlobals() {
    GlobalAddr.assign(M.numSymbols(), 0);
    uint64_t Next = layout::GlobalBase;
    for (const Symbol *G : M.globals()) {
      P.Globals.push_back(GlobalInfo{Next, Next + G->sizeInBytes(), G->Id,
                                     G->NumElems, G->Secret});
      if (owned(G))
        GlobalAddr[G->Id] = Next;
      Next += round64(G->sizeInBytes());
    }
    P.GlobalEnd = Next;
  }

  uint32_t functionIndex(const Function *F) const {
    auto It = std::lower_bound(FuncIndex.begin(), FuncIndex.end(),
                               std::make_pair(F, 0u), byFunction);
    return It != FuncIndex.end() && It->first == F ? It->second : NoSlot;
  }

  bool owned(const Symbol *S) const {
    return S->Id < M.numSymbols() && M.symbol(S->Id) == S;
  }

  uint32_t message(std::string Text) {
    P.Messages.push_back(std::move(Text));
    return static_cast<uint32_t>(P.Messages.size() - 1);
  }

  /// Emits a Trap for a fault found while decoding the current statement.
  void fault(std::string Text) {
    Op T;
    T.K = OpKind::Trap;
    T.A = message(std::move(Text));
    P.Ops.push_back(T);
  }

  /// Frame slot of an operand the statement evaluates; NoSlot (after
  /// recording the fault) when it cannot be evaluated.
  uint32_t operand(const Operand &Op) {
    switch (Op.K) {
    case Operand::Kind::Temp:
      if (Op.TempId < Fn->NumTemps)
        return Op.TempId;
      setFault("reference to an undefined temp");
      return NoSlot;
    case Operand::Kind::ConstInt:
      return constant(static_cast<uint64_t>(Op.IntVal));
    case Operand::Kind::ConstFloat:
      return constant(std::bit_cast<uint64_t>(Op.FloatVal));
    case Operand::Kind::None:
      setFault("evaluating a missing operand");
      return NoSlot;
    }
    return NoSlot;
  }

  /// Like operand(), but an absent operand reads as zero.
  uint32_t optional(const Operand &Op) {
    return Op.isNone() ? zeroSlot() : operand(Op);
  }

  uint32_t temp(unsigned Id) {
    if (Id < Fn->NumTemps)
      return Id;
    setFault("reference to an undefined temp");
    return NoSlot;
  }

  void setFault(const char *Text) {
    if (Fault.empty())
      Fault = Text;
  }

  uint32_t zeroSlot() const { return Fn->NumTemps; }

  uint32_t constant(uint64_t Bits) {
    auto [It, New] = ConstSlot.emplace(Bits, 0);
    if (New) {
      It->second = zeroSlot() + 1 +
                   static_cast<uint32_t>(P.Consts.size() - Fn->FirstConst);
      P.Consts.push_back(Bits);
    }
    return It->second;
  }

  void decodeFunction(unsigned FI) {
    const Function &F = *M.function(FI);
    FunctionInfo &Info = P.Funcs[FI];
    Fn = &Info;
    Info.F = &F;
    Info.NumTemps = F.numTemps();
    Info.FirstConst = static_cast<uint32_t>(P.Consts.size());
    ConstSlot.clear();

    // Frame layout: formals then locals, each in its own 64-byte granule
    // below the previous one. A symbol listed twice resolves to its last
    // slot, as a per-frame symbol map would. SlotOff is indexed by symbol
    // id (0: not a slot of this frame; real offsets are at least 64).
    uint64_t Off = 0;
    auto Place = [&](const Symbol *Sym) {
      uint64_t Bytes = cellBytes(Sym->sizeInBytes());
      Off += round64(Bytes);
      Info.Slots.push_back(SlotInfo{Off, Bytes, Sym->Id, Sym->Secret});
      if (owned(Sym))
        SlotOff[Sym->Id] = Off;
    };
    for (const Symbol *Formal : F.formals())
      Place(Formal);
    for (const Symbol *Local : F.locals())
      Place(Local);
    Info.FrameBytes = Off;
    for (const Symbol *Formal : F.formals())
      Info.FormalOffs.push_back(owned(Formal) ? SlotOff[Formal->Id] : 0);

    uint32_t Begin = static_cast<uint32_t>(P.Ops.size());
    Info.EntryPc = Begin;
    BlockPc.assign(F.numBlocks(), 0);
    Fixups.clear();
    RetZeroPc = NoSlot;
    if (F.numBlocks() == 0)
      fault("function has no blocks");
    for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
      BlockPc[BI] = static_cast<uint32_t>(P.Ops.size());
      decodeBlock(F, *F.block(BI));
    }
    for (auto [OpIdx, Target, IsFalse] : Fixups) {
      uint32_t Pc = Target ? BlockPc[Target->getId()] : retZero();
      (IsFalse ? P.Ops[OpIdx].D : P.Ops[OpIdx].C) = Pc;
    }
    Info.NumSlots = Info.NumTemps + 1 +
                    static_cast<uint32_t>(P.Consts.size() - Info.FirstConst);
    for (const SlotInfo &S : Info.Slots)
      if (S.SymbolId < SlotOff.size())
        SlotOff[S.SymbolId] = 0;
  }

  /// A `ret 0` the function's missing branch targets lead to.
  uint32_t retZero() {
    if (RetZeroPc == NoSlot) {
      RetZeroPc = static_cast<uint32_t>(P.Ops.size());
      Op R;
      R.K = OpKind::Ret;
      R.A = zeroSlot();
      P.Ops.push_back(R);
    }
    return RetZeroPc;
  }

  /// Index of \p Target in its function if it is a block of \p F.
  bool blockOf(const Function &F, const BasicBlock *Target) const {
    return !Target || (Target->getParent() == &F &&
                       Target->getId() < F.numBlocks() &&
                       F.block(Target->getId()) == Target);
  }

  void decodeBlock(const Function &F, const BasicBlock &BB) {
    uint32_t BlockId = static_cast<uint32_t>(P.Blocks.size());
    P.Blocks.push_back(&BB);

    // Statements up to and including the first call are charged on
    // entry; each later run of statements by a Charge after its call.
    size_t Start = 0;
    bool First = true;
    while (First || Start < BB.size()) {
      size_t End = Start;
      while (End < BB.size() && BB.stmt(End)->Kind != StmtKind::Call)
        ++End;
      if (End < BB.size())
        ++End; // the call closes the segment
      Op H;
      H.K = First ? OpKind::Enter : OpKind::Charge;
      H.A = static_cast<uint32_t>(End - Start);
      H.C = BlockId;
      H.Imm = static_cast<int64_t>(End - Start + (First ? 1 : 0));
      P.Ops.push_back(H);
      for (size_t SI = Start; SI < End; ++SI)
        decodeStmt(F, *BB.stmt(SI));
      Start = End;
      First = false;
    }
    decodeTerminator(F, BB);
  }

  void decodeTerminator(const Function &F, const BasicBlock &BB) {
    const Terminator &T = BB.term();
    Fault.clear();
    auto Edge = [&](const BasicBlock *To) {
      P.Edges.emplace_back(&BB, To);
      return static_cast<uint32_t>(P.Edges.size() - 1);
    };
    Op O;
    switch (T.Kind) {
    case TermKind::Br:
      if (!blockOf(F, T.Target))
        return fault("branch leaves the function");
      O.K = OpKind::Br;
      O.D = Edge(T.Target);
      Fixups.push_back({P.Ops.size(), T.Target, false});
      break;
    case TermKind::CondBr:
      if (!blockOf(F, T.Target) || !blockOf(F, T.FalseTarget))
        return fault("branch leaves the function");
      O.K = OpKind::CondBr;
      O.A = operand(T.Cond);
      O.Dst = BB.size() ? BB.stmt(BB.size() - 1)->Line : 0;
      O.Imm = Edge(T.Target);
      O.Imm2 = Edge(T.FalseTarget);
      Fixups.push_back({P.Ops.size(), T.Target, false});
      Fixups.push_back({P.Ops.size(), T.FalseTarget, true});
      break;
    case TermKind::Ret:
      O.K = OpKind::Ret;
      O.A = optional(T.RetVal);
      break;
    }
    if (!Fault.empty())
      return fault(Fault);
    P.Ops.push_back(O);
  }

  /// Resolves a memory reference's base into \p O (Imm and flags).
  void base(const Function &F, const Symbol *Sym, Op &O, MemInfo &MI) {
    if (Sym->Kind == SymbolKind::Global) {
      if (owned(Sym) && GlobalAddr[Sym->Id]) {
        O.Imm = static_cast<int64_t>(GlobalAddr[Sym->Id]);
        return;
      }
      O.Flags |= BaseFault;
      MI.FaultMsg = message("reference to unlaid-out global");
      return;
    }
    uint64_t Off = owned(Sym) ? SlotOff[Sym->Id] : 0;
    if (!Off) {
      O.Flags |= BaseFault;
      MI.FaultMsg = message(
          formatString("reference to foreign local '%s'", Sym->Name.c_str()));
      return;
    }
    O.Flags |= BaseInFrame;
    O.Imm = -static_cast<int64_t>(Off);
  }

  void decodeMemory(const Function &F, const Stmt &S, Op &O) {
    MemInfo MI;
    MI.Line = S.Line;
    MI.StA = S.StA;
    const MemRef &Ref = S.Ref;
    O.Depth = static_cast<uint8_t>(std::min(Ref.Depth, 255u));
    O.Flag = S.Flag;
    O.B = Ref.hasIndex() ? operand(Ref.Index) : zeroSlot();
    O.Imm2 = Ref.Offset;
    if (S.AddrDst != NoTemp)
      MI.AddrDst = temp(S.AddrDst);
    if (S.Kind == StmtKind::Load) {
      O.Dst = temp(S.Dst);
      if (S.AddrSrc != NoTemp)
        MI.AddrSrc = temp(S.AddrSrc);
      if (isAdvancedFlag(S.Flag))
        MI.SpecBit = 1ULL << std::min(NextSpecSite++, 63u);
    } else {
      O.A = operand(S.A);
      if (S.AlatDst != NoTemp)
        MI.AlatDst = S.AlatDst; // only handed to the ALAT observer
    }
    bool IsChkA = S.Flag == SpecFlag::ChkA || S.Flag == SpecFlag::ChkAnc;
    // A checking load reading its address from AddrSrc never forms the
    // base address, so an unaddressable base is harmless there.
    bool FormsBase = !(S.Kind == StmtKind::Load && S.AddrSrc != NoTemp &&
                       !IsChkA);
    if (!Ref.Base) {
      if (FormsBase)
        setFault("memory reference without base symbol");
    } else if (FormsBase) {
      base(F, Ref.Base, O, MI);
    }
    if (O.Depth == 0)
      O.Imm += Ref.Offset;
    if (O.Depth > 0 && FormsBase) {
      O.D = static_cast<uint32_t>(P.Sites.size());
      for (unsigned L = 1; L <= O.Depth; ++L)
        P.Sites.push_back(SiteInfo{&F, S.Id, L});
    }
    bool Plain = !(O.Flags & BaseFault) && MI.AddrDst == NoSlot;
    if (S.Kind == StmtKind::Load) {
      Plain &= S.Flag == SpecFlag::None && MI.AddrSrc == NoSlot;
      O.K = Plain ? OpKind::LoadPlain : OpKind::Load;
    } else {
      Plain &= !(S.StA && S.AlatDst != NoTemp);
      O.K = Plain ? OpKind::StorePlain : OpKind::Store;
    }
    O.C = static_cast<uint32_t>(P.Mem.size());
    P.Mem.push_back(MI);
  }

  void decodeStmt(const Function &F, const Stmt &S) {
    Fault.clear();
    Op O;
    switch (S.Kind) {
    case StmtKind::Assign:
      O.K = static_cast<OpKind>(static_cast<unsigned>(OpKind::Copy) +
                                static_cast<unsigned>(S.Op));
      O.Dst = temp(S.Dst);
      O.A = operand(S.A);
      O.B = optional(S.B);
      // Select evaluates C; every assign merges C's taint.
      O.C = S.Op == Opcode::Select ? operand(S.C) : optional(S.C);
      break;
    case StmtKind::Load:
    case StmtKind::Store:
      decodeMemory(F, S, O);
      break;
    case StmtKind::AddrOf: {
      MemInfo MI;
      O.K = OpKind::AddrOf;
      O.Dst = temp(S.Dst);
      if (!S.Ref.Base) {
        setFault("memory reference without base symbol");
        break;
      }
      base(F, S.Ref.Base, O, MI);
      O.Imm += S.Ref.Offset;
      O.B = S.Ref.hasIndex() ? operand(S.Ref.Index) : zeroSlot();
      O.C = MI.FaultMsg;
      break;
    }
    case StmtKind::Alloc:
      O.K = OpKind::Alloc;
      O.Dst = temp(S.Dst);
      O.A = operand(S.A);
      if (!S.HeapSym) {
        setFault("alloc without heap-site symbol");
        break;
      }
      O.Imm = S.HeapSym->Id;
      if (S.HeapSym->Secret)
        O.Flags |= SecretHeap;
      break;
    case StmtKind::Call: {
      uint32_t Callee = S.Callee ? functionIndex(S.Callee) : NoSlot;
      if (Callee == NoSlot) {
        setFault("call without callee");
        break;
      }
      O.K = OpKind::Call;
      O.C = Callee;
      O.A = static_cast<uint32_t>(P.ArgSlots.size());
      O.D = static_cast<uint32_t>(S.Args.size());
      for (const Operand &Arg : S.Args)
        P.ArgSlots.push_back(operand(Arg));
      O.Dst = S.Dst == NoTemp ? NoSlot : temp(S.Dst);
      break;
    }
    case StmtKind::Invala:
      O.K = OpKind::Invala;
      O.Dst = S.Dst; // the observer's register name, not a slot
      break;
    case StmtKind::Print:
      O.K = OpKind::Print;
      O.A = operand(S.A);
      O.Dst = S.Line;
      if (S.A.K == Operand::Kind::ConstFloat ||
          (S.A.isTemp() && S.A.TempId < F.numTemps() &&
           F.tempType(S.A.TempId) == TypeKind::Float))
        O.Flags |= PrintsFloat;
      break;
    }
    if (!Fault.empty())
      return fault(Fault);
    P.Ops.push_back(O);
  }

  const Module &M;
  Program &P;
  FunctionInfo *Fn = nullptr;
  std::vector<FuncEntry> FuncIndex; ///< Sorted by byFunction.
  /// Address of each laid-out global by symbol id (0: none; the global
  /// segment starts above 0).
  std::vector<uint64_t> GlobalAddr;
  std::unordered_map<uint64_t, uint32_t> ConstSlot;
  std::vector<uint64_t> SlotOff;
  std::vector<uint32_t> BlockPc;
  struct Fixup {
    size_t OpIdx;
    const BasicBlock *Target;
    bool IsFalse;
  };
  std::vector<Fixup> Fixups;
  uint32_t RetZeroPc = NoSlot;
  unsigned NextSpecSite = 0;
  /// First fault of the statement being decoded.
  std::string Fault;
};

} // namespace

void srp::interp::decode::decodeModule(const Module &M, Program &P) {
  Decoder(M, P).run();
}
