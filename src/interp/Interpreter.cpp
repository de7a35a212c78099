//===- Interpreter.cpp - IR execution and profiling -------------------------===//
//
// The executor of the decoded op stream (Decode.h, DESIGN.md §10). One
// dispatch loop per frame; profiling (alias + edge profile), tracing
// (MemTrace, AlatObserver) and shadow taint are template switches, and
// the loop is instantiated for the hook sets runs use (see run()), so
// those runs pay only for the observers they attached.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/AlatObserver.h"
#include "interp/Decode.h"
#include "support/Error.h"
#include "support/PagedMemory.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <map>
#include <tuple>
#include <type_traits>
#include <unordered_map>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;
using namespace srp::interp::decode;

#if defined(__GNUC__)
#define SRP_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define SRP_INLINE inline __attribute__((always_inline))
#define SRP_NOINLINE __attribute__((noinline))
#else
#define SRP_UNLIKELY(X) (X)
#define SRP_INLINE inline
#define SRP_NOINLINE
#endif

namespace srp::interp {

/// Hook sets a dispatch loop is specialised for.
constexpr unsigned HookProfile = 1; ///< AliasProfile and/or EdgeProfile
constexpr unsigned HookTrace = 2;   ///< MemTrace and/or AlatObserver
constexpr unsigned HookTaint = 4;   ///< TaintTrace

/// One run: the decoded program, memory, the object table for reverse
/// address-to-symbol lookup, frames and the dense profile counters.
class Execution {
public:
  Execution(const ir::Module &M, AliasProfile *AP, EdgeProfile *EP,
            AlatObserver *AO, MemTrace *MT, TaintTrace *TT, uint64_t Fuel)
      : M(M), AP(AP), EP(EP), AO(AO), MT(MT), TT(TT), FuelLeft(Fuel) {}

  RunResult run();

private:
  /// A live object: [Start, End) holds symbol Sym's storage.
  struct Object {
    uint64_t Start;
    uint64_t End;
    unsigned Sym;
  };

  /// Observed alias targets of one site (statement × level).
  struct SiteObs {
    unsigned Last = NoSymbol;
    std::vector<unsigned> Seen; ///< Sorted.
  };
  static constexpr unsigned NoSymbol = ~0u - 1; ///< Never a symbol id.

  template <unsigned H>
  bool call(uint32_t FnIdx, const uint32_t *ArgSlots, uint32_t NumArgs,
            const uint64_t *CallerR, const Shadow *CallerSh, uint64_t &RetBits,
            Shadow *RetSh);
  template <unsigned H>
  bool exec(const FunctionInfo &Fn, size_t Base, uint64_t Top,
            uint64_t &RetBits, Shadow *RetSh);
  template <unsigned H, bool General>
  SRP_INLINE bool load(const Op &O, uint64_t *R, Shadow *Sh, uint64_t Top,
                       const Function *F);
  template <unsigned H, bool General>
  SRP_INLINE bool store(const Op &O, uint64_t *R, Shadow *Sh, uint64_t Top,
                        const Function *F);
  /// The general (flagged / side-channel) forms run only in promoted
  /// code; keeping them out of line keeps the dispatch loops small.
  template <unsigned H>
  SRP_NOINLINE bool loadGeneral(const Op &O, uint64_t *R, Shadow *Sh,
                                uint64_t Top, const Function *F) {
    return load<H, true>(O, R, Sh, Top, F);
  }
  template <unsigned H>
  SRP_NOINLINE bool storeGeneral(const Op &O, uint64_t *R, Shadow *Sh,
                                 uint64_t Top, const Function *F) {
    return store<H, true>(O, R, Sh, Top, F);
  }
  template <unsigned H>
  SRP_INLINE uint64_t walk(const Op &O, const MemInfo &MI, const uint64_t *R,
                           uint64_t Top, bool SpecChain, uint64_t &ChainPtr,
                           Shadow *WalkSh);

  void trap(std::string Message) {
    if (!Trapped) {
      Trapped = true;
      TrapMessage = std::move(Message);
    }
  }
  /// Charges a block header that needs more fuel than is left: the run
  /// ends at the statement where the fuel does.
  bool chargeShort(uint32_t Pc);

  SRP_INLINE uint64_t read64(uint64_t Addr) {
    if (SRP_UNLIKELY(Addr % 8 != 0)) {
      trap(formatString("unaligned read at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return 0;
    }
    return Memory.load(Addr >> 3);
  }
  SRP_INLINE void write64(uint64_t Addr, uint64_t Bits) {
    if (SRP_UNLIKELY(Addr % 8 != 0)) {
      trap(formatString("unaligned write at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return;
    }
    Memory.store(Addr >> 3, Bits);
  }

  uint64_t allocate(std::vector<Object> &Region, uint64_t Start,
                    uint64_t Bytes, unsigned Sym, bool Secret);
  unsigned symbolAt(uint64_t Addr) const;
  unsigned symbolAtAnywhere(uint64_t Addr) const;
  void noteStackTop(uint64_t NewTop, uint64_t OldTop) {
    // The region lookup in symbolAt needs the stack strictly between the
    // globals and the heap; a frame that reaches below the globals (or
    // wraps) switches the run to the exhaustive lookup.
    if (NewTop < P.GlobalEnd || NewTop > OldTop)
      Overlap = true;
  }

  SRP_INLINE void recordSite(uint32_t Site, uint64_t Addr) {
    unsigned Sym = symbolAt(Addr);
    SiteObs &S = Sites[Site];
    if (Sym == S.Last)
      return;
    S.Last = Sym;
    auto It = std::lower_bound(S.Seen.begin(), S.Seen.end(), Sym);
    if (It == S.Seen.end() || *It != Sym)
      S.Seen.insert(It, Sym);
  }
  SRP_INLINE void recordAccess(uint64_t Addr, bool IsLoad, bool Spec) {
    if (MT)
      MT->Accesses.push_back(MemTrace::Access{Addr, symbolAt(Addr), IsLoad,
                                              Spec});
  }
  void flushProfiles();

  Shadow memShadow(uint64_t Addr) const {
    auto It = MemTaint.find(Addr >> 3);
    return It == MemTaint.end() ? Shadow() : It->second;
  }
  void recordLeak(const Function *F, TaintTrace::Sink Sink, unsigned Line,
                  const Shadow &Sh) {
    if (!TT || !Sh.leaks())
      return;
    auto Key = std::make_tuple(F, Line, Sink);
    auto [It, New] = LeakIndex.emplace(Key, TT->Leaks.size());
    if (!New) {
      TT->Leaks[It->second].SpecMask |= Sh.Spec;
      return;
    }
    TT->Leaks.push_back(TaintTrace::Leak{Sink, F->getName(), Line, Sh.Spec});
  }
  void print(uint64_t Bits, bool IsFloat);

  const ir::Module &M;
  AliasProfile *AP;
  EdgeProfile *EP;
  AlatObserver *AO;
  MemTrace *MT;
  TaintTrace *TT;
  uint64_t FuelLeft;
  Program P;

  PagedMemory Memory; ///< Keyed by Addr >> 3.
  /// Objects by region: globals and heap by ascending start, the live
  /// stack by descending start.
  std::vector<Object> Globals;
  std::vector<Object> Stack;
  std::vector<Object> Heap;
  /// The object symbolAt found last (empty range: none). Objects never
  /// move; popping a frame clears it.
  mutable Object LastHit{0, 0, 0};
  bool Overlap = false;
  uint64_t StackTop = layout::StackBase;
  uint64_t HeapTop = layout::HeapBase;
  unsigned CallDepth = 0;
  /// Address of the cell the last chain pointer was loaded from (the
  /// cell an advanced load's chain-pointer ALAT entry covers).
  uint64_t LastChainSlot = 0;

  /// Frame slots of every active frame, innermost last.
  std::vector<uint64_t> Regs;
  std::vector<Shadow> Shadows; ///< Taint mode: parallel to Regs.

  std::vector<uint64_t> BlockCounts;
  std::vector<uint64_t> EdgeCounts;
  std::vector<SiteObs> Sites;

  /// Taint mode: shadow of every written/initialized cell (Addr >> 3).
  std::unordered_map<uint64_t, Shadow> MemTaint;
  /// Taint mode: dedup index into TT->Leaks by (function, line, sink).
  std::map<std::tuple<const Function *, unsigned, TaintTrace::Sink>, size_t>
      LeakIndex;

  std::vector<std::string> Output;
  uint64_t StmtsExecuted = 0;
  uint64_t LoadsExecuted = 0;
  uint64_t StoresExecuted = 0;

  bool Trapped = false;
  std::string TrapMessage;
};

} // namespace srp::interp

// Traps record the first failure; the op that raised one finishes with
// inert values, then its frame unwinds. The project has no C++
// exceptions, and fatalError would kill the process, which tests that
// exercise trapping programs must survive.

uint64_t Execution::allocate(std::vector<Object> &Region, uint64_t Start,
                             uint64_t Bytes, unsigned Sym, bool Secret) {
  Region.push_back(Object{Start, Start + Bytes, Sym});
  // Taint mode: a fresh object's cells carry exactly the symbol's own
  // label, even though Memory may still hold stale bits from a popped
  // frame. Defining "fresh slots are fresh" keeps the dynamic taint an
  // under-approximation of what the symbol-granular static analysis can
  // derive, so dynamic leaks are always statically visible.
  if (TT)
    for (uint64_t Cell = Start; Cell < Start + Bytes; Cell += 8)
      MemTaint[Cell >> 3] = Shadow{Secret, 0};
  return Start;
}

// The object containing Addr is the one with the greatest start at or
// below it, if Addr is before that object's end. Globals, stack and heap
// are disjoint address ranges (below the stack top, the live stack, from
// HeapBase up), so one binary search in the right region finds it.
unsigned Execution::symbolAt(uint64_t Addr) const {
  if (SRP_UNLIKELY(Overlap))
    return symbolAtAnywhere(Addr);
  if (Addr - LastHit.Start < LastHit.End - LastHit.Start)
    return LastHit.Sym;
  const Object *Hit = nullptr;
  if (Addr >= layout::HeapBase) {
    auto It = std::upper_bound(
        Heap.begin(), Heap.end(), Addr,
        [](uint64_t A, const Object &O) { return A < O.Start; });
    if (It != Heap.begin())
      Hit = &*std::prev(It);
  } else if (Addr >= StackTop) {
    auto It = std::partition_point(
        Stack.begin(), Stack.end(),
        [Addr](const Object &O) { return O.Start > Addr; });
    if (It != Stack.end())
      Hit = &*It;
  } else {
    auto It = std::upper_bound(
        Globals.begin(), Globals.end(), Addr,
        [](uint64_t A, const Object &O) { return A < O.Start; });
    if (It != Globals.begin())
      Hit = &*std::prev(It);
  }
  if (!Hit || Addr >= Hit->End)
    return AliasProfile::UnknownTarget;
  LastHit = *Hit;
  return Hit->Sym;
}

// The same rule without the region shortcut, for runs whose stack grew
// into the global segment or wrapped.
unsigned Execution::symbolAtAnywhere(uint64_t Addr) const {
  uint64_t BestStart = 0, BestEnd = 0;
  unsigned Best = AliasProfile::UnknownTarget;
  bool Found = false;
  auto Consider = [&](uint64_t Start, uint64_t End, unsigned Sym) {
    if (Start <= Addr && (!Found || Start >= BestStart)) {
      Found = true;
      BestStart = Start;
      BestEnd = End;
      Best = Sym;
    }
  };
  for (const std::vector<Object> *Region : {&Globals, &Heap, &Stack})
    for (const Object &O : *Region)
      Consider(O.Start, O.End, O.Sym);
  return Found && Addr < BestEnd ? Best : AliasProfile::UnknownTarget;
}

bool Execution::chargeShort(uint32_t Pc) {
  const Op &O = P.Ops[Pc];
  uint64_t Entry = O.K == OpKind::Enter ? 1 : 0;
  if (FuelLeft < Entry) {
    trap("fuel exhausted");
    return false;
  }
  // One op per statement: the first statement the fuel does not cover
  // becomes the trap. No call precedes it inside the segment, so no
  // other frame can reach the patched op before this one does.
  P.Ops[Pc + 1 + (FuelLeft - Entry)].K = OpKind::FuelOut;
  FuelLeft = 0;
  return true;
}

void Execution::print(uint64_t Bits, bool IsFloat) {
  if (IsFloat) {
    Output.push_back(formatString("%.6g", std::bit_cast<double>(Bits)));
    return;
  }
  char Buf[24];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf),
                                 static_cast<int64_t>(Bits));
  (void)Ec;
  Output.emplace_back(Buf, End);
}

void Execution::flushProfiles() {
  if (EP) {
    for (size_t I = 0; I < BlockCounts.size(); ++I)
      if (BlockCounts[I])
        EP->addBlockCount(P.Blocks[I], BlockCounts[I]);
    for (size_t I = 0; I < EdgeCounts.size(); ++I)
      if (EdgeCounts[I])
        EP->addEdgeCount(P.Edges[I].first, P.Edges[I].second, EdgeCounts[I]);
  }
  if (AP)
    for (size_t I = 0; I < Sites.size(); ++I)
      for (unsigned Sym : Sites[I].Seen)
        AP->recordTarget(P.Sites[I].F, P.Sites[I].StmtId, P.Sites[I].Level,
                         Sym);
}

/// Address of a memory reference's chain start (Depth > 0) or final
/// address less the index (Depth 0).
#define SRP_BASE(O, Top)                                                       \
  (static_cast<uint64_t>((O).Imm) + (((O).Flags & BaseInFrame) ? (Top) : 0))

template <unsigned H>
SRP_INLINE uint64_t Execution::walk(const Op &O, const MemInfo &MI,
                                    const uint64_t *R, uint64_t Top,
                                    bool SpecChain, uint64_t &ChainPtr,
                                    Shadow *WalkSh) {
  if (SRP_UNLIKELY(O.Flags & BaseFault))
    trap(P.Messages[MI.FaultMsg]);
  uint64_t Addr = SRP_BASE(O, Top);
  uint64_t Index = R[O.B] * 8;
  ChainPtr = Addr;
  if (O.Depth == 0)
    return Addr + Index;
  uint64_t Extra = static_cast<uint64_t>(O.Imm2) + Index;
  for (unsigned Level = 1; Level <= O.Depth; ++Level) {
    bool Last = Level == O.Depth;
    if (Last)
      LastChainSlot = Addr;
    if constexpr (bool(H & HookTrace))
      recordAccess(Addr, /*IsLoad=*/true, SpecChain);
    if constexpr (bool(H & HookTaint))
      if (WalkSh) {
        WalkSh->merge(memShadow(Addr));
        if (SpecChain)
          WalkSh->Spec |= MI.SpecBit;
      }
    Addr = read64(Addr);
    ++LoadsExecuted;
    ChainPtr = Addr;
    if (Last)
      Addr += Extra;
    if constexpr (bool(H & HookProfile))
      recordSite(O.D + Level - 1, Addr);
  }
  return Addr;
}

template <unsigned H, bool General>
SRP_INLINE bool Execution::load(const Op &O, uint64_t *R, Shadow *Sh,
                                uint64_t Top, const Function *F) {
  constexpr bool Taint = H & HookTaint;
  const MemInfo &MI = P.Mem[O.C];
  bool Advanced = General && isAdvancedFlag(O.Flag);
  bool IsChkA = General && (O.Flag == SpecFlag::ChkA ||
                            O.Flag == SpecFlag::ChkAnc);
  uint64_t Addr;
  uint64_t ChainPtr = 0;
  uint64_t PtrPre = 0; // Saved pointer register before a chk.a refresh.
  Shadow AddrShadow;   // Taint mode: shadow of the final address.
  if (General && MI.AddrSrc != NoSlot && !IsChkA) {
    // Checking loads (ld.c) take the saved chain pointer and re-apply
    // index/offset.
    uint64_t Extra = static_cast<uint64_t>(O.Imm2) + R[O.B] * 8;
    Addr = O.Depth ? R[MI.AddrSrc] + Extra : R[MI.AddrSrc];
    if constexpr (Taint)
      AddrShadow = Sh[MI.AddrSrc];
  } else {
    // chk.a checks re-walk the whole chain (the recovery reloads the
    // address) and refresh the saved pointer.
    bool Refresh = IsChkA && MI.AddrSrc != NoSlot;
    if (Refresh)
      PtrPre = R[MI.AddrSrc];
    Addr = walk<H>(O, MI, R, Top, Advanced, ChainPtr,
                   Taint ? &AddrShadow : nullptr);
    if (Refresh) {
      R[MI.AddrSrc] = ChainPtr;
      // The check re-walked the chain architecturally, so the saved
      // pointer's shadow is refreshed from the (non-speculative) walk.
      if constexpr (Taint)
        Sh[MI.AddrSrc] = AddrShadow;
    }
  }
  if constexpr (Taint)
    AddrShadow.merge(Sh[O.B]);
  if (General && MI.AddrDst != NoSlot) {
    R[MI.AddrDst] = O.Depth ? ChainPtr : Addr;
    if constexpr (Taint)
      Sh[MI.AddrDst] = AddrShadow;
  }
  uint64_t RegPre = R[O.Dst];
  if constexpr (bool(H & HookTrace))
    recordAccess(Addr, /*IsLoad=*/true, Advanced);
  if constexpr (Taint)
    recordLeak(F, TaintTrace::Sink::Address, MI.Line, AddrShadow);
  uint64_t Value = read64(Addr);
  R[O.Dst] = Value;
  ++LoadsExecuted;
  if constexpr (Taint) {
    Shadow DstShadow = memShadow(Addr);
    DstShadow.merge(AddrShadow);
    if (Advanced)
      DstShadow.Spec |= MI.SpecBit;
    // Checking loads (ld.c / chk.a) re-define Dst from architectural
    // memory without an advanced bit: a checked value stops being
    // speculative.
    Sh[O.Dst] = DstShadow;
  }
  if constexpr (General && bool(H & HookTrace))
    if (AO && O.Flag != SpecFlag::None) {
      if (Advanced) {
        // Lowering allocates the chain-pointer entry first, then the
        // data entry (accessAddress, then the ld.a itself).
        if (O.Depth && MI.AddrDst != NoSlot)
          AO->onAllocate(F, MI.AddrDst, LastChainSlot);
        AO->onAllocate(F, O.Dst, Addr);
      } else if (IsChkA) {
        // chk.a checks the chain pointer; on a miss its recovery
        // re-executes both advanced loads, then the continuation
        // re-checks the data with ld.c.nc (see codegen/Lowering.cpp).
        bool PtrHit = true;
        if (MI.AddrSrc != NoSlot)
          PtrHit = AO->onCheck(F, MI.AddrSrc, LastChainSlot,
                               /*Clear=*/O.Flag == SpecFlag::ChkA, PtrPre,
                               ChainPtr);
        if (!PtrHit) {
          AO->onAllocate(F, MI.AddrSrc, LastChainSlot);
          AO->onAllocate(F, O.Dst, Addr);
        }
        AO->onCheck(F, O.Dst, Addr, /*Clear=*/false, PtrHit ? RegPre : Value,
                    Value);
      } else {
        AO->onCheck(F, O.Dst, Addr, /*Clear=*/O.Flag == SpecFlag::LdC, RegPre,
                    Value);
      }
    }
  return !Trapped;
}

template <unsigned H, bool General>
SRP_INLINE bool Execution::store(const Op &O, uint64_t *R, Shadow *Sh,
                                 uint64_t Top, const Function *F) {
  constexpr bool Taint = H & HookTaint;
  const MemInfo &MI = P.Mem[O.C];
  uint64_t ChainPtr = 0;
  Shadow AddrShadow;
  uint64_t Addr = walk<H>(O, MI, R, Top, /*SpecChain=*/false, ChainPtr,
                          Taint ? &AddrShadow : nullptr);
  if constexpr (Taint)
    AddrShadow.merge(Sh[O.B]);
  if (General && MI.AddrDst != NoSlot) {
    R[MI.AddrDst] = Addr; // stores expose the final address
    if constexpr (Taint)
      Sh[MI.AddrDst] = AddrShadow;
  }
  if constexpr (bool(H & HookTrace))
    recordAccess(Addr, /*IsLoad=*/false, /*Spec=*/false);
  if constexpr (Taint)
    recordLeak(F, TaintTrace::Sink::Address, MI.Line, AddrShadow);
  write64(Addr, R[O.A]);
  if constexpr (Taint)
    MemTaint[Addr >> 3] = Sh[O.A]; // strong update
  ++StoresExecuted;
  if constexpr (bool(H & HookTrace))
    if (AO) {
      AO->onStore(Addr);
      if (General && MI.StA && MI.AlatDst != NoSlot)
        AO->onAllocate(F, MI.AlatDst, Addr);
    }
  return !Trapped;
}

template <unsigned H>
bool Execution::call(uint32_t FnIdx, const uint32_t *ArgSlots,
                     uint32_t NumArgs, const uint64_t *CallerR,
                     const Shadow *CallerSh, uint64_t &RetBits,
                     Shadow *RetSh) {
  if (++CallDepth > 512) {
    trap("call depth limit exceeded");
    --CallDepth;
    return false;
  }
  const FunctionInfo &Fn = P.Funcs[FnIdx];
  uint64_t Top = StackTop;
  size_t StackMark = Stack.size();
  for (const SlotInfo &S : Fn.Slots)
    allocate(Stack, Top - S.Off, S.Bytes, S.SymbolId, S.Secret);
  StackTop = Top - Fn.FrameBytes;
  noteStackTop(StackTop, Top);
  size_t N = std::min<size_t>(NumArgs, Fn.FormalOffs.size());
  for (size_t I = 0; I < N; ++I) {
    uint64_t Slot = Top - Fn.FormalOffs[I];
    write64(Slot, CallerR[ArgSlots[I]]);
    // allocate() seeded the slot with the formal's own Secret label; the
    // incoming argument's shadow merges on top.
    if constexpr (bool(H & HookTaint))
      MemTaint[Slot >> 3].merge(CallerSh[ArgSlots[I]]);
  }

  size_t Base = Regs.size();
  Regs.resize(Base + Fn.NumSlots);
  std::copy_n(P.Consts.begin() + Fn.FirstConst,
              Fn.NumSlots - Fn.NumTemps - 1,
              Regs.begin() + Base + Fn.NumTemps + 1);
  if constexpr (bool(H & HookTaint))
    Shadows.resize(Base + Fn.NumSlots);

  RetBits = 0;
  bool Ok = exec<H>(Fn, Base, Top, RetBits, RetSh);

  // Pop the frame: its registers, its stack objects, the stack pointer.
  Regs.resize(Base);
  if constexpr (bool(H & HookTaint))
    Shadows.resize(Base);
  Stack.resize(StackMark);
  LastHit = Object{0, 0, 0};
  StackTop = Top;
  --CallDepth;
  if constexpr (bool(H & HookTrace))
    if (AO)
      AO->onReturn(Fn.F);
  return Ok;
}

template <unsigned H>
bool Execution::exec(const FunctionInfo &Fn, size_t Base, uint64_t Top,
                     uint64_t &RetBits, Shadow *RetSh) {
  constexpr bool Taint = H & HookTaint;
  const Function *F = Fn.F;
  uint64_t *R = Regs.data() + Base;
  Shadow *Sh = Taint ? Shadows.data() + Base : nullptr;
  uint32_t Pc = Fn.EntryPc;
  for (;;) {
    const Op &O = P.Ops[Pc];
    // Assignments: Dst = f(R[A], R[B]); every one merges the shadows of
    // all three operand slots.
#define SRP_ALU(KIND, EXPR)                                                    \
  case OpKind::KIND: {                                                         \
    uint64_t A = R[O.A], B = R[O.B];                                           \
    auto SA = static_cast<int64_t>(A);                                         \
    auto SB = static_cast<int64_t>(B);                                         \
    auto FA = std::bit_cast<double>(A);                                        \
    auto FB = std::bit_cast<double>(B);                                        \
    (void)SA, (void)SB, (void)FA, (void)FB;                                    \
    R[O.Dst] = static_cast<uint64_t>(EXPR);                                    \
    if constexpr (Taint) {                                                     \
      Shadow S = Sh[O.A];                                                      \
      S.merge(Sh[O.B]);                                                        \
      S.merge(Sh[O.C]);                                                        \
      Sh[O.Dst] = S;                                                           \
    }                                                                          \
    ++Pc;                                                                      \
    continue;                                                                  \
  }
#define SRP_FP(V) std::bit_cast<uint64_t>(static_cast<double>(V))
    switch (O.K) {
    case OpKind::Enter:
      if constexpr (bool(H & HookProfile))
        ++BlockCounts[O.C];
      [[fallthrough]];
    case OpKind::Charge:
      // Entering a block costs one fuel unit on its own, so a cycle of
      // statement-free blocks still exhausts the budget.
      if (SRP_UNLIKELY(FuelLeft < static_cast<uint64_t>(O.Imm))) {
        if (!chargeShort(Pc))
          return false;
      } else {
        FuelLeft -= static_cast<uint64_t>(O.Imm);
      }
      StmtsExecuted += O.A;
      ++Pc;
      continue;
    SRP_ALU(Copy, A)
    SRP_ALU(Add, A + B)
    SRP_ALU(Sub, A - B)
    SRP_ALU(Mul, A * B)
    SRP_ALU(Div, SB == 0 ? 0 : SA / SB)
    SRP_ALU(Rem, SB == 0 ? 0 : SA % SB)
    SRP_ALU(And, A & B)
    SRP_ALU(Or, A | B)
    SRP_ALU(Xor, A ^ B)
    SRP_ALU(Shl, A << (B & 63))
    SRP_ALU(Shr, A >> (B & 63))
    SRP_ALU(CmpEq, SA == SB)
    SRP_ALU(CmpNe, SA != SB)
    SRP_ALU(CmpLt, SA < SB)
    SRP_ALU(CmpLe, SA <= SB)
    SRP_ALU(FAdd, SRP_FP(FA + FB))
    SRP_ALU(FSub, SRP_FP(FA - FB))
    SRP_ALU(FMul, SRP_FP(FA * FB))
    SRP_ALU(FDiv, SRP_FP(FB == 0.0 ? 0.0 : FA / FB))
    SRP_ALU(FCmpLt, FA < FB)
    SRP_ALU(IntToFp, SRP_FP(SA))
    SRP_ALU(FpToInt, static_cast<int64_t>(FA))
    SRP_ALU(Select, A != 0 ? B : R[O.C])
#undef SRP_FP
#undef SRP_ALU
    case OpKind::LoadPlain:
      if (!load<H, false>(O, R, Sh, Top, F))
        return false;
      ++Pc;
      continue;
    case OpKind::Load:
      if (!loadGeneral<H>(O, R, Sh, Top, F))
        return false;
      ++Pc;
      continue;
    case OpKind::StorePlain:
      if (!store<H, false>(O, R, Sh, Top, F))
        return false;
      ++Pc;
      continue;
    case OpKind::Store:
      if (!storeGeneral<H>(O, R, Sh, Top, F))
        return false;
      ++Pc;
      continue;
    case OpKind::AddrOf:
      if (SRP_UNLIKELY(O.Flags & BaseFault)) {
        trap(P.Messages[O.C]);
        R[O.Dst] = static_cast<uint64_t>(O.Imm) + R[O.B] * 8;
        return false;
      }
      R[O.Dst] = SRP_BASE(O, Top) + R[O.B] * 8;
      if constexpr (Taint)
        Sh[O.Dst] = Sh[O.B];
      ++Pc;
      continue;
    case OpKind::Alloc: {
      auto Count = static_cast<int64_t>(R[O.A]);
      if (Count < 1)
        Count = 1;
      uint64_t Bytes = (static_cast<uint64_t>(Count) * 8 + 7) & ~7ULL;
      if (Bytes == 0)
        Bytes = 8;
      uint64_t Start = HeapTop;
      HeapTop += (Bytes + 63) & ~63ULL;
      if (HeapTop < Start)
        Overlap = true;
      R[O.Dst] = allocate(Heap, Start, Bytes, static_cast<unsigned>(O.Imm),
                          O.Flags & SecretHeap);
      if constexpr (Taint)
        Sh[O.Dst] = Shadow();
      ++Pc;
      continue;
    }
    case OpKind::Call: {
      uint64_t CallRet = 0;
      Shadow CallRetSh;
      if (!call<H>(O.C, P.ArgSlots.data() + O.A, O.D, R, Sh, CallRet,
                   Taint ? &CallRetSh : nullptr))
        return false;
      // The callee's frame may have moved the register stack.
      R = Regs.data() + Base;
      if constexpr (Taint)
        Sh = Shadows.data() + Base;
      if (O.Dst != NoSlot) {
        R[O.Dst] = CallRet;
        if constexpr (Taint)
          Sh[O.Dst] = CallRetSh;
      }
      ++Pc;
      continue;
    }
    case OpKind::Invala:
      // Architectural hint; no functional effect.
      if constexpr (bool(H & HookTrace))
        if (AO)
          AO->onInvala(F, O.Dst);
      ++Pc;
      continue;
    case OpKind::Print:
      if constexpr (Taint)
        recordLeak(F, TaintTrace::Sink::Output, O.Dst, Sh[O.A]);
      print(R[O.A], O.Flags & PrintsFloat);
      ++Pc;
      continue;
    case OpKind::Br:
      if constexpr (bool(H & HookProfile))
        ++EdgeCounts[O.D];
      Pc = O.C;
      continue;
    case OpKind::CondBr: {
      bool Taken = R[O.A] != 0;
      // Terminators carry no line; branch leaks are attributed to the
      // block's final statement (0 for statement-free blocks).
      if constexpr (Taint)
        recordLeak(F, TaintTrace::Sink::Branch, O.Dst, Sh[O.A]);
      if constexpr (bool(H & HookProfile))
        ++EdgeCounts[Taken ? O.Imm : O.Imm2];
      Pc = Taken ? O.C : O.D;
      continue;
    }
    case OpKind::Ret:
      RetBits = R[O.A];
      if constexpr (Taint)
        if (RetSh)
          *RetSh = Sh[O.A];
      return true;
    case OpKind::Trap:
      trap(P.Messages[O.A]);
      return false;
    case OpKind::FuelOut:
      trap("fuel exhausted");
      return false;
    }
    SRP_UNREACHABLE("invalid interpreter op");
  }
}

#undef SRP_BASE

RunResult Execution::run() {
  RunResult Result;
  if (!M.findFunction("main")) {
    Result.Error = "module has no main function";
    return Result;
  }
  if (MT)
    *MT = MemTrace();
  if (TT)
    *TT = TaintTrace();
  decodeModule(M, P);
  if (P.GlobalEnd > layout::StackBase)
    Overlap = true;
  for (const GlobalInfo &G : P.Globals)
    Globals.push_back(Object{G.Start, G.End, G.SymbolId});
  if (TT)
    for (const GlobalInfo &G : P.Globals)
      if (G.Secret)
        for (unsigned I = 0; I < G.NumElems; ++I)
          MemTaint[(G.Start + 8 * I) >> 3] = Shadow{true, 0};
  bool Profile = AP || EP;
  if (Profile) {
    BlockCounts.assign(P.Blocks.size(), 0);
    EdgeCounts.assign(P.Edges.size(), 0);
    Sites.resize(P.Sites.size());
  }
  Regs.reserve(1024);

  // Specialised loops for the hook sets runs use: none (oracle output),
  // profiling (train runs), tracing (DiffOracle) and tracing + taint
  // (DiffOracle on secret-labeled code, taint lint). Any other mix runs
  // the loop with every hook compiled in, which checks each sink at run
  // time.
  unsigned Hooks = (Profile ? HookProfile : 0) | (MT || AO ? HookTrace : 0) |
                   (TT ? HookTaint : 0);
  uint64_t RetBits = 0;
  bool Ok = false;
  auto Main = [&](auto Specialised) {
    constexpr unsigned H = decltype(Specialised)::value;
    Ok = call<H>(P.MainIdx, nullptr, 0, nullptr, nullptr, RetBits, nullptr);
  };
  switch (Hooks) {
  case 0:
    Main(std::integral_constant<unsigned, 0>());
    break;
  case HookProfile:
    Main(std::integral_constant<unsigned, HookProfile>());
    break;
  case HookTrace:
    Main(std::integral_constant<unsigned, HookTrace>());
    break;
  case HookTaint:
  case HookTrace | HookTaint:
    Main(std::integral_constant<unsigned, HookTrace | HookTaint>());
    break;
  default:
    Main(std::integral_constant<unsigned,
                                HookProfile | HookTrace | HookTaint>());
    break;
  }
  flushProfiles();
  Result.Output = std::move(Output);
  if (!Ok) {
    Result.Error = TrapMessage;
    return Result;
  }
  if (MT)
    for (const GlobalInfo &G : P.Globals)
      for (unsigned I = 0; I < G.NumElems; ++I)
        MT->FinalGlobals.push_back(read64(G.Start + 8 * I));
  Result.Ok = true;
  Result.StmtsExecuted = StmtsExecuted;
  Result.LoadsExecuted = LoadsExecuted;
  Result.StoresExecuted = StoresExecuted;
  Result.ExitValue = static_cast<int64_t>(RetBits);
  return Result;
}

RunResult Interpreter::run(uint64_t Fuel) {
  Execution Exec(M, AP, EP, AO, MT, TT, Fuel);
  return Exec.run();
}

const char *srp::interp::taintSinkName(TaintTrace::Sink S) {
  switch (S) {
  case TaintTrace::Sink::Address:
    return "address";
  case TaintTrace::Sink::Branch:
    return "branch";
  case TaintTrace::Sink::Output:
    return "output";
  }
  SRP_UNREACHABLE("invalid taint sink");
}

std::vector<std::pair<const ir::Stmt *, unsigned>>
srp::interp::specSiteIndex(const ir::Module &M) {
  std::vector<std::pair<const ir::Stmt *, unsigned>> Sites;
  unsigned Next = 0;
  for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
    const Function *F = M.function(FI);
    for (unsigned BI = 0, BE = F->numBlocks(); BI != BE; ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt *S = BB->stmt(SI);
        if (S->Kind == StmtKind::Load && isAdvancedFlag(S->Flag)) {
          Sites.emplace_back(S, std::min(Next, 63u));
          ++Next;
        }
      }
    }
  }
  return Sites;
}
