//===- RegAlloc.cpp - Linear-scan register allocation ------------------------===//

#include "codegen/RegAlloc.h"

#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>
#include <set>

using namespace srp;
using namespace srp::codegen;

namespace {

/// Allocates one function.
class FunctionAllocator {
public:
  FunctionAllocator(MFunction &F, const RegAllocOptions &Options,
                    RegAllocStats &Stats)
      : F(F), Options(Options), Stats(Stats) {}

  void run() {
    numberInstructions();
    computeLiveness();
    buildIntervals();
    allocate();
    rewrite();
    patchPrologue();
  }

private:
  struct Interval {
    unsigned VReg;
    unsigned Start;
    unsigned End;
    bool Fp;
    bool AlatTracked;
    unsigned Assigned = NoReg;
    int64_t SpillSlot = 0;
    bool Spilled = false;
  };

  unsigned vindex(unsigned Reg) const { return Reg - FirstVirtualReg; }

  void numberInstructions() {
    unsigned N = 0;
    BlockStart.resize(F.numBlocks());
    BlockEnd.resize(F.numBlocks());
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BlockStart[BI] = N;
      N += static_cast<unsigned>(F.block(BI).Instrs.size());
      BlockEnd[BI] = N; // one past the last instruction
    }
    NumPositions = N;
  }

  /// Successor blocks of BI, derived from the terminator (plus call
  /// resume and chk.a recovery edges).
  std::vector<unsigned> successors(unsigned BI) const {
    std::vector<unsigned> Out;
    const auto &Instrs = F.block(BI).Instrs;
    if (Instrs.empty())
      return Out;
    const MInstr &T = Instrs.back();
    switch (T.Op) {
    case MOp::Br:
      Out.push_back(T.Target);
      break;
    case MOp::BrCond:
      Out.push_back(T.Target);
      Out.push_back(T.FalseTarget);
      break;
    case MOp::ChkA:
      Out.push_back(T.Target);
      Out.push_back(T.Recovery);
      break;
    case MOp::Call:
      Out.push_back(T.Target);
      break;
    case MOp::Ret:
      break;
    default:
      // Fall-through should not happen (blocks always end in a
      // terminator); be permissive for partially built functions.
      if (BI + 1 < F.numBlocks())
        Out.push_back(BI + 1);
      break;
    }
    return Out;
  }

  /// Per-block live-in/live-out sets as word bitsets: block BI's set is
  /// the LiveWords words at BI * LiveWords, one bit per virtual register.
  /// Liveness is the least fixpoint of In = Use | (Out & ~Def) with
  /// Out = union of the successors' In, solved by a worklist seeded in
  /// post-order (successors before predecessors), so most blocks settle
  /// on their first visit.
  void computeLiveness() {
    unsigned NumB = F.numBlocks();
    LiveWords = (F.numVirtualRegs() + 63) / 64;
    size_t W = LiveWords;
    LiveIn.assign(NumB * W, 0);
    LiveOut.assign(NumB * W, 0);
    std::vector<uint64_t> Use(NumB * W, 0), Def(NumB * W, 0);
    std::vector<std::vector<unsigned>> Succs(NumB), Preds(NumB);
    for (unsigned BI = 0; BI < NumB; ++BI) {
      Succs[BI] = successors(BI);
      for (unsigned S : Succs[BI])
        Preds[S].push_back(BI);
      // Upward-exposed uses and all definitions, walking backwards.
      uint64_t *U = Use.data() + BI * W, *D = Def.data() + BI * W;
      const auto &Instrs = F.block(BI).Instrs;
      for (auto It = Instrs.rbegin(); It != Instrs.rend(); ++It) {
        if (It->definesReg() && isVirtualReg(It->Rd)) {
          unsigned V = vindex(It->Rd);
          U[V / 64] &= ~(1ULL << (V % 64));
          D[V / 64] |= 1ULL << (V % 64);
        }
        unsigned Srcs[3];
        unsigned Count;
        It->sources(Srcs, Count);
        for (unsigned K = 0; K < Count; ++K)
          if (isVirtualReg(Srcs[K])) {
            unsigned V = vindex(Srcs[K]);
            U[V / 64] |= 1ULL << (V % 64);
          }
      }
    }

    // Post-order from the entry, then any unreachable blocks.
    std::vector<unsigned> Order;
    std::vector<uint8_t> Queued(NumB, 0);
    std::vector<std::pair<unsigned, size_t>> Stack;
    for (unsigned Root = 0; Root < NumB; ++Root) {
      if (Queued[Root])
        continue;
      Queued[Root] = 1;
      Stack.push_back({Root, 0});
      while (!Stack.empty()) {
        auto &[B, Next] = Stack.back();
        if (Next < Succs[B].size()) {
          unsigned S = Succs[B][Next++];
          if (!Queued[S]) {
            Queued[S] = 1;
            Stack.push_back({S, 0});
          }
          continue;
        }
        Order.push_back(B);
        Stack.pop_back();
      }
    }

    std::deque<unsigned> Work(Order.begin(), Order.end());
    std::vector<uint64_t> In(W);
    while (!Work.empty()) {
      unsigned BI = Work.front();
      Work.pop_front();
      Queued[BI] = 0;
      uint64_t *Out = LiveOut.data() + BI * W;
      std::fill(Out, Out + W, 0);
      for (unsigned S : Succs[BI])
        for (size_t K = 0; K < W; ++K)
          Out[K] |= LiveIn[S * W + K];
      bool Changed = false;
      for (size_t K = 0; K < W; ++K) {
        In[K] = Use[BI * W + K] | (Out[K] & ~Def[BI * W + K]);
        Changed |= In[K] != LiveIn[BI * W + K];
      }
      if (!Changed)
        continue;
      std::copy(In.begin(), In.end(), LiveIn.begin() + BI * W);
      for (unsigned P : Preds[BI])
        if (!Queued[P]) {
          Queued[P] = 1;
          Work.push_back(P);
        }
    }
  }

  /// Calls Fn(V) for every virtual register in block BI's set \p Sets.
  template <typename FnT>
  void forEachLive(const std::vector<uint64_t> &Sets, unsigned BI,
                   FnT Fn) const {
    for (size_t K = 0; K < LiveWords; ++K)
      for (uint64_t Bits = Sets[BI * LiveWords + K]; Bits; Bits &= Bits - 1)
        Fn(static_cast<unsigned>(K * 64 + std::countr_zero(Bits)));
  }

  void buildIntervals() {
    unsigned NumV = F.numVirtualRegs();
    std::vector<unsigned> Start(NumV, ~0u), End(NumV, 0);
    std::vector<bool> Tracked(NumV, false), Seen(NumV, false);
    auto Extend = [&](unsigned V, unsigned Pos) {
      Seen[V] = true;
      Start[V] = std::min(Start[V], Pos);
      End[V] = std::max(End[V], Pos + 1);
    };
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      unsigned Pos = BlockStart[BI];
      for (const MInstr &I : F.block(BI).Instrs) {
        if (I.definesReg() && isVirtualReg(I.Rd)) {
          Extend(vindex(I.Rd), Pos);
          if (I.Op == MOp::LdA || I.Op == MOp::LdSA || isCheckLoad(I.Op))
            Tracked[vindex(I.Rd)] = true;
        }
        unsigned Srcs[3];
        unsigned Count;
        I.sources(Srcs, Count);
        for (unsigned K = 0; K < Count; ++K)
          if (isVirtualReg(Srcs[K]))
            Extend(vindex(Srcs[K]), Pos);
        if (I.Op == MOp::StA && isVirtualReg(I.Rs2))
          Tracked[vindex(I.Rs2)] = true;
        if ((I.Op == MOp::InvalaE || I.Op == MOp::ChkA) &&
            isVirtualReg(I.Rs1))
          Tracked[vindex(I.Rs1)] = true;
        ++Pos;
      }
      forEachLive(LiveIn, BI, [&](unsigned V) { Extend(V, BlockStart[BI]); });
      forEachLive(LiveOut, BI, [&](unsigned V) {
        Extend(V, BlockEnd[BI] == 0 ? 0 : BlockEnd[BI] - 1);
      });
    }
    for (unsigned V = 0; V < NumV; ++V) {
      if (!Seen[V])
        continue;
      Interval IV;
      IV.VReg = FirstVirtualReg + V;
      IV.Start = Start[V];
      IV.End = End[V];
      IV.Fp = F.isVirtFp(IV.VReg);
      IV.AlatTracked = Tracked[V];
      Intervals.push_back(IV);
    }
    std::sort(Intervals.begin(), Intervals.end(),
              [](const Interval &A, const Interval &B) {
                return A.Start < B.Start ||
                       (A.Start == B.Start && A.VReg < B.VReg);
              });
  }

  void allocate() {
    // Two independent pools; classic linear scan with furthest-end spill,
    // preferring to spill untracked intervals.
    std::vector<unsigned> FreeInt, FreeFp;
    for (unsigned I = 0; I < Options.IntPoolSize; ++I)
      FreeInt.push_back(FirstStackedReg + I);
    for (unsigned I = 0; I < Options.FpPoolSize; ++I)
      FreeFp.push_back(FpRegBase + FirstStackedReg + I);
    std::reverse(FreeInt.begin(), FreeInt.end());
    std::reverse(FreeFp.begin(), FreeFp.end());

    std::vector<Interval *> Active;
    unsigned IntInUse = 0, FpInUse = 0;
    for (Interval &IV : Intervals) {
      // Expire old intervals.
      for (size_t K = 0; K < Active.size();) {
        if (Active[K]->End <= IV.Start) {
          (Active[K]->Fp ? FreeFp : FreeInt)
              .push_back(Active[K]->Assigned);
          (Active[K]->Fp ? FpInUse : IntInUse) -= 1;
          Active.erase(Active.begin() + static_cast<ptrdiff_t>(K));
        } else {
          ++K;
        }
      }
      auto &Pool = IV.Fp ? FreeFp : FreeInt;
      if (!Pool.empty()) {
        IV.Assigned = Pool.back();
        Pool.pop_back();
        Active.push_back(&IV);
        unsigned &InUse = IV.Fp ? FpInUse : IntInUse;
        ++InUse;
        unsigned &MaxP = IV.Fp ? Stats.MaxFpPressure : Stats.MaxIntPressure;
        MaxP = std::max(MaxP, InUse);
        continue;
      }
      // Spill: the active interval of the same class with the furthest
      // end that is not ALAT-tracked; otherwise spill the new interval.
      Interval *Victim = nullptr;
      for (Interval *Cand : Active)
        if (Cand->Fp == IV.Fp && !Cand->AlatTracked)
          if (!Victim || Cand->End > Victim->End)
            Victim = Cand;
      if (Victim && Victim->End > IV.End && !IV.AlatTracked) {
        IV.Assigned = Victim->Assigned;
        Victim->Assigned = NoReg;
        Victim->Spilled = true;
        Victim->SpillSlot = F.allocateFrameBytes(8);
        ++Stats.SpilledRegs;
        *std::find(Active.begin(), Active.end(), Victim) = &IV;
        continue;
      }
      if (IV.AlatTracked && Victim) {
        // Tracked intervals must stay in registers; evict the victim.
        IV.Assigned = Victim->Assigned;
        Victim->Assigned = NoReg;
        Victim->Spilled = true;
        Victim->SpillSlot = F.allocateFrameBytes(8);
        ++Stats.SpilledRegs;
        *std::find(Active.begin(), Active.end(), Victim) = &IV;
        continue;
      }
      IV.Spilled = true;
      IV.SpillSlot = F.allocateFrameBytes(8);
      ++Stats.SpilledRegs;
    }

    // Count distinct physical registers for the RSE frame model.
    std::set<unsigned> UsedInt, UsedFp;
    for (const Interval &IV : Intervals) {
      if (IV.Assigned == NoReg)
        continue;
      if (IV.Fp)
        UsedFp.insert(IV.Assigned);
      else
        UsedInt.insert(IV.Assigned);
    }
    F.StackedRegsUsed = static_cast<unsigned>(UsedInt.size());
    F.FpRegsUsed = static_cast<unsigned>(UsedFp.size());
    // The rewritten code writes no stacked register above the highest
    // assignment (fixed scratch/return regs sit below the stacked
    // range), so the simulator only saves up to these around calls.
    F.StackedRegHigh =
        UsedInt.empty() ? FirstStackedReg : *UsedInt.rbegin() + 1;
    F.FpRegHigh =
        UsedFp.empty() ? FpRegBase + FirstStackedReg : *UsedFp.rbegin() + 1;
  }

  void rewrite() {
    // Map vreg -> interval.
    std::map<unsigned, Interval *> ByReg;
    for (Interval &IV : Intervals)
      ByReg[IV.VReg] = &IV;

    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      auto &Instrs = F.block(BI).Instrs;
      std::vector<MInstr> Out;
      Out.reserve(Instrs.size());
      for (MInstr I : Instrs) {
        unsigned ScratchInt = RegScratch0;
        unsigned ScratchFp = FpScratch0;
        auto MapSrc = [&](unsigned &Reg) {
          if (!isVirtualReg(Reg))
            return;
          Interval *IV = ByReg.at(Reg);
          if (!IV->Spilled) {
            Reg = IV->Assigned;
            return;
          }
          unsigned Scratch = IV->Fp ? ScratchFp++ : ScratchInt++;
          MInstr Fill;
          Fill.Op = MOp::Ld;
          Fill.Rd = Scratch;
          Fill.Rs1 = RegFP;
          Fill.Imm = IV->SpillSlot;
          Fill.FpVal = IV->Fp;
          Out.push_back(Fill);
          Reg = Scratch;
        };
        MapSrc(I.Rs1);
        if (!I.HasImm)
          MapSrc(I.Rs2);
        MapSrc(I.Rs3);
        if (I.definesReg() && isVirtualReg(I.Rd)) {
          Interval *IV = ByReg.at(I.Rd);
          if (!IV->Spilled) {
            I.Rd = IV->Assigned;
            Out.push_back(I);
          } else {
            unsigned Scratch = IV->Fp ? FpScratch1 : RegScratch1;
            I.Rd = Scratch;
            Out.push_back(I);
            MInstr Spill;
            Spill.Op = MOp::St;
            Spill.Rs1 = RegFP;
            Spill.Imm = IV->SpillSlot;
            Spill.Rs3 = Scratch;
            Spill.FpVal = IV->Fp;
            Out.push_back(Spill);
          }
        } else {
          Out.push_back(I);
        }
      }
      Instrs = std::move(Out);
    }
  }

  void patchPrologue() {
    // The frame-open Add SP = SP + imm in the entry block gets the final
    // frame size (spill slots included).
    for (MInstr &I : F.block(0).Instrs) {
      if (I.Op == MOp::Add && I.Rd == RegSP && I.Rs1 == RegSP && I.HasImm &&
          I.Imm == 0) {
        I.Imm = -static_cast<int64_t>(F.frameSize());
        return;
      }
    }
    SRP_UNREACHABLE("prologue frame-open instruction not found");
  }

  MFunction &F;
  const RegAllocOptions &Options;
  RegAllocStats &Stats;
  std::vector<unsigned> BlockStart, BlockEnd;
  unsigned NumPositions = 0;
  size_t LiveWords = 0;
  std::vector<uint64_t> LiveIn, LiveOut;
  std::vector<Interval> Intervals;
};

} // namespace

RegAllocStats srp::codegen::allocateRegisters(MModule &M,
                                              const RegAllocOptions &Options) {
  RegAllocStats Stats;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FunctionAllocator FA(*M.function(FI), Options, Stats);
    FA.run();
  }
  return Stats;
}
