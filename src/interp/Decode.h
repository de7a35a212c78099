//===- Decode.h - Decode-once op stream for the IR interpreter --*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's internal form of a module (DESIGN.md §10). A run
/// first flattens the ir::Module into one op stream and then executes
/// the stream; everything that depends only on the program is resolved
/// here, once:
///
///  * Operands become frame-slot indices. A frame holds the function's
///    temps, then one always-zero slot, then the function's distinct
///    constants, so every operand read is `R[slot]` and an absent index
///    operand reads the zero slot.
///  * Global addresses and the frame offsets of formals and locals are
///    computed here; a memory op carries its base as an immediate
///    (absolute for globals, relative to the frame top for slots).
///  * Branch targets are stream indices. Blocks, CFG edges and
///    alias-profile sites (statement × dereference level) get dense ids,
///    so the profiles are plain counters and small sets during the run.
///  * Each block starts with an `Enter` op that charges the fuel of the
///    block entry plus every statement up to and including the first
///    call; a `Charge` op after each call charges the next run of
///    statements. One op is one statement, so a short charge can name
///    the exact statement at which the fuel runs out.
///
/// IR the verifier rejects decodes to a `Trap` op at the faulty statement
/// (or a `Ret` of zero for a missing branch target, which is what such a
/// branch did), except a memory base the function cannot address, which
/// the executor traps on mid-statement exactly where the address is
/// formed.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_DECODE_H
#define SRP_INTERP_DECODE_H

#include "ir/CFG.h"

#include <cstdint>
#include <string>
#include <vector>

namespace srp::interp::decode {

inline constexpr uint32_t NoSlot = ~0u;

/// Op kinds. Assign opcodes map one to one onto `Copy .. Select`.
enum class OpKind : uint8_t {
  Enter,  ///< Block entry: A = statements charged, C = block id, Imm = fuel.
  Charge, ///< Statements after a call: A = statements, Imm = fuel.
  Copy,
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  FAdd,
  FSub,
  FMul,
  FDiv,
  FCmpLt,
  IntToFp,
  FpToInt,
  Select, ///< Dst = R[A] ? R[B] : R[C]
  LoadPlain,  ///< Unflagged load without AddrSrc/AddrDst or base fault.
  StorePlain, ///< Store without AddrDst, st.a or base fault.
  Load,       ///< Any other load.
  Store,      ///< Any other store.
  AddrOf,
  Alloc,
  Call,   ///< C = callee, A = first entry in ArgSlots, D = argument count.
  Invala,
  Print,
  Br,     ///< C = target pc, D = edge id.
  CondBr, ///< A = cond, C/D = true/false pc, Imm/Imm2 = true/false edge.
  Ret,    ///< A = value slot (the zero slot for none).
  Trap,   ///< A = message index; a fault the decoder found statically.
  FuelOut ///< Patched over the statement at which the fuel runs out.
};

/// Op flag bits.
enum : uint8_t {
  BaseInFrame = 1, ///< Imm is relative to the frame top.
  BaseFault = 2,   ///< The base is not addressable here (trap, base 0).
  PrintsFloat = 4,
  SecretHeap = 8,  ///< Alloc: the heap-site symbol is secret.
};

/// One statement, block header or terminator.
struct Op {
  OpKind K = OpKind::Trap;
  uint8_t Flags = 0;
  uint8_t Depth = 0;              ///< Memory ops: dereferences.
  ir::SpecFlag Flag = ir::SpecFlag::None;
  uint32_t Dst = NoSlot;
  uint32_t A = NoSlot;
  uint32_t B = NoSlot;            ///< Memory ops: the index slot.
  uint32_t C = NoSlot;            ///< Memory ops: the MemInfo index.
  uint32_t D = 0;                 ///< Memory ops: first alias site.
  /// Memory ops: base address, plus the reference offset when Depth is
  /// 0; AddrOf: base + offset; Alloc: heap symbol id.
  int64_t Imm = 0;
  int64_t Imm2 = 0;               ///< Chain memory ops: the offset.
};

/// Fields only the general memory handlers and the hooks read.
struct MemInfo {
  uint32_t AddrDst = NoSlot;
  uint32_t AddrSrc = NoSlot;
  uint32_t AlatDst = NoSlot;
  uint32_t Line = 0;
  uint32_t FaultMsg = 0;
  bool StA = false;
  uint64_t SpecBit = 0; ///< Advanced loads: this site's Shadow::Spec bit.
};

/// A stack slot of a frame: [Top - Off, Top - Off + Bytes).
struct SlotInfo {
  uint64_t Off = 0;
  uint64_t Bytes = 0;
  unsigned SymbolId = 0;
  bool Secret = false;
};

struct FunctionInfo {
  const ir::Function *F = nullptr;
  uint32_t EntryPc = 0;
  uint32_t NumTemps = 0;
  uint32_t NumSlots = 0;   ///< Temps + zero slot + constants.
  uint32_t FirstConst = 0; ///< Index into Program::Consts.
  uint64_t FrameBytes = 0; ///< Stack the slots take (64-byte granules).
  std::vector<SlotInfo> Slots;      ///< Formals first, then locals.
  std::vector<uint64_t> FormalOffs; ///< Slot offset per formal.
};

/// A global object, by address.
struct GlobalInfo {
  uint64_t Start = 0;
  uint64_t End = 0;
  unsigned SymbolId = 0;
  unsigned NumElems = 0;
  bool Secret = false;
};

/// An alias-profile site: one dereference level of one memory statement.
struct SiteInfo {
  const ir::Function *F = nullptr;
  unsigned StmtId = 0;
  unsigned Level = 0;
};

/// A decoded module. Built per run; the executor patches the op at which
/// fuel runs out, so a Program is not shared between runs.
struct Program {
  std::vector<Op> Ops;
  std::vector<MemInfo> Mem;
  std::vector<uint32_t> ArgSlots;
  std::vector<uint64_t> Consts;
  std::vector<FunctionInfo> Funcs;
  std::vector<GlobalInfo> Globals; ///< Declaration order = address order.
  uint64_t GlobalEnd = 0;
  std::vector<const ir::BasicBlock *> Blocks;
  std::vector<std::pair<const ir::BasicBlock *, const ir::BasicBlock *>>
      Edges;
  std::vector<SiteInfo> Sites;
  std::vector<std::string> Messages; ///< Trap texts of static faults.
  uint32_t MainIdx = NoSlot;
};

/// Flattens \p M. Never fails: faults become Trap ops (see file comment).
void decodeModule(const ir::Module &M, Program &P);

} // namespace srp::interp::decode

#endif // SRP_INTERP_DECODE_H
