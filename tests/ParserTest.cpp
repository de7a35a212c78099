//===- ParserTest.cpp - Tests for the textual IR parser ----------*- C++ -*-===//

#include "ir/Parser.h"

#include "interp/Interpreter.h"
#include "ir/CFG.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;

namespace {

void parseOrDie(const char *Text, Module &M) {
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
}

std::vector<std::string> runText(const char *Text) {
  Module M;
  std::string Error;
  EXPECT_TRUE(parseModule(Text, M, Error)) << Error;
  EXPECT_TRUE(verifyModule(M).empty());
  interp::Interpreter I(M);
  auto R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

TEST(ParserTest, MinimalProgram) {
  auto Out = runText(R"(
global a : int
func main() {
entry:
  st a = 41
  t0 = ld a
  t1 = add t0, 1
  print t1
  ret
}
)");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], "42");
}

TEST(ParserTest, CommentsAndBlanksIgnored) {
  auto Out = runText(R"(
# a comment line
global a : int   # trailing comment

func main() {
entry:
  st a = 5       # store
  t0 = ld a
  print t0
  ret
}
)");
  EXPECT_EQ(Out[0], "5");
}

TEST(ParserTest, ControlFlowAndLoops) {
  auto Out = runText(R"(
global i : int
global sum : int
func main() {
entry:
  st i = 0
  br hdr
hdr:
  t0 = ld i
  t1 = cmplt t0, 10
  condbr t1, body, exit
body:
  t2 = ld sum
  t3 = ld i
  t4 = add t2, t3
  st sum = t4
  t5 = add t3, 1
  st i = t5
  br hdr
exit:
  t6 = ld sum
  print t6
  ret t6
}
)");
  EXPECT_EQ(Out[0], "45");
}

TEST(ParserTest, PointersArraysOffsets) {
  auto Out = runText(R"(
global arr : int[8]
global p : int
func main() {
entry:
  t0 = addrof arr[2]
  st p = t0
  st *p = 7
  st *p{+8} = 9
  t1 = ld arr[2]
  t2 = ld arr[3]
  t3 = add t1, t2
  print t3
  ret
}
)");
  EXPECT_EQ(Out[0], "16");
}

TEST(ParserTest, FloatsAndConversion) {
  auto Out = runText(R"(
global x : float
func main() {
entry:
  st x = 1.5f
  t0 = ld x
  t1 = fmul t0, 4f
  t2 = fptoint t1
  print t2
  ret
}
)");
  EXPECT_EQ(Out[0], "6");
}

TEST(ParserTest, CallsAndFormals) {
  auto Out = runText(R"(
func double(n : int) -> int {
entry:
  t0 = ld n
  t1 = mul t0, 2
  ret t1
}
func main() {
entry:
  t0 = call double(21)
  print t0
  ret
}
)");
  EXPECT_EQ(Out[0], "42");
}

TEST(ParserTest, AllocAndHeap) {
  auto Out = runText(R"(
global p : int
func main() {
entry:
  t0 = alloc 4 @mysite
  st p = t0
  st *p{+16} = 77
  t1 = ld *p{+16}
  print t1
  ret
}
)");
  EXPECT_EQ(Out[0], "77");
}

TEST(ParserTest, SpeculationFlagsRoundTrip) {
  Module M;
  parseOrDie(R"(
global a : int
func main() {
entry:
  invala t0
  t0 = ld<ld.a> a
  t1 = ld<ld.c.nc> a
  print t1
  ret
}
)",
             M);
  const BasicBlock *BB = M.function(0)->entry();
  EXPECT_EQ(BB->stmt(0)->Kind, StmtKind::Invala);
  EXPECT_EQ(BB->stmt(1)->Flag, SpecFlag::LdA);
  EXPECT_EQ(BB->stmt(2)->Flag, SpecFlag::LdCnc);
}

TEST(ParserTest, PrintParseRoundTrip) {
  // Build with the IRBuilder, print, re-parse, and compare outputs.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *Arr = M.createGlobal("arr", TypeKind::Float, 4);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Join = B.createBlock("join");
  B.emitStore(directRef(A), Operand::constInt(3));
  unsigned T0 = B.emitLoad(directRef(A));
  B.emitStore(arrayRef(Arr, Operand::temp(T0)),
              Operand::constFloat(2.5));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(T0),
                             Operand::constInt(10));
  B.setCondBr(Operand::temp(TC), Then, Join);
  B.setBlock(Then);
  B.emitPrint(Operand::temp(T0));
  B.setBr(Join);
  B.setBlock(Join);
  unsigned TF = B.emitLoad(arrayRef(Arr, Operand::temp(T0)));
  B.emitPrint(Operand::temp(TF));
  B.setRet();
  M.function(0)->recomputeCFG();

  interp::Interpreter I1(M);
  auto Ref = I1.run();
  ASSERT_TRUE(Ref.Ok);

  std::string Text = moduleToString(M);
  Module M2;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M2, Error)) << Error << "\n" << Text;
  ASSERT_TRUE(verifyModule(M2).empty());
  interp::Interpreter I2(M2);
  auto Out = I2.run();
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Output, Ref.Output);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
global a : int
func main() {
entry:
  t0 = frobnicate 1, 2
  ret
}
)",
                           M, Error));
  EXPECT_NE(Error.find("line 5"), std::string::npos) << Error;
  EXPECT_NE(Error.find("frobnicate"), std::string::npos);
}

/// A chk.a check deeper than one level parses, verifies and interprets
/// (the IR allows it), but code generation lowers only depth-1 checks
/// with a saved pointer: verifyLowerable rejects the rest with the
/// statement's source line instead of letting lowering assert.
TEST(ParserTest, UnlowerableSpeculationShapesAreRejected) {
  Module M;
  parseOrDie(R"(global a : int
global q : int
global pp : int

func main() -> int {
entry:
  t1 = addrof a
  st q = t1
  t2 = addrof q
  st pp = t2
  t7 = ld<ld.a> **pp addr->t20
  t7 = ld<chk.a.clr> **pp @addr(t20)
  st<st.a> a = 3
  print t7
  ret t7
}
)",
             M);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  EXPECT_TRUE(verifyModule(M).empty());
  std::vector<std::string> Errors = verifyLowerable(M);
  ASSERT_EQ(Errors.size(), 2u);
  EXPECT_NE(Errors[0].find("line 12"), std::string::npos) << Errors[0];
  EXPECT_NE(Errors[0].find("chk.a check must be a depth-1 load"),
            std::string::npos)
      << Errors[0];
  EXPECT_NE(Errors[1].find("line 13"), std::string::npos) << Errors[1];
  EXPECT_NE(Errors[1].find("st.a without the register"), std::string::npos)
      << Errors[1];
}

TEST(ParserTest, RejectsUnknownSymbol) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
func main() {
entry:
  t0 = ld nothere
  ret
}
)",
                           M, Error));
  EXPECT_NE(Error.find("nothere"), std::string::npos);
}

TEST(ParserTest, RejectsBranchToUnknownLabel) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
func main() {
entry:
  br nowhere
}
)",
                           M, Error));
  EXPECT_NE(Error.find("nowhere"), std::string::npos);
}

TEST(ParserTest, RejectsStatementAfterTerminator) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
global a : int
func main() {
entry:
  ret
  st a = 1
}
)",
                           M, Error));
  EXPECT_NE(Error.find("after the block terminator"), std::string::npos);
}

} // namespace
