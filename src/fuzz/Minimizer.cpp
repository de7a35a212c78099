//===- Minimizer.cpp - Delta-debugging reducer for .sir repros ---------------===//

#include "fuzz/Minimizer.h"

#include "ir/CFG.h"

#include <string_view>
#include <vector>

using namespace srp;
using namespace srp::fuzz;

namespace {

std::string_view trimmed(std::string_view Line) {
  while (!Line.empty() && (Line.front() == ' ' || Line.front() == '\t'))
    Line.remove_prefix(1);
  while (!Line.empty() &&
         (Line.back() == ' ' || Line.back() == '\t' || Line.back() == '\r'))
    Line.remove_suffix(1);
  return Line;
}

/// True for lines the minimizer may delete outright: ordinary statements.
/// Structure (globals, function headers, locals, labels, terminators,
/// braces) must stay so candidates remain parseable without the
/// minimizer understanding control flow.
bool isStatementLine(std::string_view Line) {
  std::string_view T = trimmed(Line);
  if (T.empty() || T.front() == '#')
    return false;
  if (T.starts_with("global ") || T.starts_with("func ") ||
      T.starts_with("local ") || T.front() == '}')
    return false;
  if (T.back() == ':')
    return false;
  if (T.starts_with("br ") || T == "br" || T.starts_with("condbr ") ||
      T == "ret" || T.starts_with("ret "))
    return false;
  return true;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos) {
      if (Pos < Text.size())
        Lines.push_back(Text.substr(Pos));
      break;
    }
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Text;
  for (const std::string &L : Lines) {
    Text += L;
    Text += '\n';
  }
  return Text;
}

std::vector<size_t> statementIndices(const std::vector<std::string> &Lines) {
  std::vector<size_t> Idx;
  for (size_t I = 0; I < Lines.size(); ++I)
    if (isStatementLine(Lines[I]))
      Idx.push_back(I);
  return Idx;
}

/// One ddmin sweep: removes chunks of statement lines, halving the chunk
/// size down to 1. Returns true if anything was removed.
bool removeStatements(std::vector<std::string> &Lines,
                      const FailPredicate &StillFails) {
  bool Changed = false;
  std::vector<size_t> Idx = statementIndices(Lines);
  size_t Chunk = std::max<size_t>(1, Idx.size() / 2);
  for (;;) {
    bool RemovedAtThisSize = false;
    size_t Start = 0;
    while (Start < Idx.size()) {
      size_t End = std::min(Start + Chunk, Idx.size());
      std::vector<std::string> Candidate;
      Candidate.reserve(Lines.size());
      size_t Next = Start;
      for (size_t I = 0; I < Lines.size(); ++I) {
        if (Next < End && I == Idx[Next])
          ++Next; // drop this statement line
        else
          Candidate.push_back(Lines[I]);
      }
      if (StillFails(joinLines(Candidate))) {
        Lines = std::move(Candidate);
        Idx = statementIndices(Lines);
        Changed = RemovedAtThisSize = true;
        // Same Start now addresses the next unexamined chunk.
      } else {
        Start += Chunk;
      }
    }
    if (Chunk == 1) {
      if (!RemovedAtThisSize)
        break;
      continue; // one more singleton sweep until a clean pass
    }
    Chunk = (Chunk + 1) / 2;
  }
  return Changed;
}

/// Tries rewriting each `condbr c, A, B` to `br A` / `br B`.
bool simplifyBranches(std::vector<std::string> &Lines,
                      const FailPredicate &StillFails) {
  bool Changed = false;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string_view T = trimmed(Lines[I]);
    if (!T.starts_with("condbr "))
      continue;
    // condbr OPERAND, LABEL, LABEL
    size_t C1 = T.find(',');
    if (C1 == std::string_view::npos)
      continue;
    size_t C2 = T.find(',', C1 + 1);
    if (C2 == std::string_view::npos)
      continue;
    std::string Indent(Lines[I], 0, Lines[I].find_first_not_of(" \t"));
    std::string TargetA(trimmed(T.substr(C1 + 1, C2 - C1 - 1)));
    std::string TargetB(trimmed(T.substr(C2 + 1)));
    for (const std::string &Target : {TargetA, TargetB}) {
      std::string Saved = Lines[I];
      Lines[I] = Indent + "br " + Target;
      if (StillFails(joinLines(Lines))) {
        Changed = true;
        break;
      }
      Lines[I] = std::move(Saved);
    }
  }
  return Changed;
}

} // namespace

std::string srp::fuzz::minimizeModuleText(const std::string &Text,
                                          const FailPredicate &StillFails,
                                          const MinimizeOptions &Opts) {
  if (!StillFails(Text))
    return Text;
  std::vector<std::string> Lines = splitLines(Text);
  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    bool Changed = removeStatements(Lines, StillFails);
    Changed |= simplifyBranches(Lines, StillFails);
    if (!Changed)
      break;
  }
  return joinLines(Lines);
}

unsigned srp::fuzz::countStatements(const std::string &Text) {
  unsigned N = 0;
  for (const std::string &L : splitLines(Text))
    N += isStatementLine(L) ? 1 : 0;
  return N;
}

bool srp::fuzz::readsUndefinedTemp(const ir::Module &M) {
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    const ir::Function &F = *M.function(FI);
    const unsigned NB = F.numBlocks(), NT = F.numTemps();
    if (NB == 0)
      continue;
    // In[B][T]: T is defined on every path from entry to B's top. Start
    // at "all defined" (the meet's identity) except at the entry, and
    // iterate to the greatest fixpoint.
    std::vector<std::vector<bool>> In(NB, std::vector<bool>(NT, true));
    In[F.entry()->getId()].assign(NT, false);
    auto Defines = [](const ir::Stmt &S, std::vector<bool> &Defined) {
      if (S.definesTemp() && S.Dst < Defined.size())
        Defined[S.Dst] = true;
      if (S.AddrDst != ir::NoTemp && S.AddrDst < Defined.size())
        Defined[S.AddrDst] = true;
    };
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned BI = 0; BI < NB; ++BI) {
        const ir::BasicBlock &B = *F.block(BI);
        std::vector<bool> Out = In[BI];
        for (size_t SI = 0; SI < B.size(); ++SI)
          Defines(*B.stmt(SI), Out);
        for (const ir::BasicBlock *Succ : B.succs()) {
          std::vector<bool> &SuccIn = In[Succ->getId()];
          for (unsigned T = 0; T < NT; ++T)
            if (SuccIn[T] && !Out[T]) {
              SuccIn[T] = false;
              Changed = true;
            }
        }
      }
    }
    std::vector<unsigned> Used;
    auto Undefined = [&](const std::vector<bool> &Defined) {
      for (unsigned T : Used)
        if (T >= NT || !Defined[T])
          return true;
      return false;
    };
    for (unsigned BI = 0; BI < NB; ++BI) {
      const ir::BasicBlock &B = *F.block(BI);
      std::vector<bool> Defined = In[BI];
      for (size_t SI = 0; SI < B.size(); ++SI) {
        const ir::Stmt &S = *B.stmt(SI);
        Used.clear();
        S.collectUsedTemps(Used);
        if (Undefined(Defined))
          return true;
        Defines(S, Defined);
      }
      const ir::Terminator &T = B.term();
      Used.clear();
      for (const ir::Operand *Op : {&T.Cond, &T.RetVal})
        if (Op->isTemp())
          Used.push_back(Op->getTemp());
      if (Undefined(Defined))
        return true;
    }
  }
  return false;
}
