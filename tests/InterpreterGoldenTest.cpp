//===- InterpreterGoldenTest.cpp - Pinned interpreter behaviour --*- C++ -*-===//
//
// The interpreter is the project's oracle and its profiling vehicle, so
// everything a run reports is pinned here against a golden digest
// recorded from the original tree-walking engine
// (tests/golden/interpreter.digest):
//
//  * the ten standard workloads at train and ref scale, with alias and
//    edge profiles attached (the promotion's input);
//  * every fuzz-repros/ and examples/sir/ program (and the hand-written
//    tests/golden/spec_paths.sir), unpromoted with every
//    hook attached, promoted (ALAT strategy, profile-guided, with and
//    without chk.a cascades and st.a) under an AlatObserver, and again
//    with half its fuel (the trap path);
//  * 200 generated programs with secret labels on odd seeds, promotion
//    on every fourth, the hook set varied across seeds so every hook
//    specialisation runs, and some runs cut short by fuel.
//
// Per run the digest holds the counts, exit value, trap text, output
// hash, MemTrace/TaintTrace/AlatObserver summaries and the alias and
// edge profile contents. Set SRP_UPDATE_GOLDEN=1 to rewrite the file
// after an intended semantic change (and say why in CHANGES.md).
//
//===----------------------------------------------------------------------===//

#include "interp/AlatObserver.h"
#include "interp/Interpreter.h"

#include "alias/AliasAnalysis.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/RandomProgram.h"
#include "ir/Parser.h"
#include "pre/Promoter.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace srp;

namespace {

namespace fs = std::filesystem;

const fs::path GoldenPath =
    fs::path(SRP_SOURCE_DIR) / "tests" / "golden" / "interpreter.digest";

/// Which observers a run attaches.
struct Hooks {
  bool Profiles = false; ///< AliasProfile + EdgeProfile
  bool Mem = false;      ///< MemTrace
  bool Taint = false;    ///< TaintTrace
  bool Alat = false;     ///< AlatObserver (32 entries)
};

std::string hex(uint64_t V) { return formatString("%016llx", (unsigned long long)V); }

uint64_t hashLines(const std::vector<std::string> &Lines) {
  uint64_t H = Fnv1a64Offset;
  for (const std::string &L : Lines) {
    H = fnv1a64(L, H);
    H = fnv1a64("\n", H);
  }
  return H;
}

/// Runs \p M once with \p H attached and appends its digest entry.
void digestRun(const ir::Module &M, const std::string &Name, const Hooks &H,
               uint64_t Fuel, std::string &Out,
               interp::AliasProfile *KeepAP = nullptr,
               interp::EdgeProfile *KeepEP = nullptr,
               interp::RunResult *KeepRun = nullptr) {
  interp::Interpreter I(M);
  interp::AliasProfile AP;
  interp::EdgeProfile EP;
  interp::MemTrace MT;
  interp::TaintTrace TT;
  interp::AlatObserver AO(32);
  if (H.Profiles) {
    I.setAliasProfile(&AP);
    I.setEdgeProfile(&EP);
  }
  if (H.Mem)
    I.setMemTrace(&MT);
  if (H.Taint)
    I.setTaintTrace(&TT);
  if (H.Alat)
    I.setAlatObserver(&AO);
  interp::RunResult R = I.run(Fuel);

  Out += "== " + Name + "\n";
  Out += formatString("ok=%d stmts=%llu loads=%llu stores=%llu exit=%lld "
                      "out=%zu:%s error=%s\n",
                      int(R.Ok), (unsigned long long)R.StmtsExecuted,
                      (unsigned long long)R.LoadsExecuted,
                      (unsigned long long)R.StoresExecuted,
                      (long long)R.ExitValue, R.Output.size(),
                      hex(hashLines(R.Output)).c_str(), R.Error.c_str());
  if (H.Mem) {
    uint64_t AH = Fnv1a64Offset;
    for (const interp::MemTrace::Access &A : MT.Accesses) {
      AH = fnv1a64(A.Addr, AH);
      AH = fnv1a64(uint64_t(A.Symbol), AH);
      AH = fnv1a64(uint64_t(A.IsLoad) | uint64_t(A.Speculative) << 1, AH);
    }
    uint64_t GH = Fnv1a64Offset;
    for (uint64_t G : MT.FinalGlobals)
      GH = fnv1a64(G, GH);
    Out += formatString("mem accesses=%zu:%s globals=%zu:%s\n",
                        MT.Accesses.size(), hex(AH).c_str(),
                        MT.FinalGlobals.size(), hex(GH).c_str());
  }
  if (H.Taint) {
    Out += formatString("taint leaks=%zu", TT.Leaks.size());
    for (const interp::TaintTrace::Leak &L : TT.Leaks)
      Out += formatString(" %s@%s:%u/%llx", interp::taintSinkName(L.S),
                          L.Function.c_str(), L.Line,
                          (unsigned long long)L.SpecMask);
    Out += "\n";
  }
  if (H.Alat) {
    const interp::AlatObserverStats &S = AO.stats();
    Out += formatString(
        "alat alloc=%llu inval=%llu evict=%llu hits=%llu misses=%llu "
        "stale=%llu valid=%u events=%s\n",
        (unsigned long long)S.Allocations,
        (unsigned long long)S.StoreInvalidations,
        (unsigned long long)S.CapacityEvictions,
        (unsigned long long)S.CheckHits, (unsigned long long)S.CheckMisses,
        (unsigned long long)S.StaleHits, AO.numValidEntries(),
        hex(AO.eventDigest()).c_str());
  }
  if (H.Profiles) {
    size_t AliasEntries = 0;
    for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
      const ir::Function *F = M.function(FI);
      for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
        const ir::BasicBlock *BB = F->block(BI);
        if (uint64_t N = EP.blockCount(BB)) {
          Out += formatString("edge f%u b%u n=%llu", FI, BI,
                              (unsigned long long)N);
          const ir::Terminator &T = BB->term();
          for (const ir::BasicBlock *To : {T.Target, T.FalseTarget})
            if (To)
              Out += formatString(" ->b%u:%llu", To->getId(),
                                  (unsigned long long)EP.edgeCount(BB, To));
          Out += "\n";
        }
        for (size_t SI = 0; SI < BB->size(); ++SI) {
          const ir::Stmt *S = BB->stmt(SI);
          for (unsigned L = 1; L <= S->Ref.Depth; ++L)
            if (const std::set<unsigned> *Ts = AP.targets(F, S->Id, L)) {
              ++AliasEntries;
              Out += formatString("alias f%u s%u l%u:", FI, S->Id, L);
              for (unsigned Sym : *Ts)
                Out += Sym == interp::AliasProfile::UnknownTarget
                           ? std::string(" ?")
                           : formatString(" %u", Sym);
              Out += "\n";
            }
        }
      }
    }
    // Every recorded site belongs to some statement walked above.
    Out += formatString("alias-entries=%zu/%zu\n", AliasEntries, AP.size());
  }
  if (KeepAP)
    *KeepAP = AP;
  if (KeepEP)
    *KeepEP = EP;
  if (KeepRun)
    *KeepRun = std::move(R);
}

void prepare(ir::Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
}

/// Profile-guided ALAT promotion of \p M (trained on itself); \p Cascade
/// adds chk.a cascades and st.a.
void promote(ir::Module &M, const interp::AliasProfile &AP,
             const interp::EdgeProfile &EP, bool Cascade = false) {
  alias::SteensgaardAnalysis AA(M);
  pre::PromotionConfig C = pre::PromotionConfig::alat();
  C.EnableCascade = Cascade;
  C.UseStA = Cascade;
  pre::promoteModule(M, AA, &AP, &EP, C);
  prepare(M);
}

void digestProgramText(const std::string &Name, const std::string &Text,
                       std::string &Out) {
  constexpr uint64_t Fuel = 1'000'000;
  {
    interp::AliasProfile AP;
    interp::EdgeProfile EP;
    interp::RunResult Plain;
    ir::Module M;
    std::string Error;
    ASSERT_TRUE(ir::parseModule(Text, M, Error)) << Name << ": " << Error;
    prepare(M);
    digestRun(M, Name + " plain", Hooks{true, true, true, false}, Fuel, Out,
              &AP, &EP, &Plain);
    digestRun(M, Name + " half-fuel", Hooks{true, true, false, false},
              Plain.StmtsExecuted / 2 + 1, Out);
    promote(M, AP, EP);
    digestRun(M, Name + " promoted", Hooks{false, true, true, true}, Fuel,
              Out);
  }
  {
    ir::Module M;
    std::string Error;
    ASSERT_TRUE(ir::parseModule(Text, M, Error)) << Name << ": " << Error;
    prepare(M);
    interp::AliasProfile TrainAP;
    interp::EdgeProfile TrainEP;
    interp::Interpreter Train(M);
    Train.setAliasProfile(&TrainAP);
    Train.setEdgeProfile(&TrainEP);
    Train.run(Fuel);
    promote(M, TrainAP, TrainEP, /*Cascade=*/true);
    digestRun(M, Name + " promoted-cascade", Hooks{true, true, true, true},
              Fuel, Out);
  }
}

std::string computeDigest() {
  std::string Out;
  for (const core::Workload &W : workloads::standardWorkloads())
    for (auto [ScaleName, Scale] :
         {std::pair{"train", W.TrainScale}, std::pair{"ref", W.RefScale}}) {
      ir::Module M;
      W.Build(M, Scale);
      prepare(M);
      digestRun(M, "workload " + W.Name + " " + ScaleName,
                Hooks{true, false, false, false},
                core::PipelineConfig().InterpFuel, Out);
    }

  std::vector<fs::path> Files;
  for (const char *Dir : {"fuzz-repros", "examples/sir"})
    for (const auto &E : fs::directory_iterator(fs::path(SRP_SOURCE_DIR) / Dir))
      if (E.path().extension() == ".sir")
        Files.push_back(E.path());
  Files.push_back(fs::path(SRP_SOURCE_DIR) / "tools" / "example.sir");
  Files.push_back(GoldenPath.parent_path() / "spec_paths.sir");
  std::sort(Files.begin(), Files.end());
  for (const fs::path &P : Files) {
    std::ifstream In(P);
    std::stringstream Buf;
    Buf << In.rdbuf();
    digestProgramText(P.parent_path().filename().string() + "/" +
                          P.filename().string(),
                      Buf.str(), Out);
  }

  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    if (Seed % 2)
      fuzz::labelRandomSecrets(M, Seed);
    prepare(M);
    std::string Name = "random " + std::to_string(Seed);
    if (Seed % 4 == 0) {
      interp::AliasProfile AP;
      interp::EdgeProfile EP;
      digestRun(M, Name + " train", Hooks{true, false, false, false},
                1'000'000, Out, &AP, &EP);
      promote(M, AP, EP, /*Cascade=*/Seed % 8 == 0);
      digestRun(M, Name + " promoted", Hooks{false, true, true, true},
                1'000'000, Out);
      continue;
    }
    Hooks H;
    switch (Seed % 3) {
    case 0:
      break;
    case 1:
      H.Profiles = true;
      break;
    case 2:
      H.Mem = true;
      H.Taint = true;
      break;
    }
    interp::RunResult Full;
    digestRun(M, Name, H, 1'000'000, Out, nullptr, nullptr, &Full);
    // A third of the fuel stops the run mid-way, after some output.
    if (Seed % 5 == 1)
      digestRun(M, Name + " third-fuel", Hooks{true, true, false, false},
                Full.StmtsExecuted / 3, Out);
  }
  return Out;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

TEST(InterpreterGolden, MatchesRecordedDigest) {
  std::string Got = computeDigest();
  if (const char *U = std::getenv("SRP_UPDATE_GOLDEN"); U && *U == '1') {
    fs::create_directories(GoldenPath.parent_path());
    std::ofstream(GoldenPath) << Got;
    GTEST_SKIP() << "rewrote " << GoldenPath;
  }
  std::ifstream In(GoldenPath);
  ASSERT_TRUE(In) << GoldenPath << " missing";
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::vector<std::string> Want = splitLines(Buf.str());
  std::vector<std::string> Have = splitLines(Got);
  // Report the first divergence with the run it belongs to.
  std::string Run;
  for (size_t I = 0; I < std::min(Want.size(), Have.size()); ++I) {
    if (Want[I].rfind("== ", 0) == 0)
      Run = Want[I];
    ASSERT_EQ(Want[I], Have[I]) << "line " << I + 1 << " in run '" << Run
                                << "'";
  }
  ASSERT_EQ(Want.size(), Have.size()) << "digest length differs";
}

} // namespace
