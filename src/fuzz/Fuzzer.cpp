//===- Fuzzer.cpp - Coverage-guided differential fuzzing loop ----------------===//

#include "fuzz/Fuzzer.h"

#include "core/Experiment.h"
#include "fuzz/Coverage.h"
#include "fuzz/Minimizer.h"
#include "fuzz/RandomProgram.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace srp;
using namespace srp::fuzz;

std::string Finding::replayArg() const {
  return formatString("%llu:%llu:%u:%llu",
                      static_cast<unsigned long long>(ShapeSeed),
                      static_cast<unsigned long long>(ProgSeed), ConfigIndex,
                      static_cast<unsigned long long>(FaultSeed));
}

const std::vector<FuzzConfig> &srp::fuzz::fuzzConfigs() {
  static const std::vector<FuzzConfig> Configs = [] {
    auto Make = [](std::string Name, pre::PromotionConfig P) {
      FuzzConfig C;
      C.Name = std::move(Name);
      C.Config = core::configFor(P);
      // Static discipline violations must surface as pipeline errors.
      C.Config.SpecVerify = core::SpecVerifyMode::Fatal;
      // Generated programs terminate within a few thousand steps (loop
      // trips are 3-8, nesting <= 2); a tight budget makes minimizer-created
      // infinite loops fail fast instead of burning the default 400M-step
      // allowance on every delta-debugging predicate call.
      C.Config.InterpFuel = 200'000;
      C.Config.Sim.MaxInstructions = 200'000;
      return C;
    };
    pre::PromotionConfig Cascade = pre::PromotionConfig::alat();
    Cascade.EnableCascade = true;
    pre::PromotionConfig StA = pre::PromotionConfig::alat();
    StA.UseStA = true;
    pre::PromotionConfig AtReuse = pre::PromotionConfig::alat();
    AtReuse.ChecksAtReuse = true;
    AtReuse.EnableCascade = true;
    pre::PromotionConfig SwInt = pre::PromotionConfig::baselineO3();
    SwInt.SoftwareCheckIntExprs = true;
    SwInt.SoftwareMaxChecks = 4;

    std::vector<FuzzConfig> V;
    V.push_back(Make("conservative", pre::PromotionConfig::conservative()));
    V.push_back(Make("baselineO3", pre::PromotionConfig::baselineO3()));
    V.push_back(Make("baselineO3+intfwd", SwInt));
    V.push_back(Make("alat", pre::PromotionConfig::alat()));
    V.push_back(Make("alat+cascade", Cascade));
    V.push_back(Make("alat+sta", StA));
    V.push_back(Make("alat+at-reuse", AtReuse));
    // Capacity-starved geometry: every eviction path gets exercised.
    FuzzConfig Tiny = Make("alat+cascade-tiny4", Cascade);
    Tiny.Config.Sim.Alat.Entries = 4;
    Tiny.Config.Sim.Alat.Ways = 2;
    V.push_back(std::move(Tiny));
    return V;
  }();
  return Configs;
}

namespace {

/// Fault schedules of one iteration: FaultPlansPerProgram consecutive
/// derivations from the iteration's fault seed.
std::vector<arch::FaultPlan> plansFor(uint64_t FaultSeed, unsigned Count) {
  std::vector<arch::FaultPlan> Plans;
  if (FaultSeed == 0)
    return Plans;
  for (unsigned K = 0; K < Count; ++K)
    Plans.push_back(arch::FaultPlan::fromSeed(FaultSeed + K));
  return Plans;
}

valid::OracleOptions optionsFor(unsigned ConfigIndex, uint64_t FaultSeed,
                                unsigned FaultPlansPerProgram) {
  valid::OracleOptions Opts;
  Opts.Config = fuzzConfigs()[ConfigIndex % fuzzConfigs().size()].Config;
  Opts.FaultPlans = plansFor(FaultSeed, FaultPlansPerProgram);
  return Opts;
}

valid::ModuleBuilder builderFor(uint64_t ShapeSeed, uint64_t ProgSeed,
                                bool Taint) {
  return [ShapeSeed, ProgSeed, Taint](ir::Module &M) {
    buildRandomProgram(M, ProgSeed, GenOptions::fromSeed(ShapeSeed));
    if (Taint)
      labelRandomSecrets(M, ShapeSeed ^ (ProgSeed * 0x9e3779b97f4a7c15ULL));
  };
}

struct Job {
  uint64_t ShapeSeed = 0;
  uint64_t ProgSeed = 0;
  unsigned ConfigIndex = 0;
  uint64_t FaultSeed = 0;
};

} // namespace

void srp::fuzz::labelRandomSecrets(ir::Module &M, uint64_t Seed) {
  RNG R(Seed | 1);
  bool Any = false;
  for (ir::Symbol *Sym : M.globals()) {
    Sym->Secret = R.nextBool(0.25);
    Any |= Sym->Secret;
  }
  if (!Any && !M.globals().empty())
    M.globals().front()->Secret = true;
}

std::string srp::fuzz::generatedProgramText(uint64_t ShapeSeed,
                                            uint64_t ProgSeed, bool Taint) {
  ir::Module M;
  builderFor(ShapeSeed, ProgSeed, Taint)(M);
  return ir::moduleToString(M);
}

valid::OracleReport srp::fuzz::replayTriple(uint64_t ShapeSeed,
                                            uint64_t ProgSeed,
                                            unsigned ConfigIndex,
                                            uint64_t FaultSeed,
                                            unsigned FaultPlansPerProgram,
                                            bool Taint) {
  return valid::runDiffOracle(
      builderFor(ShapeSeed, ProgSeed, Taint),
      optionsFor(ConfigIndex, FaultSeed, FaultPlansPerProgram));
}

std::string srp::fuzz::minimizeFinding(const std::string &Text,
                                       unsigned ConfigIndex,
                                       uint64_t FaultSeed,
                                       unsigned FaultPlansPerProgram,
                                       valid::MismatchKind Kind) {
  valid::OracleOptions OOpts =
      optionsFor(ConfigIndex, FaultSeed, FaultPlansPerProgram);
  return minimizeModuleText(Text, [&OOpts, Kind](const std::string &Cand) {
    // Generated programs define every temp before use and dereference
    // only pointers into their objects. A candidate that breaks either
    // (by deleting a definition or a pointer initialisation) fails on
    // the interpreter's zero temps vs stale registers, or on unrelated
    // null pointers the alias analysis rightly ignores, not on the
    // original fault; keep the minimizer off it.
    ir::Module M;
    std::string ParseError;
    if (!ir::parseModule(Cand, M, ParseError))
      return false;
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();
    if (readsUndefinedTemp(M))
      return false;
    interp::MemTrace Trace;
    interp::Interpreter Interp(M);
    Interp.setMemTrace(&Trace);
    Interp.run(OOpts.Config.InterpFuel);
    for (const interp::MemTrace::Access &A : Trace.Accesses)
      if (A.Symbol == interp::AliasProfile::UnknownTarget)
        return false;
    valid::OracleReport RR = valid::runDiffOracleOnText(Cand, OOpts);
    return !RR.Ok && RR.Kind == Kind;
  });
}

bool srp::fuzz::parseReplayArg(const std::string &Arg, uint64_t &ShapeSeed,
                               uint64_t &ProgSeed, unsigned &ConfigIndex,
                               uint64_t &FaultSeed) {
  uint64_t Parts[4] = {0, 0, 0, 0};
  size_t Pos = 0;
  for (int I = 0; I < 4; ++I) {
    size_t Colon = I == 3 ? Arg.size() : Arg.find(':', Pos);
    if (Colon == std::string::npos)
      return false;
    std::string Piece = Arg.substr(Pos, Colon - Pos);
    if (Piece.empty())
      return false;
    char *End = nullptr;
    Parts[I] = std::strtoull(Piece.c_str(), &End, 0);
    if (End == nullptr || *End != '\0')
      return false;
    Pos = Colon + 1;
  }
  ShapeSeed = Parts[0];
  ProgSeed = Parts[1];
  if (Parts[2] >= fuzzConfigs().size())
    return false;
  ConfigIndex = static_cast<unsigned>(Parts[2]);
  FaultSeed = Parts[3];
  return true;
}

FuzzResult srp::fuzz::runFuzzer(const FuzzOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                            Start)
        .count();
  };
  auto LogLine = [&Opts](const std::string &Line) {
    if (Opts.Log)
      Opts.Log(Line);
  };

  FuzzResult Result;
  CoverageMap Coverage;
  std::vector<uint64_t> Corpus;
  RNG Master(Opts.Seed ? Opts.Seed : 1);
  const size_t NumConfigs = fuzzConfigs().size();
  const size_t BatchSize = std::max<size_t>(32, size_t(Opts.Threads) * 8);

  while (true) {
    if (Opts.Iterations && Result.ProgramsRun >= Opts.Iterations)
      break;
    if (Opts.Seconds &&
        static_cast<uint64_t>(Elapsed()) >= Opts.Seconds)
      break;
    if (!Opts.Iterations && !Opts.Seconds)
      break; // no budget at all: nothing to do

    size_t B = BatchSize;
    if (Opts.Iterations)
      B = std::min<size_t>(B, Opts.Iterations - Result.ProgramsRun);

    // Draw the batch sequentially from the master RNG and the current
    // corpus, so the schedule is a pure function of the seed.
    std::vector<Job> Jobs(B);
    for (Job &J : Jobs) {
      bool FromCorpus = !Corpus.empty() && Master.nextBool(0.5);
      J.ShapeSeed =
          FromCorpus ? Corpus[Master.nextBelow(Corpus.size())] : Master.next();
      J.ProgSeed = Master.next();
      J.ConfigIndex = static_cast<unsigned>(Master.nextBelow(NumConfigs));
      J.FaultSeed = Opts.WithFaults ? (Master.next() | 1) : 0;
    }

    std::vector<valid::OracleReport> Reports(B);
    core::parallelFor(Opts.Threads, B, [&Jobs, &Reports, &Opts](size_t I) {
      const Job &J = Jobs[I];
      Reports[I] = valid::runDiffOracle(
          builderFor(J.ShapeSeed, J.ProgSeed, Opts.Taint),
          optionsFor(J.ConfigIndex, J.FaultSeed,
                     Opts.FaultPlansPerProgram));
    });

    // Fold in input order: coverage, corpus, findings all deterministic.
    for (size_t I = 0; I < B; ++I) {
      const Job &J = Jobs[I];
      const valid::OracleReport &R = Reports[I];
      ++Result.ProgramsRun;
      Result.FaultRuns += R.FaultPlansRun;
      size_t Fresh = Coverage.addAll(extractFeatures(R, J.ConfigIndex));
      if (Fresh) {
        ++Result.NewCoverageEvents;
        Corpus.push_back(J.ShapeSeed);
      }
      if (R.Ok || Result.Findings.size() >= Opts.MaxFindings)
        continue;

      Finding F;
      F.Kind = R.Kind;
      F.Detail = R.Detail;
      F.FaultContext = R.FaultContext;
      F.ShapeSeed = J.ShapeSeed;
      F.ProgSeed = J.ProgSeed;
      F.ConfigIndex = J.ConfigIndex;
      F.ConfigName = fuzzConfigs()[J.ConfigIndex].Name;
      F.FaultSeed = J.FaultSeed;
      F.ModuleText = generatedProgramText(J.ShapeSeed, J.ProgSeed, Opts.Taint);
      LogLine(formatString(
          "FINDING %s (%s) replay=%s", valid::mismatchKindName(F.Kind),
          F.Detail.c_str(), F.replayArg().c_str()));

      if (Opts.Minimize)
        F.ModuleText = minimizeFinding(F.ModuleText, J.ConfigIndex,
                                       J.FaultSeed, Opts.FaultPlansPerProgram,
                                       F.Kind);
      F.Statements = countStatements(F.ModuleText);

      if (!Opts.ReproDir.empty()) {
        std::error_code EC;
        std::filesystem::create_directories(Opts.ReproDir, EC);
        std::string Name = formatString(
            "%s-s%llu-p%llu-c%u-f%llu.sir", valid::mismatchKindName(F.Kind),
            static_cast<unsigned long long>(F.ShapeSeed),
            static_cast<unsigned long long>(F.ProgSeed), F.ConfigIndex,
            static_cast<unsigned long long>(F.FaultSeed));
        std::filesystem::path Path =
            std::filesystem::path(Opts.ReproDir) / Name;
        std::ofstream Out(Path);
        if (Out) {
          Out << "# srp-fuzz finding: " << valid::mismatchKindName(F.Kind)
              << "\n";
          Out << "# detail: " << F.Detail << "\n";
          if (!F.FaultContext.empty())
            Out << "# fault: " << F.FaultContext << "\n";
          Out << "# config: " << F.ConfigName << "\n";
          Out << "# replay: srp-fuzz --replay=" << F.replayArg() << "\n";
          Out << F.ModuleText;
          F.ReproPath = Path.string();
        }
      }
      Result.Findings.push_back(std::move(F));
    }

    LogLine(formatString(
        "%llu programs, %llu fault runs, %zu features, corpus %zu, "
        "%zu findings (%llds elapsed)",
        static_cast<unsigned long long>(Result.ProgramsRun),
        static_cast<unsigned long long>(Result.FaultRuns), Coverage.size(),
        Corpus.size(), Result.Findings.size(),
        static_cast<long long>(Elapsed())));
  }

  Result.CoverageFeatures = Coverage.size();
  return Result;
}
