//===- srp-run.cpp - Command-line driver ---------------------------------------===//
//
// Compiles a textual IR program (see ir/Parser.h for the grammar) under a
// chosen promotion strategy and runs it on the ITA simulator, reporting
// the pfmon-style counters. The run is the standard pass pipeline
// (core/Pass.h) in module mode: the parsed program is profiled and
// transformed in place, and the train run doubles as the correctness
// oracle; srp-run exits non-zero if the simulated output diverges.
//
//   srp-run [options] program.sir
//     --strategy=conservative|baseline|alat   (default alat)
//     --cascade          enable chk.a address speculation
//     --sta              enable the st.a extension (§2.5)
//     --no-profile       collect but don't feed back the alias profile
//     --disable-pass=N   skip the pass named N (repeatable; see passes)
//     --timing           per-pass wall-time breakdown (stderr)
//     --timing-json=F    write the breakdown as JSON to F (the
//                        srp-bench/1 report schema with a 1-pipeline
//                        grid, so bench_diff.py can compare runs)
//     --stats            dump the statistics registry (stderr)
//     --print-ir         print the promoted IR
//     --print-asm        print the ITA assembly
//     --alat-entries=N   ALAT geometry overrides
//     --alat-tag-bits=N
//
//   srp-run passes
//     List the registered passes in run order with descriptions.
//
//   srp-run lint [options] program.sir
//     Static speculation-safety checking (analysis/SpecVerifier.h): by
//     default the program is promoted first (same profile-feedback flow
//     as a normal run, honouring --strategy/--cascade/--sta/--no-profile
//     and --alat-entries) and the *promoted* IR is verified; with
//     --no-promote the input is linted as written, which is the mode for
//     hand-authored speculative .sir files. --Werror promotes warnings
//     (the ALAT capacity lint) to a failing exit.
//
//     --taint additionally runs the speculative secret-taint dataflow
//     (analysis/TaintFlow.h) over the linted IR; any `secret`-labelled
//     value reaching an address, branch, or output inside a speculative
//     window is a finding. --witness=<dir> emits one proof-witness JSON
//     per input (analysis/Witness.h): every promoted web's anchoring
//     invariant, alias facts, and static/dynamic taint verdict
//     (CONFIRMED/REFUTED); a REFUTED witness is a finding. Diagnostics
//     are deterministic: sorted by line, check, and context, with exact
//     duplicates dropped.
//
//     Exit status (matching srp-fuzz): 0 clean, 1 findings, 2
//     usage/parse/train errors.
//
//===----------------------------------------------------------------------===//

#include "alias/AliasAnalysis.h"
#include "analysis/SpecVerifier.h"
#include "analysis/TaintFlow.h"
#include "analysis/Witness.h"
#include "codegen/Lowering.h"
#include "core/Pass.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"
#include "support/JSON.h"
#include "support/OStream.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>

#include <sys/stat.h>

using namespace srp;

namespace {

struct Options {
  std::string InputPath;
  pre::PromotionConfig Promotion = pre::PromotionConfig::alat();
  bool UseProfile = true;
  bool PrintIR = false;
  bool PrintAsm = false;
  bool Timing = false;
  bool Stats = false;
  std::string TimingJsonPath;
  std::string StrategyName = "alat";
  std::vector<std::string> DisabledPasses;
  arch::SimConfig Sim;
  // Lint-mode (srp-run lint ...) options.
  bool Lint = false;
  bool Promote = true;     ///< lint the promoted IR (default) or as-is
  bool WarnAsError = false;
  bool Taint = false;      ///< run the secret-taint dataflow too
  std::string WitnessDir;  ///< emit proof-witness JSON here (implies taint)
};

/// Strict decimal parse for --opt=N values. Rejects empty, non-digit,
/// and overflowing input — atoi's silent 0 turned typos into degenerate
/// ALAT geometries.
bool parseUnsignedValue(std::string_view Value, unsigned &Out) {
  if (Value.empty() || Value.size() > 9)
    return false;
  unsigned V = 0;
  for (char C : Value) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<unsigned>(C - '0');
  }
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  int First = 1;
  if (Argc > 1 && std::strcmp(Argv[1], "lint") == 0) {
    Opts.Lint = true;
    First = 2;
  }
  for (int I = First; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Opts.Lint && Arg == "--no-promote")
      Opts.Promote = false;
    else if (Opts.Lint && Arg == "--Werror")
      Opts.WarnAsError = true;
    else if (Opts.Lint && Arg == "--taint")
      Opts.Taint = true;
    else if (Opts.Lint && startsWith(Arg, "--witness=")) {
      Opts.WitnessDir = Arg.substr(10);
      Opts.Taint = true;
      if (Opts.WitnessDir.empty()) {
        errs() << "empty directory in '--witness='\n";
        return false;
      }
    }
    else if (Arg == "--strategy=conservative") {
      Opts.Promotion = pre::PromotionConfig::conservative();
      Opts.StrategyName = "conservative";
    } else if (Arg == "--strategy=baseline") {
      Opts.Promotion = pre::PromotionConfig::baselineO3();
      Opts.StrategyName = "baseline";
    } else if (Arg == "--strategy=alat") {
      Opts.Promotion = pre::PromotionConfig::alat();
      Opts.StrategyName = "alat";
    }
    else if (Arg == "--cascade")
      Opts.Promotion.EnableCascade = true;
    else if (Arg == "--sta") {
      Opts.Promotion.UseStA = true;
      Opts.Sim.UseStA = true;
    } else if (Arg == "--no-profile")
      Opts.UseProfile = false;
    else if (Arg == "--print-ir")
      Opts.PrintIR = true;
    else if (Arg == "--print-asm")
      Opts.PrintAsm = true;
    else if (Arg == "--timing")
      Opts.Timing = true;
    else if (startsWith(Arg, "--timing-json=")) {
      Opts.TimingJsonPath = Arg.substr(14);
      if (Opts.TimingJsonPath.empty()) {
        errs() << "empty path in '--timing-json='\n";
        return false;
      }
    }
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (startsWith(Arg, "--disable-pass="))
      Opts.DisabledPasses.emplace_back(Arg.substr(15));
    else if (startsWith(Arg, "--alat-entries=")) {
      if (!parseUnsignedValue(Arg.substr(15), Opts.Sim.Alat.Entries)) {
        errs() << "invalid value in '" << Arg
               << "' (expected a decimal integer)\n";
        return false;
      }
    } else if (startsWith(Arg, "--alat-tag-bits=")) {
      if (!parseUnsignedValue(Arg.substr(16), Opts.Sim.Alat.PartialTagBits)) {
        errs() << "invalid value in '" << Arg
               << "' (expected a decimal integer)\n";
        return false;
      }
    } else if (!startsWith(Arg, "--") && Opts.InputPath.empty())
      Opts.InputPath = Arg;
    else {
      errs() << "unknown option '" << Arg << "'\n";
      return false;
    }
  }
  if (Opts.InputPath.empty()) {
    errs() << "usage: srp-run [options] program.sir (see file header)\n";
    return false;
  }
  // Unknown --disable-pass names would silently do nothing; reject them.
  std::vector<std::string> Known = core::standardPassNames();
  for (const std::string &Name : Opts.DisabledPasses)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end()) {
      errs() << "unknown pass '" << Name
             << "' in --disable-pass (run 'srp-run passes')\n";
      return false;
    }
  return true;
}

/// srp-run passes: list the registered pipeline in run order.
int listPasses() {
  core::PassManager PM;
  core::addStandardPasses(PM);
  outs() << "registered passes, in run order:\n";
  for (const std::string &Name : PM.passNames()) {
    const core::Pass *P = PM.find(Name);
    outs() << formatString("  %-12s %s\n", Name.c_str(),
                           std::string(P->description()).c_str());
  }
  outs() << "\ndisable any of them with --disable-pass=<name> "
            "(passes depending on a disabled one fail with a "
            "diagnostic)\n";
  return 0;
}

/// Deterministic diagnostic order: line first (the file:line users read),
/// then check tag, then context. A stable sort keeps the verifier's
/// function/block order for ties; exact duplicates (every field equal)
/// are dropped afterwards.
void sortAndDedupe(std::vector<analysis::SpecDiag> &Diags) {
  auto Key = [](const analysis::SpecDiag &D) {
    return std::tie(D.Line, D.Kind, D.Severity, D.FunctionName, D.BlockName,
                    D.StmtText, D.Message);
  };
  std::stable_sort(Diags.begin(), Diags.end(),
                   [&Key](const analysis::SpecDiag &A,
                          const analysis::SpecDiag &B) {
                     return Key(A) < Key(B);
                   });
  Diags.erase(std::unique(Diags.begin(), Diags.end(),
                          [&Key](const analysis::SpecDiag &A,
                                 const analysis::SpecDiag &B) {
                            return Key(A) == Key(B);
                          }),
              Diags.end());
}

void sortAndDedupe(std::vector<analysis::TaintDiag> &Diags) {
  auto Key = [](const analysis::TaintDiag &D) {
    return std::tie(D.Line, D.Kind, D.FunctionName, D.BlockName, D.StmtText,
                    D.SpecMask, D.Message);
  };
  std::stable_sort(Diags.begin(), Diags.end(),
                   [&Key](const analysis::TaintDiag &A,
                          const analysis::TaintDiag &B) {
                     return Key(A) < Key(B);
                   });
  Diags.erase(std::unique(Diags.begin(), Diags.end(),
                          [&Key](const analysis::TaintDiag &A,
                                 const analysis::TaintDiag &B) {
                            return Key(A) == Key(B);
                          }),
              Diags.end());
}

/// "dir/taint_leak.sir" -> "taint_leak" (for witness file naming).
std::string inputStem(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path
                                                : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  if (Dot != std::string::npos && Dot > 0)
    Base = Base.substr(0, Dot);
  return Base.empty() ? std::string("module") : Base;
}

/// srp-run lint: static speculation-safety checking. Returns the process
/// exit code. \p M is already parsed and verified.
int runLint(ir::Module &M, const Options &Opts) {
  // The same Steensgaard result serves the promoter and the verifier
  // (promotion introduces no new memory objects, so the pre-promotion
  // points-to solution stays valid for the promoted IR).
  alias::SteensgaardAnalysis AA(M);

  if (Opts.Promote) {
    interp::AliasProfile AP;
    interp::EdgeProfile EP;
    interp::Interpreter Train(M);
    Train.setAliasProfile(&AP);
    Train.setEdgeProfile(&EP);
    interp::RunResult Train_ = Train.run();
    if (!Train_.Ok) {
      errs() << "train run failed: " << Train_.Error << '\n';
      return 2;
    }
    pre::promoteModule(M, AA, Opts.UseProfile ? &AP : nullptr, &EP,
                       Opts.Promotion);
  }
  if (Opts.PrintIR) {
    outs() << "--- linted IR ---\n";
    ir::printModule(M, outs());
  }

  analysis::SpecVerifyConfig SVC;
  SVC.AlatEntries = Opts.Sim.Alat.Entries;
  SVC.AA = &AA;
  std::vector<analysis::SpecDiag> Diags = analysis::verifySpeculation(M, SVC);
  sortAndDedupe(Diags);

  unsigned NumErrors = 0, NumWarnings = 0;
  for (const analysis::SpecDiag &D : Diags) {
    if (D.Severity == analysis::SpecDiagSeverity::Error)
      ++NumErrors;
    else
      ++NumWarnings;
    errs() << analysis::formatSpecDiag(D, Opts.InputPath) << '\n';
  }

  // --taint / --witness: the secret-taint dataflow over the linted IR,
  // cross-validated against the interpreter's shadow run for witnesses.
  unsigned NumRefuted = 0;
  if (Opts.Taint) {
    analysis::TaintFlowConfig TFC;
    TFC.AA = &AA;
    analysis::TaintFlow TF(M, TFC);
    std::vector<analysis::TaintDiag> TDiags = TF.diags();
    sortAndDedupe(TDiags);
    NumErrors += static_cast<unsigned>(TDiags.size());
    for (const analysis::TaintDiag &D : TDiags)
      errs() << analysis::formatTaintDiag(D, Opts.InputPath) << '\n';

    if (!Opts.WitnessDir.empty()) {
      // Dynamic side of the cross-check: shadow-taint interpretation of
      // the same IR. A trapping or main-less program simply contributes
      // no dynamic observations.
      interp::TaintTrace Dyn;
      bool HaveDyn = false;
      if (TF.hasSecrets() && M.findFunction("main")) {
        interp::Interpreter I(M);
        I.setTaintTrace(&Dyn);
        HaveDyn = I.run().Ok;
      }
      std::vector<analysis::Witness> Ws = analysis::buildWitnesses(
          M, TF, Diags, HaveDyn ? &Dyn : nullptr);
      for (const analysis::Witness &W : Ws)
        if (W.St == analysis::Witness::Status::Refuted)
          ++NumRefuted;
      ::mkdir(Opts.WitnessDir.c_str(), 0755); // existing dir is fine
      std::string Path =
          Opts.WitnessDir + "/" + inputStem(Opts.InputPath) + ".witness.json";
      std::FILE *File = std::fopen(Path.c_str(), "wb");
      if (!File) {
        errs() << "cannot write '" << Path << "'\n";
        return 2;
      }
      FileOStream OS(File);
      analysis::writeWitnesses(Ws, M, TF, OS);
      OS.flush();
      std::fclose(File);
      errs() << formatString("%s: wrote %zu witness(es), %u refuted\n",
                             Path.c_str(), Ws.size(), NumRefuted);
      NumErrors += NumRefuted;
    }
  }

  errs() << formatString("%s: %u error(s), %u warning(s)\n",
                         Opts.InputPath.c_str(), NumErrors, NumWarnings);
  if (NumErrors > 0 || (Opts.WarnAsError && NumWarnings > 0))
    return 1;
  return 0;
}

/// --timing-json: one pipeline reported in the srp-bench/1 schema (see
/// DESIGN.md §7), so tools/bench_diff.py can diff an srp-run invocation
/// against another run or a recorded baseline. The grid is a single
/// workload (the input file) under a single config (the strategy), the
/// wall-clock medians are the one measured pipeline wall time, and each
/// pass's p50 is its single sample.
bool writeTimingJson(const Options &Opts, const core::PipelineState &S,
                     uint64_t WallUs, const StatsRegistry &SR) {
  std::FILE *File = std::fopen(Opts.TimingJsonPath.c_str(), "wb");
  if (!File) {
    errs() << "cannot write '" << Opts.TimingJsonPath << "'\n";
    return false;
  }
  FileOStream OS(File);
  JSONWriter W(OS);
  W.beginObject();
  W.key("schema").value("srp-bench/1");
  W.key("label").value("srp-run");
  W.key("smoke").value(false);
  W.key("repeat").value(1);
  W.key("grid");
  {
    W.beginObject();
    W.key("pipelines").value(uint64_t(1));
    W.key("workloads").beginArray().value(inputStem(Opts.InputPath)).endArray();
    W.key("configs").beginArray().value(Opts.StrategyName).endArray();
    W.endObject();
  }
  W.key("wall_clock_us");
  {
    W.beginObject();
    W.key("j1_p50").value(WallUs);
    W.key("jn_p50").value(WallUs);
    W.key("threads").value(1);
    W.endObject();
  }
  W.key("passes");
  {
    W.beginObject();
    for (const core::PipelineResult::PassTiming &T : S.Result.Timings) {
      W.key(T.Name);
      W.beginObject();
      W.key("p50_us").value(T.Micros);
      W.key("total_us").value(T.Micros);
      W.endObject();
    }
    W.endObject();
  }
  W.key("counters");
  {
    const arch::PerfCounters &C = S.Result.Sim.Counters;
    const pre::PromotionStats &P = S.Result.Promotion;
    W.beginObject();
    W.key("sim.cycles").value(C.Cycles);
    W.key("sim.instructions").value(C.Instructions);
    W.key("sim.retired_loads").value(C.RetiredLoads);
    W.key("promotion.exprs").value(P.PromotedExprs);
    W.key("promotion.loads_removed").value(P.loadsRemoved());
    W.key("promotion.checks").value(P.ChecksInserted + P.CascadeChecks);
    W.endObject();
  }
  W.key("stats");
  {
    W.beginObject();
    for (std::string_view Key : core::ReportedStatsKeys)
      W.key(Key).value(SR.value(Key));
    W.endObject();
  }
  W.endObject();
  OS << "\n";
  OS.flush();
  std::fclose(File);
  return true;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, N);
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "passes") == 0)
    return listPasses();

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;

  std::string Text;
  if (!readFile(Opts.InputPath, Text)) {
    errs() << "cannot read '" << Opts.InputPath << "'\n";
    return 2;
  }
  ir::Module M;
  std::string Error;
  if (!ir::parseModule(Text, M, Error)) {
    errs() << Opts.InputPath << ": " << Error << '\n';
    return 2;
  }
  std::vector<std::string> Errors = ir::verifyModule(M);
  // Lint never lowers; a compile also needs shapes codegen can lower.
  if (Errors.empty() && !Opts.Lint)
    Errors = ir::verifyLowerable(M);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      errs() << Opts.InputPath << ": " << E << '\n';
    return 2;
  }

  if (Opts.Lint)
    return runLint(M, Opts);

  // The standard pipeline in module mode: M is profiled (the train run,
  // which doubles as the oracle) and promoted in place.
  core::PipelineState S;
  S.External = &M;
  S.Config.Promotion = Opts.Promotion;
  S.Config.Sim = Opts.Sim;
  S.Config.UseAliasProfile = Opts.UseProfile;
  S.Config.DisabledPasses = Opts.DisabledPasses;

  core::PassManager PM;
  core::addStandardPasses(PM);
  auto AfterPass = [&Opts, &M](const core::Pass &P,
                               core::PipelineState &St) {
    if (Opts.PrintIR && P.name() == "promote") {
      outs() << "--- promoted IR ---\n";
      ir::printModule(M, outs());
    }
    // After regalloc rather than lower, so physical registers show.
    if (Opts.PrintAsm && P.name() == "regalloc") {
      outs() << "--- ITA assembly ---\n";
      codegen::printMModule(*St.MM, outs());
    }
  };
  // The run's stats epoch: --stats and --timing-json describe this
  // pipeline, not everything the process recorded since startup (the
  // registry is cumulative and a long-lived embedder may have run many
  // pipelines before this one). The capture merges into the global
  // registry when it dies, so process totals still add up.
  ScopedStatsCapture Capture;
  uint64_t WallUs = 0;
  bool Ok;
  {
    ScopedTimer Wall(WallUs);
    Ok = PM.run(S, AfterPass);
  }

  auto ReportObservability = [&Opts, &S, &M, WallUs, &Capture] {
    // Live arenas haven't published yet (stats normally post at arena
    // teardown); flush so the report and JSON see real totals.
    if (Opts.Stats || !Opts.TimingJsonPath.empty()) {
      M.arena().flushStats();
      if (S.MM)
        S.MM->arena().flushStats();
    }
    if (!Opts.TimingJsonPath.empty())
      writeTimingJson(Opts, S, WallUs, Capture.captured());
    if (Opts.Timing) {
      errs() << "--- pass timing (us) ---\n";
      for (const core::PipelineResult::PassTiming &T : S.Result.Timings)
        errs() << formatString("  %10llu  %s\n",
                               (unsigned long long)T.Micros,
                               T.Name.c_str());
    }
    if (Opts.Stats) {
      errs() << "--- stats ---\n";
      Capture.captured().report(errs());
    }
  };

  if (!Ok) {
    errs() << S.Result.Error << '\n';
    ReportObservability();
    return 1;
  }

  for (const std::string &Line : S.Result.Output)
    outs() << Line << '\n';
  if (S.HasProfile && S.Result.Output != S.OracleOutput) {
    errs() << "MISCOMPILE: simulated output diverges from the "
              "interpreter\n";
    return 1;
  }

  const arch::PerfCounters &C = S.Result.Sim.Counters;
  errs() << "---\n";
  errs() << formatString(
      "cycles %llu, instructions %llu, loads %llu, stores %llu\n",
      (unsigned long long)C.Cycles, (unsigned long long)C.Instructions,
      (unsigned long long)C.RetiredLoads,
      (unsigned long long)C.RetiredStores);
  errs() << formatString(
      "data-access stall cycles %llu, taken branches %llu, RSE cycles "
      "%llu\n",
      (unsigned long long)C.DataAccessCycles,
      (unsigned long long)C.TakenBranches,
      (unsigned long long)C.RseCycles);
  errs() << formatString(
      "ALAT checks %llu (failed %llu), chk.a recoveries %llu\n",
      (unsigned long long)C.AlatChecks,
      (unsigned long long)C.AlatCheckFailures,
      (unsigned long long)C.ChkARecoveries);
  const pre::PromotionStats &Stats = S.Result.Promotion;
  errs() << formatString(
      "promotion: %u exprs, %u loads removed (%u direct / %u indirect), "
      "%u checks, %u software pairs\n",
      Stats.PromotedExprs, Stats.loadsRemoved(), Stats.LoadsRemovedDirect,
      Stats.LoadsRemovedIndirect,
      Stats.ChecksInserted + Stats.CascadeChecks, Stats.SoftwareChecks);
  ReportObservability();
  return 0;
}
