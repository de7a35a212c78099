//===- DiffOracle.cpp - Differential translation validation ------------------===//

#include "valid/DiffOracle.h"

#include "analysis/TaintFlow.h"
#include "core/Pass.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"

#include <unordered_set>

using namespace srp;
using namespace srp::valid;

const char *srp::valid::mismatchKindName(MismatchKind K) {
  switch (K) {
  case MismatchKind::None:
    return "none";
  case MismatchKind::InvalidInput:
    return "invalid-input";
  case MismatchKind::BaseRunFailed:
    return "base-run-failed";
  case MismatchKind::PipelineError:
    return "pipeline-error";
  case MismatchKind::PromotedRunFailed:
    return "promoted-run-failed";
  case MismatchKind::OutputDiverged:
    return "output-diverged";
  case MismatchKind::ExitDiverged:
    return "exit-diverged";
  case MismatchKind::FinalStateDiverged:
    return "final-state-diverged";
  case MismatchKind::SpecLeak:
    return "spec-leak";
  case MismatchKind::SecretLeak:
    return "secret-leak";
  case MismatchKind::TaintDisagree:
    return "taint-disagree";
  case MismatchKind::SimDiverged:
    return "sim-diverged";
  }
  return "unknown";
}

namespace {

/// Builder that can refuse (parse errors); wraps both public entries.
using FallibleBuilder = std::function<std::string(ir::Module &)>;

std::string materialize(const FallibleBuilder &Build, ir::Module &M) {
  std::string Err = Build(M);
  if (!Err.empty())
    return Err;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  std::vector<std::string> Errors = ir::verifyModule(M);
  if (!Errors.empty())
    return "verifier: " + Errors[0];
  return "";
}

OracleReport fail(MismatchKind Kind, std::string Detail,
                  std::string FaultContext = "") {
  OracleReport R;
  R.Ok = false;
  R.Kind = Kind;
  R.Detail = std::move(Detail);
  R.FaultContext = std::move(FaultContext);
  return R;
}

/// First index where the two output vectors differ, formatted.
std::string describeOutputDiff(const std::vector<std::string> &Base,
                               const std::vector<std::string> &Got) {
  size_t N = std::min(Base.size(), Got.size());
  for (size_t I = 0; I < N; ++I)
    if (Base[I] != Got[I])
      return formatString("print #%zu: expected '%s', got '%s'", I,
                          Base[I].c_str(), Got[I].c_str());
  return formatString("print count: expected %zu lines, got %zu",
                      Base.size(), Got.size());
}

OracleReport runImpl(const FallibleBuilder &Build, const OracleOptions &Opts) {
  // 1. Reference semantics: the unpromoted interpretation.
  ir::Module Base;
  if (std::string Err = materialize(Build, Base); !Err.empty())
    return fail(MismatchKind::InvalidInput, Err);

  interp::MemTrace BaseTrace;
  interp::Interpreter BaseInterp(Base);
  BaseInterp.setMemTrace(&BaseTrace);
  interp::RunResult BaseRun = BaseInterp.run(Opts.Config.InterpFuel);
  if (!BaseRun.Ok)
    return fail(MismatchKind::BaseRunFailed, BaseRun.Error);

  std::unordered_set<unsigned> TouchedSymbols;
  for (const interp::MemTrace::Access &A : BaseTrace.Accesses)
    TouchedSymbols.insert(A.Symbol);

  // 2. Compile a second materialization through the module-mode pipeline
  // (profile → promote → verify → lower → allocate → simulate). Faults
  // stay off here; the fault schedules re-simulate the same binary below.
  ir::Module Prom;
  if (std::string Err = materialize(Build, Prom); !Err.empty())
    return fail(MismatchKind::InvalidInput, "second build: " + Err);

  core::PipelineState S;
  S.External = &Prom;
  S.Config = Opts.Config;
  S.Config.Sim.Faults = arch::FaultPlan();
  core::PassManager PM;
  core::addStandardPasses(PM);
  if (!PM.run(S))
    return fail(MismatchKind::PipelineError, S.Result.Error);

  OracleReport R;
  R.Promotion = S.Result.Promotion;
  R.Alat = S.Result.Sim.Alat;

  if (S.Result.Output != BaseRun.Output)
    return fail(MismatchKind::SimDiverged,
                describeOutputDiff(BaseRun.Output, S.Result.Output));
  if (S.Result.Sim.ExitValue != BaseRun.ExitValue)
    return fail(MismatchKind::SimDiverged,
                formatString("exit value: expected %lld, got %lld",
                             static_cast<long long>(BaseRun.ExitValue),
                             static_cast<long long>(S.Result.Sim.ExitValue)));

  // 3. Interpreter-level checks on the promoted IR (the pipeline
  // transformed Prom in place). The Transform hook sabotages here.
  if (Opts.Transform) {
    std::string Err = Opts.Transform(Prom);
    if (!Err.empty())
      return fail(MismatchKind::InvalidInput, "transform: " + Err);
    for (unsigned I = 0; I < Prom.numFunctions(); ++I)
      Prom.function(I)->recomputeCFG();
    std::vector<std::string> Errors = ir::verifyModule(Prom);
    if (!Errors.empty())
      return fail(MismatchKind::InvalidInput,
                  "transform left invalid IR: " + Errors[0]);
  }

  bool HasSecrets = false;
  for (unsigned I = 0, E = Prom.numSymbols(); I != E; ++I)
    if (Prom.symbol(I)->Secret)
      HasSecrets = true;

  interp::MemTrace PromTrace;
  interp::TaintTrace PromTaint;
  interp::Interpreter PromInterp(Prom);
  PromInterp.setMemTrace(&PromTrace);
  if (HasSecrets)
    PromInterp.setTaintTrace(&PromTaint);
  interp::RunResult PromRun = PromInterp.run(Opts.Config.InterpFuel);
  if (!PromRun.Ok)
    return fail(MismatchKind::PromotedRunFailed, PromRun.Error);

  if (PromRun.Output != BaseRun.Output)
    return fail(MismatchKind::OutputDiverged,
                describeOutputDiff(BaseRun.Output, PromRun.Output));
  if (PromRun.ExitValue != BaseRun.ExitValue)
    return fail(MismatchKind::ExitDiverged,
                formatString("exit value: expected %lld, got %lld",
                             static_cast<long long>(BaseRun.ExitValue),
                             static_cast<long long>(PromRun.ExitValue)));
  if (PromTrace.FinalGlobals.size() != BaseTrace.FinalGlobals.size())
    return fail(MismatchKind::FinalStateDiverged,
                formatString("global cell count: expected %zu, got %zu",
                             BaseTrace.FinalGlobals.size(),
                             PromTrace.FinalGlobals.size()));
  for (size_t I = 0; I < BaseTrace.FinalGlobals.size(); ++I)
    if (PromTrace.FinalGlobals[I] != BaseTrace.FinalGlobals[I])
      return fail(
          MismatchKind::FinalStateDiverged,
          formatString("global cell %zu: expected 0x%llx, got 0x%llx", I,
                       static_cast<unsigned long long>(
                           BaseTrace.FinalGlobals[I]),
                       static_cast<unsigned long long>(
                           PromTrace.FinalGlobals[I])));

  // 4. Non-interference: speculative observations must stay inside
  // objects the unpromoted run touched. Symbol ids are comparable
  // because both modules are materialized by the same deterministic
  // builder (same creation order).
  for (const interp::MemTrace::Access &A : PromTrace.Accesses) {
    if (!A.Speculative)
      continue;
    ++R.SpeculativeAccesses;
    if (A.Symbol == interp::AliasProfile::UnknownTarget)
      return fail(MismatchKind::SpecLeak,
                  formatString("speculative load at 0x%llx lands outside "
                               "every object",
                               static_cast<unsigned long long>(A.Addr)));
    if (!TouchedSymbols.count(A.Symbol)) {
      // Secret-granular classification: observing confidential storage
      // the program never touches is the severe variant of the same
      // non-interference violation.
      bool IsSecret = A.Symbol < Prom.numSymbols() &&
                      Prom.symbol(A.Symbol)->Secret;
      return fail(IsSecret ? MismatchKind::SecretLeak
                           : MismatchKind::SpecLeak,
                  formatString("speculative load at 0x%llx observes %ssymbol "
                               "#%u, which the unpromoted run never touched",
                               static_cast<unsigned long long>(A.Addr),
                               IsSecret ? "secret " : "", A.Symbol));
    }
  }

  // 4b. Taint cross-check (secret-labeled modules only): the static
  // analysis::TaintFlow must over-approximate the dynamic shadow run.
  // A static PASS with a dynamic leak means the analysis missed a flow —
  // the disagreement the fuzzer hunts for.
  if (HasSecrets) {
    R.DynamicTaintLeaks = static_cast<unsigned>(PromTaint.Leaks.size());
    for (unsigned I = 0; I < Prom.numFunctions(); ++I)
      Prom.function(I)->recomputeCFG();
    analysis::TaintFlow TF(Prom);
    R.StaticTaintDiags = static_cast<unsigned>(TF.diags().size());
    if (TF.diags().empty() && !PromTaint.Leaks.empty()) {
      const interp::TaintTrace::Leak &L = PromTaint.Leaks.front();
      return fail(MismatchKind::TaintDisagree,
                  formatString("static taint analysis passed but the "
                               "dynamic run leaked a secret at a(n) %s "
                               "sink in %s (line %u, sites 0x%llx)",
                               interp::taintSinkName(L.S),
                               L.Function.c_str(), L.Line,
                               static_cast<unsigned long long>(L.SpecMask)));
    }
  }

  // 5. Fault schedules: same binary, adversarial ALAT. Faults only force
  // reloads/recoveries, so the functional result must not move.
  // The simulate pass decoded the binary onto the state; every fault
  // schedule re-runs that same stream (decode is per-binary, not
  // per-plan — the plan only perturbs the ALAT model at run time).
  for (const arch::FaultPlan &Plan : Opts.FaultPlans) {
    if (!Plan.enabled() || !S.MM)
      continue;
    if (!S.Decoded)
      S.Decoded = std::make_unique<arch::DecodedModule>(*S.MM);
    arch::SimConfig SimCfg = Opts.Config.Sim;
    SimCfg.Faults = Plan;
    arch::SimResult Faulted = arch::simulate(*S.Decoded, SimCfg);
    ++R.FaultPlansRun;
    if (!Faulted.Ok)
      return fail(MismatchKind::SimDiverged,
                  "simulation failed under faults: " + Faulted.Error,
                  Plan.describe());
    if (Faulted.Output != BaseRun.Output)
      return fail(MismatchKind::SimDiverged,
                  describeOutputDiff(BaseRun.Output, Faulted.Output),
                  Plan.describe());
    if (Faulted.ExitValue != BaseRun.ExitValue)
      return fail(MismatchKind::SimDiverged,
                  formatString("exit value under faults: expected %lld, "
                               "got %lld",
                               static_cast<long long>(BaseRun.ExitValue),
                               static_cast<long long>(Faulted.ExitValue)),
                  Plan.describe());
  }

  R.Ok = true;
  R.Kind = MismatchKind::None;
  return R;
}

} // namespace

OracleReport srp::valid::runDiffOracle(const ModuleBuilder &Build,
                                       const OracleOptions &Opts) {
  return runImpl(
      [&Build](ir::Module &M) {
        Build(M);
        return std::string();
      },
      Opts);
}

OracleReport srp::valid::runDiffOracleOnText(std::string_view Text,
                                             const OracleOptions &Opts) {
  return runImpl(
      [Text](ir::Module &M) {
        std::string Err;
        if (!ir::parseModule(Text, M, Err))
          return Err.empty() ? std::string("parse error") : Err;
        return std::string();
      },
      Opts);
}
