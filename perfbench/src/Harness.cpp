//===- Harness.cpp - Shared helpers for the benchmark workloads -----------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "arch/Decoded.h"
#include "pre/Promotion.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using namespace srp;

namespace {

/// Span name of each standard pass: the layer that does its work.
const char *layerOf(std::string_view Pass) {
  static const std::pair<const char *, const char *> Map[] = {
      {"build", "ir.build"},
      {"profile", "interp.profile"},
      {"promote", "pre.promote"},
      {"specverify", "analysis.specverify"},
      {"taintflow", "analysis.taintflow"},
      {"lower", "codegen.lower"},
      {"regalloc", "codegen.regalloc"},
      {"simulate", "arch.execute"},
  };
  for (const auto &[P, L] : Map)
    if (Pass == P)
      return L;
  return "core.other_pass";
}

} // namespace

core::PipelineResult perfbench::runStandardPasses(
    const std::function<void(core::PipelineState &)> &Init, Tracer *T,
    const char *SpanName, uint32_t Parent, uint64_t Op) {
  SpanScope Pipe(T, SpanName, Parent, Op);
  core::PipelineState S;
  Init(S);
  core::PassManager PM;
  core::addStandardPasses(PM);
  double Last = T ? T->now() : 0;
  PM.run(S, [&](const core::Pass &P, core::PipelineState &St) {
    if (T) {
      double Now = T->now();
      T->add(layerOf(P.name()), Pipe.id(), Op, Last, Now);
      Last = Now;
    }
    if (P.name() == "regalloc" && St.MM) {
      // Decode here rather than inside the simulate pass (which reuses
      // St.Decoded), so decode and execute are timed apart.
      St.Decoded = std::make_unique<arch::DecodedModule>(*St.MM);
      if (T) {
        double Now = T->now();
        T->add("arch.decode", Pipe.id(), Op, Last, Now);
        Last = Now;
      }
    }
    if (T && P.name() == "simulate")
      T->count("arch.instructions",
               static_cast<double>(St.Result.Sim.Counters.Instructions));
  });
  return std::move(S.Result);
}

std::string perfbench::resultKey(const core::PipelineResult &R) {
  const arch::PerfCounters &C = R.Sim.Counters;
  const pre::PromotionStats &P = R.Promotion;
  std::string K = formatString(
      "ok=%d c=%llu i=%llu l=%llu s=%llu da=%llu ac=%llu af=%llu cr=%llu "
      "rc=%llu rs=%llu rf=%llu tb=%llu l1=%llu/%llu l2=%llu/%llu ",
      int(R.Ok), (unsigned long long)C.Cycles,
      (unsigned long long)C.Instructions, (unsigned long long)C.RetiredLoads,
      (unsigned long long)C.RetiredStores,
      (unsigned long long)C.DataAccessCycles,
      (unsigned long long)C.AlatChecks, (unsigned long long)C.AlatCheckFailures,
      (unsigned long long)C.ChkARecoveries, (unsigned long long)C.RseCycles,
      (unsigned long long)C.RseSpills, (unsigned long long)C.RseFills,
      (unsigned long long)C.TakenBranches, (unsigned long long)C.L1Hits,
      (unsigned long long)C.L1Misses, (unsigned long long)C.L2Hits,
      (unsigned long long)C.L2Misses);
  K += formatString(
      "pe=%u lrd=%u lri=%u al=%u il=%u ci=%u cc=%u ii=%u im=%u sc=%u st=%u "
      "cl=%u dd=%llu di=%llu ra=%u/%u/%u msr=%u exit=%lld sd=%zu td=%zu out=",
      P.PromotedExprs, P.LoadsRemovedDirect, P.LoadsRemovedIndirect,
      P.AdvancedLoads, P.InsertedLoads, P.ChecksInserted, P.CascadeChecks,
      P.InvalaInserted, P.InvalaModeLoads, P.SoftwareChecks, P.StAStores,
      P.ChecksRemovedByCleanup, (unsigned long long)P.DynLoadsRemovedDirect,
      (unsigned long long)P.DynLoadsRemovedIndirect, R.RegAlloc.SpilledRegs,
      R.RegAlloc.MaxIntPressure, R.RegAlloc.MaxFpPressure, R.MaxStackedRegs,
      (long long)R.Sim.ExitValue, R.SpecDiags.size(), R.TaintDiags.size());
  K += formatString("%016llx", (unsigned long long)outputHash(R.Output));
  return K;
}

std::string perfbench::fingerprintOf(const core::PipelineResult &R) {
  return formatString(
      "%llu/%llu/%llu|%u-%u-%u",
      (unsigned long long)R.Sim.Counters.Cycles,
      (unsigned long long)R.Sim.Counters.Instructions,
      (unsigned long long)R.Sim.Counters.RetiredLoads, R.Promotion.PromotedExprs,
      R.Promotion.loadsRemoved(),
      R.Promotion.ChecksInserted + R.Promotion.CascadeChecks);
}

uint64_t perfbench::outputHash(const std::vector<std::string> &Output) {
  uint64_t H = fnv1a64(static_cast<uint64_t>(Output.size()), Fnv1a64Offset);
  for (const std::string &Line : Output)
    H = fnv1a64(Line, fnv1a64(static_cast<uint64_t>(Line.size()), H));
  return H;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

std::vector<std::pair<std::string, core::PipelineConfig>>
perfbench::paperStrategies() {
  return {
      {"conservative", core::configFor(pre::PromotionConfig::conservative())},
      {"baseline", core::configFor(pre::PromotionConfig::baselineO3())},
      {"alat", core::configFor(pre::PromotionConfig::alat())},
  };
}
