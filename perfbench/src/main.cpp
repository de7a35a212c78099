//===- main.cpp - srp-perfbench entry point -------------------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints, as the last line of
/// standard output, one JSON object:
///   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
/// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
/// (--trace 1) alternate untraced rounds with rounds that record spans,
/// write the spans to --trace-out, and report the per-layer metrics
/// derived from them plus the tracing overhead.
/// Earlier lines carry the host stamp and workload-specific figures.
///
/// --self-test runs every workload briefly with all checks, then feeds
/// each check a perturbed value and fails unless every check catches it.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

constexpr unsigned SetUpSamples = 5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string Root = ".";
  std::string TraceOut;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
};

const char *const WorkloadNames[] = {"paper-grid", "grid-parallel",
                                     "oracle-fuzz", "serve-mix"};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &Root) {
  if (Name == "paper-grid")
    return makePaperGrid();
  if (Name == "grid-parallel")
    return makeGridParallel();
  if (Name == "oracle-fuzz")
    return makeOracleFuzz();
  if (Name == "serve-mix")
    return makeServeMix(Root);
  return nullptr;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (Arg == "--self-test") {
      A.SelfTest = true;
    } else if (Arg == "--workload") {
      if (!Next(A.Workload))
        return false;
    } else if (Arg == "--seed") {
      if (!Next(V))
        return false;
      A.Seed = std::strtoull(V.c_str(), nullptr, 0);
    } else if (Arg == "--seconds") {
      if (!Next(V))
        return false;
      A.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (Arg == "--trace") {
      if (!Next(V) || (V != "0" && V != "1"))
        return false;
      A.Trace = V == "1";
    } else if (Arg == "--root") {
      if (!Next(A.Root))
        return false;
    } else if (Arg == "--trace-out") {
      if (!Next(A.TraceOut))
        return false;
    } else if (Arg == "--git-sha") {
      if (!Next(A.GitSha))
        return false;
    } else if (Arg == "--source-digest") {
      if (!Next(A.SourceDigest))
        return false;
    } else {
      std::fprintf(stderr, "srp-perfbench: unknown argument '%s'\n",
                   Arg.c_str());
      return false;
    }
  }
  if (!A.SelfTest && (A.Workload.empty() || !(A.Seconds > 0))) {
    std::fprintf(stderr, "usage: srp-perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 | --self-test\n");
    return false;
  }
  return true;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned Regs[12] = {};
    for (unsigned L = 0; L < 3; ++L)
      __get_cpuid(0x80000002 + L, &Regs[4 * L], &Regs[4 * L + 1],
                  &Regs[4 * L + 2], &Regs[4 * L + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S = Brand;
    S.erase(0, S.find_first_not_of(' '));
    S.erase(S.find_last_not_of(' ') + 1);
    if (!S.empty())
      return S;
  }
#endif
  return "unknown";
}

unsigned onlineCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 0;
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string hostJson(const Args &A) {
  std::string Workers;
  for (const char *N : WorkloadNames)
    Workers += srp::formatString("%s\"%s\":%u", Workers.empty() ? "" : ",", N,
                                 makeWorkload(N, A.Root)->workers());
  return srp::formatString(
      "{\"cpu_model\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\",\"source_digest\":\"%s\","
      "\"workers\":{%s}}",
      cpuModel().c_str(), onlineCpus(), compilerId().c_str(),
      SRP_PERFBENCH_BUILD_TYPE, A.GitSha.c_str(), A.SourceDigest.c_str(),
      Workers.c_str());
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report
/// the launching Python process's peak.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

/// The rounds of one timed phase, each summarised on its own. Every
/// round runs the same ops, so rounds differ only by what else the host
/// was doing; on a shared host that interference slows whole rounds,
/// CPU time included, and a round cannot run faster than the program
/// allows. The reported figures therefore come from the best round:
/// the highest per-round throughput and the lowest per-round CPU cost
/// and latency percentiles (README.md records how much steadier this is
/// than a median over rounds). A slower program slows every round, so it
/// still shows.
struct Phase {
  uint64_t Ops = 0, Rounds = 0;
  /// Untraced rounds.
  std::vector<double> OpsPerS, CpuMsPerOp, OpP50Ms, OpP90Ms;
  /// Traced rounds (traced runs only); round I follows untraced round I.
  std::vector<double> TracedOpsPerS;

  double opsPerSecond() const { return percentile(OpsPerS, 1.0); }
  double cpuMsPerOp() const { return percentile(CpuMsPerOp, 0.0); }
  double opP50Ms() const { return percentile(OpP50Ms, 0.0); }
  double opP90Ms() const { return percentile(OpP90Ms, 0.0); }
  /// Median over adjacent (untraced, traced) round pairs of the traced
  /// round's throughput loss, in percent. Pairs see the same host
  /// conditions, so the difference is the tracing's.
  double traceOverheadPct() const {
    std::vector<double> Loss;
    for (size_t I = 0; I < TracedOpsPerS.size(); ++I)
      Loss.push_back((1 - TracedOpsPerS[I] / OpsPerS[I]) * 100);
    return percentile(Loss, 0.5);
  }
};

/// Runs whole rounds until \p Seconds of wall time have passed. With \p T
/// set, rounds alternate untraced and traced, ending on a traced round.
/// Between rounds, calls \p Sample \p NumSamples times, evenly spread
/// over the phase (the last call after the last round).
Phase runPhase(Workload &W, double Seconds, Tracer *T,
               const std::function<void()> &Sample, unsigned NumSamples) {
  Phase P;
  double Start = wallNow();
  unsigned Sampled = 0;
  bool TraceNext = false;
  do {
    if (Sampled < NumSamples &&
        wallNow() - Start >= Seconds * (Sampled + 1) / NumSamples) {
      Sample();
      ++Sampled;
    }
    RoundTiming RT = W.runRound(TraceNext ? T : nullptr);
    double Ops = static_cast<double>(RT.OpMs.size());
    double Rate = RT.WallS > 0 ? Ops / RT.WallS : 0;
    P.Ops += RT.OpMs.size();
    ++P.Rounds;
    if (TraceNext) {
      P.TracedOpsPerS.push_back(Rate);
    } else {
      P.OpsPerS.push_back(Rate);
      P.CpuMsPerOp.push_back(Ops > 0 ? RT.CpuS / Ops * 1e3 : 0);
      P.OpP50Ms.push_back(percentile(RT.OpMs, 0.5));
      P.OpP90Ms.push_back(percentile(RT.OpMs, 0.9));
    }
    if (T)
      TraceNext = !TraceNext;
  } while (wallNow() - Start < Seconds || TraceNext);
  for (; Sampled < NumSamples; ++Sampled)
    Sample();
  return P;
}

std::string num(double V) { return srp::formatString("%.17g", V); }

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (const Metric &M : Ms)
    Out += srp::formatString("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                             Out.size() > 1 ? ", " : "", M.Name.c_str(),
                             num(M.Value).c_str(), M.Unit.c_str());
  return Out + "}";
}

std::string infoJson(const std::map<std::string, double> &Info) {
  std::string Out = "{";
  for (const auto &[K, V] : Info)
    Out += srp::formatString("%s\"%s\":%s", Out.size() > 1 ? "," : "",
                             K.c_str(), num(V).c_str());
  return Out + "}";
}

/// Per-layer metrics of a traced phase (see README.md for definitions).
std::vector<Metric> layerMetrics(const Tracer &T, const Workload &W,
                                 const Phase &P) {
  std::map<std::string, double> Self = T.selfSeconds();
  std::map<std::string, std::pair<double, uint64_t>> Tot = T.totals();
  auto SelfOf = [&](const char *N) {
    auto It = Self.find(N);
    return It == Self.end() ? 0.0 : It->second;
  };
  auto CountOf = [&](const char *N) {
    auto It = Tot.find(N);
    return It == Tot.end() ? uint64_t(0) : It->second.second;
  };
  double Pipes = double(CountOf("core.runPipeline") + CountOf("core.pipeline"));
  auto PerPipeMs = [&](double S) { return Pipes > 0 ? S / Pipes * 1e3 : 0; };
  double Refs = double(CountOf("interp.reference"));

  // Pool idle per round: workers x round wall - time covered by its ops.
  std::vector<double> ChildSum(T.spans().size() + 1, 0);
  for (const Span &S : T.spans())
    if (S.Parent != 0 && S.Op != 0)
      ChildSum[S.Parent] += S.End - S.Start;
  double Idle = 0;
  uint64_t Rounds = 0;
  for (const Span &S : T.spans())
    if (std::strcmp(S.Name, "round") == 0) {
      Idle += W.workers() * (S.End - S.Start) - ChildSum[S.Id];
      ++Rounds;
    }

  double ProfileMs = PerPipeMs(SelfOf("interp.profile"));
  double ExecS = SelfOf("arch.execute");
  return {
      {"arch.execute_ms", "ms", PerPipeMs(ExecS)},
      {"arch.decode_ms", "ms", PerPipeMs(SelfOf("arch.decode"))},
      {"arch.sim_mips", "Minstr/s",
       ExecS > 0 ? T.counter("arch.instructions") / ExecS * 1e-6 : 0},
      {"interp.profile_ms", "ms", ProfileMs},
      {"interp.profile_total_ms", "ms", ProfileMs * double(W.distinctOps())},
      {"interp.reference_ms", "ms",
       Refs > 0 ? SelfOf("interp.reference") / Refs * 1e3 : 0},
      {"pre.promote_ms", "ms", PerPipeMs(SelfOf("pre.promote"))},
      {"analysis.verify_ms", "ms",
       PerPipeMs(SelfOf("analysis.specverify") + SelfOf("analysis.taintflow"))},
      {"ir.build_ms", "ms", PerPipeMs(SelfOf("ir.build"))},
      {"codegen.lower_ms", "ms", PerPipeMs(SelfOf("codegen.lower"))},
      {"codegen.regalloc_ms", "ms", PerPipeMs(SelfOf("codegen.regalloc"))},
      {"core.pool_idle_ms", "ms", Rounds ? Idle / double(Rounds) * 1e3 : 0},
      {"trace.overhead_pct", "%", P.traceOverheadPct()},
  };
}

/// Workload-specific layer figures for the info line: mean duration of
/// the spans only some workloads record.
void layerInfo(const Tracer &T, std::map<std::string, double> &Info) {
  std::map<std::string, double> Self = T.selfSeconds();
  for (const auto &[Name, Tot] : T.totals()) {
    double Mean = Tot.second ? Tot.first / double(Tot.second) : 0;
    if (Name == "fuzz.generate")
      Info["fuzz.generate_ms"] = Mean * 1e3;
    else if (Name == "ir.parse")
      Info["ir.parse_ms"] = Mean * 1e3;
    else if (Name == "ir.canonicalize")
      Info["ir.canonicalize_us"] = Mean * 1e6;
    else if (Name == "fuzz.replayTriple")
      Info["valid.oracle_ms"] = Self[Name] / double(Tot.second) * 1e3;
  }
}

int runBenchmark(const Args &A) {
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Root);
  if (!W) {
    std::fprintf(stderr, "srp-perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  std::string Host = hostJson(A);
  std::printf("host %s\n", Host.c_str());
  std::fflush(stdout);

  // Set-up: build the inputs and run one untimed warm-up round so lazy
  // pools and caches are filled before timing. The process's own set-up
  // is the first sample; the others set up throwaway instances at
  // moments spread through the untraced phase, so the median does not
  // hang on what the host was doing in the first second of the run.
  std::vector<double> SetUps;
  auto SetUp = [&](Workload &Inst) {
    double Start = wallNow();
    Inst.setUp(A.Seed);
    Inst.runRound(nullptr);
    Inst.clearRecords();
    SetUps.push_back(wallNow() - Start);
  };
  SetUp(*W);
  auto SetUpAnother = [&] { SetUp(*makeWorkload(A.Workload, A.Root)); };

  Tracer T;
  Phase P = runPhase(*W, A.Seconds, A.Trace ? &T : nullptr, SetUpAnother,
                     A.Trace ? 0 : SetUpSamples - 1);
  uint64_t Failed = W->check(A.Trace ? &T : nullptr);
  if (A.Trace)
    W->deriveLayers(T);

  uint64_t Attempted = P.Ops;
  std::map<std::string, double> Info;
  W->info(Info);
  Info["distinct_ops"] = double(W->distinctOps());
  Info["rounds"] = double(P.Rounds);
  Info["sim_cycles"] = double(W->simCycles());
  std::vector<Metric> Ms;
  if (A.Trace) {
    layerInfo(T, Info);
    Ms = layerMetrics(T, *W, P);
    if (!A.TraceOut.empty() && !T.write(A.TraceOut, Host, A.Workload)) {
      std::fprintf(stderr, "srp-perfbench: cannot write '%s'\n",
                   A.TraceOut.c_str());
      return 2;
    }
  } else {
    Ms = {
        {"setup_s", "s", percentile(SetUps, 0.5)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"ops_per_s", "op/s", P.opsPerSecond()},
        {"cpu_ms_per_op", "ms", P.cpuMsPerOp()},
        {"op_p50_ms", "ms", P.opP50Ms()},
        {"op_p90_ms", "ms", P.opP90Ms()},
        {"sim_cycles", "cycles", double(W->simCycles())},
    };
  }
  std::printf("info %s\n", infoJson(Info).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed, metricsJson(Ms).c_str());
  return 0;
}

int runSelfTest(const Args &A) {
  std::printf("host %s\n", hostJson(A).c_str());
  unsigned Problems = 0;
  for (const char *Name : WorkloadNames) {
    std::unique_ptr<Workload> W = makeWorkload(Name, A.Root);
    W->setUp(A.Seed);
    W->runRound(nullptr);
    Tracer T;
    W->runRound(&T);
    uint64_t Failed = W->check(&T);
    W->deriveLayers(T);
    std::string Log;
    unsigned Missed = W->selfTestNegatives(Log);
    std::printf("%s: %llu failed ops, %zu spans, sim_cycles %llu, %u missed "
                "perturbations\n%s",
                Name, (unsigned long long)Failed, T.spans().size(),
                (unsigned long long)W->simCycles(), Missed, Log.c_str());
    Problems += (Failed != 0) + Missed;
  }
  std::printf("self-test %s\n", Problems ? "FAILED" : "passed");
  return Problems ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  return A.SelfTest ? runSelfTest(A) : runBenchmark(A);
}
