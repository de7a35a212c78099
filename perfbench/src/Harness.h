//===- Harness.h - Workload interface and shared helpers --------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A benchmark workload runs *rounds*: whole passes over a fixed list of
/// distinct ops (a grid, a program list, a request mix). main.cpp sets
/// the workload up several times, runs rounds until the run length is
/// reached, then asks it to check every op it ran. Each round times only
/// its ops; bookkeeping for the checks happens after the round's clocks
/// stop.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_HARNESS_H
#define SRP_PERFBENCH_HARNESS_H

#include "Trace.h"

#include "core/Pass.h"
#include "core/Pipeline.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Wall and CPU time of one round's timed part, plus its op latencies.
struct RoundTiming {
  double WallS = 0, CpuS = 0;
  std::vector<double> OpMs;
};

/// Starts both clocks on construction; stop() stores the elapsed times.
class RoundClock {
public:
  RoundClock() : Wall(wallNow()), Cpu(cpuNow()) {}
  void stop(RoundTiming &RT) const {
    RT.WallS = wallNow() - Wall;
    RT.CpuS = cpuNow() - Cpu;
  }

private:
  double Wall, Cpu;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Worker threads the timed ops use.
  virtual unsigned workers() const = 0;
  /// Distinct ops (grid pipelines, programs, requests) per round.
  virtual size_t distinctOps() const = 0;
  /// Builds inputs and long-lived state from \p Seed. Called several
  /// times per process (set-up time is reported as a median); each call
  /// starts over.
  virtual void setUp(uint64_t Seed) = 0;
  /// Runs one round. With \p T set, the ops are instrumented variants
  /// that record spans around the program's pass boundaries.
  virtual RoundTiming runRound(Tracer *T) = 0;
  /// Forgets the ops recorded so far (warm-up rounds are not counted).
  virtual void clearRecords() = 0;
  /// Checks every recorded op against an independent computation made
  /// once per distinct op, and returns how many recorded ops failed.
  /// Spans for that computation go to \p T when set.
  virtual uint64_t check(Tracer *T) = 0;
  /// Simulated cycles over one pass of the distinct ops (valid after
  /// check()).
  virtual uint64_t simCycles() const = 0;
  /// Traced run only: runs whatever extra calls the per-layer metrics
  /// of this workload need, once per distinct op.
  virtual void deriveLayers(Tracer &T) {}
  /// Workload-specific figures for the info line (name -> value).
  virtual void info(std::map<std::string, double> &Out) const {}
  /// Self-test: feeds each of this workload's checks a perturbed value
  /// and returns the number of perturbations the checks missed.
  /// Precondition: at least one round was recorded.
  virtual unsigned selfTestNegatives(std::string &Log) = 0;
};

std::unique_ptr<Workload> makePaperGrid();
std::unique_ptr<Workload> makeGridParallel();
std::unique_ptr<Workload> makeOracleFuzz();
std::unique_ptr<Workload> makeServeMix(const std::string &Root);

/// Runs the standard passes over a fresh PipelineState that \p Init
/// fills in (workload or module mode), with a decode step split out
/// after regalloc: what core::runPipeline does, made observable. With
/// \p T set, records a span named \p SpanName (parent \p Parent) that
/// covers the state's whole lifetime, one child span per pass at the
/// pass-manager boundaries, and the simulated instruction count.
srp::core::PipelineResult
runStandardPasses(const std::function<void(srp::core::PipelineState &)> &Init,
                  Tracer *T, const char *SpanName, uint32_t Parent,
                  uint64_t Op);

/// Every deterministic field of a pipeline result (counters, promotion
/// and allocation statistics, exit value, output), serialized: equal
/// strings mean equal results.
std::string resultKey(const srp::core::PipelineResult &R);

/// The cycles/instructions/loads|exprs-removed-checks fingerprint, as a
/// standalone run reports it (DESIGN.md §8).
std::string fingerprintOf(const srp::core::PipelineResult &R);

/// Hash of a program output.
uint64_t outputHash(const std::vector<std::string> &Output);

/// Nearest-rank percentile (\p P in [0, 1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);

/// The paper's three strategies, in figure order.
std::vector<std::pair<std::string, srp::core::PipelineConfig>>
paperStrategies();

} // namespace perfbench

#endif // SRP_PERFBENCH_HARNESS_H
