//===- Fuzzer.h - Coverage-guided differential fuzzing loop -----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzing loop behind tools/srp-fuzz. Each iteration is one
/// *replayable triple*:
///
///   (ShapeSeed:ProgSeed, ConfigIndex, FaultSeed)
///
/// ShapeSeed derives the generator's shape (GenOptions::fromSeed),
/// ProgSeed drives the generator itself, ConfigIndex picks a promotion
/// strategy from fuzzConfigs(), and FaultSeed derives the ALAT fault
/// schedules the compiled binary is re-simulated under. Every random
/// decision is a pure function of these seeds, so a finding's triple —
/// printed on failure and replayable with `srp-fuzz --replay` — is a
/// complete repro, independent of thread count and corpus history.
///
/// Guidance: runs whose oracle features (Coverage.h) were new push their
/// ShapeSeed into a corpus; later iterations re-fuzz corpus shapes with
/// fresh program seeds. Batches execute on core::parallelFor and results
/// are folded in input order, keeping coverage, corpus, and findings
/// deterministic for a given (Seed, Iterations, config set).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_FUZZ_FUZZER_H
#define SRP_FUZZ_FUZZER_H

#include "valid/DiffOracle.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace srp::fuzz {

struct FuzzOptions {
  uint64_t Iterations = 1000; ///< Oracle runs (0: until Seconds expires).
  uint64_t Seconds = 0;       ///< Wall-clock budget (0: no limit).
  unsigned Threads = 1;
  uint64_t Seed = 1;          ///< Master seed for the whole campaign.
  bool WithFaults = true;     ///< Derive fault schedules per iteration.
  unsigned FaultPlansPerProgram = 2;
  /// Label a deterministic subset of each generated program's globals
  /// `secret` (a pure function of the iteration's seeds), turning every
  /// oracle run into a static-vs-dynamic taint cross-check: a program the
  /// TaintFlow analysis passes but whose shadow interpretation leaks is a
  /// TaintDisagree finding (an analysis soundness bug).
  bool Taint = false;
  bool Minimize = true;       ///< Delta-debug findings before reporting.
  std::string ReproDir;       ///< Write minimized .sir repros here ("": off).
  size_t MaxFindings = 10;    ///< Stop collecting (not running) past this.
  std::function<void(const std::string &)> Log; ///< Progress sink (may be
                                                ///< null; called from the
                                                ///< coordinator thread).
};

/// One oracle disagreement, with everything needed to reproduce it.
struct Finding {
  valid::MismatchKind Kind = valid::MismatchKind::None;
  std::string Detail;
  std::string FaultContext;
  uint64_t ShapeSeed = 0;
  uint64_t ProgSeed = 0;
  unsigned ConfigIndex = 0;
  std::string ConfigName;
  uint64_t FaultSeed = 0; ///< 0: no faults in this run.
  std::string ModuleText; ///< Minimized when FuzzOptions::Minimize.
  unsigned Statements = 0;
  std::string ReproPath; ///< File written under ReproDir, if any.

  /// The triple as `--replay` accepts it: SHAPE:PROG:CFG:FAULT.
  std::string replayArg() const;
};

struct FuzzResult {
  uint64_t ProgramsRun = 0;
  uint64_t FaultRuns = 0;
  uint64_t NewCoverageEvents = 0; ///< Iterations that found new features.
  size_t CoverageFeatures = 0;    ///< Distinct features at exit.
  std::vector<Finding> Findings;
};

/// The strategy sweep the fuzzer cycles through: every promotion family
/// (conservative, software-checked baseline, ALAT with and without
/// cascade/st.a/at-reuse) plus a capacity-starved ALAT geometry.
struct FuzzConfig {
  std::string Name;
  core::PipelineConfig Config;
};
const std::vector<FuzzConfig> &fuzzConfigs();

/// Runs the campaign.
FuzzResult runFuzzer(const FuzzOptions &Opts);

/// Re-runs one triple exactly as the campaign would have. Pass the same
/// \p Taint the campaign ran with — secret labels are part of the
/// program, so a --taint finding replays only under --taint.
valid::OracleReport replayTriple(uint64_t ShapeSeed, uint64_t ProgSeed,
                                 unsigned ConfigIndex, uint64_t FaultSeed,
                                 unsigned FaultPlansPerProgram = 2,
                                 bool Taint = false);

/// Delta-debugs \p Text (a program failing the oracle with \p Kind under
/// the triple's config and fault seed) to a small program failing the
/// same way. Candidates that read a temp not defined on every path are
/// rejected (readsUndefinedTemp), so the repro keeps the original fault.
std::string minimizeFinding(const std::string &Text, unsigned ConfigIndex,
                            uint64_t FaultSeed,
                            unsigned FaultPlansPerProgram,
                            valid::MismatchKind Kind);

/// Parses "SHAPE:PROG:CFG:FAULT" (decimal or 0x hex). Returns false on
/// malformed input.
bool parseReplayArg(const std::string &Arg, uint64_t &ShapeSeed,
                    uint64_t &ProgSeed, unsigned &ConfigIndex,
                    uint64_t &FaultSeed);

/// The generated program of a (shape, prog) pair, as .sir text (with the
/// deterministic secret labels when \p Taint is set — the printer
/// round-trips them, so repro files reproduce taint findings).
std::string generatedProgramText(uint64_t ShapeSeed, uint64_t ProgSeed,
                                 bool Taint = false);

/// Marks a deterministic subset of \p M's globals secret (each with
/// probability 1/4, at least one when any global exists), as a pure
/// function of \p Seed. The fuzzer's --taint mode applies this to every
/// generated program.
void labelRandomSecrets(ir::Module &M, uint64_t Seed);

} // namespace srp::fuzz

#endif // SRP_FUZZ_FUZZER_H
