//===- OracleFuzz.cpp - oracle-fuzz workload ------------------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed sequence of generated programs through fuzz::replayTriple, the
/// full differential check srp-fuzz runs per program. The programs come
/// from a fixed master seed so every run measures the same code shapes;
/// --seed picks the ALAT fault schedules (two plans per program) and the
/// op order. Program i uses fuzzConfigs()[i % N] and carries secret
/// labels when i is odd.
///
/// Checks: every OracleReport is Ok (promoted code agrees with the
/// unpromoted interpreter on output, exit value and final globals, also
/// under the injected faults) and repeats of a triple report the same
/// evidence. After the timed phase each program is also generated as
/// text, parsed, interpreted, and compiled once through the standard
/// passes in module mode; the simulated output must equal the
/// interpretation's, and its cycles make up sim_cycles.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "fuzz/Fuzzer.h"
#include "interp/Interpreter.h"
#include "ir/CFG.h"
#include "ir/Parser.h"
#include "support/Hash.h"
#include "support/RNG.h"

#include <numeric>

using namespace perfbench;
using namespace srp;

namespace {

/// Programs per round: 16 per fuzz config, a round of about a quarter
/// of a second.
constexpr size_t NumPrograms = 128;
constexpr uint64_t ProgramMasterSeed = 0x51ed5eedULL;
constexpr unsigned FaultPlansPerProgram = 2;

class OracleFuzzWorkload : public Workload {
public:
  unsigned workers() const override { return 1; }
  size_t distinctOps() const override { return Triples.size(); }

  void setUp(uint64_t Seed) override {
    size_t NumConfigs = fuzz::fuzzConfigs().size();
    RNG Programs(ProgramMasterSeed);
    RNG Faults(Seed * 0x9e3779b97f4a7c15ULL + 7);
    Triples.clear();
    for (size_t I = 0; I < NumPrograms; ++I) {
      Triple T;
      T.Shape = Programs.next();
      T.Prog = Programs.next();
      T.Config = static_cast<unsigned>(I % NumConfigs);
      T.Fault = Faults.next() | 1; // nonzero: fault plans enabled
      T.Taint = I % 2 == 1;
      Triples.push_back(T);
    }
    Order.resize(NumPrograms);
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Faults.nextBelow(I)]);
    clearRecords();
  }

  RoundTiming runRound(Tracer *T) override {
    RoundTiming RT;
    std::vector<valid::OracleReport> Reports(Triples.size());
    {
      SpanScope Round(T, "round", 0, 0);
      RoundClock Clock;
      for (size_t I : Order) {
        const Triple &Tr = Triples[I];
        double Start = wallNow();
        {
          SpanScope Op(T, "fuzz.replayTriple", Round.id(), ++NextOp);
          Reports[I] = fuzz::replayTriple(Tr.Shape, Tr.Prog, Tr.Config,
                                          Tr.Fault, FaultPlansPerProgram,
                                          Tr.Taint);
        }
        RT.OpMs.push_back((wallNow() - Start) * 1e3);
      }
      Clock.stop(RT);
    }
    for (size_t I = 0; I < Reports.size(); ++I)
      Recs.push_back(recordOf(I, Reports[I]));
    return RT;
  }

  void clearRecords() override { Recs.clear(); }

  uint64_t check(Tracer *T) override {
    computeReferences(T);
    uint64_t Failed = 0;
    for (const OpRec &R : Recs)
      Failed += !(R.Ok && CompiledOk[R.Distinct] &&
                  R.Evidence == RefEvidence[R.Distinct]);
    return Failed;
  }

  uint64_t simCycles() const override { return SimCycles; }

  unsigned selfTestNegatives(std::string &Log) override {
    const Triple &Tr = Triples.front();
    valid::OracleReport Rep = fuzz::replayTriple(
        Tr.Shape, Tr.Prog, Tr.Config, Tr.Fault, FaultPlansPerProgram, Tr.Taint);
    unsigned Missed = 0;
    if (!recordOf(0, Rep).Ok) {
      Log += "  unperturbed oracle report failed its check\n";
      ++Missed;
    }
    valid::OracleReport Forged = Rep;
    Forged.Ok = false;
    Forged.Kind = valid::MismatchKind::OutputDiverged;
    Forged.Detail = "forged finding";
    bool Caught = !recordOf(0, Forged).Ok;
    Log += std::string("  forged oracle finding: ") +
           (Caught ? "caught" : "MISSED") + "\n";
    return Missed + !Caught;
  }

private:
  struct Triple {
    uint64_t Shape = 0, Prog = 0, Fault = 0;
    unsigned Config = 0;
    bool Taint = false;
  };
  struct OpRec {
    uint32_t Distinct = 0;
    bool Ok = false;
    uint64_t Evidence = 0;
  };

  static OpRec recordOf(size_t Distinct, const valid::OracleReport &R) {
    OpRec Rec;
    Rec.Distinct = static_cast<uint32_t>(Distinct);
    Rec.Ok = R.Ok && R.Kind == valid::MismatchKind::None;
    uint64_t H = fnv1a64(R.SpeculativeAccesses, Fnv1a64Offset);
    H = fnv1a64(R.FaultPlansRun, H);
    H = fnv1a64(R.StaticTaintDiags, H);
    H = fnv1a64(R.DynamicTaintLeaks, H);
    H = fnv1a64(R.Promotion.PromotedExprs, H);
    H = fnv1a64(R.Promotion.loadsRemoved(), H);
    H = fnv1a64(R.Promotion.ChecksInserted + R.Promotion.CascadeChecks, H);
    Rec.Evidence = H;
    return Rec;
  }

  /// Once per program: the first recorded evidence, and the module-mode
  /// compile-and-simulate check against a separate interpretation.
  void computeReferences(Tracer *T) {
    RefEvidence.assign(Triples.size(), 0);
    std::vector<bool> Have(Triples.size(), false);
    for (const OpRec &R : Recs)
      if (!Have[R.Distinct]) {
        Have[R.Distinct] = true;
        RefEvidence[R.Distinct] = R.Evidence;
      }
    CompiledOk.assign(Triples.size(), false);
    SimCycles = 0;
    for (size_t I = 0; I < Triples.size(); ++I) {
      const Triple &Tr = Triples[I];
      const core::PipelineConfig &Config =
          fuzz::fuzzConfigs()[Tr.Config].Config;
      std::string Text;
      {
        SpanScope S(T, "fuzz.generate", 0, 0);
        Text = fuzz::generatedProgramText(Tr.Shape, Tr.Prog, Tr.Taint);
      }
      ir::Module Ref, M;
      std::string Error;
      bool Parsed;
      {
        SpanScope S(T, "ir.parse", 0, 0);
        Parsed = ir::parseModule(Text, Ref, Error);
      }
      if (!Parsed || !ir::parseModule(Text, M, Error))
        continue;
      interp::RunResult Want;
      {
        SpanScope S(T, "interp.reference", 0, 0);
        for (unsigned F = 0; F < Ref.numFunctions(); ++F)
          Ref.function(F)->recomputeCFG();
        Want = interp::Interpreter(Ref).run(Config.InterpFuel);
      }
      core::PipelineResult R = runStandardPasses(
          [&](core::PipelineState &S) {
            S.External = &M;
            S.Config = Config;
          },
          T, "core.pipeline", 0, 0);
      // A void main leaves the simulator's exit value undefined.
      const ir::Function *Main = Ref.findFunction("main");
      bool MainReturns = Main && Main->HasReturnValue;
      CompiledOk[I] = Want.Ok && R.Ok && R.Output == Want.Output &&
                      (!MainReturns || R.Sim.ExitValue == Want.ExitValue);
      SimCycles += R.Sim.Counters.Cycles;
    }
  }

  std::vector<Triple> Triples;
  std::vector<size_t> Order;
  uint64_t NextOp = 0;
  std::vector<OpRec> Recs;
  std::vector<uint64_t> RefEvidence;
  std::vector<bool> CompiledOk;
  uint64_t SimCycles = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeOracleFuzz() {
  return std::make_unique<OracleFuzzWorkload>();
}
