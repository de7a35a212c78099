//===- ServeMix.cpp - serve-mix workload ----------------------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One in-process, closed-loop client calling core::ServerCore::handle
/// with one pipeline slot. The distinct requests are the ten standard
/// workloads x three strategies x ALAT sizes {16, 32} at train 1 / ref 2,
/// plus every examples/sir/*.sir and fuzz-repros/*.sir program sent
/// inline under each strategy. A round sends each request three times in
/// a seeded shuffle to a fresh ServerCore, so one answer in three is
/// computed and two should come from the result cache.
///
/// Checks: every response has status 0, and every response's result
/// body is byte-identical to the first answer recorded for its request
/// (repeats within a round and recomputations in later rounds alike).
/// After the timed phase, each distinct request is run once without the
/// server — runPipeline for a named workload, the standard passes in
/// module mode for a parsed program — and the recorded answer's
/// fingerprint must equal that run's, and its output the interpreter's.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/ProfileCache.h"
#include "core/Serve.h"
#include "interp/Interpreter.h"
#include "ir/CFG.h"
#include "ir/Fingerprint.h"
#include "ir/Parser.h"
#include "support/JSONReader.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace srp;

namespace {

constexpr unsigned RepeatsPerRequest = 3;
constexpr uint64_t RefScale = 2;
constexpr unsigned AlatSizes[] = {16, 32};

std::string jsonString(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", unsigned(C));
      else
        Out += C;
    }
  }
  return Out + "\"";
}

class ServeMixWorkload : public Workload {
public:
  explicit ServeMixWorkload(std::string Root) : Root(std::move(Root)) {}

  unsigned workers() const override { return 1; }
  size_t distinctOps() const override { return Requests.size(); }

  void setUp(uint64_t Seed) override {
    Ws = workloads::standardWorkloads();
    Requests.clear();
    for (const core::Workload &W : Ws)
      for (const auto &[Strategy, C] : paperStrategies())
        for (unsigned Entries : AlatSizes) {
          Request R;
          R.Workload = &W;
          R.Config = C;
          R.Config.Sim.Alat.Entries = Entries;
          R.Line = formatString(
              "{\"id\":\"%s/%s/%u\",\"op\":\"run\",\"workload\":\"%s\","
              "\"train_scale\":1,\"ref_scale\":%llu,\"config\":{"
              "\"strategy\":\"%s\",\"alat_entries\":%u}}",
              W.Name.c_str(), Strategy.c_str(), Entries, W.Name.c_str(),
              (unsigned long long)RefScale, Strategy.c_str(), Entries);
          Requests.push_back(std::move(R));
        }
    for (const char *Dir : {"examples/sir", "fuzz-repros"}) {
      std::vector<std::filesystem::path> Files;
      for (const auto &E :
           std::filesystem::directory_iterator(std::filesystem::path(Root) / Dir))
        if (E.path().extension() == ".sir")
          Files.push_back(E.path());
      std::sort(Files.begin(), Files.end());
      for (const std::filesystem::path &F : Files) {
        std::ifstream In(F, std::ios::binary);
        std::stringstream Text;
        Text << In.rdbuf();
        for (const auto &[Strategy, C] : paperStrategies()) {
          Request R;
          R.Program = Text.str();
          R.Config = C;
          R.Line = "{\"id\":" +
                   jsonString(std::string(Dir) + "/" +
                              F.filename().string() + "/" + Strategy) +
                   ",\"op\":\"run\",\"program\":" + jsonString(R.Program) +
                   ",\"config\":{\"strategy\":\"" + Strategy + "\"}}";
          Requests.push_back(std::move(R));
        }
      }
    }
    Sequence.clear();
    for (unsigned K = 0; K < RepeatsPerRequest; ++K)
      for (size_t I = 0; I < Requests.size(); ++I)
        Sequence.push_back(I);
    Shuffle = RNG(Seed * 0x9e3779b97f4a7c15ULL + 3);
    Opts = core::ServeOptions();
    Opts.Threads = 1;
    Opts.Workloads = Ws;
    FirstBody.assign(Requests.size(), std::string());
    clearRecords();
  }

  RoundTiming runRound(Tracer *T) override {
    for (size_t I = Sequence.size(); I > 1; --I)
      std::swap(Sequence[I - 1], Sequence[Shuffle.nextBelow(I)]);
    RoundTiming RT;
    std::vector<std::string> Responses(Sequence.size());
    {
      core::ServerCore Core(Opts);
      SpanScope Round(T, "round", 0, 0);
      RoundClock Clock;
      for (size_t K = 0; K < Sequence.size(); ++K) {
        double Start = wallNow();
        {
          SpanScope Op(T, "core.handle", Round.id(), ++NextOp);
          Responses[K] = Core.handle(Requests[Sequence[K]].Line);
        }
        RT.OpMs.push_back((wallNow() - Start) * 1e3);
      }
      Clock.stop(RT);
    }
    for (size_t K = 0; K < Sequence.size(); ++K)
      Recs.push_back(recordOf(Sequence[K], Responses[K], RT.OpMs[K]));
    return RT;
  }

  void clearRecords() override { Recs.clear(); }

  uint64_t check(Tracer *T) override {
    ReferenceOk.assign(Requests.size(), false);
    DirectMs.assign(Requests.size(), 0);
    SimCycles = 0;
    core::ProfileCache PC;
    for (size_t I = 0; I < Requests.size(); ++I)
      ReferenceOk[I] = checkFirstAnswer(I, PC, T);
    uint64_t Failed = 0;
    for (const OpRec &R : Recs)
      Failed += !(R.Ok && ReferenceOk[R.Distinct]);
    return Failed;
  }

  uint64_t simCycles() const override { return SimCycles; }

  void deriveLayers(Tracer &T) override {
    for (const Request &R : Requests) {
      if (R.Program.empty())
        continue;
      ir::Module M;
      std::string Error;
      if (!ir::parseModule(R.Program, M, Error))
        continue;
      SpanScope S(&T, "ir.canonicalize", 0, 0);
      (void)ir::canonicalModuleText(M);
    }
  }

  void info(std::map<std::string, double> &Out) const override {
    std::vector<double> Hit, Miss;
    std::vector<std::vector<double>> MissByRequest(Requests.size());
    for (const OpRec &R : Recs) {
      (R.Cached ? Hit : Miss).push_back(R.Ms);
      if (!R.Cached)
        MissByRequest[R.Distinct].push_back(R.Ms);
    }
    Out["hit_p50_us"] = percentile(Hit, 0.5) * 1e3;
    Out["miss_p50_ms"] = percentile(Miss, 0.5);
    Out["miss_p90_ms"] = percentile(Miss, 0.9);
    Out["core.cache_hit_ratio"] =
        Recs.empty() ? 0 : double(Hit.size()) / double(Recs.size());
    // Miss latency minus the direct pipeline run of the same request.
    std::vector<double> Overhead;
    for (size_t I = 0; I < Requests.size(); ++I)
      if (!MissByRequest[I].empty() && DirectMs.size() == Requests.size() &&
          DirectMs[I] > 0)
        Overhead.push_back(percentile(MissByRequest[I], 0.5) - DirectMs[I]);
    Out["core.serve_overhead_ms"] = percentile(Overhead, 0.5);
  }

  unsigned selfTestNegatives(std::string &Log) override {
    unsigned Missed = 0;
    size_t D = 0;
    while (D < FirstBody.size() && FirstBody[D].empty())
      ++D;
    if (D == FirstBody.size()) {
      Log += "  no recorded response to perturb\n";
      return 1;
    }
    std::string Cached = "{\"id\":null,\"cached\":true,\"result\":" +
                         FirstBody[D] + "}";
    if (!recordOf(D, Cached, 0).Ok) {
      Log += "  unperturbed cached response failed its check\n";
      ++Missed;
    }
    std::string Corrupt = Cached;
    size_t Pos = Corrupt.find("\"cycles\":");
    Pos = Pos == std::string::npos ? Corrupt.size() - 2 : Pos + 9;
    Corrupt[Pos] = Corrupt[Pos] == '9' ? '8' : '9';
    bool Caught = !recordOf(D, Corrupt, 0).Ok;
    Log += std::string("  corrupted cached body: ") +
           (Caught ? "caught" : "MISSED") + "\n";
    return Missed + !Caught;
  }

private:
  struct Request {
    const core::Workload *Workload = nullptr; ///< Null: inline program.
    std::string Program;
    core::PipelineConfig Config;
    std::string Line;
  };
  struct OpRec {
    uint32_t Distinct = 0;
    bool Ok = false;
    bool Cached = false;
    double Ms = 0;
  };

  /// Status 0 and a body byte-identical to the request's first recorded
  /// answer (the first call records it).
  OpRec recordOf(size_t Distinct, const std::string &Response, double Ms) {
    OpRec Rec;
    Rec.Distinct = static_cast<uint32_t>(Distinct);
    Rec.Ms = Ms;
    Rec.Cached = Response.find("\"cached\":true") != std::string::npos;
    size_t Pos = Response.find("\"result\":");
    if (Pos == std::string::npos)
      return Rec;
    std::string_view Body = std::string_view(Response).substr(Pos + 9);
    if (!Body.empty() && Body.back() == '}')
      Body.remove_suffix(1);
    if (Body.rfind("{\"status\":0,", 0) != 0)
      return Rec;
    std::string &First = FirstBody[Distinct];
    if (First.empty())
      First = std::string(Body);
    Rec.Ok = Body == First;
    return Rec;
  }

  /// Runs request \p I without the server and compares the first
  /// recorded answer's fingerprint and output with that run.
  bool checkFirstAnswer(size_t I, core::ProfileCache &PC, Tracer *T) {
    const Request &Req = Requests[I];
    JSONValue Body;
    std::string Error;
    if (FirstBody[I].empty() || !parseJSON(FirstBody[I], Body, Error) ||
        !Body.isObject())
      return false;
    const JSONValue *Fp = Body.find("fingerprint");
    const JSONValue *Out = Body.find("output");
    const JSONValue *Counters = Body.find("counters");
    if (!Fp || !Fp->isString() || !Out || !Out->isArray() || !Counters ||
        !Counters->isObject())
      return false;
    if (const JSONValue *C = Counters->find("cycles"); C && C->isUint())
      SimCycles += C->asUint();
    std::vector<std::string> Served;
    for (size_t K = 0; K < Out->size(); ++K) {
      if (!Out->at(K).isString())
        return false;
      Served.push_back(Out->at(K).asString());
    }

    core::PipelineResult Direct;
    std::vector<std::string> Want;
    double Start = wallNow();
    if (Req.Workload) {
      core::Workload W = *Req.Workload;
      W.TrainScale = 1;
      W.RefScale = RefScale;
      Direct = runStandardPasses(
          [&](core::PipelineState &S) {
            S.W = &W;
            S.Config = Req.Config;
            S.ProfCache = &PC;
          },
          T, "core.pipeline", 0, 0);
      DirectMs[I] = (wallNow() - Start) * 1e3;
      SpanScope Ref(T, "interp.reference", 0, 0);
      Want = core::oracleOutput(W, Req.Config.InterpFuel);
    } else {
      ir::Module M, RefM;
      {
        SpanScope P(T, "ir.parse", 0, 0);
        if (!ir::parseModule(Req.Program, M, Error))
          return false;
      }
      Direct = runStandardPasses(
          [&](core::PipelineState &S) {
            S.External = &M;
            S.Config = Req.Config;
          },
          T, "core.pipeline", 0, 0);
      DirectMs[I] = (wallNow() - Start) * 1e3;
      if (!ir::parseModule(Req.Program, RefM, Error))
        return false;
      SpanScope Ref(T, "interp.reference", 0, 0);
      for (unsigned F = 0; F < RefM.numFunctions(); ++F)
        RefM.function(F)->recomputeCFG();
      interp::RunResult R = interp::Interpreter(RefM).run(Req.Config.InterpFuel);
      if (!R.Ok)
        return false;
      Want = std::move(R.Output);
    }
    return Direct.Ok && Fp->asString() == fingerprintOf(Direct) &&
           Served == Want;
  }

  std::string Root;
  std::vector<core::Workload> Ws;
  std::vector<Request> Requests;
  std::vector<size_t> Sequence;
  RNG Shuffle{1};
  core::ServeOptions Opts;
  uint64_t NextOp = 0;
  std::vector<OpRec> Recs;
  std::vector<std::string> FirstBody;
  std::vector<bool> ReferenceOk;
  std::vector<double> DirectMs;
  uint64_t SimCycles = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeMix(const std::string &Root) {
  return std::make_unique<ServeMixWorkload>(Root);
}
