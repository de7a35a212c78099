//===- ServeProtocolTest.cpp - Serve protocol end-to-end tests ------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end round-trips against an in-process ServerCore, plus a real
/// socketpair transport: well-formed requests, the whole documented
/// error taxonomy (malformed JSON, unknown fields, oversized programs,
/// out-of-range scales — all status 2, mirroring srp-run's exit codes),
/// half-closed connections, frame-decoder edge cases, counter
/// fingerprints byte-identical to direct runPipeline, and per-request
/// stats epochs. The server must answer every abuse with one JSON error
/// frame — never silence, never an abort.
///
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Serve.h"
#include "support/JSONReader.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace srp;
using namespace srp::core;

namespace {

ServeOptions testOptions() {
  ServeOptions O;
  O.Threads = 2;
  O.Workloads = workloads::standardWorkloads();
  return O;
}

/// Parses a response frame and returns result.status (-1 on shape
/// violations, which EXPECT separately).
int64_t statusOf(const std::string &Response) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
    return -1;
  const JSONValue *Result = Doc.find("result");
  if (!Result || !Result->isObject())
    return -1;
  const JSONValue *Status = Result->find("status");
  return Status && Status->isUint() ? int64_t(Status->asUint()) : -1;
}

std::string_view resultTail(std::string_view Response) {
  size_t At = Response.find("\"result\":");
  return At == std::string_view::npos ? Response : Response.substr(At);
}

TEST(ServeProtocol, PingStatsShutdown) {
  ServerCore Core(testOptions());
  std::string Pong = Core.handle("{\"id\":\"a\",\"op\":\"ping\"}");
  EXPECT_EQ(Pong,
            "{\"id\":\"a\",\"cached\":false,\"result\":{\"status\":0,"
            "\"ok\":true,\"pong\":true}}");

  std::string Stats = Core.handle("{\"op\":\"stats\"}");
  EXPECT_EQ(statusOf(Stats), 0);
  EXPECT_NE(Stats.find("serve.requests"), std::string::npos);

  EXPECT_FALSE(Core.shutdownRequested());
  std::string Bye = Core.handle("{\"op\":\"shutdown\"}");
  EXPECT_EQ(statusOf(Bye), 0);
  EXPECT_TRUE(Core.shutdownRequested());
}

// Every documented abuse maps to a status-2 error response with the
// request id echoed when one was parseable — exactly srp-run's usage
// exit code, surfaced per request instead of per process.
TEST(ServeProtocol, ErrorTaxonomyIsStatus2) {
  ServerCore Core(testOptions());
  const char *Abuses[] = {
      "{ not json",
      "[1,2,3]",
      "\"just a string\"",
      "{\"op\":\"ping\",\"op\":\"ping\"}",          // duplicate key
      "{\"op\":\"frobnicate\"}",                    // unknown op
      "{}",                                         // missing op
      "{\"op\":12}",                                // op type
      "{\"id\":7,\"op\":\"ping\"}",                 // non-string id
      "{\"op\":\"ping\",\"extra\":1}",              // unknown field
      "{\"op\":\"run\"}",                           // no target
      "{\"op\":\"run\",\"workload\":\"gzip\",\"program\":\"x\"}",
      "{\"op\":\"run\",\"workload\":\"nope\"}",     // unknown workload
      "{\"op\":\"run\",\"workload\":12}",           // workload type
      "{\"op\":\"run\",\"workload\":\"gzip\",\"train_scale\":0}",
      "{\"op\":\"run\",\"workload\":\"gzip\",\"ref_scale\":100000}",
      "{\"op\":\"run\",\"program\":\"global x\"}",  // parse error
      "{\"op\":\"run\",\"workload\":\"gzip\",\"stats\":\"yes\"}",
      "{\"op\":\"run\",\"workload\":\"gzip\",\"config\":[]}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"strategy\":\"turbo\"}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"mystery\":true}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"alat_entries\":0}}",           // invalid geometry
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"alat_entries\":48,\"alat_ways\":5}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"disable_passes\":[\"warp\"]}}",
      "{\"op\":\"run\",\"program\":\"g\",\"train_scale\":2}",
  };
  for (const char *Abuse : Abuses) {
    std::string Response = Core.handle(Abuse);
    EXPECT_EQ(statusOf(Response), 2) << Abuse << " -> " << Response;
    EXPECT_NE(Response.find("\"error\":"), std::string::npos) << Response;
  }
  // Abuse never poisons the cache or the server: a good request still
  // works and nothing was cached.
  EXPECT_EQ(Core.cache().stats().Insertions, 0u);
  EXPECT_EQ(statusOf(Core.handle("{\"op\":\"ping\"}")), 0);
}

TEST(ServeProtocol, OversizedProgramRejected) {
  ServeOptions O = testOptions();
  O.MaxProgramBytes = 64;
  ServerCore Core(std::move(O));
  std::string Request = "{\"op\":\"run\",\"program\":\"";
  Request.append(200, 'g');
  Request += "\"}";
  std::string Response = Core.handle(Request);
  EXPECT_EQ(statusOf(Response), 2);
  EXPECT_NE(Response.find("exceeds"), std::string::npos) << Response;
}

// The served counter fingerprint must be byte-identical to what a
// standalone run of the same (workload, config) computes — the serving
// layer can cache and batch, but never perturb, a pipeline.
TEST(ServeProtocol, FingerprintMatchesDirectPipeline) {
  Workload W = workloads::gzipWorkload();
  W.TrainScale = 1;
  W.RefScale = 2;
  PipelineConfig Config = configFor(pre::PromotionConfig::alat());
  PipelineResult R = runPipeline(W, Config);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Expected = formatString(
      "\"fingerprint\":\"%llu/%llu/%llu|%u-%u-%u\"",
      (unsigned long long)R.Sim.Counters.Cycles,
      (unsigned long long)R.Sim.Counters.Instructions,
      (unsigned long long)R.Sim.Counters.RetiredLoads,
      R.Promotion.PromotedExprs, R.Promotion.loadsRemoved(),
      R.Promotion.ChecksInserted + R.Promotion.CascadeChecks);

  ServerCore Core(testOptions());
  std::string Response = Core.handle(
      "{\"op\":\"run\",\"workload\":\"gzip\",\"train_scale\":1,"
      "\"ref_scale\":2,\"config\":{\"strategy\":\"alat\"}}");
  EXPECT_EQ(statusOf(Response), 0);
  EXPECT_NE(Response.find(Expected), std::string::npos)
      << "wanted " << Expected << " in " << Response;
}

// A batch of pipelined frames answers in input order, repeats served
// from cache byte-identically.
TEST(ServeProtocol, BatchKeepsOrderAndCaches) {
  ServerCore Core(testOptions());
  std::vector<std::string> Lines = {
      "{\"id\":\"0\",\"op\":\"ping\"}",
      "{\"id\":\"1\",\"op\":\"run\",\"workload\":\"vpr\",\"train_scale\":1,"
      "\"ref_scale\":2}",
      "{\"id\":\"2\",\"op\":\"run\",\"workload\":\"vpr\",\"train_scale\":1,"
      "\"ref_scale\":2}",
      "{\"id\":\"3\",\"op\":\"nope\"}",
  };
  std::vector<std::string> Responses = Core.handleBatch(Lines);
  ASSERT_EQ(Responses.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Responses[I].substr(0, 9),
              formatString("{\"id\":\"%zu\"", I));
  EXPECT_EQ(resultTail(Responses[1]), resultTail(Responses[2]));
  EXPECT_EQ(statusOf(Responses[3]), 2);
  // Concurrent identical cold requests may each run the pipeline (both
  // miss), but at least one result landed in the cache and a repeat is
  // a hit.
  std::string Warm = Core.handle(Lines[1]);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
}

// Per-request stats epochs: a request's "stats" echo describes that
// request alone, not the process's cumulative registry. A cold compile
// on a fresh server runs the train profile once (one profile-cache
// miss); a cached repeat of the same request records none of it; and
// the cold epoch is identical across fresh servers (modulo the
// wall-clock pass timings, which are the one documented
// nondeterministic family).
TEST(ServeProtocol, StatsEpochIsPerRequest) {
  const char *Request =
      "{\"op\":\"run\",\"workload\":\"mcf\",\"train_scale\":1,"
      "\"ref_scale\":2,\"stats\":true}";
  auto EpochCounter = [](const std::string &Response,
                         const char *Name) -> int64_t {
    JSONValue Doc;
    std::string Error;
    if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
      return -1;
    const JSONValue *Stats = Doc.find("stats");
    if (!Stats || !Stats->isObject())
      return -1;
    const JSONValue *V = Stats->find(Name);
    if (!V)
      return 0;
    return V->isUint() ? int64_t(V->asUint()) : -1;
  };

  ServerCore A(testOptions());
  std::string ColdA = A.handle(Request);
  ASSERT_EQ(statusOf(ColdA), 0);
  int64_t MissesA = EpochCounter(ColdA, "profile.cache.misses");
  EXPECT_EQ(MissesA, 1) << ColdA;

  // Same request on a fresh server: same epoch counters (determinism).
  ServerCore B(testOptions());
  std::string ColdB = B.handle(Request);
  EXPECT_EQ(MissesA, EpochCounter(ColdB, "profile.cache.misses"));

  // The cached repeat runs no pipeline: its epoch has a result-cache hit
  // and no profile work, however much the process has accumulated.
  std::string Warm = A.handle(Request);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(EpochCounter(Warm, "profile.cache.misses"), 0);
  EXPECT_EQ(EpochCounter(Warm, "serve.cache.hits"), 1);
}

TEST(LineSplitterTest, SplitsAcrossChunks) {
  LineSplitter S(/*MaxLineBytes=*/64);
  std::vector<std::string> Frames;
  EXPECT_EQ(S.feed("abc", Frames), 0u);
  EXPECT_EQ(S.feed("def\nsecond\nthi", Frames), 0u);
  EXPECT_EQ(S.feed("rd\n", Frames), 0u);
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0], "abcdef");
  EXPECT_EQ(Frames[1], "second");
  EXPECT_EQ(Frames[2], "third");
  std::string Partial;
  EXPECT_FALSE(S.finish(Partial));
}

TEST(LineSplitterTest, OversizedFrameDropsAndResyncs) {
  LineSplitter S(/*MaxLineBytes=*/8);
  std::vector<std::string> Frames;
  size_t Dropped = S.feed(std::string(100, 'x'), Frames);
  Dropped += S.feed(std::string(100, 'x'), Frames); // still same frame
  EXPECT_EQ(Dropped, 1u);
  Dropped += S.feed("tail\nok\n", Frames);
  EXPECT_EQ(Dropped, 1u);
  ASSERT_EQ(Frames.size(), 1u); // resynchronized at the newline
  EXPECT_EQ(Frames[0], "ok");
}

TEST(LineSplitterTest, UnterminatedTailIsReported) {
  LineSplitter S(/*MaxLineBytes=*/64);
  std::vector<std::string> Frames;
  S.feed("complete\npartial", Frames);
  ASSERT_EQ(Frames.size(), 1u);
  std::string Partial;
  EXPECT_TRUE(S.finish(Partial));
  EXPECT_EQ(Partial, "partial");
  // finish() resets: a fresh stream starts clean.
  EXPECT_FALSE(S.finish(Partial));
}

/// Reads everything until EOF from \p Fd.
std::string drain(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, size_t(N));
  return Out;
}

// A real transport round-trip over a socketpair, including pipelined
// frames and a half-closed connection cutting the last frame short:
// the client still receives one response per complete frame plus the
// documented mid-frame error, then EOF.
TEST(ServeProtocol, SocketTransportAndHalfClose) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ServerCore Core(testOptions());
  std::thread Server([&Core, &Fds] { serveConnection(Core, Fds[0]); });

  std::string Burst = "{\"id\":\"x\",\"op\":\"ping\"}\n"
                      "{\"id\":\"y\",\"op\":\"nope\"}\n"
                      "{\"id\":\"z\",\"op\":\"run\",\"workload\""; // cut
  ASSERT_EQ(::send(Fds[1], Burst.data(), Burst.size(), 0),
            ssize_t(Burst.size()));
  ::shutdown(Fds[1], SHUT_WR); // half-close mid-frame

  std::string Wire = drain(Fds[1]);
  Server.join();
  ::close(Fds[1]);

  std::vector<std::string> Responses;
  for (size_t Pos = 0; Pos < Wire.size();) {
    size_t Newline = Wire.find('\n', Pos);
    ASSERT_NE(Newline, std::string::npos);
    Responses.push_back(Wire.substr(Pos, Newline - Pos));
    Pos = Newline + 1;
  }
  ASSERT_EQ(Responses.size(), 3u) << Wire;
  EXPECT_EQ(statusOf(Responses[0]), 0);
  EXPECT_NE(Responses[0].find("\"id\":\"x\""), std::string::npos);
  EXPECT_EQ(statusOf(Responses[1]), 2);
  EXPECT_EQ(statusOf(Responses[2]), 2); // the cut frame's error
  EXPECT_NE(Responses[2].find("mid-frame"), std::string::npos)
      << Responses[2];
}

// Inline-program mode: a tiny program compiles, simulates, and caches;
// its output rides in the response.
TEST(ServeProtocol, InlineProgramRuns) {
  const char *Program = "global a : int\\n\\nfunc main() -> int {\\nentry:\\n"
                        "  st a = 7\\n  t0 = ld a\\n  t1 = add t0, 35\\n"
                        "  print t1\\n  ret t1\\n}\\n";
  ServerCore Core(testOptions());
  std::string Request =
      std::string("{\"id\":\"p\",\"op\":\"run\",\"program\":\"") + Program +
      "\"}";
  std::string Cold = Core.handle(Request);
  EXPECT_EQ(statusOf(Cold), 0) << Cold;
  EXPECT_NE(Cold.find("\"output\":[\"42\"]"), std::string::npos) << Cold;
  EXPECT_NE(Cold.find("\"exit_value\":42"), std::string::npos) << Cold;

  std::string Warm = Core.handle(Request);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(resultTail(Warm), resultTail(Cold));

  // Whitespace-different but canonically identical program: same cache
  // entry (content addressing is over canonical text, not input bytes).
  std::string Spaced = Request;
  size_t At = Spaced.find("st a = 7");
  ASSERT_NE(At, std::string::npos);
  Spaced.insert(At + 8, "   ");
  std::string AlsoWarm = Core.handle(Spaced);
  EXPECT_NE(AlsoWarm.find("\"cached\":true"), std::string::npos)
      << AlsoWarm;
}

// A void main has no exit value: the response reports 0 even though the
// return register still holds what the last callee returned.
TEST(ServeProtocol, VoidMainExitValueIsZero) {
  const char *Program = "func helper() -> int {\\nentry:\\n  ret 41\\n}\\n\\n"
                        "func main() {\\nentry:\\n  t0 = call helper()\\n"
                        "  print t0\\n  ret\\n}\\n";
  ServerCore Core(testOptions());
  std::string Response = Core.handle(
      std::string("{\"id\":\"v\",\"op\":\"run\",\"program\":\"") + Program +
      "\"}");
  EXPECT_EQ(statusOf(Response), 0) << Response;
  EXPECT_NE(Response.find("\"output\":[\"41\"]"), std::string::npos)
      << Response;
  EXPECT_NE(Response.find("\"exit_value\":0,"), std::string::npos)
      << Response;
}

// A parseable program whose chk.a check code generation cannot lower
// (a two-level chain) is a status-2 verify error naming the line, not
// an abort of the server.
TEST(ServeProtocol, UnlowerableCheckIsStatus2) {
  const char *Program =
      "global a : int\\nglobal q : int\\nglobal pp : int\\n\\n"
      "func main() -> int {\\nentry:\\n  t1 = addrof a\\n  st q = t1\\n"
      "  t2 = addrof q\\n  st pp = t2\\n"
      "  t7 = ld<ld.a> **pp addr->t20\\n"
      "  t7 = ld<chk.a.clr> **pp @addr(t20)\\n  print t7\\n  ret t7\\n}\\n";
  ServerCore Core(testOptions());
  std::string Response = Core.handle(
      std::string("{\"id\":\"c\",\"op\":\"run\",\"program\":\"") +
      Program + "\"}");
  EXPECT_EQ(statusOf(Response), 2) << Response;
  EXPECT_NE(Response.find("line 12"), std::string::npos) << Response;
  EXPECT_NE(Response.find("chk.a check must be a depth-1 load"),
            std::string::npos)
      << Response;
  // The server is still up.
  EXPECT_EQ(statusOf(Core.handle("{\"op\":\"ping\"}")), 0);
}

} // namespace
