//===- tests/serve/ServeProtocolTest.cpp ----------------------------------===//
//
// The serving stack bottom-up: the hardened JSON reader, the compiled-plan
// LRU cache (hit/miss accounting, key discrimination, eviction, poisoned
// requests never cached), the transport-free request handler, and the
// socket layer end to end over both AF_UNIX and loopback TCP — including
// the framing defenses (oversized frame, garbage JSON, blank lines,
// mid-request disconnects) and cost-model admission control.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ServeTestUtil.h"
#include "serve/Json.h"
#include "serve/PlanCache.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::serve;
using namespace serve_test;
using support::ErrorCode;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(ServeJson, ParsesTheProtocolShapes) {
  auto V = parseJson(
      R"({"chain":"text","size":32,"warm":true,"x":null,"arr":[1,2.5,-3e2]})");
  ASSERT_TRUE(bool(V));
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->find("chain")->asString(), "text");
  EXPECT_EQ(V->find("size")->asInt(), 32);
  EXPECT_TRUE(V->find("warm")->asBool());
  EXPECT_TRUE(V->find("x")->isNull());
  ASSERT_TRUE(V->find("arr")->isArray());
  ASSERT_EQ(V->find("arr")->Items.size(), 3u);
  EXPECT_DOUBLE_EQ(V->find("arr")->Items[1].asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(V->find("arr")->Items[2].asDouble(), -300.0);
  EXPECT_EQ(V->find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapes) {
  auto V = parseJson(R"({"s":"a\"b\\c\nd\t\u0041\u00e9"})");
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(V->find("s")->asString(), "a\"b\\c\nd\tA\xc3\xa9");
}

TEST(ServeJson, EscapeRoundTrips) {
  std::string Hostile = "quote\" slash\\ nl\n tab\t ctrl\x01 done";
  std::string Text = "{\"k\":\"";
  support::appendJsonEscaped(Text, Hostile);
  auto V = parseJson(Text + "\"}");
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(V->find("k")->asString(), Hostile);
}

TEST(ServeJson, RejectsMalformedInputWithE020) {
  const char *Bad[] = {
      "",           "{",           "{\"a\":}",     "{\"a\":1,}",
      "[1,2",       "\"unterm",    "truu",         "{\"a\" 1}",
      "01x",        "1.2.3",       "{\"a\":1}{\"b\":2}",
      "{\"a\":\"raw\x01ctrl\"}",   "{\"a\":\"\\q\"}",
      "{\"a\":\"\\u12g4\"}",
  };
  for (const char *Text : Bad) {
    auto V = parseJson(Text);
    ASSERT_FALSE(bool(V)) << "accepted: " << Text;
    EXPECT_EQ(V.error().code(), ErrorCode::Protocol) << Text;
  }
}

TEST(ServeJson, DepthBombIsAnErrorNotAStackOverflow) {
  std::string Bomb(4096, '[');
  auto V = parseJson(Bomb);
  ASSERT_FALSE(bool(V));
  EXPECT_EQ(V.error().code(), ErrorCode::Protocol);
  EXPECT_NE(V.error().message().find("nesting"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// PlanCache
//===----------------------------------------------------------------------===//

RequestSpec fig1Spec(std::int64_t Size = 8) {
  RequestSpec Spec;
  Spec.Chain = Fig1Chain;
  Spec.Script = Fig1Script;
  Spec.Size = Size;
  return Spec;
}

TEST(PlanCache, CompileProducesARunnablePlan) {
  auto CP = PlanCache::compile(fig1Spec(8));
  ASSERT_TRUE(bool(CP)) << CP.error().toString();
  EXPECT_TRUE((*CP)->VerifyClean) << (*CP)->VerifyDetail;
  EXPECT_GT((*CP)->StoreBytes, 0);
  EXPECT_GT((*CP)->FallbackBytes, 0);
  EXPECT_EQ((*CP)->AdmitBytes,
            2 * ((*CP)->StoreBytes + (*CP)->FallbackBytes));
  EXPECT_GT((*CP)->TrafficBytes, 0);

  storage::ConcreteStorage Store((*CP)->SPlan, (*CP)->Env);
  (*CP)->seedStore(Store);
  exec::PlanStats Stats = exec::runPlan((*CP)->Plan, (*CP)->Kernels, Store);
  EXPECT_GT(Stats.Seconds, 0.0);
}

TEST(PlanCache, HitMissAndInvariant) {
  PlanCache Cache(4);
  bool Hit = true;
  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));
  EXPECT_TRUE(Hit);
  ASSERT_TRUE(bool(Cache.get(fig1Spec(12), &Hit)));
  EXPECT_FALSE(Hit);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1);
  EXPECT_EQ(S.Misses, 2);
  EXPECT_EQ(S.Entries, 2);
  EXPECT_EQ(S.Hits + S.Misses, 3);
}

TEST(PlanCache, EveryKeyComponentDiscriminates) {
  PlanCache Cache(64);
  bool Hit = true;
  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));

  RequestSpec Variants[] = {fig1Spec(9), fig1Spec(8), fig1Spec(8),
                            fig1Spec(8), fig1Spec(8), fig1Spec(8)};
  Variants[1].Script.clear();
  Variants[2].Widen = 2;
  Variants[3].Threads = 2;
  Variants[4].Scheduler = exec::SchedulerKind::Wavefront;
  Variants[5].Harden = true;
  for (RequestSpec &Spec : Variants) {
    Hit = true;
    auto CP = Cache.get(Spec, &Hit);
    ASSERT_TRUE(bool(CP)) << CP.error().toString();
    EXPECT_FALSE(Hit) << "variant collided with the base key";
  }

  // Run-only knobs must NOT discriminate: same entry, now a hit.
  RequestSpec RunOnly = fig1Spec(8);
  RunOnly.Batched = false;
  RunOnly.Kernels = exec::KernelMode::Jit;
  RunOnly.MemBudget = 1 << 30;
  RunOnly.Checksum = true;
  Hit = false;
  ASSERT_TRUE(bool(Cache.get(RunOnly, &Hit)));
  EXPECT_TRUE(Hit);
}

TEST(PlanCache, LruEvictsTheColdestEntry) {
  PlanCache Cache(2);
  bool Hit = false;
  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));
  ASSERT_TRUE(bool(Cache.get(fig1Spec(9), &Hit)));
  // Touch 8 so 9 is the LRU victim.
  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));
  EXPECT_TRUE(Hit);
  ASSERT_TRUE(bool(Cache.get(fig1Spec(10), &Hit))); // Evicts 9.
  EXPECT_FALSE(Hit);

  ASSERT_TRUE(bool(Cache.get(fig1Spec(8), &Hit)));
  EXPECT_TRUE(Hit) << "recently-used entry was evicted";
  ASSERT_TRUE(bool(Cache.get(fig1Spec(9), &Hit)));
  EXPECT_FALSE(Hit) << "evicted entry still present";

  CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 2);
  EXPECT_EQ(S.Entries, 2);
}

TEST(PlanCache, FailedCompilesAreNeverCached) {
  PlanCache Cache(4);
  RequestSpec Bad;
  Bad.Chain = "this is not a loop chain";
  bool Hit = true;
  auto R1 = Cache.get(Bad, &Hit);
  ASSERT_FALSE(bool(R1));
  EXPECT_EQ(R1.error().code(), ErrorCode::Parse);
  EXPECT_FALSE(Hit);
  auto R2 = Cache.get(Bad, &Hit);
  ASSERT_FALSE(bool(R2));
  EXPECT_FALSE(Hit) << "a failure must not be served from cache";

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 2);
  EXPECT_EQ(S.Entries, 0);
}

TEST(PlanCache, BypassCountsAsMissAndDoesNotFill) {
  PlanCache Cache(4);
  RequestSpec Spec = fig1Spec(8);
  Spec.Bypass = true;
  bool Hit = true;
  ASSERT_TRUE(bool(Cache.get(Spec, &Hit)));
  EXPECT_FALSE(Hit);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1);
  EXPECT_EQ(S.Entries, 0);

  // And a later cached request compiles again (a second miss).
  Spec.Bypass = false;
  ASSERT_TRUE(bool(Cache.get(Spec, &Hit)));
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Cache.stats().Entries, 1);
}

TEST(PlanCache, ConcurrentMixedTrafficKeepsTheInvariant) {
  PlanCache Cache(8);
  constexpr int Threads = 4, PerThread = 12;
  std::vector<std::thread> Ts;
  std::atomic<int> Failures{0};
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        bool Hit = false;
        auto CP = Cache.get(fig1Spec(8 + (T + I) % 3), &Hit);
        if (!CP) {
          Failures.fetch_add(1);
          continue;
        }
        storage::ConcreteStorage Store((*CP)->SPlan, (*CP)->Env);
        (*CP)->seedStore(Store);
        exec::runPlan((*CP)->Plan, (*CP)->Kernels, Store);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, Threads * PerThread);
  EXPECT_EQ(S.Entries, 3);
}

//===----------------------------------------------------------------------===//
// Server::processLine (transport-free)
//===----------------------------------------------------------------------===//

class ProcessLineTest : public ::testing::Test {
protected:
  ProcessLineTest() : Srv(ServerOptions{}) {}

  JsonValue process(const std::string &Line, bool *Shutdown = nullptr) {
    std::string Resp = Srv.processLine(Line, Shutdown);
    auto V = parseJson(Resp);
    EXPECT_TRUE(bool(V)) << "unparseable response: " << Resp;
    return V ? *V : JsonValue{};
  }

  Server Srv;
};

TEST_F(ProcessLineTest, PingEchoesId) {
  JsonValue R = process(R"({"cmd":"ping","id":"abc"})");
  EXPECT_TRUE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("id")->asString(), "abc");
  EXPECT_EQ(R.find("cmd")->asString(), "ping");
}

TEST_F(ProcessLineTest, GarbageAndWrongShapesAreE020) {
  const char *Bad[] = {
      "complete garbage",
      "[1,2,3]",
      R"({"cmd":42})",
      R"({"cmd":"no-such-command"})",
      R"({"size":8})",
      R"({"chain":42})",
      R"({"chain":"x","size":"big"})",
      R"({"chain":"x","scheduler":"fifo"})",
      R"({"chain":"x","kernels":"cuda"})",
      R"({"chain":"x","size":0})",
      R"({"chain":"x","size":100000000})",
      R"({"chain":"x","widen":99})",
      R"({"chain":"x","threads":0})",
      R"({"chain":"x","mem_budget":-5})",
      R"({"chain":"x","batched":"yes"})",
  };
  for (const char *Line : Bad) {
    JsonValue R = process(Line);
    EXPECT_FALSE(R.find("ok")->asBool()) << Line;
    ASSERT_NE(R.find("status"), nullptr) << Line;
    EXPECT_EQ(R.find("status")->find("code")->asString(), "E020-protocol")
        << Line;
  }
  ServerStats S = Srv.stats();
  EXPECT_EQ(S.ProtocolErrors, static_cast<std::int64_t>(std::size(Bad)));
  EXPECT_EQ(S.Admitted, 0) << "protocol rejects must not reach the cache";
}

TEST_F(ProcessLineTest, ParseErrorIsE001ScopedToTheRequest) {
  RequestBuilder B;
  B.Chain = "not a chain at all";
  JsonValue R = process(B.line());
  EXPECT_FALSE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("status")->find("code")->asString(), "E001-parse");

  // The daemon still serves the next request.
  JsonValue R2 = process(RequestBuilder{}.line());
  EXPECT_TRUE(R2.find("ok")->asBool()) << Srv.processLine("{\"cmd\":\"stats\"}");
}

TEST_F(ProcessLineTest, BadScriptIsE005) {
  RequestBuilder B;
  B.Script = "fusepc S1 NO_SUCH_STMT\n";
  JsonValue R = process(B.line());
  EXPECT_FALSE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("status")->find("code")->asString(),
            "E005-illegal-transform");
}

TEST_F(ProcessLineTest, RunResponseCarriesReportMetricsAndCost) {
  RequestBuilder B;
  B.Script = Fig1Script;
  B.Size = 16;
  B.Checksum = 1;
  B.Id = "r1";
  JsonValue R = process(B.line());
  ASSERT_TRUE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("id")->asString(), "r1");
  EXPECT_EQ(R.find("cache")->asString(), "miss");

  ASSERT_NE(R.find("report"), nullptr);
  EXPECT_TRUE(R.find("report")->find("completed")->asBool());

  const JsonValue *M = R.find("metrics");
  ASSERT_NE(M, nullptr);
  EXPECT_GT(M->find("seconds")->asDouble(), 0.0);
  EXPECT_GT(M->find("compile_seconds")->asDouble(), 0.0);
  EXPECT_GT(M->find("points")->asInt(), 0);
  EXPECT_GT(M->find("raw_reads")->asInt(), 0);

  const JsonValue *C = R.find("cost");
  ASSERT_NE(C, nullptr);
  EXPECT_FALSE(C->find("sr")->asString().empty());
  EXPECT_GT(C->find("sc")->asInt(), 0);
  EXPECT_GT(C->find("store_bytes")->asInt(), 0);
  EXPECT_GT(C->find("traffic_bytes")->asInt(), 0);

  ASSERT_NE(R.find("result_fnv"), nullptr);
  EXPECT_EQ(R.find("result_fnv")->asString().size(), 16u);

  // Second identical request: a hit, zero compile seconds, identical
  // checksum (the warm-vs-cold bit-identity contract).
  JsonValue R2 = process(B.line());
  EXPECT_EQ(R2.find("cache")->asString(), "hit");
  EXPECT_DOUBLE_EQ(R2.find("metrics")->find("compile_seconds")->asDouble(),
                   0.0);
  EXPECT_EQ(R2.find("result_fnv")->asString(),
            R.find("result_fnv")->asString());

  // Cache-bypassed cold recompile: still bit-identical.
  B.Cache = 0;
  JsonValue R3 = process(B.line());
  EXPECT_EQ(R3.find("cache")->asString(), "miss");
  EXPECT_EQ(R3.find("result_fnv")->asString(),
            R.find("result_fnv")->asString());

  ServerStats S = Srv.stats();
  EXPECT_EQ(S.Admitted, 3);
  EXPECT_EQ(S.Hits + S.Misses, S.Admitted);
}

TEST_F(ProcessLineTest, EveryKnobCombinationStaysBitIdentical) {
  RequestBuilder Base;
  Base.Script = Fig1Script;
  Base.Size = 12;
  Base.Checksum = 1;
  JsonValue R0 = process(Base.line());
  ASSERT_TRUE(R0.find("ok")->asBool());
  std::string Fnv = R0.find("result_fnv")->asString();

  for (const char *Sched : {"list", "wavefront"})
    for (int Threads : {1, 2, 4})
      for (int Batched : {0, 1}) {
        RequestBuilder B = Base;
        B.Scheduler = Sched;
        B.Threads = Threads;
        B.Batched = Batched;
        JsonValue R = process(B.line());
        ASSERT_TRUE(R.find("ok")->asBool())
            << Sched << "/" << Threads << "/" << Batched;
        EXPECT_EQ(R.find("result_fnv")->asString(), Fnv)
            << Sched << "/" << Threads << "/" << Batched;
      }
}

TEST_F(ProcessLineTest, StatsInvariantHoldsUnderMixedTraffic) {
  for (int I = 0; I < 20; ++I) {
    RequestBuilder B;
    B.Size = 8 + I % 4;
    if (I % 5 == 0)
      B.Cache = 0;
    process(B.line());
  }
  process("garbage");
  process(R"({"cmd":"ping"})");

  JsonValue R = process(R"({"cmd":"stats"})");
  const JsonValue *S = R.find("stats");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->find("admitted")->asInt(), 20);
  EXPECT_EQ(S->find("hits")->asInt() + S->find("misses")->asInt(),
            S->find("admitted")->asInt());
  EXPECT_EQ(S->find("protocol_errors")->asInt(), 1);
}

TEST_F(ProcessLineTest, ShutdownRespectsTheOption) {
  bool Shutdown = false;
  JsonValue R = process(R"({"cmd":"shutdown"})", &Shutdown);
  EXPECT_TRUE(R.find("ok")->asBool());
  EXPECT_TRUE(Shutdown);

  ServerOptions Opts;
  Opts.AllowShutdown = false;
  Server Locked(Opts);
  Shutdown = false;
  auto V = parseJson(Locked.processLine(R"({"cmd":"shutdown"})", &Shutdown));
  ASSERT_TRUE(bool(V));
  EXPECT_FALSE(V->find("ok")->asBool());
  EXPECT_FALSE(Shutdown);
}

//===----------------------------------------------------------------------===//
// Sockets end to end
//===----------------------------------------------------------------------===//

TEST(ServeSocket, UnixEndToEnd) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-unix");
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C)) << C.error().toString();

  auto Ping = C->request(R"({"cmd":"ping"})");
  ASSERT_TRUE(bool(Ping)) << Ping.error().toString();
  EXPECT_TRUE(Ping->find("ok")->asBool());

  RequestBuilder B;
  B.Script = Fig1Script;
  B.Checksum = 1;
  auto Run = C->request(B.line());
  ASSERT_TRUE(bool(Run)) << Run.error().toString();
  EXPECT_TRUE(Run->find("ok")->asBool());

  Srv.stop();
  EXPECT_FALSE(Srv.running());
}

TEST(ServeSocket, TcpEndToEndWithKernelAssignedPort) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());
  ASSERT_GT(Srv.port(), 0);

  auto C = Client::connectTcp("127.0.0.1", Srv.port());
  ASSERT_TRUE(bool(C)) << C.error().toString();
  auto Run = C->request(RequestBuilder{}.line());
  ASSERT_TRUE(bool(Run)) << Run.error().toString();
  EXPECT_TRUE(Run->find("ok")->asBool());
  Srv.stop();
}

TEST(ServeSocket, MalformedFrameKeepsTheConnectionAlive) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-malformed");
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  auto Bad = C->request("}{ not json");
  ASSERT_TRUE(bool(Bad));
  EXPECT_FALSE(Bad->find("ok")->asBool());
  EXPECT_EQ(Bad->find("status")->find("code")->asString(), "E020-protocol");

  // Same connection serves the next, valid request.
  auto Good = C->request(RequestBuilder{}.line());
  ASSERT_TRUE(bool(Good)) << Good.error().toString();
  EXPECT_TRUE(Good->find("ok")->asBool());
  Srv.stop();
}

TEST(ServeSocket, OversizedFrameGetsE020ThenTheConnectionCloses) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-oversize");
  Opts.MaxLineBytes = 4096;
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  std::string Huge(64 * 1024, 'x');
  ASSERT_TRUE(C->sendLine(Huge).isOk());
  auto Resp = C->recvLine(5000);
  ASSERT_TRUE(bool(Resp)) << Resp.error().toString();
  auto V = parseJson(*Resp);
  ASSERT_TRUE(bool(V));
  EXPECT_EQ(V->find("status")->find("code")->asString(), "E020-protocol");

  // The connection is gone afterwards; a fresh one still works.
  auto Dead = C->recvLine(2000);
  EXPECT_FALSE(bool(Dead));
  auto C2 = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C2));
  auto Ping = C2->request(R"({"cmd":"ping"})");
  ASSERT_TRUE(bool(Ping));
  EXPECT_TRUE(Ping->find("ok")->asBool());
  Srv.stop();
}

TEST(ServeSocket, MidRequestDisconnectLeavesTheServerServing) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-disconnect");
  Opts.IdleTimeoutMs = 500;
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  {
    auto C = Client::connectUnix(Opts.UnixPath);
    ASSERT_TRUE(bool(C));
    // Half a request, no newline, then vanish.
    ASSERT_TRUE(C->sendRaw(R"({"chain":"#pragma omp)").isOk());
    C->closeNow();
  }
  {
    // A whole request frame, disconnect before reading the response.
    auto C = Client::connectUnix(Opts.UnixPath);
    ASSERT_TRUE(bool(C));
    ASSERT_TRUE(C->sendLine(RequestBuilder{}.line()).isOk());
    C->closeNow();
  }

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  auto Run = C->request(RequestBuilder{}.line());
  ASSERT_TRUE(bool(Run)) << Run.error().toString();
  EXPECT_TRUE(Run->find("ok")->asBool());
  Srv.stop();
}

TEST(ServeSocket, SlowLorisPartialLineIsCutOffAtTheIdleDeadline) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-loris");
  Opts.IdleTimeoutMs = 400;
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  ASSERT_TRUE(C->sendRaw("{\"chain\":\"dribble").isOk());
  // Never send the newline; the server must hang up, not hang.
  auto R = C->recvLine(5000);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().code(), ErrorCode::PeerLost);

  auto C2 = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C2));
  auto Ping = C2->request(R"({"cmd":"ping"})");
  ASSERT_TRUE(bool(Ping));
  EXPECT_TRUE(Ping->find("ok")->asBool());
  Srv.stop();
}

TEST(ServeSocket, ShutdownCommandStopsTheServer) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-shutdown");
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  auto R = C->request(R"({"cmd":"shutdown"})");
  ASSERT_TRUE(bool(R));
  EXPECT_TRUE(R->find("ok")->asBool());
  Srv.wait();
  Srv.stop();
  EXPECT_FALSE(Srv.running());
}

TEST(ServeSocket, AdmissionRejectsANeverFittingRequestWithE016) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-admission");
  Opts.BudgetBytes = 1024; // Far below any real request's charge.
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  RequestBuilder B;
  B.Size = 64;
  auto R = C->request(B.line());
  ASSERT_TRUE(bool(R)) << R.error().toString();
  EXPECT_FALSE(R->find("ok")->asBool());
  const JsonValue *St = R->find("status");
  ASSERT_NE(St, nullptr);
  EXPECT_EQ(St->find("code")->asString(), "E016-mem-budget-infeasible");
  EXPECT_EQ(St->find("subcode")->asString(), "serve-admission");

  EXPECT_EQ(Srv.stats().Rejected, 1);
  Srv.stop();
}

TEST(ServeSocket, ConcurrentClientsAllGetBitIdenticalResults) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("proto-concurrent");
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  RequestBuilder B;
  B.Script = Fig1Script;
  B.Size = 24;
  B.Checksum = 1;
  std::string Line = B.line();

  constexpr int NumClients = 6;
  std::vector<std::string> Fnv(NumClients);
  std::vector<std::thread> Ts;
  for (int I = 0; I < NumClients; ++I)
    Ts.emplace_back([&, I] {
      auto C = Client::connectUnix(Opts.UnixPath);
      if (!C)
        return;
      for (int Rep = 0; Rep < 3; ++Rep) {
        auto R = C->request(Line, 30000);
        if (!R || !R->find("ok")->asBool())
          return;
        std::string F = R->find("result_fnv")->asString();
        if (!Fnv[static_cast<std::size_t>(I)].empty() &&
            Fnv[static_cast<std::size_t>(I)] != F)
          return; // Mismatch: leave empty-handed for the assert below.
        Fnv[static_cast<std::size_t>(I)] = F;
      }
    });
  for (std::thread &T : Ts)
    T.join();

  for (int I = 0; I < NumClients; ++I) {
    ASSERT_FALSE(Fnv[static_cast<std::size_t>(I)].empty())
        << "client " << I << " failed";
    EXPECT_EQ(Fnv[static_cast<std::size_t>(I)], Fnv[0]);
  }
  ServerStats S = Srv.stats();
  EXPECT_EQ(S.Admitted, NumClients * 3);
  EXPECT_EQ(S.Hits + S.Misses, S.Admitted);
  Srv.stop();
}

} // namespace
