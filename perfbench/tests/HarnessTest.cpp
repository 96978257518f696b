//===- perfbench/tests/HarnessTest.cpp ------------------------------------===//
//
// Tests of the benchmark's own helpers: span nesting and parent links, the
// percentile helper and its sample counts, failure counting, the seeded
// request sequence, the result line, and that BENCHMARK.json lists exactly
// the metrics the benchmark prints.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include "serve/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

using namespace perfbench;

TEST(SpanLog, NestingSetsParentsAndGroups) {
  SpanLog L;
  {
    SpanLog::Scope Step(L, "step");
    {
      SpanLog::Scope Run(L, "run");
      SpanLog::Scope Inner(L, "inner");
    }
    SpanLog::Scope Check(L, "check");
  }
  SpanLog::Scope Next(L, "step");
  std::vector<SpanLog::Span> S = L.spans();
  ASSERT_EQ(S.size(), 5u);
  EXPECT_EQ(S[0].Name, "step");
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 1);
  EXPECT_EQ(S[3].Parent, 0);
  EXPECT_EQ(S[4].Parent, -1);
  // Nested spans share the step's group; a new top-level span starts a
  // fresh one.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(S[static_cast<std::size_t>(I)].Group, S[0].Group);
  EXPECT_NE(S[4].Group, S[0].Group);
  for (int I = 0; I < 4; ++I) {
    const SpanLog::Span &Sp = S[static_cast<std::size_t>(I)];
    EXPECT_LE(Sp.T0, Sp.T1);
    if (Sp.Parent >= 0) {
      const SpanLog::Span &P = S[static_cast<std::size_t>(Sp.Parent)];
      EXPECT_GE(Sp.T0, P.T0);
      EXPECT_LE(Sp.T1, P.T1);
    }
  }
  EXPECT_EQ(S[4].T1, -1); // Still open.
}

TEST(SpanLog, ThreadsKeepTheirOwnStacks) {
  SpanLog L;
  SpanLog::Scope Outer(L, "main");
  std::thread T([&] { SpanLog::Scope Other(L, "worker"); });
  T.join();
  std::vector<SpanLog::Span> S = L.spans();
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[1].Name, "worker");
  EXPECT_EQ(S[1].Parent, -1);
}

TEST(SpanLog, SelfTimeExcludesChildren) {
  SpanLog L;
  {
    SpanLog::Scope A(L, "a");
    SpanLog::Scope B(L, "b");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto Table = L.layerTable();
  ASSERT_EQ(Table.count("a"), 1u);
  EXPECT_EQ(Table["a"].Count, 1u);
  EXPECT_GE(Table["b"].TotalMs, 4.0);
  EXPECT_LT(Table["a"].SelfMs, Table["a"].TotalMs);
  EXPECT_NEAR(Table["a"].SelfMs + Table["b"].TotalMs, Table["a"].TotalMs,
              1e-9);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog L(false);
  { SpanLog::Scope A(L, "a"); }
  EXPECT_TRUE(L.spans().empty());
}

TEST(Quantile, NearestRankWithCounts) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  Quantile P50 = quantile(V, 0.5);
  EXPECT_EQ(P50.Value, 50.0);
  EXPECT_EQ(P50.Samples, 100u);
  EXPECT_EQ(P50.Beyond, 50u);
  Quantile P99 = quantile(V, 0.99);
  EXPECT_EQ(P99.Value, 99.0);
  EXPECT_EQ(P99.Beyond, 1u);
  EXPECT_EQ(quantile(V, 1.0).Value, 100.0);
  EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.9).Value, 3.0);
  EXPECT_EQ(quantile({4.0}, 0.5).Value, 4.0);
  Quantile Empty = quantile({}, 0.5);
  EXPECT_EQ(Empty.Samples, 0u);
  EXPECT_EQ(Empty.Value, 0.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Tally, CountsEveryFailure) {
  Tally T;
  EXPECT_EQ(T.failShare(), 0.0);
  T.record(true);
  T.record(false);
  T.record(true);
  T.record(false);
  EXPECT_EQ(T.Attempted, 4);
  EXPECT_EQ(T.Failed, 2);
  EXPECT_DOUBLE_EQ(T.failShare(), 0.5);
  Tally U;
  U.record(false);
  T += U;
  EXPECT_EQ(T.Attempted, 5);
  EXPECT_EQ(T.Failed, 3);
  EXPECT_DOUBLE_EQ(T.failShare(), 0.6);
}

TEST(RequestSequence, SameSeedSameRequests) {
  auto A = requestSequence(42, 500, 36);
  auto B = requestSequence(42, 500, 36);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, requestSequence(43, 500, 36));
  // A longer run extends the same sequence.
  auto Longer = requestSequence(42, 800, 36);
  EXPECT_TRUE(std::equal(A.begin(), A.end(), Longer.begin()));
}

TEST(RequestSequence, EveryKeyOncePerBag) {
  auto Seq = requestSequence(7, 1000, 36);
  ASSERT_EQ(Seq.size(), 1000u);
  // Each full bag of 36 requests holds every key once.
  for (std::size_t Bag = 0; Bag + 36 <= Seq.size(); Bag += 36) {
    std::vector<int> Seen(36);
    for (std::size_t I = Bag; I < Bag + 36; ++I) {
      ASSERT_GE(Seq[I], 0);
      ASSERT_LT(Seq[I], 36);
      ++Seen[static_cast<std::size_t>(Seq[I])];
    }
    EXPECT_EQ(Seen, std::vector<int>(36, 1));
  }
  EXPECT_TRUE(requestSequence(7, 10, 0).empty());
}

TEST(ResultLine, HasTheContractKeys) {
  Tally T;
  T.record(true);
  MetricSet M;
  M.set("setup_s", 0.25, "s");
  EXPECT_EQ(resultJson(T, M),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  T.record(false);
  EXPECT_NE(resultJson(T, M).find("\"correct\": false"), std::string::npos);
  EXPECT_EQ(jsonString("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
}

TEST(Manifest, BenchmarkJsonListsTheReportedMetrics) {
  std::ifstream In(PERFBENCH_MANIFEST);
  ASSERT_TRUE(In) << PERFBENCH_MANIFEST;
  std::stringstream SS;
  SS << In.rdbuf();
  auto Doc = lcdfg::serve::parseJson(SS.str());
  ASSERT_TRUE(static_cast<bool>(Doc));
  auto Listed = [&](const char *Key) {
    std::vector<std::pair<std::string, std::string>> Out;
    for (const auto &M : Doc->find(Key)->Items)
      Out.emplace_back(M.find("name")->asString(), M.find("unit")->asString());
    return Out;
  };
  std::vector<std::pair<std::string, std::string>> EndToEnd, PerLayer;
  for (const MetricSpec &M : EndToEndMetrics)
    EndToEnd.emplace_back(M.Name, M.Unit);
  for (const MetricSpec &M : PerLayerMetrics)
    PerLayer.emplace_back(M.Name, M.Unit);
  for (const MetricSpec &M : EndToEndMetrics)
    PerLayer.emplace_back(std::string("overhead.") + M.Name, M.Unit);
  EXPECT_EQ(Listed("end_to_end"), EndToEnd);
  EXPECT_EQ(Listed("per_layer"), PerLayer);
  std::vector<std::string> Workloads;
  for (const auto &W : Doc->find("workloads")->Items)
    Workloads.push_back(W.find("name")->asString());
  EXPECT_EQ(Workloads, (std::vector<std::string>{"mfd-small-jit",
                                                 "mfd-large-t4", "serve-mix"}));
}
