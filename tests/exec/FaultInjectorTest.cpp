//===- tests/exec/FaultInjectorTest.cpp -----------------------------------===//
//
// The deterministic fault injector: spec parsing (with the site/kind
// pairing table), one-shot Nth-occurrence firing, and the two structural
// campaigns — modulo-window corruption on a plan copy and persistent-input
// truncation on concrete storage.
//
//===----------------------------------------------------------------------===//

#include "exec/FaultInjector.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "graph/GraphBuilder.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// The Figure 1 chain; fused + storage-reduced it compiles to a plan with
/// a rolling (modulo) VAL_1 window, the target of modulo:corrupt.
constexpr const char *Fig1 = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write VAL_1{(x,y)} read VAL_0{(x,y)}
S1: VAL_1(x,y) = func1(VAL_0(x,y));
#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) \
    write VAL_2{(x,y)} read VAL_1{(x,y),(x+1,y)}
S2: VAL_2(x,y) = func2(VAL_1(x,y), VAL_1(x+1,y));
}
)";

ir::LoopChain parseFig1() {
  parser::ParseResult R = parser::parseLoopChain(Fig1);
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  return std::move(*R.Chain);
}

FaultSpec parseOk(const char *Text) {
  auto S = FaultInjector::parseSpec(Text);
  EXPECT_TRUE(static_cast<bool>(S)) << Text << ": " << S.error().toString();
  return *S;
}

void expectParseError(const char *Text, const char *Needle) {
  auto S = FaultInjector::parseSpec(Text);
  ASSERT_FALSE(static_cast<bool>(S)) << Text << " should not parse";
  EXPECT_EQ(S.error().code(), support::ErrorCode::FaultInjected);
  EXPECT_NE(S.error().message().find(Needle), std::string::npos)
      << S.error().toString();
}

} // namespace

TEST(FaultSpecParse, AcceptsEveryDocumentedPairing) {
  FaultSpec S = parseOk("kernel:throw");
  EXPECT_EQ(S.Site, FaultSite::Kernel);
  EXPECT_EQ(S.Kind, FaultKind::Throw);
  EXPECT_EQ(S.Nth, 1u);

  S = parseOk("task:fail:3");
  EXPECT_EQ(S.Site, FaultSite::Task);
  EXPECT_EQ(S.Kind, FaultKind::Fail);
  EXPECT_EQ(S.Nth, 3u);

  EXPECT_EQ(parseOk("modulo:corrupt").Site, FaultSite::Modulo);
  EXPECT_EQ(parseOk("input:truncate").Kind, FaultKind::Truncate);
  EXPECT_EQ(parseOk("jitval:reject").Site, FaultSite::JitValidate);
  EXPECT_EQ(parseOk("serve:drop").Kind, FaultKind::Drop);
  EXPECT_EQ(parseOk("serve:truncate").Site, FaultSite::Serve);
  EXPECT_EQ(parseOk("serve:delay:2").Nth, 2u);
  // Whitespace around fields is tolerated (env vars get quoted oddly).
  EXPECT_EQ(parseOk(" kernel : throw : 2 ").Nth, 2u);
}

TEST(FaultSpecParse, RejectsMalformedSpecsWithE012) {
  expectParseError("kernel", "expected <site>:<kind>[:<nth>]");
  expectParseError("a:b:c:d", "expected <site>:<kind>[:<nth>]");
  expectParseError("disk:throw", "unknown site");
  expectParseError("kernel:explode", "unknown kind");
  // Site/kind mispairing: each kind applies to exactly one site.
  expectParseError("kernel:truncate", "does not apply");
  expectParseError("modulo:throw", "does not apply");
  expectParseError("kernel:throw:zero", "not a number");
  expectParseError("kernel:throw:0", "must be >= 1");
  // One spec per process: a ';' list is not a spec.
  expectParseError("kernel:throw;task:fail", "unknown kind");
}

TEST(FaultInjector, FireReportsTheKind) {
  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Serve, FaultKind::Truncate, 1});
  EXPECT_EQ(FI.fire(FaultSite::Kernel), FaultKind::None) << "wrong site";
  EXPECT_EQ(FI.fire(FaultSite::Serve), FaultKind::Truncate);
  EXPECT_EQ(FI.fire(FaultSite::Serve), FaultKind::None);
}

TEST(FaultInjector, FiresOnceAtTheNthOccurrence) {
  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Kernel, FaultKind::Throw, 3});
  EXPECT_TRUE(FI.armedFor(FaultSite::Kernel));
  EXPECT_FALSE(FI.armedFor(FaultSite::Task));

  EXPECT_FALSE(FI.shouldFire(FaultSite::Task)) << "wrong site never fires";
  EXPECT_FALSE(FI.shouldFire(FaultSite::Kernel)) << "occurrence 1";
  EXPECT_FALSE(FI.shouldFire(FaultSite::Kernel)) << "occurrence 2";
  EXPECT_TRUE(FI.shouldFire(FaultSite::Kernel)) << "occurrence 3 fires";

  // One-shot: the spec disarmed itself, later probes see a healthy system.
  EXPECT_FALSE(FI.shouldFire(FaultSite::Kernel));
  EXPECT_FALSE(FI.armedFor(FaultSite::Kernel));
  EXPECT_EQ(FI.firedCount(), 1u);
}

TEST(FaultInjector, DisarmClearsTheSpec) {
  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Input, FaultKind::Truncate, 1});
  EXPECT_TRUE(FI.armedFor(FaultSite::Input));
  FI.disarm();
  EXPECT_FALSE(FI.armedFor(FaultSite::Input));
  EXPECT_FALSE(FI.shouldFire(FaultSite::Input));
  EXPECT_EQ(FI.firedCount(), 0u);
}

TEST(FaultInjector, PlanFaultShrinksOneModuloWindow) {
  ir::LoopChain Chain = parseFig1();
  graph::Graph G = graph::buildGraph(Chain);
  ASSERT_TRUE(static_cast<bool>(parser::runScript(G, "fusepc S1 S2\n")));
  storage::reduceStorage(G);

  exec::ParamEnv Env{{"N", 8}};
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/true);
  storage::ConcreteStorage Store(SPlan, Env);
  ExecutionPlan Plan = ExecutionPlan::fromChain(Chain, Store, Env);
  // The reduced VAL_1 window only appears on the fused/AST lowering; build
  // that one instead if the chain lowering carries no modulo streams.
  auto CountModulo = [](const ExecutionPlan &P) {
    int Count = 0;
    for (const NestInstr &I : P.Instrs)
      for (const StmtRecord &S : I.Stmts) {
        if (S.Write.Modulo && S.Write.ModSize > 1)
          ++Count;
        for (const Stream &R : S.Reads)
          if (R.Modulo && R.ModSize > 1)
            ++Count;
      }
    return Count;
  };
  if (CountModulo(Plan) == 0) {
    codegen::AstPtr Ast = codegen::generate(G);
    Plan = ExecutionPlan::fromAst(G, *Ast, Store, Env);
  }
  ASSERT_GT(CountModulo(Plan), 0) << "expected a rolling VAL_1 window";

  ExecutionPlan Copy = Plan;
  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Modulo, FaultKind::Corrupt, 1});
  ASSERT_TRUE(FI.applyPlanFault(Copy));
  EXPECT_EQ(FI.firedCount(), 1u);

  // Exactly one window shrank, by exactly one element.
  int Shrunk = 0;
  auto Compare = [&](const Stream &Before, const Stream &After) {
    if (Before.ModSize == After.ModSize + 1)
      ++Shrunk;
    else
      EXPECT_EQ(Before.ModSize, After.ModSize);
  };
  for (std::size_t I = 0; I < Plan.Instrs.size(); ++I)
    for (std::size_t S = 0; S < Plan.Instrs[I].Stmts.size(); ++S) {
      Compare(Plan.Instrs[I].Stmts[S].Write, Copy.Instrs[I].Stmts[S].Write);
      for (std::size_t R = 0; R < Plan.Instrs[I].Stmts[S].Reads.size(); ++R)
        Compare(Plan.Instrs[I].Stmts[S].Reads[R],
                Copy.Instrs[I].Stmts[S].Reads[R]);
    }
  EXPECT_EQ(Shrunk, 1);

  // Disarmed after firing: a second application is a no-op.
  EXPECT_FALSE(FI.applyPlanFault(Copy));
}

TEST(FaultInjector, StorageFaultHalvesOnePersistentSpace) {
  ir::LoopChain Chain = parseFig1();
  graph::Graph G = graph::buildGraph(Chain);
  exec::ParamEnv Env{{"N", 8}};
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  storage::ConcreteStorage Store(SPlan, Env);
  ExecutionPlan Plan = ExecutionPlan::fromChain(Chain, Store, Env);

  std::vector<std::size_t> Before;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Before.push_back(Store.space(S).size());

  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Input, FaultKind::Truncate, 1});
  ASSERT_TRUE(FI.applyStorageFault(Plan, Store));

  int Halved = 0;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S) {
    if (Store.space(S).size() == Before[S] / 2 &&
        Store.space(S).size() < Before[S]) {
      EXPECT_TRUE(Plan.SpacePersistent[S])
          << "only persistent spaces are truncated";
      ++Halved;
    } else {
      EXPECT_EQ(Store.space(S).size(), Before[S]);
    }
  }
  EXPECT_EQ(Halved, 1);
  EXPECT_FALSE(FI.applyStorageFault(Plan, Store)) << "one-shot";
}

TEST(FaultInjector, StorageFaultNthSelectsLaterSpace) {
  // Each eligible persistent space is one occurrence of the input site:
  // input:truncate:2 must keep scanning past the first eligible space and
  // halve the second, not silently fizzle.
  ir::LoopChain Chain = parseFig1();
  graph::Graph G = graph::buildGraph(Chain);
  exec::ParamEnv Env{{"N", 8}};
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  storage::ConcreteStorage Store(SPlan, Env);
  ExecutionPlan Plan = ExecutionPlan::fromChain(Chain, Store, Env);

  std::vector<std::size_t> Eligible;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    if (Plan.SpacePersistent[S] && Store.space(S).size() > 1)
      Eligible.push_back(S);
  ASSERT_GE(Eligible.size(), 2u) << "fig1 should carry VAL_0 and VAL_2";

  std::vector<std::size_t> Before;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Before.push_back(Store.space(S).size());

  FaultInjector FI;
  FI.arm(FaultSpec{FaultSite::Input, FaultKind::Truncate, 2});
  ASSERT_TRUE(FI.applyStorageFault(Plan, Store));
  EXPECT_EQ(FI.firedCount(), 1u);
  for (std::size_t S = 0; S < Store.numSpaces(); ++S) {
    if (S == Eligible[1])
      EXPECT_EQ(Store.space(S).size(), Before[S] / 2);
    else
      EXPECT_EQ(Store.space(S).size(), Before[S]);
  }
}
