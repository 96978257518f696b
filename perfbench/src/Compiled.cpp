//===- perfbench/src/Compiled.cpp - mfd-small-jit and mfd-large-t4 --------===//
//
// The two compiled MiniFluxDiv workloads. Set-up drives the compile
// pipeline one public call per phase (chain build, graph build, transform
// recipe, storage plan, lowering, static verification, first run), so the
// traced run splits set-up by layer without any tracing inside the
// library. The measured loop then calls exec::runPlan once per step, one
// box per step, rotating through the boxes; every step's outputs are
// compared bit for bit with a scalar-serial interpreted run of the same
// plan made after set-up.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "codegen/Generator.h"
#include "exec/PlanRunner.h"
#include "exec/RowPlan.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "storage/ReuseDistance.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>

using namespace lcdfg;
using namespace perfbench;

namespace {

struct Spec {
  const char *Name;
  std::int64_t N;  ///< Box edge.
  int Boxes;       ///< Boxes, each with its own storage.
  bool Fused;      ///< Fig. 9 recipe (fuse all levels + reduce) or series.
  unsigned Widen;  ///< Modulo-window widening of the reduced storage.
  exec::KernelMode Kernels;
  int Threads;
  int SetupReps;   ///< Set-ups per run; setup_s is their median.
};

const Spec Specs[] = {
    // fig6-small shape: 512 boxes of 16^3 (2^21 cells).
    {"mfd-small-jit", 16, 512, true, 8, exec::KernelMode::Jit, 1, 3},
    // fig6-large shape: 8 boxes of 64^3 (2^21 cells).
    {"mfd-large-t4", 64, 8, false, 1, exec::KernelMode::Interp, 4, 3},
};

/// Everything one set-up produces.
struct Built {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  std::optional<graph::Graph> G;
  std::optional<storage::StoragePlan> SPlan;
  std::vector<std::unique_ptr<storage::ConcreteStorage>> Boxes;
  codegen::AstPtr Ast;
  std::optional<exec::ExecutionPlan> Plan;
  std::unique_ptr<jit::Engine> Jit; ///< Null for interpreted workloads.
  std::vector<std::string> Outputs; ///< Persistent output arrays.
  std::map<std::string, double> PhaseMs;
  double Seconds = 0.0;
  bool VerifyClean = true;
  std::string VerifyDetail;
};

exec::ParamEnv envOf(const Spec &S) { return exec::ParamEnv{{"N", S.N}}; }

exec::RunOptions runOptions(const Spec &S, jit::Engine *Jit) {
  exec::RunOptions O;
  O.Threads = S.Threads;
  O.Batched = true;
  O.Kernels = S.Kernels;
  O.Jit = Jit;
  O.Scheduler = exec::SchedulerKind::List;
  return O;
}

/// Fills box \p Box's persistent inputs from the run seed.
void seedInputs(const ir::LoopChain &Chain, storage::ConcreteStorage &Store,
                std::uint64_t Seed, int Box) {
  std::uint64_t State = Seed ^ (0x9e37ull * static_cast<std::uint64_t>(Box + 1));
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == ir::StorageKind::PersistentInput)
      for (double &V : Store.spaceOf(Name))
        V = 0.5 + static_cast<double>(splitmix64(State) >> 11) * 0x1p-53;
}

void resetOutputs(const Built &B, storage::ConcreteStorage &Store) {
  for (const std::string &Name : B.Outputs) {
    std::vector<double> &Buf = Store.spaceOf(Name);
    std::fill(Buf.begin(), Buf.end(), 0.0);
  }
}

std::vector<double> copyOutputs(const Built &B,
                                storage::ConcreteStorage &Store) {
  std::vector<double> All;
  for (const std::string &Name : B.Outputs) {
    const std::vector<double> &Buf = Store.spaceOf(Name);
    All.insert(All.end(), Buf.begin(), Buf.end());
  }
  return All;
}

bool outputsMatch(const Built &B, storage::ConcreteStorage &Store,
                  const std::vector<double> &Oracle) {
  std::size_t Off = 0;
  for (const std::string &Name : B.Outputs) {
    const std::vector<double> &Buf = Store.spaceOf(Name);
    if (Off + Buf.size() > Oracle.size() ||
        std::memcmp(Buf.data(), Oracle.data() + Off,
                    Buf.size() * sizeof(double)) != 0)
      return false;
    Off += Buf.size();
  }
  return Off == Oracle.size();
}

/// Times \p Fn as set-up phase \p Name (and records it as a span).
template <class Fn>
void phase(SpanLog &Spans, Built &B, const std::string &Name, Fn &&F) {
  SpanLog::Scope S(Spans, Name);
  double T0 = nowSeconds();
  F();
  B.PhaseMs[Name] = (nowSeconds() - T0) * 1e3;
}

/// One set-up: chain build through the first run on box 0. JIT workloads
/// get a fresh engine over an emptied cache directory, so every set-up
/// pays the real host compiles.
std::unique_ptr<Built> setUp(const Spec &S, const RunArgs &Args, int Rep,
                             SpanLog &Spans) {
  auto B = std::make_unique<Built>();
  const exec::ParamEnv Env = envOf(S);
  if (S.Kernels == exec::KernelMode::Jit) {
    jit::EngineOptions JO;
    JO.CacheDir = Args.WorkDir + "/jit-" + std::to_string(Rep);
    std::filesystem::remove_all(JO.CacheDir);
    B->Jit = std::make_unique<jit::Engine>(JO);
  }
  SpanLog::Scope Setup(Spans, "setup");
  double T0 = nowSeconds();
  phase(Spans, *B, "compile.chain", [&] {
    B->Chain = mfd::buildChain3D();
    mfd::registerKernels(B->Chain, B->Kernels);
  });
  phase(Spans, *B, "compile.graph",
        [&] { B->G.emplace(graph::buildGraph(B->Chain)); });
  phase(Spans, *B, "compile.transform", [&] {
    if (S.Fused) {
      mfd::applyFuseAllLevels(*B->G);
      storage::reduceStorage(*B->G);
    }
  });
  phase(Spans, *B, "compile.storage", [&] {
    B->SPlan.emplace(storage::StoragePlan::build(
        *B->G, /*UseAllocation=*/false, S.Widen));
    for (int Box = 0; Box < S.Boxes; ++Box) {
      B->Boxes.push_back(
          std::make_unique<storage::ConcreteStorage>(*B->SPlan, Env));
      seedInputs(B->Chain, *B->Boxes.back(), Args.Seed, Box);
    }
  });
  phase(Spans, *B, "compile.lower", [&] {
    if (S.Fused) {
      B->Ast = codegen::generate(*B->G);
      B->Plan.emplace(
          exec::ExecutionPlan::fromAst(*B->G, *B->Ast, *B->Boxes[0], Env));
    } else {
      B->Plan.emplace(exec::ExecutionPlan::fromChain(B->Chain, *B->Boxes[0],
                                                     Env, &*B->G));
    }
  });
  phase(Spans, *B, "compile.verify", [&] {
    verify::VerifyOptions VO;
    VO.Kernels = &B->Kernels;
    verify::PlanVerifier V(*B->Plan, VO);
    verify::Diagnostics D = V.verify();
    B->VerifyClean = !D.hasErrors();
    if (!B->VerifyClean)
      B->VerifyDetail = D.toString();
  });
  for (const std::string &Name : B->Chain.arrayNames())
    if (B->Chain.array(Name).Kind == ir::StorageKind::PersistentOutput)
      B->Outputs.push_back(Name);
  phase(Spans, *B, "compile.first_run", [&] {
    exec::runPlan(*B->Plan, B->Kernels, *B->Boxes[0],
                  runOptions(S, B->Jit.get()));
  });
  B->Seconds = nowSeconds() - T0;
  resetOutputs(*B, *B->Boxes[0]);
  return B;
}

/// Samples of one measured phase.
struct Phase {
  std::vector<double> StepMs;     ///< runPlan wall time per step.
  std::vector<double> PlanMs;     ///< PlanStats::Seconds per step.
  std::vector<double> OverheadMs; ///< Wall minus PlanStats::Seconds.
  std::vector<double> Idle;       ///< PlanStats::maxIdleShare per step.
  std::vector<double> ThreadsUsed;
  std::array<std::int64_t, obs::NumCountersV> Counters{};
  std::int64_t JitHits = 0;
  Tally Checks;
};

Phase measure(const Spec &S, Built &B,
              const std::vector<std::vector<double>> &Oracle, double Seconds,
              std::size_t &NextBox, SpanLog &Spans, bool Counters) {
  Phase P;
  const exec::RunOptions Opts = runOptions(S, B.Jit.get());
  obs::Tracer &Tr = obs::Tracer::global();
  if (Counters) {
    Tr.enable();
    (void)Tr.drain();
  }
  const std::int64_t HitsBefore = B.Jit ? B.Jit->stats().CacheHits : 0;
  const double Deadline = nowSeconds() + Seconds;
  while (nowSeconds() < Deadline) {
    std::size_t Box = NextBox++ % B.Boxes.size();
    storage::ConcreteStorage &Store = *B.Boxes[Box];
    SpanLog::Scope Step(Spans, "step");
    bool Ok = true;
    try {
      exec::PlanStats St;
      double T0, T1;
      {
        SpanLog::Scope Run(Spans, "exec.runPlan");
        T0 = nowSeconds();
        St = exec::runPlan(*B.Plan, B.Kernels, Store, Opts);
        T1 = nowSeconds();
      }
      P.StepMs.push_back((T1 - T0) * 1e3);
      P.PlanMs.push_back(St.Seconds * 1e3);
      P.OverheadMs.push_back((T1 - T0 - St.Seconds) * 1e3);
      P.Idle.push_back(St.maxIdleShare());
      P.ThreadsUsed.push_back(St.ThreadsUsed);
      SpanLog::Scope Check(Spans, "check");
      Ok = outputsMatch(B, Store, Oracle[Box]);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: step on box %zu failed: %s\n", Box,
                   E.what());
      Ok = false;
    }
    P.Checks.record(Ok);
    resetOutputs(B, Store);
    if (Counters) {
      obs::Trace T = Tr.drain();
      for (std::size_t C = 0; C < obs::NumCountersV; ++C)
        P.Counters[C] += T.counter(static_cast<obs::Counter>(C));
    }
  }
  if (Counters)
    Tr.disable();
  P.JitHits = (B.Jit ? B.Jit->stats().CacheHits : 0) - HitsBefore;
  return P;
}

void endToEnd(const Spec &S, const Phase &P, double SetupS, MetricSet &M) {
  const double Cells = static_cast<double>(S.N * S.N * S.N);
  const double StepS =
      std::accumulate(P.StepMs.begin(), P.StepMs.end(), 0.0) * 1e-3;
  const double Steps = static_cast<double>(P.StepMs.size());
  M.set("setup_s", SetupS, "s");
  M.set("step_p50_ms", quantile(P.StepMs, 0.5).Value, "ms");
  M.set("step_p90_ms", quantile(P.StepMs, 0.9).Value, "ms");
  M.set("mcells_per_s", StepS > 0 ? Cells * Steps / StepS * 1e-6 : 0.0,
        "Mcells/s");
  // A request of a compiled workload is one runPlan call on one box.
  M.set("req_p50_ms", quantile(P.StepMs, 0.5).Value, "ms");
  M.set("req_p99_ms", quantile(P.StepMs, 0.99).Value, "ms");
  M.set("req_per_s", StepS > 0 ? Steps / StepS : 0.0, "1/s");
  M.set("peak_rss_mb", peakRssMb(), "MiB");
}

/// Sample counts behind the percentiles a phase reports.
std::string sampleCounts(const Phase &P) {
  return perfbench::sampleCounts("req_p50_ms", quantile(P.StepMs, 0.5)) +
         ", " + perfbench::sampleCounts("step_p90_ms", quantile(P.StepMs, 0.9)) +
         ", " + perfbench::sampleCounts("req_p99_ms", quantile(P.StepMs, 0.99));
}

std::int64_t storeBytes(const storage::ConcreteStorage &Store) {
  std::int64_t Bytes = 0;
  for (std::size_t I = 0; I < Store.numSpaces(); ++I)
    Bytes += static_cast<std::int64_t>(Store.space(I).size() * sizeof(double));
  return Bytes;
}

} // namespace

bool perfbench::runCompiled(const RunArgs &Args, SpanLog &Spans,
                            RunResult &Out) {
  const Spec *S = nullptr;
  for (const Spec &Cand : Specs)
    if (Args.Workload == Cand.Name)
      S = &Cand;
  if (!S)
    return false;

  // Set-up, several times; the last one is kept. Traced runs alternate
  // untraced and traced set-ups so the span overhead of set-up shows.
  std::vector<double> SetupUntraced, SetupTraced;
  std::unique_ptr<Built> B;
  std::map<std::string, std::vector<double>> PhaseMs;
  std::int64_t JitCompiles = 0;
  SpanLog Off(false);
  for (int Rep = 0; Rep < S->SetupReps; ++Rep) {
    B.reset(); // Free the previous set-up's boxes first.
    const bool Traced = Args.Trace && Rep % 2 == 1;
    B = setUp(*S, Args, Rep, Traced ? Spans : Off);
    (Traced ? SetupTraced : SetupUntraced).push_back(B->Seconds);
    for (const auto &[Name, Ms] : B->PhaseMs)
      PhaseMs[Name].push_back(Ms);
    if (B->Jit)
      JitCompiles = B->Jit->stats().Compiled;
  }
  if (!B->VerifyClean) {
    std::fprintf(stderr, "perfbench: the verifier rejected the plan:\n%s\n",
                 B->VerifyDetail.c_str());
    return false;
  }
  if (B->Jit && !B->Jit->available()) {
    std::fprintf(stderr,
                 "perfbench: %s needs a host compiler for JIT kernels: %s\n",
                 S->Name, B->Jit->unavailableReason().c_str());
    return false;
  }

  // The oracle: a scalar-serial interpreted run of the same plan per box.
  std::vector<std::vector<double>> Oracle(B->Boxes.size());
  {
    exec::RunOptions O;
    O.Threads = 1;
    O.Batched = false;
    O.Kernels = exec::KernelMode::Interp;
    for (std::size_t Box = 0; Box < B->Boxes.size(); ++Box) {
      exec::runPlan(*B->Plan, B->Kernels, *B->Boxes[Box], O);
      Oracle[Box] = copyOutputs(*B, *B->Boxes[Box]);
      resetOutputs(*B, *B->Boxes[Box]);
    }
  }

  std::size_t NextBox = Args.Seed % B->Boxes.size();
  const double SetupS = median(SetupUntraced);
  if (!Args.Trace) {
    Phase P = measure(*S, *B, Oracle, Args.Seconds, NextBox, Spans, false);
    Out.Checks += P.Checks;
    endToEnd(*S, P, SetupS, Out.EndToEnd);
    Out.Fingerprint = "\"setups\": " + std::to_string(SetupUntraced.size()) +
                      ", " + sampleCounts(P);
  } else {
    // Half the time untraced, half traced: the difference of the two is
    // the tracing overhead, and the per-layer numbers come from the second.
    Phase U = measure(*S, *B, Oracle, Args.Seconds / 2, NextBox, Off, false);
    Phase T = measure(*S, *B, Oracle, Args.Seconds / 2, NextBox, Spans, true);
    Out.Checks += U.Checks;
    Out.Checks += T.Checks;
    MetricSet MU, MT;
    endToEnd(*S, U, SetupS, MU);
    endToEnd(*S, T, median(SetupTraced), MT);
    Out.EndToEnd = MT;
    MetricSet &L = Out.PerLayer;
    for (const char *Name : {"compile.chain", "compile.graph",
                             "compile.transform", "compile.storage",
                             "compile.lower", "compile.verify",
                             "compile.first_run"})
      L.set(std::string(Name) + "_ms", median(PhaseMs[Name]), "ms");
    L.set("jit.compiles", static_cast<double>(JitCompiles), "count");
    const double Steps = static_cast<double>(std::max<std::size_t>(
        T.StepMs.size(), 1));
    L.set("jit.cache_hits", static_cast<double>(T.JitHits) / Steps,
          "count/step");
    L.set("exec.overhead_ms_p50", median(T.OverheadMs), "ms");

    // One row analysis of every instruction, timed from outside, the way
    // runPlan does it on each call.
    std::vector<double> ProbeMs;
    jit::Engine *Jit = S->Kernels == exec::KernelMode::Jit ? B->Jit.get()
                                                           : nullptr;
    for (int R = 0; R < 9; ++R) {
      SpanLog::Scope Probe(Spans, "exec.bind_probe");
      double T0 = nowSeconds();
      for (const exec::NestInstr &I : B->Plan->Instrs)
        (void)exec::RowPlan::analyze(I, B->Kernels, Jit);
      ProbeMs.push_back((nowSeconds() - T0) * 1e3);
    }
    L.set("exec.bind_probe_ms", median(ProbeMs), "ms");

    auto PerStep = [&](obs::Counter C) {
      return static_cast<double>(T.Counters[static_cast<std::size_t>(C)]) /
             Steps;
    };
    const double PlanS =
        std::accumulate(T.PlanMs.begin(), T.PlanMs.end(), 0.0) * 1e-3;
    L.set("exec.plan_ms_p50", median(T.PlanMs), "ms");
    L.set("exec.gbytes_per_s",
          PlanS > 0 ? PerStep(obs::Counter::BytesMoved) * Steps / PlanS * 1e-9
                    : 0.0,
          "GB/s");
    graph::CostReport Cost = graph::computeCost(*B->G);
    L.set("graph.sr_bytes",
          8.0 * static_cast<double>(Cost.TotalRead.evaluate(S->N)), "B");
    L.set("exec.bytes_moved", PerStep(obs::Counter::BytesMoved), "B/step");
    L.set("exec.points", PerStep(obs::Counter::PointsExecuted), "count/step");
    L.set("exec.instrs_batched", PerStep(obs::Counter::BatchedInstrs),
          "count/step");
    L.set("exec.instrs_scalar", PerStep(obs::Counter::ScalarInstrs),
          "count/step");
    L.set("exec.jit_fallbacks", PerStep(obs::Counter::JitFallbacks),
          "count/step");
    L.set("exec.idle_share", median(T.Idle), "share");
    L.set("exec.threads_used", median(T.ThreadsUsed), "count");
    L.set("exec.sched_steals", PerStep(obs::Counter::SchedSteals),
          "count/step");
    L.set("exec.sched_stalls", PerStep(obs::Counter::SchedStalls),
          "count/step");
    L.set("storage.bytes", static_cast<double>(storeBytes(*B->Boxes[0])), "B");
    for (const MetricSpec &E : EndToEndMetrics)
      L.set(std::string("overhead.") + E.Name, MT.get(E.Name) - MU.get(E.Name),
            E.Unit);
    Out.Fingerprint = "\"steps_untraced\": " + std::to_string(U.StepMs.size()) +
                      ", \"setups_untraced\": " +
                      std::to_string(SetupUntraced.size()) +
                      ", \"setups_traced\": " +
                      std::to_string(SetupTraced.size()) + ", " +
                      sampleCounts(T);
  }
  return true;
}
