//===- tools/lcdfg-opt.cpp - Loop chain optimization driver ---------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// The command-line face of the paper's workflow: read an annotated loop
// chain, optionally apply a transformation script (or the automatic
// scheduler), and emit any of the system's artifacts — the schedule as
// text, the cost model, the Graphviz rendering, the ISCC script, the
// storage plan, or generated C code.
//
//   lcdfg-opt [options] <chain.lc>
//     --script <file>      apply a transformation script (see ScriptRunner)
//     --autoschedule[=S]   run the greedy scheduler (stream budget S)
//     --reduce             apply reuse-distance storage reduction
//     --emit=text|cost|dot|iscc|storage|code|pragmas   (default: text)
//     --stats              compile + execute the schedule at --size and
//                          report per-node timings and measured-vs-model
//                          traffic (replaces --emit output). The counting
//                          run is serialized and scalar (the oracle); a
//                          second uninstrumented run reports wall time
//                          honoring --threads and --batched.
//     --batched=on|off     row-batched kernel execution for the timed
//                          run (default on)
//     --dump-plan          print the compiled ExecutionPlan
//     --verify[=strict]    run the static legality verifier over the
//                          compiled plan and the scheduled graph; strict
//                          mode exits nonzero when any ERROR is found.
//                          With --kernels=jit also runs the JIT
//                          translation validator (K codes) over every
//                          emission the engine would compile
//     --report[=json]      execute through the graceful-degradation ladder
//                          (exec::runWithRecovery) with the untransformed
//                          chain as the fallback plan, and print the
//                          RunReport: every rung descent with its stable
//                          L00x reason code, the rung that completed, and
//                          the E014 diagnostic when the ladder exhausts.
//                          Exits nonzero only when no rung completed.
//                          Honors an armed LCDFG_FAULT spec, so this is
//                          the fault-campaign entry point for tools/ci.sh.
//     --harden             run --report rungs against canary-padded shadow
//                          buffers with NaN-poisoned temporaries
//     --trace=<file>       execute the schedule once (honoring --threads
//                          and --batched) with the span tracer armed and
//                          write the Chrome trace_event JSON to <file>
///                          (load in chrome://tracing or Perfetto); the
//                          trace is validated with obs::checkTrace and any
//                          T00x conformance error exits nonzero
//     --metrics            print the trace's compact text summary (counter
//                          registry totals, per-worker busy time and load
//                          imbalance); implies a traced run like --trace
//     --size=N             concrete size for --stats/--dump-plan (default 8)
//     --threads=K          parallelism for --stats runs
//     --scheduler=S        task-graph strategy for parallel runs:
//                          list (work-stealing ready deques, the default)
//                          or wavefront (the paper's level barrier)
//     --mem-budget=B       live-temporary byte cap for the list scheduler;
//                          tasks whose admission would push live bytes
//                          past B are deferred. An infeasible budget is an
//                          E016 error (under --report, an L007 descent).
//                          Requires --scheduler=list.
//     -o <file>            write output to a file instead of stdout
//
//===----------------------------------------------------------------------===//

#include "codegen/CPrinter.h"
#include "codegen/Generator.h"
#include "codegen/IsccExport.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "exec/Recovery.h"
#include "exec/RowPlan.h"
#include "jit/JitEngine.h"
#include "obs/Trace.h"
#include "obs/TraceCheck.h"
#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/DotExport.h"
#include "graph/GraphBuilder.h"
#include "graph/Traffic.h"
#include "parser/PragmaParser.h"
#include "parser/PragmaPrinter.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "support/Status.h"
#include "verify/KernelVerifier.h"
#include "verify/PlanVerifier.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace lcdfg;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <chain.lc>\n"
      "  --script <file>     apply a transformation script\n"
      "  --autoschedule[=S]  greedy scheduling with stream budget S\n"
      "  --reduce            reuse-distance storage reduction\n"
      "  --emit=KIND         text|cost|dot|iscc|storage|code|pragmas\n"
      "  --stats             execute the schedule, report node timings and\n"
      "                      measured-vs-model traffic\n"
      "  --batched=on|off    row-batched execution for the timed run\n"
      "  --kernels=interp|jit batched-body provenance: registered C++\n"
      "                      bodies (default) or run-time-compiled\n"
      "                      specialized kernels (LCDFG_JIT overrides)\n"
      "  --dump-plan         print the compiled execution plan\n"
      "  --verify[=strict]   static legality checks; strict exits nonzero\n"
      "                      on any ERROR (adds the K-code JIT translation\n"
      "                      validator under --kernels=jit)\n"
      "  --report[=json]     execute through the degradation ladder and\n"
      "                      print the recovery report; exits nonzero only\n"
      "                      when every rung fails (honors LCDFG_FAULT)\n"
      "  --harden            redzone + NaN-guard shadow buffers for\n"
      "                      --report runs\n"
      "  --trace=FILE        traced execution; write Chrome trace JSON\n"
      "  --metrics           print the trace summary (counters, per-worker\n"
      "                      load); implies a traced run\n"
      "  --size=N            concrete size for --stats/--dump-plan\n"
      "  --threads=K         parallelism for --stats runs\n"
      "  --scheduler=S       list (work-stealing, default) | wavefront\n"
      "  --mem-budget=B      live-temporary byte cap (list scheduler only);\n"
      "                      infeasible budgets fail with E016\n"
      "  -o <file>           output file (default stdout)\n",
      Argv0);
  return 2;
}

/// Batched form of the synthetic stand-in body: sum of reads accumulated
/// into the target, in the same order as the scalar lambda so the two
/// paths stay bit-identical. One instantiation per read arity (the ABI
/// fixes the arity per kernel).
template <int Arity>
void batchedSum(double *W, const double *const *R, const std::int64_t *S,
                std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = W[I * WS];
    for (int J = 0; J < Arity; ++J)
      Sum += R[J][I * S[J]];
    W[I * WS] = Sum;
  }
}

codegen::BatchedKernel batchedSumForArity(std::size_t Arity) {
  static constexpr codegen::BatchedKernel Table[] = {
      batchedSum<0>, batchedSum<1>, batchedSum<2>, batchedSum<3>,
      batchedSum<4>, batchedSum<5>, batchedSum<6>, batchedSum<7>,
      batchedSum<8>};
  return Arity < sizeof(Table) / sizeof(Table[0]) ? Table[Arity] : nullptr;
}

/// Pure variant for hardened runs: the accumulating body above reads its
/// own (unwritten) target first, which under NaN-poisoned temporaries is
/// exactly the read-before-write pattern the guard exists to catch. The
/// hardened stand-in must define every output point from its reads alone.
template <int Arity>
void batchedPureSum(double *W, const double *const *R, const std::int64_t *S,
                    std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (int J = 0; J < Arity; ++J)
      Sum += R[J][I * S[J]];
    W[I * WS] = Sum;
  }
}

codegen::BatchedKernel batchedPureSumForArity(std::size_t Arity) {
  static constexpr codegen::BatchedKernel Table[] = {
      batchedPureSum<0>, batchedPureSum<1>, batchedPureSum<2>,
      batchedPureSum<3>, batchedPureSum<4>, batchedPureSum<5>,
      batchedPureSum<6>, batchedPureSum<7>, batchedPureSum<8>};
  return Arity < sizeof(Table) / sizeof(Table[0]) ? Table[Arity] : nullptr;
}

/// Expression form of the two stand-in bodies: the same left-associated
/// sum, so the JIT's emitted C adds in the interpreter's order.
codegen::KernelExpr sumExpr(std::size_t Arity, bool Pure) {
  codegen::KernelExpr E = Pure ? codegen::lit(0.0) : codegen::current();
  for (std::size_t J = 0; J < Arity; ++J)
    E = E + codegen::read(static_cast<unsigned>(J));
  return E;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

int runTool(int argc, char **argv) {
  std::string InputPath, ScriptPath, OutputPath;
  std::string Emit = "text";
  bool AutoSchedule = false, Reduce = false;
  bool Stats = false, DumpPlan = false, Batched = true;
  bool Verify = false, VerifyStrict = false;
  bool Report = false, ReportJson = false, Harden = false;
  std::string TracePath;
  bool Metrics = false;
  std::int64_t SizeN = 8;
  int Threads = 1;
  unsigned Streams = 4;
  exec::SchedulerKind Scheduler = exec::SchedulerKind::List;
  exec::KernelMode KernelMode = exec::KernelMode::Interp;
  std::int64_t MemBudget = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--script" && I + 1 < argc) {
      ScriptPath = argv[++I];
    } else if (Arg == "--autoschedule") {
      AutoSchedule = true;
    } else if (Arg.rfind("--autoschedule=", 0) == 0) {
      AutoSchedule = true;
      Streams = static_cast<unsigned>(std::atoi(Arg.c_str() + 15));
    } else if (Arg == "--reduce") {
      Reduce = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg.rfind("--batched=", 0) == 0) {
      std::string V = Arg.substr(10);
      if (V == "on") {
        Batched = true;
      } else if (V == "off") {
        Batched = false;
      } else {
        std::fprintf(stderr, "error: --batched takes on|off\n");
        return 2;
      }
    } else if (Arg.rfind("--kernels=", 0) == 0) {
      std::string V = Arg.substr(10);
      if (V == "interp") {
        KernelMode = exec::KernelMode::Interp;
      } else if (V == "jit") {
        KernelMode = exec::KernelMode::Jit;
      } else {
        std::fprintf(stderr, "error: --kernels takes interp|jit\n");
        return 2;
      }
    } else if (Arg == "--dump-plan") {
      DumpPlan = true;
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--verify=strict") {
      Verify = VerifyStrict = true;
    } else if (Arg == "--report") {
      Report = true;
    } else if (Arg == "--report=json") {
      Report = ReportJson = true;
    } else if (Arg == "--harden") {
      Harden = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        std::fprintf(stderr, "error: --trace needs a file path\n");
        return 2;
      }
    } else if (Arg == "--metrics") {
      Metrics = true;
    } else if (Arg.rfind("--size=", 0) == 0) {
      SizeN = std::atoll(Arg.c_str() + 7);
      if (SizeN < 1) {
        std::fprintf(stderr, "error: --size must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--threads=", 0) == 0) {
      Threads = std::atoi(Arg.c_str() + 10);
    } else if (Arg.rfind("--scheduler=", 0) == 0) {
      std::string V = Arg.substr(12);
      if (V == "wavefront") {
        Scheduler = exec::SchedulerKind::Wavefront;
      } else if (V == "list") {
        Scheduler = exec::SchedulerKind::List;
      } else {
        std::fprintf(stderr, "error: --scheduler takes wavefront|list\n");
        return 2;
      }
    } else if (Arg.rfind("--mem-budget=", 0) == 0) {
      MemBudget = std::atoll(Arg.c_str() + 13);
      if (MemBudget < 1) {
        std::fprintf(stderr, "error: --mem-budget must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--emit=", 0) == 0) {
      Emit = Arg.substr(7);
    } else if (Arg == "-o" && I + 1 < argc) {
      OutputPath = argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      InputPath = Arg;
    }
  }
  if (InputPath.empty())
    return usage(argv[0]);
  if (MemBudget > 0 && Scheduler == exec::SchedulerKind::Wavefront) {
    std::fprintf(stderr, "error: --mem-budget needs --scheduler=list (the "
                         "wavefront strategy has no admission step)\n");
    return 2;
  }

  std::string Source;
  if (!readFile(InputPath, Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", InputPath.c_str());
    return 1;
  }
  parser::ParseResult Parsed = parser::parseLoopChain(Source);
  if (!Parsed) {
    // formatted() renders "line L, column C: message" plus the offending
    // logical line and an aligned caret when position info is available.
    std::fprintf(stderr, "%s: error: %s\n", InputPath.c_str(),
                 Parsed.formatted().c_str());
    return 1;
  }
  ir::LoopChain Chain = std::move(*Parsed.Chain);
  graph::Graph G = graph::buildGraph(Chain);

  if (!ScriptPath.empty()) {
    std::string Script;
    if (!readFile(ScriptPath, Script)) {
      std::fprintf(stderr, "error: cannot read %s\n", ScriptPath.c_str());
      return 1;
    }
    parser::ScriptResult R = parser::runScript(G, Script);
    for (const std::string &Line : R.Log)
      std::fprintf(stderr, "script: %s\n", Line.c_str());
    if (!R) {
      std::fprintf(stderr, "%s:%u: error: %s\n", ScriptPath.c_str(), R.Line,
                   R.Error.c_str());
      return 1;
    }
  }
  if (AutoSchedule) {
    graph::AutoScheduleOptions Options;
    Options.MaxStreams = Streams;
    graph::AutoScheduleResult R = graph::autoSchedule(G, Options);
    std::fprintf(stderr, "autoschedule: %u moves, S_R %s -> %s\n",
                 R.StepsApplied, R.InitialRead.toString().c_str(),
                 R.FinalRead.toString().c_str());
  }
  if (Reduce)
    storage::reduceStorage(G);

  bool VerifyFailed = false, ReportFailed = false, TraceFailed = false;
  const bool Trace = Metrics || !TracePath.empty();
  std::string Output;
  if (Stats || DumpPlan || Verify || Report || Trace) {
    // Compile the (transformed) schedule to an ExecutionPlan at the
    // concrete size and, for --stats, execute it with instrumentation.
    // Parsed chains carry no executable kernels; a synthetic body
    // (sum of reads accumulated into the target) stands in — timing and
    // traffic shapes are meaningful regardless of the arithmetic.
    codegen::KernelRegistry Kernels;
    std::map<std::size_t, int> SyntheticByArity;
    auto syntheticId = [&](std::size_t Arity) {
      auto It = SyntheticByArity.find(Arity);
      if (It != SyntheticByArity.end())
        return It->second;
      int Id =
          Harden ? Kernels.add(
                       [](const std::vector<double> &Reads, double) {
                         double Sum = 0.0;
                         for (double R : Reads)
                           Sum += R;
                         return Sum;
                       },
                       batchedPureSumForArity(Arity), sumExpr(Arity, true))
                 : Kernels.add(
                       [](const std::vector<double> &Reads, double Current) {
                         double Sum = Current;
                         for (double R : Reads)
                           Sum += R;
                         return Sum;
                       },
                       batchedSumForArity(Arity), sumExpr(Arity, false));
      SyntheticByArity.emplace(Arity, Id);
      return Id;
    };
    for (unsigned N = 0; N < Chain.numNests(); ++N)
      if (Chain.nest(N).KernelId < 0) {
        std::size_t Arity = 0;
        for (const ir::Access &A : Chain.nest(N).Reads)
          Arity += A.Offsets.size();
        Chain.nest(N).KernelId = syntheticId(Arity);
      }

    exec::ParamEnv Env{{"N", SizeN}};
    storage::StoragePlan SPlan = storage::StoragePlan::build(G);
    auto seedInputs = [&](storage::ConcreteStorage &S) {
      for (const std::string &Name : Chain.arrayNames())
        if (Chain.array(Name).Kind == ir::StorageKind::PersistentInput) {
          std::vector<double> &Buf = S.spaceOf(Name);
          for (std::size_t I = 0; I < Buf.size(); ++I)
            Buf[I] = 0.001 * static_cast<double>((I * 2654435761u) % 1000u);
        }
    };
    storage::ConcreteStorage Store(SPlan, Env);
    seedInputs(Store);

    codegen::AstPtr Ast = codegen::generate(G);
    exec::ExecutionPlan Plan = exec::ExecutionPlan::fromAst(G, *Ast, Store,
                                                            Env);
    std::ostringstream OS;
    if (DumpPlan)
      OS << Plan.dump();
    if (Verify) {
      verify::VerifyOptions VOpts;
      VOpts.Kernels = &Kernels;
      verify::PlanVerifier Verifier(Plan, VOpts);
      verify::Diagnostics Diags = Verifier.verify();
      verify::checkGraphSchedule(G, Diags);
      // Whenever the JIT path is selectable, statically validate the
      // emissions it would compile (K codes) alongside the plan-level
      // V codes. Purely symbolic: no engine, no host compiler.
      if (exec::effectiveKernelMode(KernelMode) == exec::KernelMode::Jit) {
        verify::Diagnostics KDiags =
            verify::verifyPlanKernels(Plan, Kernels);
        for (const verify::Diagnostic &D : KDiags.all())
          Diags.add(D);
      }
      OS << Diags.toString();
      if (VerifyStrict && Diags.hasErrors())
        VerifyFailed = true;
    }
    if (Stats) {
      exec::RunOptions Opts;
      Opts.Threads = Threads;
      Opts.CollectStats = true;
      exec::PlanStats PS = exec::runPlan(Plan, Kernels, Store, Opts);
      OS << PS.toString();
      graph::TrafficReport TR = graph::measureTraffic(G, SizeN);
      OS << "traffic at N=" << SizeN << ": measured " << PS.totalRead()
         << ", enumerated " << TR.Total << ", model S_R " << TR.ModelTotal
         << ", model accuracy " << TR.modelAccuracy() << "\n";
      // Counters come from the serialized scalar oracle above; wall time
      // for A/B comparisons comes from an uninstrumented run on fresh
      // storage that honors --threads and --batched.
      storage::ConcreteStorage TimedStore(SPlan, Env);
      seedInputs(TimedStore);
      exec::RunOptions TimedOpts;
      TimedOpts.Threads = Threads;
      TimedOpts.Batched = Batched;
      TimedOpts.Scheduler = Scheduler;
      TimedOpts.MemBudget = MemBudget;
      TimedOpts.Kernels = KernelMode;
      exec::PlanStats TPS = exec::runPlan(Plan, Kernels, TimedStore,
                                          TimedOpts);
      OS << "timed run (batched " << (Batched ? "on" : "off")
         << ", threads " << TPS.ThreadsUsed << "): " << TPS.Seconds
         << " s\n";
    }
    if (Trace) {
      // Dedicated traced run on fresh storage (counters then cover exactly
      // one execution honoring --threads/--batched, diffable against the
      // --stats oracle in the same invocation).
      storage::ConcreteStorage TraceStore(SPlan, Env);
      seedInputs(TraceStore);
      obs::Tracer &Tracer = obs::Tracer::global();
      Tracer.enable();
      exec::RunOptions TOpts;
      TOpts.Threads = Threads;
      TOpts.Batched = Batched;
      TOpts.Scheduler = Scheduler;
      TOpts.MemBudget = MemBudget;
      TOpts.Kernels = KernelMode;
      exec::runPlan(Plan, Kernels, TraceStore, TOpts);
      obs::Trace T = Tracer.drain();
      Tracer.disable();
      verify::Diagnostics TDiags = obs::checkTrace(Plan, T);
      if (!TracePath.empty()) {
        std::ofstream TF(TracePath);
        if (!TF) {
          std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
          return 1;
        }
        TF << T.toChromeJson();
        std::fprintf(stderr, "wrote trace: %s (%zu spans)\n",
                     TracePath.c_str(), T.Spans.size());
      }
      if (Metrics)
        OS << T.summary();
      if (TDiags.hasErrors()) {
        OS << TDiags.toString();
        TraceFailed = true;
      } else if (Metrics) {
        OS << "trace check: ok (" << T.Spans.size() << " spans)\n";
      }
    }
    if (Report) {
      // The fallback rung runs the untransformed chain's original schedule
      // against its own storage plan — the transformed plan's store may
      // have collapsed arrays the fallback still writes in full.
      graph::Graph RefG = graph::buildGraph(Chain);
      storage::StoragePlan FbSPlan = storage::StoragePlan::build(RefG);
      storage::ConcreteStorage FbStore(FbSPlan, Env);
      seedInputs(FbStore);
      exec::ExecutionPlan FbPlan =
          exec::ExecutionPlan::fromChain(Chain, FbStore, Env, &RefG);

      storage::ConcreteStorage ReportStore(SPlan, Env);
      seedInputs(ReportStore);
      exec::RecoverOptions ROpts;
      ROpts.Run.Threads = Threads;
      ROpts.Run.Batched = Batched;
      ROpts.Run.Harden = Harden;
      ROpts.Run.Scheduler = Scheduler;
      ROpts.Run.MemBudget = MemBudget;
      ROpts.Run.Kernels = KernelMode;
      ROpts.StrictVerify = true;
      ROpts.VerifyKernels = &Kernels;
      ROpts.Fallback = &FbPlan;
      ROpts.FallbackStore = &FbStore;
      if (!ReportJson) {
        // Per-instruction dispatch breakdown, separating the two refusal
        // dimensions: an instruction may batch fine yet stay on the
        // interpreted bodies (and vice versa the JIT column only applies
        // where batching engaged at all).
        jit::Engine *Eng =
            exec::effectiveKernelMode(KernelMode) == exec::KernelMode::Jit
                ? &jit::Engine::global()
                : nullptr;
        for (const exec::NestInstr &I : Plan.Instrs) {
          if (I.External)
            continue;
          exec::RowAnalysis RA = exec::RowPlan::analyze(I, Kernels, Eng);
          OS << "dispatch " << I.Label << ": batched=";
          if (RA.Plan)
            OS << "yes";
          else
            OS << "no (" << exec::rowRefusalName(RA.Refusal) << ")";
          if (Eng) {
            OS << " jit=" << exec::jitRefusalName(RA.Jit);
            if (RA.Plan)
              OS << " (" << RA.JitStmts << "/" << RA.Plan->Stmts.size()
                 << " stmts)";
            if (!RA.JitDetail.empty())
              OS << " [" << RA.JitDetail << "]";
          }
          OS << "\n";
        }
      }
      exec::RunReport RR =
          exec::runWithRecovery(Plan, Kernels, ReportStore, ROpts);
      OS << (ReportJson ? RR.toJson() + "\n" : RR.toString());
      if (!RR.Completed)
        ReportFailed = true;
    }
    Output = OS.str();
  } else if (Emit == "text") {
    Output = graph::toText(G);
  } else if (Emit == "cost") {
    Output = graph::computeCost(G).toString();
  } else if (Emit == "dot") {
    Output = graph::toDot(G, {true, InputPath});
  } else if (Emit == "iscc") {
    Output = codegen::exportIscc(G);
  } else if (Emit == "storage") {
    Output = storage::StoragePlan::build(G).toString();
  } else if (Emit == "code") {
    storage::StoragePlan Plan = storage::StoragePlan::build(G);
    codegen::PrintOptions Options;
    Options.Plan = &Plan;
    codegen::AstPtr Ast = codegen::generate(G);
    Output = codegen::printC(G, *Ast, Options);
  } else if (Emit == "pragmas") {
    Output = parser::printPragmas(G.chain());
  } else {
    std::fprintf(stderr, "error: unknown --emit kind '%s'\n", Emit.c_str());
    return 2;
  }

  if (OutputPath.empty()) {
    std::fputs(Output.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
      return 1;
    }
    Out << Output;
  }
  return (VerifyFailed || ReportFailed || TraceFailed) ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // The library reports recoverable failures as StatusError; anything that
  // escapes to here becomes a structured diagnostic, never a terminate().
  try {
    return runTool(argc, argv);
  } catch (const support::StatusError &E) {
    std::fprintf(stderr, "error: %s\n", E.status().toString().c_str());
    return 1;
  }
}
