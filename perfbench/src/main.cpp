//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   lcdfg_perfbench --workload <mfd-small-jit|mfd-large-t4|serve-mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> --chains <examples/chains>
//                   [--spans <file>] [--commit <id>]
//
// Prints a fingerprint line, in traced runs a per-layer table, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "jit/JitEngine.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: lcdfg_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "--chains <dir> [--spans <file>] [--commit <id>]\n",
               Why);
  return 2;
}

void printLayerTable(const SpanLog &Spans, const MetricSet &L) {
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto &[Name, Row] : Spans.layerTable())
    std::printf("%-28s %8zu %12.3f %12.3f\n", Name.c_str(), Row.Count,
                Row.TotalMs, Row.SelfMs);
  std::printf("%-28s %20s\n", "per-layer metric", "value");
  for (const std::string &Name : L.names())
    std::printf("%-28s %20.6g %s\n", Name.c_str(), L.get(Name),
                L.unit(Name).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  std::string SpansPath, Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload") {
      Args.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Args.Seed = std::strtoull(V.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      Args.Seconds = std::atof(V.c_str());
      HaveSeconds = Args.Seconds > 0;
    } else if (A == "--trace") {
      Args.Trace = V == "1";
    } else if (A == "--workdir") {
      Args.WorkDir = V;
    } else if (A == "--chains") {
      Args.ChainsDir = V;
    } else if (A == "--spans") {
      SpansPath = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || Args.WorkDir.empty() ||
      Args.ChainsDir.empty())
    return usage("--workload, --seed, --seconds, --workdir and --chains are "
                 "required");

  // Each of these silently changes what a workload measures (LCDFG_JIT=off
  // turns mfd-small-jit into an interpreted run, LCDFG_THREADS caps
  // mfd-large-t4, ...), so a run under any of them is refused.
  if (std::vector<std::string> Env = refusedEnvironment(); !Env.empty()) {
    for (const std::string &E : Env)
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   E.c_str());
    return 2;
  }

  const bool Serve = Args.Workload == "serve-mix";
  if (!Serve && Args.Workload != "mfd-small-jit" &&
      Args.Workload != "mfd-large-t4")
    return usage(("unknown workload " + Args.Workload).c_str());

  std::filesystem::create_directories(Args.WorkDir);
  SpanLog Spans(Args.Trace);
  RunResult R;
  bool Ran = false;
  try {
    Ran = Serve ? runServeMix(Args, Spans, R) : runCompiled(Args, Spans, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", Args.Workload.c_str(),
                 E.what());
  }
  // The JIT host compiler's identity, asked of an engine whose cache sits
  // in the run's own directory.
  std::string JitCc;
  {
    lcdfg::jit::EngineOptions JO;
    JO.CacheDir = Args.WorkDir + "/jit-probe";
    JitCc = lcdfg::jit::Engine(JO).compilerVersion();
  }
  std::filesystem::remove_all(Args.WorkDir);
  if (!Ran)
    return 1;

  // The result line takes names, order and units from the metric tables.
  // In traced runs R.EndToEnd holds the traced values, which also supply
  // the tail latencies; per-layer metrics a workload has no layer for
  // read 0.
  MetricSet Result;
  for (const MetricSpec &E : EndToEndMetrics)
    if (!R.EndToEnd.has(E.Name)) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   Args.Workload.c_str(), E.Name);
      return 1;
    }
  if (Args.Trace) {
    MetricSet &Layer = R.PerLayer;
    Layer.set("fail_share", R.Checks.failShare(), "share");
    for (const MetricSpec &M : PerLayerMetrics)
      Result.set(M.Name,
                 Layer.has(M.Name) ? Layer.get(M.Name) : R.EndToEnd.get(M.Name),
                 M.Unit);
    for (const MetricSpec &E : EndToEndMetrics) {
      const std::string Name = std::string("overhead.") + E.Name;
      Result.set(Name, Layer.get(Name), E.Unit);
    }
    if (!SpansPath.empty() && !Spans.write(SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());
    printLayerTable(Spans, Result);
  } else {
    for (const MetricSpec &E : EndToEndMetrics)
      Result.set(E.Name, R.EndToEnd.get(E.Name), E.Unit);
  }

  std::string Fingerprint = hostFingerprintMembers() +
                            ", \"jit_host_cc\": " + jsonString(JitCc) +
                            ", \"commit\": " + jsonString(Commit) +
                            ", \"workload\": " + jsonString(Args.Workload) +
                            ", \"seed\": " + std::to_string(Args.Seed) +
                            ", \"trace\": " + (Args.Trace ? "1" : "0");
  if (!R.Fingerprint.empty())
    Fingerprint += ", " + R.Fingerprint;
  std::printf("fingerprint: {%s}\n", Fingerprint.c_str());
  std::printf("%s\n",
              resultJson(R.Checks, Result).c_str());
  return 0;
}
