//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads. Each runs one measurement of
/// RunArgs::Seconds and fills a RunResult: the failure tally, the
/// end-to-end metrics (always) and, in traced runs, the per-layer metrics
/// plus the tracing overhead of every end-to-end metric.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_PERFBENCH_WORKLOADS_H
#define LCDFG_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Private scratch directory of this run (JIT cache, socket); the
  /// caller creates and removes it.
  std::string WorkDir;
  /// examples/chains of the checkout (serve-mix reads fig1.lc there).
  std::string ChainsDir;
};

struct RunResult {
  Tally Checks;
  MetricSet EndToEnd;
  MetricSet PerLayer;
  /// Extra fingerprint members (JSON, no braces): set-up counts and the
  /// sample counts behind each percentile.
  std::string Fingerprint;
};

/// A reported metric. These tables fix the names, order and units of the
/// result line; BENCHMARK.json lists the same metrics (a test checks it).
struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics every workload reports.
inline const MetricSpec EndToEndMetrics[] = {{"setup_s", "s"},
                                              {"req_p50_ms", "ms"},
                                              {"req_per_s", "1/s"},
                                              {"mcells_per_s", "Mcells/s"}};

/// Per-layer metrics every traced run reports (0 where a layer does not
/// take part in the workload). They are followed by "overhead." plus each
/// end-to-end name, in that metric's unit. The first four are measured
/// like the end-to-end metrics, but on a shared host they move too much
/// from run to run to carry a bound (see README.md).
inline const MetricSpec PerLayerMetrics[] = {
    {"step_p50_ms", "ms"},
    {"step_p90_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"compile.chain_ms", "ms"},
    {"compile.graph_ms", "ms"},
    {"compile.transform_ms", "ms"},
    {"compile.storage_ms", "ms"},
    {"compile.lower_ms", "ms"},
    {"compile.verify_ms", "ms"},
    {"compile.first_run_ms", "ms"},
    {"jit.compiles", "count"},
    {"jit.cache_hits", "count/step"},
    {"exec.overhead_ms_p50", "ms"},
    {"exec.bind_probe_ms", "ms"},
    {"exec.plan_ms_p50", "ms"},
    {"exec.gbytes_per_s", "GB/s"},
    {"graph.sr_bytes", "B"},
    {"exec.bytes_moved", "B/step"},
    {"exec.points", "count/step"},
    {"exec.instrs_batched", "count/step"},
    {"exec.instrs_scalar", "count/step"},
    {"exec.jit_fallbacks", "count/step"},
    {"exec.idle_share", "share"},
    {"exec.threads_used", "count"},
    {"exec.sched_steals", "count/step"},
    {"exec.sched_stalls", "count/step"},
    {"storage.bytes", "B"},
    {"serve.hit_ratio", "share"},
    {"serve.evictions", "count"},
    {"serve.run_ms_p50", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.json_parse_us_p50", "us"},
    {"serve.compile_ms_p50", "ms"},
    {"serve.compile_ms_p90", "ms"},
    {"serve.wait_ms_p99", "ms"},
    {"serve.errors", "count"},
    {"serve.rejected", "count"},
    {"fail_share", "share"},
};

/// \p Spans records the benchmark's spans in traced runs (it is disabled
/// otherwise).
///
/// Runs mfd-small-jit or mfd-large-t4. Returns false when the workload
/// cannot run as specified on this host (the reason is on stderr).
bool runCompiled(const RunArgs &Args, SpanLog &Spans, RunResult &Out);

/// Runs serve-mix. Returns false when the daemon cannot be started.
bool runServeMix(const RunArgs &Args, SpanLog &Spans, RunResult &Out);

} // namespace perfbench

#endif // LCDFG_PERFBENCH_WORKLOADS_H
