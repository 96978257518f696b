//===- perfbench/src/Harness.h - Benchmark-side helpers ---------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the repository benchmark that know nothing about any one
/// workload: percentiles with their sample counts, the failure tally, the
/// benchmark's own span log (spans are recorded around calls into the
/// library, never inside it), the seeded request sequence of the serve
/// mix, the run fingerprint and the result line.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_PERFBENCH_HARNESS_H
#define LCDFG_PERFBENCH_HARNESS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds.
double nowSeconds();

/// One percentile of a sample: the value (nearest rank, so always a value
/// that was measured), how many samples it was taken from, and how many of
/// them lie strictly above its rank.
struct Quantile {
  double Value = 0.0;
  std::size_t Samples = 0;
  std::size_t Beyond = 0;
};

/// The \p Q-quantile (0 < Q <= 1) of \p V by nearest rank; all zero for an
/// empty sample.
Quantile quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5).Value;
}

/// Operations attempted and failed. A failure is a wrong output, an error
/// response or an exception; none is ever dropped from the count.
struct Tally {
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;

  void record(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  Tally &operator+=(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    return *this;
  }
  /// Failed over attempted (0 when nothing was attempted).
  double failShare() const {
    return Attempted ? static_cast<double>(Failed) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

/// In-memory span log of the traced run. A span has a name, start and end
/// (nanoseconds since the log was made), the id of the span that was open
/// on the same thread when it began (-1 at top level) and a group id that
/// ties together every span of one step or request: a top-level span
/// starts a group, nested spans inherit it. Thread-safe; a disabled log
/// records nothing and costs a branch.
class SpanLog {
public:
  struct Span {
    std::string Name;
    std::int64_t T0 = 0;
    std::int64_t T1 = -1; ///< -1 while open.
    int Parent = -1;
    std::int64_t Group = -1;
  };

  explicit SpanLog(bool Enabled = true);

  /// Opens a span on the calling thread: a top-level span starts a fresh
  /// group, a nested one joins its parent's. Returns the span id, or -1
  /// when disabled.
  int begin(const std::string &Name);
  /// Closes span \p Id (must be the innermost open span of this thread).
  void end(int Id);

  /// RAII form of begin/end.
  class Scope {
  public:
    Scope(SpanLog &L, const std::string &Name) : Log(L), Id(L.begin(Name)) {}
    ~Scope() { Log.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &Log;
    int Id;
  };

  std::vector<Span> spans() const;

  /// Per span name: count, total and self milliseconds (self = duration
  /// minus the part covered by direct children).
  struct LayerRow {
    std::size_t Count = 0;
    double TotalMs = 0.0;
    double SelfMs = 0.0;
  };
  std::map<std::string, LayerRow> layerTable() const;

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool write(const std::string &Path) const;

private:
  bool On;
  std::int64_t Origin;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::int64_t NextGroup = 0;
};

/// The keys, in [0, \p NumKeys), of the first \p Count requests of the
/// serve mix under \p Seed. They come from a shuffle bag that deals every
/// key once, in seeded order, before it refills, so every run sends the
/// same mix of keys and only the order changes with the seed. The
/// generator is the benchmark's own (splitmix64), so a seed names the same
/// sequence on every platform.
std::vector<int> requestSequence(std::uint64_t Seed, std::size_t Count,
                                 int NumKeys);

/// splitmix64 step: advances \p State and returns the next value.
std::uint64_t splitmix64(std::uint64_t &State);

/// Named metrics in insertion order, each with its unit.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const;
  double get(const std::string &Name) const;
  const std::vector<std::string> &names() const { return Order; }
  const std::string &unit(const std::string &Name) const;

private:
  std::vector<std::string> Order;
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string resultJson(const Tally &T, const MetricSet &M);

/// `"<Name>": {"samples": n, "beyond": k}` for the fingerprint line: the
/// sample count behind percentile \p Q and how many samples lie above it.
std::string sampleCounts(const std::string &Name, const Quantile &Q);

/// Renders \p V as a JSON number with every digit kept.
std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// Environment overrides that would silently change what is measured
/// (kernel mode, scheduler, thread cap, fault injection, tracing), as
/// "NAME=value" strings; empty when none is set.
std::vector<std::string> refusedEnvironment();

/// Host description: CPU model, online cores, affinity mask, ISA level and
/// the compiler that built the benchmark. Rendered as JSON members (no
/// braces) so callers can append run-specific fields.
std::string hostFingerprintMembers();

} // namespace perfbench

#endif // LCDFG_PERFBENCH_HARNESS_H
