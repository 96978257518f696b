//===- obs/Trace.cpp ------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

using namespace lcdfg;
using namespace lcdfg::obs;

std::string_view obs::counterName(Counter C) {
  switch (C) {
  case Counter::PointsExecuted:
    return "exec.points";
  case Counter::RawReads:
    return "exec.reads.raw";
  case Counter::BytesMoved:
    return "exec.bytes.moved";
  case Counter::TasksExecuted:
    return "exec.tasks";
  case Counter::ExternalTasks:
    return "exec.tasks.external";
  case Counter::Wavefronts:
    return "exec.wavefronts";
  case Counter::BatchedInstrs:
    return "exec.instrs.batched";
  case Counter::ScalarInstrs:
    return "exec.instrs.scalar";
  case Counter::BatchedSegments:
    return "exec.segments.batched";
  case Counter::ModuloWraps:
    return "exec.modulo.wraps";
  case Counter::GhostExchanges:
    return "rt.ghost.exchanges";
  case Counter::GhostCells:
    return "rt.ghost.cells";
  case Counter::RecoveryRuns:
    return "recovery.attempts";
  case Counter::RecoveryDescents:
    return "recovery.descents";
  case Counter::FaultsFired:
    return "fault.fired";
  case Counter::SchedSteals:
    return "exec.sched.steals";
  case Counter::SchedStalls:
    return "exec.sched.stalls";
  case Counter::SchedDeferred:
    return "exec.sched.deferred";
  case Counter::SchedPeakLive:
    return "exec.sched.live.peak";
  case Counter::JitCompiled:
    return "exec.jit.compiled";
  case Counter::JitCacheHits:
    return "exec.jit.cache.hits";
  case Counter::JitFallbacks:
    return "exec.jit.fallbacks";
  case Counter::ServeRequests:
    return "serve.requests";
  case Counter::ServeCacheHits:
    return "serve.cache.hits";
  case Counter::ServeCacheMisses:
    return "serve.cache.misses";
  case Counter::ServeEvictions:
    return "serve.cache.evictions";
  case Counter::ServeErrors:
    return "serve.errors";
  case Counter::NumCounters:
    break;
  }
  return "unknown";
}

std::string_view obs::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Task:
    return "task";
  case SpanKind::Wavefront:
    return "wavefront";
  case SpanKind::Rung:
    return "rung";
  case SpanKind::Run:
    return "run";
  case SpanKind::Marker:
    return "marker";
  case SpanKind::Jit:
    return "jit";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// One recording thread's private state. Only the owning thread writes the
/// ring/counters while recording is live; the draining thread reads them
/// only between parallel regions (the Tracer contract).
struct ThreadBuf {
  std::vector<TraceSpan> Ring;
  std::size_t Capacity = 0;
  std::size_t Total = 0; ///< Spans ever recorded (>Capacity => wrapped).
  std::array<std::int64_t, NumCountersV> Counters{};

  void clear(std::size_t Cap) {
    Ring.clear();
    Ring.reserve(Cap);
    Capacity = Cap;
    Total = 0;
    Counters.fill(0);
  }

  void push(const TraceSpan &S) {
    if (Ring.size() < Capacity)
      Ring.push_back(S);
    else if (Capacity)
      Ring[Total % Capacity] = S;
    ++Total;
  }
};

} // namespace

struct Tracer::Impl {
  std::atomic<bool> Enabled{false};
  /// Bumped by enable()/drain(); a thread whose cached generation is stale
  /// re-registers, so stale thread-local pointers never dangle into a
  /// cleared buffer list.
  std::atomic<std::uint64_t> Generation{0};
  Clock::time_point Epoch{};
  std::size_t Capacity = DefaultCapacity;

  std::mutex Mu; ///< Guards Bufs, Labels, LabelIds.
  std::vector<std::unique_ptr<ThreadBuf>> Bufs;
  std::vector<std::string> Labels;
  std::unordered_map<std::string, std::int32_t> LabelIds;

  /// Set when LCDFG_TRACE armed the global tracer: drained + written at
  /// process exit.
  std::string ExitPath;

  ThreadBuf *acquire() {
    // Fast path: this thread already registered a buffer for the current
    // generation. Thread-locals are per-tracer-irrelevant (there is one
    // global tracer in practice; unit tests construct their own but never
    // share threads mid-trace with the global one while both are enabled).
    thread_local ThreadBuf *Buf = nullptr;
    thread_local std::uint64_t Gen = ~std::uint64_t{0};
    thread_local Impl *Owner = nullptr;
    std::uint64_t Cur = Generation.load(std::memory_order_acquire);
    if (Buf && Gen == Cur && Owner == this)
      return Buf;
    std::lock_guard<std::mutex> L(Mu);
    Bufs.push_back(std::make_unique<ThreadBuf>());
    Bufs.back()->clear(Capacity);
    Buf = Bufs.back().get();
    Gen = Cur;
    Owner = this;
    return Buf;
  }
};

Tracer::Tracer() : PImpl(new Impl) {}

Tracer::~Tracer() {
  if (!PImpl->ExitPath.empty() && PImpl->Enabled.load()) {
    Trace T = drain();
    if (!T.Spans.empty() || !T.WorkerCounters.empty()) {
      std::string Json = T.toChromeJson();
      if (std::FILE *F = std::fopen(PImpl->ExitPath.c_str(), "w")) {
        std::fwrite(Json.data(), 1, Json.size(), F);
        std::fclose(F);
        std::fprintf(stderr, "lcdfg: wrote trace to %s (%zu spans)\n",
                     PImpl->ExitPath.c_str(), T.Spans.size());
      }
    }
  }
  delete PImpl;
}

Tracer &Tracer::global() {
  static Tracer T;
  static bool Armed = [] {
    if (const char *Path = std::getenv("LCDFG_TRACE"); Path && *Path) {
      std::size_t Cap = DefaultCapacity;
      if (const char *CapStr = std::getenv("LCDFG_TRACE_CAP"))
        if (long long V = std::atoll(CapStr); V > 0)
          Cap = static_cast<std::size_t>(V);
      T.enable(Cap);
      T.PImpl->ExitPath = Path;
    }
    return true;
  }();
  (void)Armed;
  return T;
}

bool Tracer::enabled() const {
  return PImpl->Enabled.load(std::memory_order_relaxed);
}

void Tracer::enable(std::size_t CapacityPerWorker) {
  Impl &I = *PImpl;
  I.Enabled.store(false);
  {
    std::lock_guard<std::mutex> L(I.Mu);
    I.Bufs.clear();
    I.Labels.clear();
    I.LabelIds.clear();
    I.Capacity = CapacityPerWorker ? CapacityPerWorker : 1;
  }
  I.Epoch = Clock::now();
  I.Generation.fetch_add(1, std::memory_order_acq_rel);
  I.Enabled.store(true, std::memory_order_release);
}

void Tracer::disable() { PImpl->Enabled.store(false); }

Trace Tracer::drain() {
  Impl &I = *PImpl;
  Trace T;
  std::lock_guard<std::mutex> L(I.Mu);
  // Invalidate every cached thread-local pointer before the buffers die.
  I.Generation.fetch_add(1, std::memory_order_acq_rel);
  T.Labels = std::move(I.Labels);
  I.Labels.clear();
  I.LabelIds.clear();
  T.WorkerCounters.reserve(I.Bufs.size());
  for (std::size_t W = 0; W < I.Bufs.size(); ++W) {
    ThreadBuf &B = *I.Bufs[W];
    T.WorkerCounters.push_back(B.Counters);
    std::size_t Kept = std::min(B.Total, B.Capacity);
    T.Dropped += static_cast<std::int64_t>(B.Total - Kept);
    // On wrap-around the oldest surviving span sits at Total % Capacity.
    std::size_t Start = B.Total > B.Capacity ? B.Total % B.Capacity : 0;
    for (std::size_t K = 0; K < Kept; ++K) {
      TraceSpan S = B.Ring[(Start + K) % B.Capacity];
      S.Worker = static_cast<std::int32_t>(W);
      T.Spans.push_back(S);
    }
  }
  I.Bufs.clear();
  std::stable_sort(T.Spans.begin(), T.Spans.end(),
                   [](const TraceSpan &A, const TraceSpan &B) {
                     return A.T0 != B.T0 ? A.T0 < B.T0 : A.T1 < B.T1;
                   });
  return T;
}

std::int32_t Tracer::intern(std::string_view S) {
  Impl &I = *PImpl;
  std::lock_guard<std::mutex> L(I.Mu);
  auto [It, Inserted] =
      I.LabelIds.try_emplace(std::string(S),
                             static_cast<std::int32_t>(I.Labels.size()));
  if (Inserted)
    I.Labels.emplace_back(S);
  return It->second;
}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              PImpl->Epoch)
      .count();
}

void Tracer::record(const TraceSpan &S) {
  if (!enabled())
    return;
  PImpl->acquire()->push(S);
}

void Tracer::instant(SpanKind Kind, std::int32_t Label, std::int32_t Task,
                     std::int32_t Instr, std::int32_t A0, std::int32_t A1) {
  if (!enabled())
    return;
  TraceSpan S;
  S.T0 = S.T1 = nowNs();
  S.Kind = Kind;
  S.Label = Label;
  S.Task = Task;
  S.Instr = Instr;
  S.A0 = A0;
  S.A1 = A1;
  PImpl->acquire()->push(S);
}

void Tracer::add(Counter C, std::int64_t V) {
  if (!enabled())
    return;
  PImpl->acquire()->Counters[static_cast<std::size_t>(C)] += V;
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

std::int64_t Trace::counter(Counter C) const {
  std::int64_t Total = 0;
  for (const auto &W : WorkerCounters)
    Total += W[static_cast<std::size_t>(C)];
  return Total;
}

std::string_view Trace::label(std::int32_t Id) const {
  if (Id < 0 || static_cast<std::size_t>(Id) >= Labels.size())
    return "";
  return Labels[static_cast<std::size_t>(Id)];
}

std::string Trace::summary() const {
  std::ostringstream OS;
  std::size_t Tasks = 0, Markers = 0;
  for (const TraceSpan &S : Spans) {
    Tasks += S.Kind == SpanKind::Task;
    Markers += S.Kind == SpanKind::Marker;
  }
  OS << "trace summary: " << Spans.size() << " spans (" << Tasks << " task, "
     << Markers << " instant";
  if (Dropped)
    OS << ", " << Dropped << " dropped";
  OS << "), " << WorkerCounters.size() << " worker buffer"
     << (WorkerCounters.size() == 1 ? "" : "s") << "\n";

  OS << "  counters:\n";
  for (std::size_t C = 0; C < NumCountersV; ++C) {
    std::int64_t V = counter(static_cast<Counter>(C));
    if (!V)
      continue;
    std::string Name(counterName(static_cast<Counter>(C)));
    OS << "    " << Name << std::string(Name.size() < 24 ? 24 - Name.size() : 1,
                                        ' ')
       << V << "\n";
  }

  // Per-worker load from task spans: busy time, task count, and the
  // points shard from the per-worker counter arrays. "Worker" here is a
  // recording thread (pool worker or the caller), not a participant slot.
  struct Load {
    std::int64_t BusyNs = 0;
    std::int64_t Tasks = 0;
  };
  std::vector<Load> Loads(WorkerCounters.size());
  for (const TraceSpan &S : Spans) {
    if (S.Kind != SpanKind::Task || S.Worker < 0 ||
        static_cast<std::size_t>(S.Worker) >= Loads.size())
      continue;
    Loads[static_cast<std::size_t>(S.Worker)].BusyNs += S.T1 - S.T0;
    ++Loads[static_cast<std::size_t>(S.Worker)].Tasks;
  }
  std::int64_t MaxBusy = 0;
  std::int64_t MinBusy = -1;
  bool AnyTasks = false;
  OS << "  workers:\n";
  for (std::size_t W = 0; W < Loads.size(); ++W) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "    worker %zu: busy %.6f s, %lld task spans, %lld points\n",
                  W, static_cast<double>(Loads[W].BusyNs) * 1e-9,
                  static_cast<long long>(Loads[W].Tasks),
                  static_cast<long long>(
                      WorkerCounters[W][static_cast<std::size_t>(
                          Counter::PointsExecuted)]));
    OS << Buf;
    if (Loads[W].Tasks) {
      AnyTasks = true;
      MaxBusy = std::max(MaxBusy, Loads[W].BusyNs);
      MinBusy = MinBusy < 0 ? Loads[W].BusyNs
                            : std::min(MinBusy, Loads[W].BusyNs);
    }
  }
  if (AnyTasks && MinBusy > 0) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "  imbalance: max/min worker busy time %.2fx\n",
                  static_cast<double>(MaxBusy) / static_cast<double>(MinBusy));
    OS << Buf;
  }
  return OS.str();
}

namespace {

void appendNum(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  Out += Buf;
}

} // namespace

std::string Trace::toChromeJson() const {
  // chrome://tracing's JSON: ts/dur are microseconds (fractions allowed);
  // we map each worker buffer to one tid under a single pid.
  std::string Out;
  Out.reserve(Spans.size() * 96 + 4096);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Comma = [&] {
    if (!First)
      Out += ",";
    First = false;
  };

  for (std::size_t W = 0; W < WorkerCounters.size(); ++W) {
    Comma();
    Out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    Out += std::to_string(W);
    Out += ",\"args\":{\"name\":\"worker ";
    Out += std::to_string(W);
    Out += "\"}}";
  }

  for (const TraceSpan &S : Spans) {
    Comma();
    Out += "{\"name\":\"";
    std::string_view L = label(S.Label);
    if (L.empty())
      Out += spanKindName(S.Kind);
    else
      support::appendJsonEscaped(Out, L);
    Out += "\",\"cat\":\"";
    Out += spanKindName(S.Kind);
    if (S.Kind == SpanKind::Marker) {
      Out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      appendNum(Out, static_cast<double>(S.T0) * 1e-3);
    } else {
      Out += "\",\"ph\":\"X\",\"ts\":";
      appendNum(Out, static_cast<double>(S.T0) * 1e-3);
      Out += ",\"dur\":";
      appendNum(Out, static_cast<double>(S.T1 - S.T0) * 1e-3);
    }
    Out += ",\"pid\":0,\"tid\":";
    Out += std::to_string(S.Worker < 0 ? 0 : S.Worker);
    Out += ",\"args\":{";
    bool FirstArg = true;
    auto Arg = [&](const char *K, std::int32_t V) {
      if (V < 0)
        return;
      if (!FirstArg)
        Out += ",";
      FirstArg = false;
      Out += "\"";
      Out += K;
      Out += "\":";
      Out += std::to_string(V);
    };
    Arg("task", S.Task);
    Arg("instr", S.Instr);
    Arg("a0", S.A0);
    Arg("a1", S.A1);
    Out += "}}";
  }

  // Merged counter totals as Chrome counter events at t=0 (drawn as a
  // value track; also greppable by the conformance tests).
  for (std::size_t C = 0; C < NumCountersV; ++C) {
    std::int64_t V = counter(static_cast<Counter>(C));
    if (!V)
      continue;
    Comma();
    Out += "{\"name\":\"";
    Out += counterName(static_cast<Counter>(C));
    Out += "\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"args\":{\"value\":";
    Out += std::to_string(V);
    Out += "}}";
  }

  Out += "]";
  if (Dropped) {
    Out += ",\"lcdfg_dropped_spans\":";
    Out += std::to_string(Dropped);
  }
  Out += "}";
  return Out;
}
