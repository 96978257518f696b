//===- perfbench/src/Harness.cpp ------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Quantile perfbench::quantile(std::vector<double> V, double Q) {
  Quantile R;
  R.Samples = V.size();
  if (V.empty())
    return R;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least Q of the sample at or
  // below it.
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  std::size_t Idx = Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  Idx = std::min(Idx, V.size() - 1);
  R.Value = V[Idx];
  R.Beyond = V.size() - 1 - Idx;
  return R;
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

namespace {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Open spans of the calling thread, per log.
std::vector<int> &openStack(const SpanLog *Log) {
  thread_local std::map<const SpanLog *, std::vector<int>> Open;
  return Open[Log];
}

} // namespace

SpanLog::SpanLog(bool Enabled) : On(Enabled), Origin(steadyNs()) {}

int SpanLog::begin(const std::string &Name) {
  if (!On)
    return -1;
  std::vector<int> &Stack = openStack(this);
  std::int64_t T0 = steadyNs() - Origin;
  std::lock_guard<std::mutex> L(Mu);
  Span S;
  S.Name = Name;
  S.T0 = T0;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Group = S.Parent >= 0 ? Spans[static_cast<std::size_t>(S.Parent)].Group
                          : NextGroup++;
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Id);
  return Id;
}

void SpanLog::end(int Id) {
  if (!On || Id < 0)
    return;
  std::int64_t T1 = steadyNs() - Origin;
  std::vector<int> &Stack = openStack(this);
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<std::size_t>(Id)].T1 = T1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans;
}

std::map<std::string, SpanLog::LayerRow> SpanLog::layerTable() const {
  std::vector<Span> All = spans();
  std::vector<double> ChildMs(All.size(), 0.0);
  auto Ms = [](const Span &S) {
    return S.T1 < 0 ? 0.0 : static_cast<double>(S.T1 - S.T0) * 1e-6;
  };
  for (const Span &S : All)
    if (S.Parent >= 0)
      ChildMs[static_cast<std::size_t>(S.Parent)] += Ms(S);
  std::map<std::string, LayerRow> Table;
  for (std::size_t I = 0; I < All.size(); ++I) {
    LayerRow &R = Table[All[I].Name];
    ++R.Count;
    R.TotalMs += Ms(All[I]);
    R.SelfMs += Ms(All[I]) - ChildMs[I];
  }
  return Table;
}

bool SpanLog::write(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"unit\":\"ns\",\"spans\":[";
  for (std::size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    Out << (I ? ",\n" : "\n") << "{\"id\":" << I
        << ",\"name\":" << jsonString(S.Name) << ",\"start\":" << S.T0
        << ",\"end\":" << S.T1 << ",\"parent\":" << S.Parent
        << ",\"group\":" << S.Group << "}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Request sequence
//===----------------------------------------------------------------------===//

std::uint64_t perfbench::splitmix64(std::uint64_t &State) {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<int> perfbench::requestSequence(std::uint64_t Seed,
                                            std::size_t Count, int NumKeys) {
  std::uint64_t State = Seed * 0x2545f4914f6cdd1dull + 1;
  std::vector<int> Bag(static_cast<std::size_t>(NumKeys));
  std::vector<int> Seq;
  Seq.reserve(Count);
  while (NumKeys > 0 && Seq.size() < Count) {
    for (int K = 0; K < NumKeys; ++K)
      Bag[static_cast<std::size_t>(K)] = K;
    for (int K = NumKeys - 1; K > 0; --K)
      std::swap(Bag[static_cast<std::size_t>(K)],
                Bag[static_cast<std::size_t>(
                    splitmix64(State) % static_cast<std::uint64_t>(K + 1))]);
    for (std::size_t K = 0; K < Bag.size() && Seq.size() < Count; ++K)
      Seq.push_back(Bag[K]);
  }
  return Seq;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!Values.count(Name))
    Order.push_back(Name);
  Values[Name] = {Value, Unit};
}

bool MetricSet::has(const std::string &Name) const {
  return Values.count(Name) != 0;
}

double MetricSet::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0.0 : It->second.first;
}

const std::string &MetricSet::unit(const std::string &Name) const {
  return Values.at(Name).second;
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string perfbench::resultJson(const Tally &T, const MetricSet &M) {
  std::string Out = "{\"correct\": ";
  Out += T.Failed == 0 && T.Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.Attempted);
  Out += ", \"failed\": " + std::to_string(T.Failed);
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I < M.names().size(); ++I) {
    const std::string &N = M.names()[I];
    Out += (I ? ", " : "") + jsonString(N) + ": {\"value\": " +
           jsonNumber(M.get(N)) + ", \"unit\": " + jsonString(M.unit(N)) +
           "}";
  }
  return Out + "}}";
}

std::string perfbench::sampleCounts(const std::string &Name,
                                     const Quantile &Q) {
  return jsonString(Name) + ": {\"samples\": " + std::to_string(Q.Samples) +
         ", \"beyond\": " + std::to_string(Q.Beyond) + "}";
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<std::string> perfbench::refusedEnvironment() {
  static const char *const Names[] = {"LCDFG_JIT", "LCDFG_SCHED",
                                      "LCDFG_THREADS", "LCDFG_FAULT",
                                      "LCDFG_TRACE"};
  std::vector<std::string> Set;
  for (const char *N : Names)
    if (const char *V = std::getenv(N))
      Set.push_back(std::string(N) + "=" + V);
  return Set;
}

std::string perfbench::hostFingerprintMembers() {
  std::string Model = "unknown";
  if (std::ifstream In("/proc/cpuinfo"); In) {
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("model name", 0) == 0) {
        std::size_t Colon = Line.find(':');
        if (Colon != std::string::npos)
          Model = Line.substr(Line.find_first_not_of(' ', Colon + 1));
        break;
      }
  }
  std::string Mask;
  int Allowed = 0;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set)) {
        if (!Mask.empty())
          Mask += ",";
        Mask += std::to_string(C);
        ++Allowed;
      }
  __builtin_cpu_init();
  const char *Isa = __builtin_cpu_supports("avx512f") ? "avx512"
                    : __builtin_cpu_supports("avx2")  ? "avx2"
                                                      : "sse";
  return "\"cpu\": " + jsonString(Model) +
         ", \"cores_online\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"affinity\": " + jsonString(Mask) +
         ", \"affinity_cores\": " + std::to_string(Allowed) +
         ", \"isa\": " + jsonString(Isa) +
         ", \"cxx\": " + jsonString(__VERSION__);
}
