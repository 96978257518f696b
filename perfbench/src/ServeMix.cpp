//===- perfbench/src/ServeMix.cpp - serve-mix -----------------------------===//
//
// One closed-loop client connection against an in-process serve::Server on
// a unix socket, sending cached requests over 30 keys: the hit path. The
// compile path is read from set-up, which compiles every key once per
// set-up on four connections at a time. Every request asks for a checksum
// of its outputs, which is compared with a ledger per (chain, script,
// size) primed at set-up by scalar-serial cache-bypassing requests.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "godunov/GodunovGraph.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/PragmaPrinter.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace lcdfg;
using namespace perfbench;

namespace {

constexpr int SetupClients = 4;
constexpr int SetupReps = 3;
const std::int64_t Sizes[] = {8, 12, 16};

struct ChainText {
  std::string Name;
  std::string Text;
  unsigned Rank = 0;
};

/// One request key and its pre-rendered request lines.
struct Key {
  int Chain = 0, Script = 0, Size = 0;
  double Cells = 0.0;
  std::string Cached, Prime;
  std::string Fnv; ///< Ledger entry.
};

struct Mix {
  std::vector<ChainText> Chains;
  std::vector<std::string> Scripts;
  std::vector<Key> Keys; ///< Every valid (chain, script, size).

  const Key &key(int K) const { return Keys[static_cast<std::size_t>(K)]; }
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::string requestLine(const ChainText &C, const std::string &Script,
                        std::int64_t Size, bool Bypass, bool Oracle) {
  std::vector<std::string> Fields = {
      serve::jsonField("chain", std::string_view(C.Text)),
      serve::jsonField("size", Size), serve::jsonField("checksum", true)};
  if (!Script.empty())
    Fields.push_back(serve::jsonField("script", std::string_view(Script)));
  if (Bypass)
    Fields.push_back(serve::jsonField("cache", false));
  if (Oracle) {
    Fields.push_back(serve::jsonField("batched", false));
    Fields.push_back(serve::jsonField("threads", std::int64_t{1}));
  }
  std::string L = "{";
  for (std::size_t I = 0; I < Fields.size(); ++I) {
    if (I)
      L += ",";
    L += Fields[I];
  }
  return L + "}";
}

bool buildMix(const RunArgs &Args, Mix &M) {
  std::string Fig1, Fig1Script;
  if (!readFile(Args.ChainsDir + "/fig1.lc", Fig1) ||
      !readFile(Args.ChainsDir + "/fig1.script", Fig1Script)) {
    std::fprintf(stderr, "perfbench: cannot read %s/fig1.lc or fig1.script\n",
                 Args.ChainsDir.c_str());
    return false;
  }
  parser::ParseResult Parsed = parser::parseLoopChain(Fig1);
  if (!Parsed.Chain) {
    std::fprintf(stderr, "perfbench: fig1.lc: %s\n", Parsed.Error.c_str());
    return false;
  }
  ir::LoopChain Mfd = mfd::buildChain3D();
  ir::LoopChain Gdnv = gdnv::buildComputeWHalfChain();
  auto RankOf = [](const ir::LoopChain &C) {
    return C.numNests() ? C.nest(0).Domain.rank() : 0u;
  };
  M.Chains = {{"fig1", Fig1, RankOf(*Parsed.Chain)},
              {"minifluxdiv3d", parser::printPragmas(Mfd), RankOf(Mfd)},
              {"godunov-whalf", parser::printPragmas(Gdnv), RankOf(Gdnv)}};
  // fig1.script names fig1's statements, so it pairs with fig1 only.
  M.Scripts = {"", Fig1Script, "reduce", "autoschedule 4\nreduce"};
  const int Fig1Only = 1, Autoschedule = 3;
  for (int C = 0; C < static_cast<int>(M.Chains.size()); ++C)
    for (int S = 0; S < static_cast<int>(M.Scripts.size()); ++S)
      for (int Z = 0; Z < static_cast<int>(std::size(Sizes)); ++Z) {
        if (S == Fig1Only && C != 0)
          continue;
        Key K;
        K.Chain = C;
        K.Script = S;
        K.Size = Z;
        const ChainText &CT = M.Chains[static_cast<std::size_t>(C)];
        const std::string &Script = M.Scripts[static_cast<std::size_t>(S)];
        K.Cells = 1.0;
        for (unsigned D = 0; D < CT.Rank; ++D)
          K.Cells *= static_cast<double>(Sizes[Z]);
        K.Cached = requestLine(CT, Script, Sizes[Z], false, false);
        K.Prime = requestLine(CT, Script, Sizes[Z], true, true);
        M.Keys.push_back(std::move(K));
      }
  // Set-up deals keys to the clients in this order: the costliest
  // compiles (autoschedule, then the largest sizes) first, so every set-up
  // runs the same heavy compiles side by side and ends on cheap ones.
  std::stable_sort(M.Keys.begin(), M.Keys.end(),
                   [&](const Key &A, const Key &B) {
                     bool AutoA = A.Script == Autoschedule,
                          AutoB = B.Script == Autoschedule;
                     if (AutoA != AutoB)
                       return AutoA;
                     return A.Size > B.Size;
                   });
  return true;
}

/// What one response said.
struct Reply {
  bool Ok = false;
  std::string Fnv;
  bool Hit = false;
  double RunS = 0.0, CompileS = 0.0, WaitS = 0.0;
  std::string Error; ///< The error status, when the request failed.
};

Reply decode(const support::Expected<serve::JsonValue> &R) {
  Reply Out;
  if (!R) {
    Out.Error = R.error().toString();
    return Out;
  }
  const serve::JsonValue *Ok = R->find("ok");
  Out.Ok = Ok && Ok->asBool();
  if (const serve::JsonValue *F = R->find("result_fnv"))
    Out.Fnv = F->asString();
  if (const serve::JsonValue *C = R->find("cache"))
    Out.Hit = C->asString() == "hit";
  if (const serve::JsonValue *Met = R->find("metrics")) {
    if (const serve::JsonValue *V = Met->find("seconds"))
      Out.RunS = V->asDouble();
    if (const serve::JsonValue *V = Met->find("compile_seconds"))
      Out.CompileS = V->asDouble();
    if (const serve::JsonValue *V = Met->find("wait_seconds"))
      Out.WaitS = V->asDouble();
  }
  if (const serve::JsonValue *St = R->find("status"))
    if (const serve::JsonValue *Msg = St->find("message"))
      Out.Error = Msg->asString();
  return Out;
}

/// Runs \p Work(ClientIndex, Client&) on \p Clients threads, each with its
/// own connection. Returns false if a connection failed or a client threw.
template <class Fn>
bool onClients(const std::string &Socket, int Clients, Fn &&Work) {
  std::atomic<bool> AllOk{true};
  std::vector<std::thread> Ts;
  for (int C = 0; C < Clients; ++C)
    Ts.emplace_back([&, C] {
      try {
        support::Expected<serve::Client> Conn =
            serve::Client::connectUnix(Socket);
        if (!Conn) {
          std::fprintf(stderr, "perfbench: connect failed: %s\n",
                       Conn.error().toString().c_str());
          AllOk = false;
          return;
        }
        Work(C, *Conn);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: client %d failed: %s\n", C, E.what());
        AllOk = false;
      }
    });
  for (std::thread &T : Ts)
    T.join();
  return AllOk;
}

/// Set-up: start a daemon, prime the ledger with scalar-serial bypass
/// requests, then warm the cache with one checked request per key. The
/// compile times of the warming misses go to \p CompileMs.
std::unique_ptr<serve::Server> setUp(const RunArgs &Args, Mix &M, Tally &T,
                                     SpanLog &Spans, double &Seconds,
                                     std::vector<double> &CompileMs) {
  serve::ServerOptions Opts;
  Opts.UnixPath = Args.WorkDir + "/serve.sock";
  std::filesystem::remove(Opts.UnixPath);
  SpanLog::Scope Setup(Spans, "setup");
  double T0 = nowSeconds();
  auto Srv = std::make_unique<serve::Server>(Opts);
  {
    SpanLog::Scope S(Spans, "serve.start");
    if (!Srv->start().isOk()) {
      std::fprintf(stderr, "perfbench: the daemon failed to start\n");
      return nullptr;
    }
  }
  std::mutex Mu;
  for (const char *Stage : {"serve.prime", "serve.warm"}) {
    SpanLog::Scope S(Spans, Stage);
    const bool Prime = Stage == std::string("serve.prime");
    std::atomic<std::size_t> Next{0};
    bool Connected = onClients(Opts.UnixPath, SetupClients,
                               [&](int, serve::Client &C) {
      Tally Local;
      for (std::size_t I = Next++; I < M.Keys.size(); I = Next++) {
        Key &K = M.Keys[I];
        Reply R = decode(C.request(Prime ? K.Prime : K.Cached, 120000));
        if (Prime)
          K.Fnv = R.Fnv;
        const bool Ok = R.Ok && !R.Fnv.empty() && R.Fnv == K.Fnv;
        if (!Ok)
          std::fprintf(stderr, "perfbench: %s of %s/script %d/size %lld "
                       "failed: %s\n", Stage,
                       M.Chains[static_cast<std::size_t>(K.Chain)].Name.c_str(),
                       K.Script, static_cast<long long>(Sizes[K.Size]),
                       R.Error.empty() ? "checksum mismatch" : R.Error.c_str());
        Local.record(Ok);
        if (Ok && !Prime && !R.Hit) {
          std::lock_guard<std::mutex> L(Mu);
          CompileMs.push_back(R.CompileS * 1e3);
        }
      }
      std::lock_guard<std::mutex> L(Mu);
      T += Local;
    });
    if (!Connected)
      return nullptr;
  }
  Seconds = nowSeconds() - T0;
  return Srv;
}

struct Phase {
  std::vector<double> ReqMs, RunMs, WaitMs, OverheadMs, ParseUs;
  double Cells = 0.0;        ///< Cells of the InTime responses.
  double Start = 0.0;       ///< When the phase began.
  double LastInTime = 0.0;  ///< Last correct response before the deadline.
  std::int64_t InTime = 0;  ///< Correct responses before the deadline.
  serve::ServerStats Before, After;
  Tally Checks;
};

/// One measured phase: the client sends the requests of \p Seq in turn,
/// from \p Cursor on, until \p Seconds have passed.
Phase measure(const Mix &M, serve::Server &Srv, const std::vector<int> &Seq,
              std::size_t &Cursor, double Seconds, SpanLog &Spans,
              bool Traced) {
  Phase P;
  P.Before = Srv.stats();
  if (Traced)
    obs::Tracer::global().enable();
  P.Start = nowSeconds();
  const double Deadline = P.Start + Seconds;
  bool Connected = onClients(Srv.options().UnixPath, 1, [&](int,
                                                          serve::Client &C) {
    while (nowSeconds() < Deadline) {
      const Key &K = M.key(Seq[Cursor++ % Seq.size()]);
      SpanLog::Scope Req(Spans, "request");
      Reply R;
      double Ms;
      if (!Traced) {
        double S0 = nowSeconds();
        R = decode(C.request(K.Cached, 120000));
        Ms = (nowSeconds() - S0) * 1e3;
      } else {
        // The same exchange as Client::request, split so the response
        // parse is timed on its own.
        double S0 = nowSeconds();
        std::string Line;
        bool Received = false;
        {
          SpanLog::Scope Trip(Spans, "serve.roundtrip");
          if (C.sendLine(K.Cached)) {
            support::Expected<std::string> L = C.recvLine(120000);
            if ((Received = static_cast<bool>(L)))
              Line = std::move(*L);
          }
        }
        double S1 = nowSeconds();
        if (Received) {
          SpanLog::Scope Parse(Spans, "serve.parse");
          R = decode(serve::parseJson(Line));
        }
        double S2 = nowSeconds();
        Ms = (S2 - S0) * 1e3;
        P.ParseUs.push_back((S2 - S1) * 1e6);
      }
      SpanLog::Scope Check(Spans, "check");
      const bool Ok = R.Ok && R.Fnv == K.Fnv;
      P.Checks.record(Ok);
      if (!Ok)
        continue; // Counted as failed; it has no latency to report.
      P.ReqMs.push_back(Ms);
      P.RunMs.push_back(R.RunS * 1e3);
      P.WaitMs.push_back(R.WaitS * 1e3);
      P.OverheadMs.push_back(Ms - (R.RunS + R.CompileS + R.WaitS) * 1e3);
      if (const double Done = nowSeconds(); Done <= Deadline) {
        ++P.InTime;
        P.Cells += K.Cells;
        P.LastInTime = Done;
      }
    }
  });
  if (Traced) {
    (void)obs::Tracer::global().drain();
    obs::Tracer::global().disable();
  }
  P.After = Srv.stats();
  if (!Connected)
    P.Checks.record(false);
  return P;
}

/// Sample counts behind the percentiles a phase reports.
std::string sampleCounts(const Phase &P) {
  return perfbench::sampleCounts("req_p50_ms", quantile(P.ReqMs, 0.5)) +
         ", " + perfbench::sampleCounts("req_p99_ms", quantile(P.ReqMs, 0.99)) +
         ", " + perfbench::sampleCounts("step_p90_ms", quantile(P.RunMs, 0.9));
}

void endToEnd(const Phase &P, double SetupS, MetricSet &M) {
  // Throughput counts the correct responses received before the deadline,
  // over the time from the start to the last of them.
  const double Window = P.LastInTime - P.Start;
  M.set("setup_s", SetupS, "s");
  // A step of the serve mix is the plan run inside one request.
  M.set("step_p50_ms", quantile(P.RunMs, 0.5).Value, "ms");
  M.set("step_p90_ms", quantile(P.RunMs, 0.9).Value, "ms");
  M.set("mcells_per_s", P.InTime ? P.Cells / Window * 1e-6 : 0.0, "Mcells/s");
  M.set("req_p50_ms", quantile(P.ReqMs, 0.5).Value, "ms");
  M.set("req_p99_ms", quantile(P.ReqMs, 0.99).Value, "ms");
  M.set("req_per_s", P.InTime ? static_cast<double>(P.InTime) / Window : 0.0,
        "1/s");
  M.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace

bool perfbench::runServeMix(const RunArgs &Args, SpanLog &Spans,
                            RunResult &Out) {
  Mix M;
  if (!buildMix(Args, M))
    return false;

  std::vector<double> SetupUntraced, SetupTraced;
  std::vector<double> CompileUntraced, CompileTraced; ///< Warming misses.
  std::unique_ptr<serve::Server> Srv;
  SpanLog Off(false);
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    if (Srv)
      Srv->stop();
    Srv.reset();
    const bool Traced = Args.Trace && Rep % 2 == 1;
    double Seconds = 0.0;
    Srv = setUp(Args, M, Out.Checks, Traced ? Spans : Off, Seconds,
                Traced ? CompileTraced : CompileUntraced);
    if (!Srv)
      return false;
    (Traced ? SetupTraced : SetupUntraced).push_back(Seconds);
  }

  // One sequence for the whole run; the traced half continues it.
  const std::vector<int> Seq = requestSequence(
      Args.Seed, 1 << 16, static_cast<int>(M.Keys.size()));
  std::size_t Cursor = 0;
  const double SetupS = median(SetupUntraced);
  auto Finish = [&] {
    Srv->stop();
    std::filesystem::remove(Srv->options().UnixPath);
  };
  if (!Args.Trace) {
    Phase P = measure(M, *Srv, Seq, Cursor, Args.Seconds, Spans, false);
    Finish();
    Out.Checks += P.Checks;
    endToEnd(P, SetupS, Out.EndToEnd);
    Out.Fingerprint = "\"compiles\": " +
                      std::to_string(CompileUntraced.size()) +
                      ", \"setups\": " + std::to_string(SetupUntraced.size()) +
                      ", " + sampleCounts(P);
    return true;
  }

  Phase U = measure(M, *Srv, Seq, Cursor, Args.Seconds / 2, Off, false);
  Phase T = measure(M, *Srv, Seq, Cursor, Args.Seconds / 2, Spans, true);
  Finish();
  Out.Checks += U.Checks;
  Out.Checks += T.Checks;
  MetricSet MU, MT;
  endToEnd(U, SetupS, MU);
  endToEnd(T, median(SetupTraced), MT);
  Out.EndToEnd = MT;
  MetricSet &L = Out.PerLayer;
  const serve::ServerStats &B = T.Before, &A = T.After;
  const double Admitted = static_cast<double>(A.Admitted - B.Admitted);
  L.set("serve.hit_ratio",
        Admitted > 0 ? static_cast<double>(A.Hits - B.Hits) / Admitted : 0.0,
        "share");
  L.set("serve.evictions", static_cast<double>(A.Evictions - B.Evictions),
        "count");
  L.set("serve.run_ms_p50", quantile(T.RunMs, 0.5).Value, "ms");
  L.set("serve.overhead_ms_p50", quantile(T.OverheadMs, 0.5).Value, "ms");
  L.set("serve.json_parse_us_p50", quantile(T.ParseUs, 0.5).Value, "us");
  L.set("serve.compile_ms_p50", quantile(CompileTraced, 0.5).Value, "ms");
  L.set("serve.compile_ms_p90", quantile(CompileTraced, 0.9).Value, "ms");
  L.set("serve.wait_ms_p99", quantile(T.WaitMs, 0.99).Value, "ms");
  L.set("serve.errors", static_cast<double>(A.Errors - B.Errors), "count");
  L.set("serve.rejected", static_cast<double>(A.Rejected - B.Rejected),
        "count");
  for (const MetricSpec &E : EndToEndMetrics)
    L.set(std::string("overhead.") + E.Name, MT.get(E.Name) - MU.get(E.Name),
          E.Unit);
  Out.Fingerprint = "\"requests_untraced\": " + std::to_string(U.ReqMs.size()) +
                    ", \"compiles_traced\": " +
                    std::to_string(CompileTraced.size()) +
                    ", \"setups_untraced\": " +
                    std::to_string(SetupUntraced.size()) +
                    ", \"setups_traced\": " + std::to_string(SetupTraced.size()) +
                    ", " + sampleCounts(T);
  return true;
}
