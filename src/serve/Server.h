//===- serve/Server.h - The plan-serving daemon -----------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lcdfg-serve's engine: a newline-delimited JSON request/response server
/// over AF_UNIX or loopback TCP (docs/SERVING.md has the grammar). One
/// thread per connection reads frames, compiles-or-fetches through the
/// shared PlanCache, passes admission control, and executes through
/// exec::runWithRecovery — so a poisoned request (parse error, injected
/// kernel fault, infeasible budget) degrades or fails with a structured
/// per-request Status JSON while every other connection keeps being
/// served. Plan runs from concurrent connections multiplex over the one
/// process-wide ThreadPool, whose top-level-region queue serializes
/// parallel regions without blocking connection I/O.
///
/// Admission control is cost-model driven: each cached plan carries its
/// allocation charge (primary + fallback stores, doubled for the ladder's
/// snapshots) debited against the server's byte budget, and its modeled
/// read traffic 8*S_R(size), which classifies heavy requests into a
/// one-at-a-time lane so a monster request cannot convoy the small ones.
/// A request that can never fit is rejected with E016 immediately; one
/// that waits past the wedge deadline gets E016 "serve-wedged".
///
/// Defenses at the framing layer: a line-length cap (oversized frame ->
/// E020, connection closed), an idle read deadline (a slow-loris partial
/// line is cut off), and MSG_NOSIGNAL everywhere (a client vanishing
/// mid-response is a closed connection, not a SIGPIPE). The serve: fault
/// site injects the server-side failure modes — drop before the
/// response, truncate mid-response, delay mid-response — for the fault
/// matrix in tests/serve.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SERVE_SERVER_H
#define LCDFG_SERVE_SERVER_H

#include "serve/Json.h"
#include "serve/PlanCache.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lcdfg {
namespace serve {

/// Server configuration. Exactly one of UnixPath / TcpPort is used:
/// a non-empty UnixPath binds a unix socket; otherwise TcpPort binds
/// 127.0.0.1:TcpPort (0 = kernel-assigned, read back via port()).
struct ServerOptions {
  std::string UnixPath;
  int TcpPort = 0;

  std::size_t CacheCapacity = 64;  ///< Compiled plans kept (LRU).
  int MaxClients = 32;             ///< Concurrent connections admitted.
  std::size_t MaxLineBytes = 1 << 20; ///< Request-frame cap (E020 above).
  int IdleTimeoutMs = 10000;       ///< Read deadline per frame.
  std::int64_t MaxSize = 512;      ///< Cap on the "size" knob.

  // Admission control.
  std::int64_t BudgetBytes = 0;    ///< Live request-bytes cap (0 = off).
  int MaxConcurrent = 0;           ///< Running requests cap (0 = 2x hw).
  std::int64_t HeavyBytes = 64 << 20; ///< 8*S_R(size) above this ->
                                      ///  heavy lane (one at a time).
  int WedgeTimeoutMs = 10000;      ///< Max admission wait before E016.

  /// Allow {"cmd":"shutdown"} to stop the server (tooling convenience;
  /// off means the command answers E020).
  bool AllowShutdown = true;
};

/// Monotonic counters, readable while serving. The invariant the soak
/// test holds the daemon to: Hits + Misses == Admitted (every admitted
/// compile+run request consulted the cache exactly once; commands and
/// protocol rejects never reach it).
struct ServerStats {
  std::int64_t Connections = 0;    ///< Accepted sockets, lifetime.
  std::int64_t Active = 0;         ///< Currently open connections.
  std::int64_t Requests = 0;       ///< Frames parsed into a request.
  std::int64_t Admitted = 0;       ///< Compile+run requests that reached
                                   ///  the cache.
  std::int64_t Hits = 0;           ///< From the plan cache.
  std::int64_t Misses = 0;
  std::int64_t Evictions = 0;
  std::int64_t Entries = 0;        ///< Plans currently cached.
  std::int64_t Errors = 0;         ///< Responses with "ok":false.
  std::int64_t ProtocolErrors = 0; ///< E020 frames (subset of Errors).
  std::int64_t Rejected = 0;       ///< Admission E016s (subset of Errors).
};

/// The daemon. start() binds and spawns the accept thread; stop() (or
/// destruction) drains connections and joins every thread. processLine()
/// is the transport-free core — unit tests drive it without sockets.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts accepting. E015 on socket failures
  /// (address in use, path too long, ...).
  support::Status start();

  /// Stops accepting, wakes every connection, joins all threads. Safe to
  /// call twice (and from a connection thread via {"cmd":"shutdown"}).
  void stop();

  bool running() const { return Running.load(); }
  /// True once stop() or a shutdown command has been requested (the
  /// daemon main polls this alongside its signal flag).
  bool stopRequested() const { return Stopping.load(); }
  /// Bound TCP port (after start(); 0 for unix-socket servers).
  int port() const { return BoundPort; }
  const ServerOptions &options() const { return Opts; }

  ServerStats stats() const;

  /// Handles one request line and returns the response line (without the
  /// trailing newline). Never throws; malformed input yields an
  /// "ok":false E020 response. Sets \p Shutdown when the request asked
  /// the server to stop.
  std::string processLine(std::string_view Line, bool *Shutdown = nullptr);

  /// Blocks until stop() has been called (by a signal handler's stop(),
  /// a shutdown command, ...): the daemon main's park.
  void wait();

private:
  struct Conn {
    std::thread Th;
    std::atomic<bool> Done{false};
  };

  void acceptLoop();
  void serveConnection(int Fd);
  void reapConnections(bool Final);
  /// Writes \p Line + '\n' honoring an armed serve: fault. Returns false
  /// when the connection should be considered gone.
  bool writeResponse(int Fd, const std::string &Line);

  std::string handleCommand(const JsonValue &Req, bool *Shutdown);
  std::string handleRun(const JsonValue &Req);
  support::Status decodeSpec(const JsonValue &Req, RequestSpec &Spec) const;

  /// Admission: blocks until the request's bytes fit the budget and a
  /// concurrency slot (plus the heavy lane when Heavy) frees up.
  support::Status admit(std::int64_t Bytes, bool Heavy, double *WaitSeconds);
  void release(std::int64_t Bytes, bool Heavy);

  ServerOptions Opts;
  PlanCache Cache;

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  int BoundPort = 0;
  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<std::unique_ptr<Conn>> Conns;

  std::mutex StopMu;
  std::condition_variable StopCv;
  std::once_flag StopOnce;

  // Admission state.
  std::mutex AdmitMu;
  std::condition_variable AdmitCv;
  std::int64_t LiveBytes = 0;
  int RunningReqs = 0;
  int HeavyReqs = 0;

  // Counters (relaxed: read for reporting only).
  std::atomic<std::int64_t> CConnections{0}, CActive{0}, CRequests{0},
      CAdmitted{0}, CErrors{0}, CProtocolErrors{0}, CRejected{0};
};

/// A blocking line-protocol client for tools and tests. Maps transport
/// failures onto stable codes: a refused connect, a failed send/recv, or
/// EOF before any response byte -> E018-peer-lost; a passed response
/// deadline -> E019-exchange-timeout; an oversized, truncated or
/// unparseable response -> E020-protocol.
class Client {
public:
  Client() = default;
  Client(Client &&O) noexcept;
  Client &operator=(Client &&O) noexcept;
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client();

  static support::Expected<Client> connectUnix(const std::string &Path,
                                               int TimeoutMs = 5000);
  static support::Expected<Client> connectTcp(const std::string &Host,
                                              int Port, int TimeoutMs = 5000);

  bool valid() const { return Fd >= 0; }

  /// Sends \p Line plus the terminating newline.
  support::Status sendLine(std::string_view Line);
  /// Sends raw bytes with no terminator (for half-frame drills).
  support::Status sendRaw(std::string_view Bytes);

  /// Receives one newline-terminated line (terminator stripped).
  support::Expected<std::string> recvLine(int TimeoutMs = 10000,
                                          std::size_t MaxBytes = 8 << 20);

  /// sendLine + recvLine + parseJson in one step.
  support::Expected<JsonValue> request(std::string_view Line,
                                       int TimeoutMs = 10000);

  /// Closes abruptly (the mid-request disconnect drill).
  void closeNow();

private:
  int Fd = -1;
  std::string Buf; ///< Bytes read past the last returned line.
};

} // namespace serve
} // namespace lcdfg

#endif // LCDFG_SERVE_SERVER_H
