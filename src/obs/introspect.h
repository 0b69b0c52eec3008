// Embedded, dependency-free HTTP/1.1 introspection server — the live
// window into a serving process. One of these runs inside a ServingContext
// when Options::introspect_port >= 0 and serves the standard endpoint set
// (/metrics, /metrics.json, /healthz, /statusz, /flightz, /tracez); the
// endpoint bodies themselves are registered by the owner as handlers, so
// this class knows HTTP and threads but nothing about metrics or sessions.
//
// Protocol scope — deliberately tiny: GET only, HTTP/1.1,
// `Connection: close` on every response (one request per connection),
// no TLS, no chunked encoding, request line + headers capped at 8 KiB.
// That is exactly what `curl`, a Prometheus scraper, or a health prober
// needs, and nothing a public-facing server would need. The listener binds
// 127.0.0.1 only; exposing it beyond the host is a proxy's job.
//
// Threading: Start() binds + listens, then parks a blocking accept loop on
// an owned common::ThreadPool via Submit. Each accepted connection is
// handled by another Submit, so slow readers never block accept and
// `num_handler_threads` requests can be served concurrently (the /metrics
// scrape under bench_load --introspect runs against live traffic).
//
// Shutdown discipline: ThreadPool's destructor DRAINS — every submitted
// task runs to completion first — so Stop() must unblock the accept loop
// before the pool can die. It sets `stopping_`, then shutdown()+close()es
// the listening socket, which makes the blocked accept return with an
// error; the loop sees stopping_ and exits. Only then is the pool
// destroyed. Stop() is idempotent and runs from the destructor.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace qp::obs {

/// What a handler returns: status line + content type + body. The server
/// adds Content-Length and Connection: close.
struct HttpResponse {
  int status = 200;             ///< 200, 404, 503, ...
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// What a handler receives: the bare path plus the URL-decoded query
/// parameters, in request order (/pprofz?seconds=5 needs them; /metrics
/// ignores them).
struct HttpRequest {
  std::string path;  ///< query string already stripped
  std::vector<std::pair<std::string, std::string>> params;

  /// First value of `key`, or nullptr when absent.
  const std::string* Param(const std::string& key) const;
  /// Integer spelling of Param(key); `fallback` when absent or non-numeric.
  int IntParam(const std::string& key, int fallback) const;
};

/// Parses a raw query string ("a=1&b=x%20y&flag") into decoded key/value
/// pairs: '+' and %XX decode in both keys and values, a key without '=' maps
/// to "", malformed %-escapes pass through literally. Exposed for tests.
std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    const std::string& query);

/// What the loopback client below returns.
struct HttpResult {
  bool ok = false;  ///< connected, sent, and the response's head parsed
  int status = 0;
  std::string headers;  ///< status line and headers, without the blank line
  std::string body;
};

/// Minimal blocking HTTP/1.1 client for 127.0.0.1:`port`: sends `request`
/// verbatim and reads the response to EOF (the server closes every
/// connection). For the tests and benches that drive an
/// IntrospectionServer.
HttpResult HttpRawRequest(int port, const std::string& request);

/// GET `path` (query string included) with `Connection: close`.
HttpResult HttpGet(int port, const std::string& path);

/// \brief Minimal localhost HTTP server over registered GET paths.
class IntrospectionServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1. 0 asks the kernel for an ephemeral
    /// port (read it back via port() — how tests avoid collisions).
    int port = 0;
  };

  /// Threads of the server's private pool: the accept loop occupies one
  /// permanently, the rest handle connections concurrently.
  static constexpr size_t kNumThreads = 4;

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  IntrospectionServer() = default;
  ~IntrospectionServer();

  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Registers `handler` for exact-match GET `path` (e.g. "/metrics").
  /// Must be called before Start(); handlers run concurrently on pool
  /// threads and must be thread-safe.
  void Handle(std::string path, Handler handler);

  /// Binds, listens and launches the accept loop. Returns false (with the
  /// reason in *error if given) when the socket can't be bound — sandboxed
  /// environments may forbid even localhost sockets, and callers are
  /// expected to degrade gracefully (tests GTEST_SKIP, ServingContext
  /// logs and continues without introspection).
  bool Start(const Options& options, std::string* error = nullptr);

  /// Unblocks accept, drains in-flight handlers, joins the pool. Safe to
  /// call twice or without a successful Start().
  void Stop();

  bool running() const { return running_; }
  /// The bound port (the kernel's pick when Options::port was 0); -1 when
  /// not running.
  int port() const { return port_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Parses the request line out of `request`, dispatches to the handler
  /// table, and writes one full response to `fd`.
  void WriteResponse(int fd, const HttpResponse& response);

  std::vector<std::pair<std::string, Handler>> handlers_;

  std::unique_ptr<common::ThreadPool> pool_;
  std::atomic<bool> stopping_{false};
  bool running_ = false;
  /// Atomic: the accept loop reads it while Stop() invalidates it.
  std::atomic<int> listen_fd_{-1};
  int port_ = -1;
  std::mutex stop_mu_;  ///< serializes Stop() against itself
};

}  // namespace qp::obs
