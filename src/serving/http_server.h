// HTTP/1.1 front end for the serving stack — the network layer over a
// RoutePlanner and its ServingEngine scorer. Dependency-free: POSIX
// sockets, an accept loop, and a fixed pool of connection worker threads
// (plain threads, NEVER the global compute pool — workers block on
// sockets, which is forbidden on pool workers).
//
// Endpoints (JSON over HTTP/1.1, keep-alive supported):
//   POST /v1/score   {"paths": [[id, id, ...], ...]}
//                    -> {"candidates": [{"score", "vertices"}, ...]}
//   POST /v1/route   {"source": id, "destination": id, "k": n?,
//                     "budget_ms": n?}  (X-Deadline-Ms header also works;
//                    the body field wins when both are present)
//                    -> {"cache_hit": b, "routes": [{"score", "cost",
//                        "length_m", "time_s", "vertices", "edges"},...]}
//                    (RoutePlanner pipeline: answer cache + explicit
//                    error taxonomy; 404 when no route backend is set.
//                    An expired budget answers 504 "deadline_exceeded"
//                    when no candidate was found in time, or 200 with
//                    "degraded": true and the partial set otherwise —
//                    see docs/serving.md.)
//   POST /v1/traffic {"updates": [{"edge": id, "travel_time_s": s?,
//                      "closed": b?}, ...]}
//                    -> {"epoch": n, "cost_updates": n, "closures": n,
//                        "reopenings": n}
//                    (live-graph ingestion: validates the batch, rebuilds
//                    a new GraphSnapshot at epoch + 1 and swaps it in
//                    atomically. All-or-nothing per batch; rejections are
//                    400 with a TrafficStatusSlug. 404 when no traffic
//                    backend is set — see docs/serving.md.)
//   GET  /healthz    -> {"status": "ok", "swap_count": n, ...}
//   GET  /statsz     -> queue depth, shed count, per-endpoint latency,
//                       graph_epoch + route-planner cache counters
//
// Admission control: the three /v1/* endpoints share a bounded in-flight
// budget (`max_inflight`). A request that cannot take a slot within
// `max_queue_wait_us` is SHED with `429 Too Many Requests` +
// `Retry-After` instead of queuing unboundedly — under overload the
// server's latency stays bounded and clients get an explicit back-off
// signal rather than a growing queue. /healthz and /statsz bypass
// admission, and the default worker sizing (max_inflight + 4) keeps
// spare workers, so health checks and dashboards keep answering while
// the admission budget is saturated. (A flood of CONNECTIONS — beyond
// num_threads keep-alive clients — can still occupy every worker;
// admission bounds engine work, not sockets.)
//
// Fidelity: scores travel in shortest-round-trip double form (see
// json.h), so a response body parses back bitwise identical to the
// in-process RoutePlanner::Plan / ServingEngine::ScoreBatch result
// (http_server_test asserts it).
//
// Request-head framing lives in http_request.h (ParseRequestHead), apart
// from the sockets. The test-only HTTP client is tests/support/http_client.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace pathrank::serving {

/// Server construction knobs.
struct HttpServerOptions {
  /// Dotted-quad address to bind. Tests bind the loopback; deployments
  /// usually want "0.0.0.0".
  std::string bind_address = "127.0.0.1";
  /// TCP port. 0 lets the OS pick a free one (see HttpServer::port()).
  uint16_t port = 0;
  /// Connection worker threads: the keep-alive concurrency ceiling (each
  /// worker drives one connection at a time). 0 = max_inflight + 4 — the
  /// default, and the sizing that makes admission control the binding
  /// constraint: with fewer workers than max_inflight the 429 path could
  /// never trigger (concurrency is already below the budget), and with
  /// no spare workers a saturated engine would starve /healthz probes.
  size_t num_threads = 0;
  /// Admission budget shared by /v1/score, /v1/route and /v1/traffic:
  /// at most this many requests may be past admission (executing) at
  /// once. Keep it BELOW num_threads (the default sizing above does) or
  /// shedding never engages.
  size_t max_inflight = 64;
  /// How long admission may hold a request waiting for a slot before
  /// shedding it. 0 = shed immediately when the budget is exhausted.
  int64_t max_queue_wait_us = 0;
  /// Request bodies above this are rejected with 413 (and the connection
  /// closed, so the server never reads an unbounded body).
  size_t max_body_bytes = 1 << 20;
  /// Value of the Retry-After header on shed (429) responses, seconds.
  int retry_after_s = 1;
  /// Idle keep-alive connections are dropped after this long (applied as
  /// SO_RCVTIMEO + SO_SNDTIMEO) so a silent client cannot hold a worker
  /// forever. The send half also bounds Stop() against a non-reading
  /// client. Clamped to >= 1.
  int idle_timeout_s = 30;
  /// Wall-clock budget for reading ONE request (headers + body + error
  /// drain). The idle timeout alone is per-recv: a slow-trickle client
  /// feeding one byte per tick would otherwise hold a worker for days.
  /// Clamped to >= 1.
  int request_deadline_s = 60;
  /// Route-planning budget (ms) applied when the client sends neither an
  /// X-Deadline-Ms header nor a budget_ms body field. 0 = unbounded, the
  /// default — deadline-free requests take the planner's nullptr fast
  /// path and answer bitwise identically to a server without deadlines.
  int64_t default_deadline_ms = 0;
  /// Ceiling on the CLIENT-supplied budget: larger asks are clamped down
  /// to this (the operator's protection against a client buying an
  /// unbounded enumeration by sending a huge budget). 0 = uncapped.
  int64_t max_deadline_ms = 0;
};

/// Point-in-time per-endpoint counters, reported by stats() / GET /statsz.
struct HttpEndpointStats {
  uint64_t requests = 0;      ///< admitted + completed (any status)
  uint64_t errors = 0;        ///< completed with a 4xx/5xx status
  uint64_t timeouts = 0;      ///< completed with 504 (subset of errors)
  double latency_mean_s = 0;  ///< over all completed requests
  double latency_p50_s = 0;   ///< over a ring of recent completions
  double latency_p99_s = 0;
};

/// Point-in-time server counters.
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_total = 0;  ///< every parsed request, any endpoint
  uint64_t shed_total = 0;      ///< requests refused with 429
  /// /v1/route answered 504
  uint64_t deadline_exceeded_total = 0;
  /// /v1/route answered with a partial set
  uint64_t degraded_total = 0;
  uint64_t inflight = 0;        ///< currently past admission
  uint64_t admission_waiting = 0;  ///< currently queued for a slot
  /// Epoch of the graph snapshot currently served (0 when the server has
  /// no live-graph backend — the boot graph is epoch 0 by definition).
  uint64_t graph_epoch = 0;
  /// Route-planner cache/coalescing counters (all zero when no
  /// route_planner_stats seam is set).
  RoutePlannerStats route_planner;
  /// ALT preprocessing lifecycle counters (disabled/zero when no
  /// preprocessing_stats seam is set).
  PreprocessingStats preprocessing;
  HttpEndpointStats score;
  HttpEndpointStats route;
  HttpEndpointStats traffic;
};

/// What the server serves. Thin std::function seams rather than a fixed
/// engine type, so tests can put a fake (a parked or faulting backend)
/// behind any endpoint.
struct HttpBackend {
  /// Required: POST /v1/score. May throw; the server answers 500.
  std::function<std::vector<ScoredPath>(std::vector<routing::Path> paths)>
      score;
  /// Optional: POST /v1/route — the full RoutePlanner pipeline
  /// (candidate enumeration + cache + scoring). When absent the endpoint
  /// answers 404 ("route planning is not enabled"). RouteResult::status maps to the HTTP code (kUnreachable
  /// -> 404, kDeadlineExceeded -> 504, other non-kOk -> 400); only a
  /// thrown exception becomes a 500.
  std::function<RouteResult(const RouteRequest& request)> route;
  /// Optional: POST /v1/traffic — live edge cost/closure ingestion,
  /// normally GraphStore::ApplyTraffic. When absent the endpoint answers
  /// 404. TrafficResult::status != kOk maps to 400 with the
  /// TrafficStatusSlug; only a thrown exception becomes a 500.
  std::function<TrafficResult(const std::vector<graph::TrafficUpdate>&)>
      traffic;
  /// Optional: the served graph epoch (GraphStore::epoch), surfaced in
  /// /healthz and /statsz as "graph_epoch".
  std::function<uint64_t()> graph_epoch;
  /// Optional: the planner's cache/coalescing counters
  /// (RoutePlanner::stats), surfaced in /statsz as "route_planner".
  std::function<RoutePlannerStats()> route_planner_stats;
  /// Optional: the graph store's ALT preprocessing counters
  /// (GraphStore::preprocessing_stats), surfaced in /statsz as
  /// "preprocessing".
  std::function<PreprocessingStats()> preprocessing_stats;
  /// Optional: surfaced in /healthz as "swap_count" so a watcher can see
  /// a model hot-swap land (the value flips when SwapSnapshot runs).
  std::function<uint64_t()> swap_count;
  /// Vertex-id validation bound for /v1/score bodies (ids >= this are
  /// 400, protecting the embedding lookup). 0 disables the check. Route
  /// queries are range-checked by the route backend instead.
  size_t num_vertices = 0;
};

/// The server. Construct, Start(), then Stop() (or destroy — the
/// destructor stops). Start binds + listens, spawns the accept loop and
/// `num_threads` connection workers; Stop closes the listener, shuts
/// down every live connection and joins all threads. In-flight requests
/// finish; queued-but-unserviced connections are closed.
class HttpServer {
 public:
  HttpServer(HttpBackend backend, const HttpServerOptions& options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts serving. Throws std::runtime_error when the
  /// address/port cannot be bound.
  void Start();
  /// Idempotent; safe to call from any thread (not from a handler).
  void Stop() EXCLUDES(stop_mu_, conn_mu_, admit_mu_);

  /// The bound port — the OS-assigned one when options.port was 0.
  /// Valid after Start().
  uint16_t port() const { return port_; }
  const HttpServerOptions& options() const { return options_; }

  /// Consistent-enough snapshot of the counters (individual fields are
  /// exact; cross-field skew of a few requests is possible under load).
  HttpServerStats stats() const EXCLUDES(admit_mu_);

 private:
  struct Endpoint;  // counters + latency ring, defined in the .cpp

  void AcceptLoop() EXCLUDES(conn_mu_);
  void WorkerLoop() EXCLUDES(conn_mu_);
  /// Serves one connection until close/error; returns when it is done.
  void ServeConnection(int fd) EXCLUDES(admit_mu_);
  /// Takes an admission slot, waiting at most max_queue_wait_us.
  bool Admit() EXCLUDES(admit_mu_);
  void Release() EXCLUDES(admit_mu_);

  HttpBackend backend_;
  HttpServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{true};
  /// Serialises Stop() callers (join is not reentrant). The one server
  /// lock held across others: Stop drains the connection queue and wakes
  /// admission waiters under it, hence the rank before both.
  common::Mutex stop_mu_ ACQUIRED_BEFORE(conn_mu_, admit_mu_){
      common::LockRank::kHttpStop, "http.stop"};

  // Accepted connections waiting for a worker.
  common::Mutex conn_mu_{common::LockRank::kHttpConn, "http.conn"};
  common::CondVar conn_cv_;
  std::deque<int> conn_queue_ GUARDED_BY(conn_mu_);
  // fds being served, for Stop() shutdown
  std::set<int> active_fds_ GUARDED_BY(conn_mu_);

  // Admission state.
  mutable common::Mutex admit_mu_{common::LockRank::kHttpAdmit, "http.admit"};
  common::CondVar admit_cv_;
  size_t inflight_ GUARDED_BY(admit_mu_) = 0;
  size_t admission_waiting_ GUARDED_BY(admit_mu_) = 0;

  // Counters.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> deadline_exceeded_total_{0};
  std::atomic<uint64_t> degraded_total_{0};
  std::unique_ptr<Endpoint> score_stats_;
  std::unique_ptr<Endpoint> route_stats_;
  std::unique_ptr<Endpoint> traffic_stats_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace pathrank::serving
