#include "serving/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/parse.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "serving/http_request.h"
#include "serving/json.h"

namespace pathrank::serving {
namespace {

/// Connections queued for a worker beyond this are closed outright —
/// a connection flood must not grow memory without bound.
constexpr size_t kMaxQueuedConnections = 1024;
/// Latency samples kept per endpoint for the /statsz percentiles.
constexpr size_t kLatencyRing = 1024;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

/// One response about to be written.
struct Response {
  int status = 200;
  std::string body;
  int retry_after_s = -1;
};

/// An error body: {"error": message}, plus {"status": slug} when a
/// taxonomy slug is given. /v1/route and /v1/traffic always give one, so
/// their clients can branch on "unreachable" vs "unknown_vertex" without
/// string-matching prose.
Response ErrorResponse(int status, const std::string& message,
                       const char* slug = nullptr) {
  Response response;
  response.status = status;
  json::Writer writer(&response.body);
  writer.BeginObject().Key("error").String(message);
  if (slug != nullptr) writer.Key("status").String(slug);
  writer.EndObject();
  return response;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool WriteResponse(int fd, const Response& response, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  head += "Content-Type: application/json\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (response.retry_after_s >= 0) {
    head += "Retry-After: " + std::to_string(response.retry_after_s) + "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  return SendAll(fd, head.data(), head.size()) &&
         SendAll(fd, response.body.data(), response.body.size());
}

/// Appends the next recv() worth of bytes to `buffer`. False when the
/// peer closed, the socket timed out or failed, or `deadline` passed.
bool RecvMore(int fd, std::string* buffer,
              const std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // closed, timeout or reset: just drop it
  }
}

/// Reads one request off `fd` into `request`, consuming from/refilling
/// `buffer` (bytes already read past the previous request). On
/// kBadRequest, `*error_status` is the status to answer with.
enum class ReadResult { kOk, kClosed, kBadRequest };

ReadResult ReadRequest(int fd, std::string* buffer, HttpRequest* request,
                       size_t max_body_bytes, int* error_status,
                       const std::chrono::steady_clock::time_point deadline) {
  RequestHead head = ParseRequestHead(*buffer, max_body_bytes);
  while (head.status == kHeadIncomplete) {
    if (!RecvMore(fd, buffer, deadline)) return ReadResult::kClosed;
    head = ParseRequestHead(*buffer, max_body_bytes);
  }
  if (head.status != 200) {
    *error_status = head.status;
    return ReadResult::kBadRequest;
  }
  *request = std::move(head.request);
  buffer->erase(0, head.body_offset);
  if (request->expect_continue) {
    const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
    if (!SendAll(fd, kContinue, sizeof(kContinue) - 1)) {
      return ReadResult::kClosed;
    }
  }
  while (buffer->size() < request->content_length) {
    if (!RecvMore(fd, buffer, deadline)) return ReadResult::kClosed;
  }
  request->body = buffer->substr(0, request->content_length);
  buffer->erase(0, request->content_length);
  return ReadResult::kOk;
}

/// The integer `value` holds, when it is a JSON number with an integral
/// value in [min, T's max]; nullopt otherwise. Checked before the cast,
/// because casting an out-of-range double is UB.
template <typename T>
std::optional<T> JsonInteger(const json::Value& value, T min) {
  if (!value.is_number()) return std::nullopt;
  const double d = value.number_value();
  if (d < static_cast<double>(min) || d != std::floor(d) ||
      d > static_cast<double>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(d);
}

/// Extracts a vertex id (integral, in [0, num_vertices)) or returns
/// false with a message. num_vertices == 0 skips the range check.
bool ParseVertexId(const json::Value* value, size_t num_vertices,
                   const char* what, graph::VertexId* out,
                   std::string* message) {
  if (value == nullptr || !value->is_number()) {
    *message = std::string("missing or non-numeric \"") + what + "\"";
    return false;
  }
  const auto id = JsonInteger<graph::VertexId>(*value, 0);
  if (!id) {
    *message = std::string("\"") + what +
               "\" must be a non-negative integer vertex id";
    return false;
  }
  if (num_vertices > 0 && *id >= num_vertices) {
    *message = std::string("\"") + what + "\" is out of range (network has " +
               std::to_string(num_vertices) + " vertices)";
    return false;
  }
  *out = *id;
  return true;
}

/// A vertex- or edge-id list as a JSON array.
template <typename Id>
void WriteIds(const std::vector<Id>& ids, json::Writer* writer) {
  writer->BeginArray();
  for (const Id id : ids) writer->Number(static_cast<double>(id));
  writer->EndArray();
}

/// /v1/score's body: {"candidates": [{"score", "vertices"}, ...]}.
void WriteRanking(const std::vector<ScoredPath>& ranking, std::string* out) {
  json::Writer writer(out);
  writer.BeginObject().Key("candidates").BeginArray();
  for (const auto& scored : ranking) {
    writer.BeginObject().Key("score").Number(scored.score).Key("vertices");
    WriteIds(scored.path.vertices, &writer);
    writer.EndObject();
  }
  writer.EndArray().EndObject();
}

// The handlers answer every client error themselves and let a backend
// exception propagate: ServeConnection turns it into the 500.
Response HandleScore(const HttpBackend& backend, const std::string& body);
Response HandleRoute(const HttpBackend& backend, const HttpRequest& request,
                     const HttpServerOptions& options);
Response HandleTraffic(const HttpBackend& backend, const std::string& body);
void WriteStatsz(const HttpServerStats& stats,
                 const HttpServerOptions& options, std::string* out);

}  // namespace

/// Per-endpoint counters + a ring of recent latencies for percentiles.
struct HttpServer::Endpoint {
  /// Near-leaf rank: Record() runs after the response is written, with
  /// every request lock long dropped, and nothing is acquired under it.
  /// (All three endpoints share the rank — no thread holds two at once.)
  mutable common::Mutex mu{common::LockRank::kHttpEndpointStats,
                           "http.endpoint_stats"};
  uint64_t requests GUARDED_BY(mu) = 0;
  uint64_t errors GUARDED_BY(mu) = 0;
  double latency_sum_s GUARDED_BY(mu) = 0;
  std::vector<double> ring GUARDED_BY(mu);
  size_t ring_next GUARDED_BY(mu) = 0;

  void Record(double latency_s, bool error) EXCLUDES(mu) {
    common::MutexLock lock(mu);
    ++requests;
    if (error) ++errors;
    latency_sum_s += latency_s;
    if (ring.size() < kLatencyRing) {
      ring.push_back(latency_s);
    } else {
      ring[ring_next] = latency_s;
      ring_next = (ring_next + 1) % kLatencyRing;
    }
  }

  HttpEndpointStats Snapshot() const EXCLUDES(mu) {
    HttpEndpointStats stats;
    std::vector<double> sorted;
    {
      // Copy under the lock, sort outside it: Record() sits on the
      // request hot path, and /statsz polling (admission-exempt, so
      // hammered hardest during overload) must not stall it for a
      // 1024-element sort.
      common::MutexLock lock(mu);
      stats.requests = requests;
      stats.errors = errors;
      if (requests > 0) {
        stats.latency_mean_s = latency_sum_s / static_cast<double>(requests);
      }
      sorted = ring;
    }
    if (!sorted.empty()) {
      std::sort(sorted.begin(), sorted.end());
      stats.latency_p50_s = PercentileSorted(sorted, 0.50);
      stats.latency_p99_s = PercentileSorted(sorted, 0.99);
    }
    return stats;
  }
};

HttpServer::HttpServer(HttpBackend backend, const HttpServerOptions& options)
    : backend_(std::move(backend)),
      options_(options),
      score_stats_(std::make_unique<Endpoint>()),
      route_stats_(std::make_unique<Endpoint>()),
      traffic_stats_(std::make_unique<Endpoint>()) {
  if (!backend_.score) {
    throw std::invalid_argument("HttpBackend needs a score handler");
  }
  // A zero budget would shed every request, and a zero timeout would
  // fail every recv (timeval has no "infinite" either).
  if (options_.max_inflight == 0) {
    throw std::invalid_argument("HttpServerOptions.max_inflight must be >= 1");
  }
  if (options_.idle_timeout_s < 1) {
    throw std::invalid_argument(
        "HttpServerOptions.idle_timeout_s must be >= 1");
  }
  if (options_.request_deadline_s < 1) {
    throw std::invalid_argument(
        "HttpServerOptions.request_deadline_s must be >= 1");
  }
  if (options_.num_threads == 0) {
    // Headroom above the admission budget: the budget stays the binding
    // constraint, and /healthz keeps a worker while the engine is full.
    options_.num_threads = options_.max_inflight + 4;
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start() {
  if (!stop_.load()) return;  // already serving

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("invalid bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind(" + options_.bind_address + ":" +
                             std::to_string(options_.port) +
                             ") failed: " + what);
  }
  if (::listen(listen_fd_, 256) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed: " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  // Non-blocking listener + poll() in the accept loop: the portable way
  // for Stop() to be noticed promptly (shutdown() on a LISTENING socket
  // wakes accept() on Linux but fails with ENOTCONN on the BSDs).
  const int listen_flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, listen_flags | O_NONBLOCK);

  stop_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void HttpServer::Stop() {
  // One joiner at a time: Stop is advertised as callable from any
  // thread, and two racing callers must not both join the same
  // std::thread (UB). The loser blocks here, then finds nothing to do.
  common::MutexLock stop_lock(stop_mu_);
  if (stop_.exchange(true)) {
    // Never started, or already stopped: nothing to join.
    if (!acceptor_.joinable() && workers_.empty()) return;
  }
  // The acceptor polls with a bounded timeout, so it observes stop_
  // within a tick on its own; the listener is closed only after the
  // join, which is what keeps AcceptLoop from ever racing a close or
  // accepting on a recycled fd number.
  {
    // Live connections: a half-close makes any blocked recv() return so
    // the worker can finish its in-flight response and exit.
    common::MutexLock lock(conn_mu_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  conn_cv_.NotifyAll();
  {
    // Taken (and immediately dropped) so the notify cannot slip between
    // an Admit() waiter's predicate check and its block — the classic
    // lost-wakeup, which would stall shutdown by up to max_queue_wait_us.
    common::MutexLock admit_lock(admit_mu_);
  }
  admit_cv_.NotifyAll();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Accepted-but-unserviced connections are dropped.
  common::MutexLock lock(conn_mu_);
  for (const int fd : conn_queue_) ::close(fd);
  conn_queue_.clear();
}

void HttpServer::AcceptLoop() {
  while (!stop_.load()) {
    // Bounded poll rather than a blocking accept, so Stop() is observed
    // within one tick without touching the listener from another thread.
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      // Resource exhaustion (fd table full, no buffers) is transient:
      // back off and keep accepting — exiting here would permanently
      // stop admitting new connections while /healthz still answers ok
      // on existing ones.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener gone
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Accepted sockets must block (the workers' recv/send model); some
    // platforms inherit the listener's O_NONBLOCK, so clear it.
    const int fd_flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, fd_flags & ~O_NONBLOCK);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval idle{};
    idle.tv_sec = options_.idle_timeout_s;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle, sizeof(idle));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &idle, sizeof(idle));
    {
      common::MutexLock lock(conn_mu_);
      if (conn_queue_.size() >= kMaxQueuedConnections) {
        ::close(fd);  // connection flood: drop rather than grow
        continue;
      }
      conn_queue_.push_back(fd);
    }
    conn_cv_.NotifyOne();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      common::MutexLock lock(conn_mu_);
      while (!(stop_.load() || !conn_queue_.empty())) conn_cv_.Wait(conn_mu_);
      // Once stopping, queued connections are dropped by Stop(), not
      // served — picking one up here could block on a silent client.
      if (stop_.load()) return;
      if (conn_queue_.empty()) continue;
      fd = conn_queue_.front();
      conn_queue_.pop_front();
      active_fds_.insert(fd);
    }
    ServeConnection(fd);
    {
      common::MutexLock lock(conn_mu_);
      active_fds_.erase(fd);
    }
    ::close(fd);
  }
}

bool HttpServer::Admit() {
  common::MutexLock lock(admit_mu_);
  if (inflight_ < options_.max_inflight) {
    ++inflight_;
    return true;
  }
  if (options_.max_queue_wait_us <= 0) return false;
  ++admission_waiting_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.max_queue_wait_us);
  while (!(stop_.load() || inflight_ < options_.max_inflight)) {
    if (admit_cv_.WaitUntil(admit_mu_, deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
  --admission_waiting_;
  if (stop_.load() || inflight_ >= options_.max_inflight) return false;
  ++inflight_;
  return true;
}

void HttpServer::Release() {
  {
    common::MutexLock lock(admit_mu_);
    --inflight_;
  }
  admit_cv_.NotifyOne();
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  for (;;) {
    HttpRequest request;
    int error_status = 400;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::seconds(options_.request_deadline_s);
    const ReadResult read = ReadRequest(fd, &buffer, &request,
                                        options_.max_body_bytes,
                                        &error_status, deadline);
    if (read == ReadResult::kClosed) return;
    if (read == ReadResult::kBadRequest) {
      // The stream may be mid-body garbage: answer and hang up. FIN
      // first (shutdown), then drain what the client is still sending —
      // close() with unread bytes in the receive queue would RST and
      // destroy the error response before the client reads it. The
      // drain is capped so a hostile endless body cannot pin the worker.
      Response response = ErrorResponse(
          error_status, error_status == 413 ? "request body too large"
                                            : "malformed HTTP request");
      WriteResponse(fd, response, /*keep_alive=*/false);
      ::shutdown(fd, SHUT_WR);
      char sink[4096];
      size_t drained = 0;
      while (drained < (8u << 20) &&
             std::chrono::steady_clock::now() < deadline) {
        const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
        if (n <= 0) break;
        drained += static_cast<size_t>(n);
      }
      return;
    }
    requests_total_.fetch_add(1, std::memory_order_relaxed);

    Response response;
    if (request.target == "/healthz") {
      if (request.method != "GET") {
        response = ErrorResponse(405, "use GET");
      } else {
        size_t inflight = 0;
        {
          common::MutexLock lock(admit_mu_);
          inflight = inflight_;
        }
        json::Writer writer(&response.body);
        writer.BeginObject();
        // Only servers with a live-graph backend report an epoch — the
        // body of a graph-less server stays byte-identical to before the
        // endpoint existed.
        if (backend_.graph_epoch) {
          writer.Key("graph_epoch")
              .Number(static_cast<double>(backend_.graph_epoch()));
        }
        const uint64_t swap_count =
            backend_.swap_count ? backend_.swap_count() : 0;
        writer.Key("inflight").Number(static_cast<double>(inflight))
            .Key("max_inflight")
            .Number(static_cast<double>(options_.max_inflight))
            .Key("status").String("ok")
            .Key("swap_count").Number(static_cast<double>(swap_count))
            .EndObject();
      }
    } else if (request.target == "/statsz") {
      if (request.method != "GET") {
        response = ErrorResponse(405, "use GET");
      } else {
        WriteStatsz(stats(), options_, &response.body);
      }
    } else if (request.target == "/v1/score" ||
               request.target == "/v1/route" ||
               request.target == "/v1/traffic") {
      const bool is_route = request.target == "/v1/route";
      const bool is_traffic = request.target == "/v1/traffic";
      if (request.method != "POST") {
        response = ErrorResponse(405, "use POST");
      } else if (is_route && !backend_.route) {
        // Cheap rejection before admission: no backend work happens.
        response = ErrorResponse(
            404, "route planning is not enabled on this server");
      } else if (is_traffic && !backend_.traffic) {
        response = ErrorResponse(
            404, "live traffic ingestion is not enabled on this server");
      } else if (!Admit()) {
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        response = ErrorResponse(429, "overloaded: max_inflight reached");
        response.retry_after_s = options_.retry_after_s;
      } else {
        Stopwatch watch;
        // The one place an exception becomes a 500. Nothing may escape
        // this std::thread — std::terminate would take the whole server
        // down — or leak the admission slot. The server log gets the
        // details; the wire gets a generic body, because the exception
        // text can name internal paths or state and the default bind is
        // 0.0.0.0.
        try {
          response = is_route ? HandleRoute(backend_, request, options_)
                     : is_traffic ? HandleTraffic(backend_, request.body)
                                  : HandleScore(backend_, request.body);
        } catch (const std::exception& e) {
          PR_LOG_ERROR << "http: " << request.target
                       << " backend error: " << e.what();
          response = ErrorResponse(500, "internal error");
        } catch (...) {
          PR_LOG_ERROR << "http: " << request.target
                       << " backend error (non-std)";
          response = ErrorResponse(500, "internal error");
        }
        Release();
        (is_route     ? route_stats_
         : is_traffic ? traffic_stats_
                      : score_stats_)
            ->Record(watch.ElapsedSeconds(), response.status >= 400);
      }
    } else {
      response = ErrorResponse(404, "no such endpoint: " + request.target);
    }

    const bool keep_alive = request.keep_alive && !stop_.load();
    if (!WriteResponse(fd, response, keep_alive)) return;
    if (!keep_alive) return;
  }
}

namespace {

Response HandleScore(const HttpBackend& backend, const std::string& body) {
  std::string parse_error;
  const auto parsed = json::Parse(body, &parse_error);
  if (!parsed) return ErrorResponse(400, "invalid JSON: " + parse_error);
  const json::Value* paths_value = parsed->Find("paths");
  if (paths_value == nullptr || !paths_value->is_array()) {
    return ErrorResponse(400, "missing or non-array \"paths\"");
  }
  std::vector<routing::Path> paths;
  paths.reserve(paths_value->array().size());
  for (const auto& path_value : paths_value->array()) {
    if (!path_value.is_array() || path_value.array().empty()) {
      return ErrorResponse(400,
                           "every path must be a non-empty vertex-id array");
    }
    routing::Path path;
    path.vertices.reserve(path_value.array().size());
    for (const auto& vertex_value : path_value.array()) {
      graph::VertexId vertex = 0;
      std::string message;
      if (!ParseVertexId(&vertex_value, backend.num_vertices, "paths[][]",
                         &vertex, &message)) {
        return ErrorResponse(400, message);
      }
      path.vertices.push_back(vertex);
    }
    paths.push_back(std::move(path));
  }
  std::vector<ScoredPath> ranking;
  if (!paths.empty()) ranking = backend.score(std::move(paths));
  Response response;
  WriteRanking(ranking, &response.body);
  return response;
}

Response HandleRoute(const HttpBackend& backend, const HttpRequest& request,
                     const HttpServerOptions& options) {
  // Local validation failures carry the taxonomy slug too — clients
  // branching on body["status"] per the docs must never see a bare
  // {"error": ...} from this endpoint. That includes the parse failure
  // below: unparseable JSON is as much a bad request as a bad field.
  const auto bad_request = [](const std::string& message) {
    return ErrorResponse(400, message,
                         RouteStatusSlug(RouteStatus::kBadRequest));
  };
  std::string parse_error;
  const auto parsed = json::Parse(request.body, &parse_error);
  if (!parsed) return bad_request("invalid JSON: " + parse_error);
  graph::VertexId source = 0;
  graph::VertexId destination = 0;
  std::string message;
  // num_vertices is deliberately NOT passed: the range check belongs to
  // the route backend, so an out-of-range id earns the unknown_vertex
  // slug instead of this generic 400. (ParseVertexId still enforces the
  // VertexId-representability bound — casting an out-of-range double
  // would be UB.)
  if (!ParseVertexId(parsed->Find("source"), /*num_vertices=*/0, "source",
                     &source, &message) ||
      !ParseVertexId(parsed->Find("destination"), /*num_vertices=*/0,
                     "destination", &destination, &message)) {
    return bad_request(message);
  }
  int k = 0;  // 0 = the planner's configured default
  if (const json::Value* k_value = parsed->Find("k"); k_value != nullptr) {
    // Only int-representability is checked here; the planner's max_k
    // policy cap comes after.
    const auto parsed_k = JsonInteger<int>(*k_value, 1);
    if (!parsed_k) return bad_request("\"k\" must be a positive integer");
    k = *parsed_k;
  }
  // Budget: the budget_ms body field wins over the X-Deadline-Ms header
  // (the field travels with the query; the header is for clients that
  // cannot touch the body, e.g. proxies stamping a global budget).
  // Anchored HERE — before the backend call — so time lost between
  // anchor and enumeration (a stalled engine, say) counts against the
  // budget rather than extending it.
  int64_t budget_ms = -1;  // -1 = client sent nothing
  if (const json::Value* b = parsed->Find("budget_ms"); b != nullptr) {
    const auto parsed_budget = JsonInteger<int32_t>(*b, 1);
    if (!parsed_budget) {
      return bad_request("\"budget_ms\" must be a positive integer");
    }
    budget_ms = *parsed_budget;
  } else if (const std::string header = request.Header("x-deadline-ms");
             !header.empty()) {
    // The body field's bound: Deadline::AfterMs converts to nanoseconds,
    // which overflows int64 for budgets near 10^13 ms.
    uint64_t parsed_ms = 0;
    if (!ParseUInt64(header, &parsed_ms) || parsed_ms == 0 ||
        parsed_ms > static_cast<uint64_t>(
                        std::numeric_limits<int32_t>::max())) {
      return bad_request("X-Deadline-Ms must be a positive integer");
    }
    budget_ms = static_cast<int64_t>(parsed_ms);
  }
  if (budget_ms < 0) budget_ms = options.default_deadline_ms;  // 0 = none
  if (options.max_deadline_ms > 0 &&
      (budget_ms == 0 || budget_ms > options.max_deadline_ms)) {
    budget_ms = options.max_deadline_ms;
  }
  RouteRequest route_request{source, destination, k};
  if (budget_ms > 0) route_request.deadline = Deadline::AfterMs(budget_ms);
  const RouteResult result = backend.route(route_request);
  if (result.status == RouteStatus::kOk) {
    Response response;
    WriteRouteBody(result, &response.body);
    return response;
  }
  const int status = result.status == RouteStatus::kUnreachable        ? 404
                     : result.status == RouteStatus::kDeadlineExceeded ? 504
                                                                       : 400;
  return ErrorResponse(status, result.message, RouteStatusSlug(result.status));
}

Response HandleTraffic(const HttpBackend& backend, const std::string& body) {
  // Shape/type errors found here and semantic errors found by the
  // backend (GraphStore::ApplyTraffic) share one taxonomy; this layer
  // only ever earns the generic bad_request slug.
  const auto bad_request = [](const std::string& message) {
    return ErrorResponse(400, message,
                         TrafficStatusSlug(TrafficStatus::kBadUpdate));
  };
  std::string parse_error;
  const auto parsed = json::Parse(body, &parse_error);
  if (!parsed) return bad_request("invalid JSON: " + parse_error);
  const json::Value* updates_value = parsed->Find("updates");
  if (updates_value == nullptr || !updates_value->is_array()) {
    return bad_request("missing or non-array \"updates\"");
  }
  std::vector<graph::TrafficUpdate> updates;
  updates.reserve(updates_value->array().size());
  for (const auto& update_value : updates_value->array()) {
    if (!update_value.is_object()) {
      return bad_request("every update must be an object");
    }
    graph::TrafficUpdate update;
    const json::Value* edge = update_value.Find("edge");
    if (edge == nullptr || !edge->is_number()) {
      return bad_request("missing or non-numeric \"edge\"");
    }
    // Only EdgeId-representability is checked here; the existence check
    // against the CURRENT graph belongs to the backend (unknown_edge
    // slug).
    const auto edge_id = JsonInteger<graph::EdgeId>(*edge, 0);
    if (!edge_id) {
      return bad_request("\"edge\" must be a non-negative integer edge id");
    }
    update.edge = *edge_id;
    if (const json::Value* tt = update_value.Find("travel_time_s");
        tt != nullptr) {
      // Type check only — positivity/finiteness is the backend's call so
      // the rule lives in exactly one place. (A literal NaN never gets
      // here: it is not valid JSON and fails the parse above.)
      if (!tt->is_number()) {
        return bad_request("\"travel_time_s\" must be a number");
      }
      update.travel_time_s = tt->number_value();
      update.has_travel_time = true;
    }
    if (const json::Value* closed = update_value.Find("closed");
        closed != nullptr) {
      if (!closed->is_bool()) {
        return bad_request("\"closed\" must be a boolean");
      }
      update.closed = closed->bool_value();
      update.has_closed = true;
    }
    updates.push_back(update);
  }
  const TrafficResult result = backend.traffic(updates);
  if (result.status != TrafficStatus::kOk) {
    return ErrorResponse(400, result.message,
                         TrafficStatusSlug(result.status));
  }
  Response response;
  json::Writer(&response.body)
      .BeginObject()
      .Key("closures").Number(static_cast<double>(result.closures))
      .Key("cost_updates").Number(static_cast<double>(result.cost_updates))
      .Key("epoch").Number(static_cast<double>(result.epoch))
      .Key("reopenings").Number(static_cast<double>(result.reopenings))
      .EndObject();
  return response;
}

void WriteStatsz(const HttpServerStats& stats,
                 const HttpServerOptions& options, std::string* out) {
  const auto count = [](auto n) { return static_cast<double>(n); };
  json::Writer writer(out);
  const auto write_endpoint = [&](const char* name,
                                  const HttpEndpointStats& endpoint) {
    writer.Key(name)
        .BeginObject()
        .Key("errors").Number(count(endpoint.errors))
        .Key("latency_mean_s").Number(endpoint.latency_mean_s)
        .Key("latency_p50_s").Number(endpoint.latency_p50_s)
        .Key("latency_p99_s").Number(endpoint.latency_p99_s)
        .Key("requests").Number(count(endpoint.requests))
        .EndObject();
  };
  const RoutePlannerStats& planner = stats.route_planner;
  const PreprocessingStats& preprocessing = stats.preprocessing;
  writer.BeginObject()
      .Key("admission_waiting").Number(count(stats.admission_waiting))
      .Key("connections_accepted").Number(count(stats.connections_accepted))
      .Key("deadline_exceeded_count").Number(count(planner.deadline_exceeded))
      .Key("degraded_count").Number(count(planner.degraded))
      .Key("endpoints")
      .BeginObject();
  write_endpoint("/v1/route", stats.route);
  write_endpoint("/v1/score", stats.score);
  write_endpoint("/v1/traffic", stats.traffic);
  writer.EndObject()
      .Key("graph_epoch").Number(count(stats.graph_epoch))
      .Key("inflight").Number(count(stats.inflight))
      .Key("max_inflight").Number(count(options.max_inflight))
      .Key("max_queue_wait_us").Number(count(options.max_queue_wait_us))
      .Key("preprocessing")
      .BeginObject()
      .Key("enabled").Bool(preprocessing.enabled)
      .Key("epochs_behind").Number(count(preprocessing.epochs_behind))
      .Key("landmarks").Number(count(preprocessing.landmarks))
      .Key("rebuild_p50_s").Number(preprocessing.rebuild_p50_s)
      .Key("rebuild_p99_s").Number(preprocessing.rebuild_p99_s)
      .Key("rebuilds").Number(count(preprocessing.rebuilds))
      .EndObject()
      .Key("requests_total").Number(count(stats.requests_total))
      .Key("route_planner")
      .BeginObject()
      .Key("alt_fallbacks").Number(count(planner.alt_fallbacks))
      .Key("cache_hits").Number(count(planner.cache_hits))
      .Key("cache_misses").Number(count(planner.cache_misses))
      .Key("enumerations").Number(count(planner.enumerations))
      .Key("invalidations").Number(count(planner.invalidations))
      .EndObject()
      .Key("shed_total").Number(count(stats.shed_total))
      .EndObject();
}

}  // namespace

void WriteRouteBody(const RouteResult& result, std::string* out) {
  // One allocation for a typical body instead of a doubling series (the
  // string still grows if the estimate falls short): 8 bytes per id fit
  // ids of up to seven digits with their comma, and 180 a route's keys
  // and its four doubles.
  size_t ids = 0;
  for (const auto& scored : result.ranked) {
    ids += scored.path.vertices.size() + scored.path.edges.size();
  }
  out->reserve(out->size() + 80 + 180 * result.ranked.size() + 8 * ids);
  json::Writer writer(out);
  // "algo" is the engine that enumerated this candidate set. For a cache
  // hit it is the engine that SEEDED the entry (the algo is cached
  // alongside the paths), so a hit's body stays byte-identical to the
  // miss it repeats.
  writer.BeginObject()
      .Key("algo").String(result.algo)
      .Key("cache_hit").Bool(result.cache_hit);
  // Emitted only when true: a deadline-free request's body stays byte
  // identical to a server that predates deadlines, which the route
  // round-trip tests (and any byte-diffing client) rely on.
  if (result.degraded) writer.Key("degraded").Bool(true);
  // Unconditional (0 on a graph-less server): a hit and the miss that
  // seeded it carry the same epoch, so the cache-hit byte-identity
  // guarantee is unaffected — and a client can pin any answer to the
  // graph version it was computed against.
  writer.Key("graph_epoch").Number(static_cast<double>(result.graph_epoch))
      .Key("routes").BeginArray();
  // Clients replaying a route on the network need its edges, not just
  // its vertices: parallel edges make the vertex list ambiguous.
  for (const auto& scored : result.ranked) {
    const routing::Path& path = scored.path;
    writer.BeginObject().Key("cost").Number(path.cost).Key("edges");
    WriteIds(path.edges, &writer);
    writer.Key("length_m").Number(path.length_m)
        .Key("score").Number(scored.score)
        .Key("time_s").Number(path.time_s)
        .Key("vertices");
    WriteIds(path.vertices, &writer);
    writer.EndObject();
  }
  writer.EndArray().EndObject();
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.requests_total = requests_total_.load(std::memory_order_relaxed);
  stats.shed_total = shed_total_.load(std::memory_order_relaxed);
  {
    common::MutexLock lock(admit_mu_);
    stats.inflight = inflight_;
    stats.admission_waiting = admission_waiting_;
  }
  if (backend_.graph_epoch) stats.graph_epoch = backend_.graph_epoch();
  if (backend_.route_planner_stats) {
    stats.route_planner = backend_.route_planner_stats();
  }
  if (backend_.preprocessing_stats) {
    stats.preprocessing = backend_.preprocessing_stats();
  }
  stats.score = score_stats_->Snapshot();
  stats.route = route_stats_->Snapshot();
  stats.traffic = traffic_stats_->Snapshot();
  return stats;
}

}  // namespace pathrank::serving
