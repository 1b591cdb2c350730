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
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/deadline.h"
#include "common/parse.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "serving/json.h"

namespace pathrank::serving {
namespace {

/// Caps the request line + headers. Bigger means a client that never
/// sends "\r\n\r\n" ties up a worker and its buffer; 16 KB fits any sane
/// request many times over.
constexpr size_t kMaxHeaderBytes = 16 * 1024;
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

/// One parsed request. Header names are lowercased at parse time.
struct Request {
  std::string method;
  std::string target;
  std::map<std::string, std::string> headers;
  std::string body;
  bool keep_alive = true;

  std::string Header(const std::string& name) const {
    const auto it = headers.find(name);
    return it != headers.end() ? it->second : std::string();
  }
};

/// One response about to be written.
struct Response {
  int status = 200;
  std::string body;
  int retry_after_s = -1;
};

Response ErrorResponse(int status, const std::string& message) {
  Response response;
  response.status = status;
  json::Object object;
  object["error"] = json::Value(message);
  response.body = json::Dump(json::Value(std::move(object)));
  return response;
}

/// Strict 1*DIGIT parse (RFC 9110 numeric fields): non-empty, digits
/// only — no sign, no whitespace, no trailing junk — and bounded well
/// inside uint64_t. Used by HttpClient for status codes, Content-Length
/// and Retry-After, where the std::atoi/strtoull "garbage parses as 0"
/// behaviour hid malformed responses from callers.
bool ParseDigits(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
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

/// Reads one request off `fd` into `request`, consuming from/refilling
/// `buffer` (bytes already read past the previous request).
enum class ReadResult { kOk, kClosed, kBadRequest };

ReadResult ReadRequest(int fd, std::string* buffer, Request* request,
                       size_t max_body_bytes, int* error_status,
                       const std::chrono::steady_clock::time_point deadline) {
  *error_status = 400;
  const auto past_deadline = [deadline] {
    return std::chrono::steady_clock::now() >= deadline;
  };
  // Headers: read until the blank line.
  size_t header_end = std::string::npos;
  for (;;) {
    header_end = buffer->find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    if (buffer->size() > kMaxHeaderBytes) {
      *error_status = 431;
      return ReadResult::kBadRequest;
    }
    if (past_deadline()) return ReadResult::kClosed;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadResult::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kClosed;  // timeout or reset: just drop it
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string head = buffer->substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return ReadResult::kBadRequest;
  }
  request->method = request_line.substr(0, sp1);
  request->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return ReadResult::kBadRequest;
  }

  // Headers, names lowercased.
  request->headers.clear();
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) return ReadResult::kBadRequest;
    std::string name = line.substr(0, colon);
    // Whitespace before the colon must be a 400 (RFC 9112 §5.1), not a
    // silently ignored header: "Content-Length : N" stored under the
    // key "content-length " would mis-frame the body — the third
    // smuggling vector next to the TE+CL and duplicate-CL ones below.
    if (name.empty() || name.back() == ' ' || name.back() == '\t') {
      return ReadResult::kBadRequest;
    }
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    // Trim optional whitespace (space or HTAB, RFC 9110 §5.6.3) off both
    // ends of the value: "Content-Length:\t5 " must parse as "5".
    size_t value_begin = colon + 1;
    while (value_begin < line.size() &&
           (line[value_begin] == ' ' || line[value_begin] == '\t')) {
      ++value_begin;
    }
    size_t value_end = line.size();
    while (value_end > value_begin &&
           (line[value_end - 1] == ' ' || line[value_end - 1] == '\t')) {
      --value_end;
    }
    // Duplicate Content-Length is the other RFC 7230 §3.3.3 desync
    // vector (a proxy framing by the first value, us by the last):
    // reject instead of letting the map fold it last-one-wins.
    if (name == "content-length" && request->headers.count(name) > 0) {
      return ReadResult::kBadRequest;
    }
    request->headers[name] = line.substr(value_begin, value_end - value_begin);
  }

  // Keep-alive: HTTP/1.1 default unless "Connection: close"; HTTP/1.0
  // only with an explicit keep-alive.
  std::string connection = request->Header("connection");
  std::transform(connection.begin(), connection.end(), connection.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  request->keep_alive = version == "HTTP/1.1" ? connection != "close"
                                              : connection == "keep-alive";

  // Body, Content-Length framed. Chunked is rejected OUTRIGHT — even
  // alongside a Content-Length. Framing a TE+CL message by the length
  // is the classic request-smuggling desync (RFC 7230 §3.3.3): leftover
  // chunk bytes would be parsed as the next request on this connection.
  buffer->erase(0, header_end + 4);
  if (!request->Header("transfer-encoding").empty()) {
    return ReadResult::kBadRequest;
  }
  size_t content_length = 0;
  const auto length_it = request->headers.find("content-length");
  if (length_it != request->headers.end()) {
    // 1*DIGIT per RFC 9110: the whole-token unsigned parse rejects "-1",
    // "+5", trailing junk, and a value past uint64 (no strtoull-style
    // saturation to ULLONG_MAX).
    uint64_t parsed = 0;
    if (!ParseUInt64(length_it->second, &parsed)) {
      return ReadResult::kBadRequest;
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (content_length > max_body_bytes) {
    *error_status = 413;
    return ReadResult::kBadRequest;
  }
  // curl sends "Expect: 100-continue" before larger bodies and waits for
  // the interim response. The token is case-insensitive (RFC 9110
  // §10.1.1) — a client sending "100-Continue" must not stall.
  std::string expect = request->Header("expect");
  std::transform(expect.begin(), expect.end(), expect.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (expect.find("100-continue") != std::string::npos) {
    const char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
    if (!SendAll(fd, kContinue, sizeof(kContinue) - 1)) {
      return ReadResult::kClosed;
    }
  }
  while (buffer->size() < content_length) {
    if (past_deadline()) return ReadResult::kClosed;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return ReadResult::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kClosed;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
  request->body = buffer->substr(0, content_length);
  buffer->erase(0, content_length);
  return ReadResult::kOk;
}

/// Extracts a vertex id (integral, in [0, num_vertices)) or returns
/// false with a message.
bool ParseVertexId(const json::Value* value, size_t num_vertices,
                   const char* what, graph::VertexId* out,
                   std::string* message) {
  if (value == nullptr || !value->is_number()) {
    *message = std::string("missing or non-numeric \"") + what + "\"";
    return false;
  }
  const double d = value->number_value();
  // The VertexId-representability bound is unconditional — casting an
  // out-of-range double would be UB even when the num_vertices check is
  // disabled.
  if (d < 0 || d != std::floor(d) ||
      d > static_cast<double>(std::numeric_limits<graph::VertexId>::max())) {
    *message = std::string("\"") + what +
               "\" must be a non-negative integer vertex id";
    return false;
  }
  if (num_vertices > 0 && d >= static_cast<double>(num_vertices)) {
    *message = std::string("\"") + what + "\" is out of range (network has " +
               std::to_string(num_vertices) + " vertices)";
    return false;
  }
  *out = static_cast<graph::VertexId>(d);
  return true;
}

json::Value ScoredPathJson(const ScoredPath& scored, bool with_totals) {
  json::Object object;
  object["score"] = json::Value(scored.score);
  json::Array vertices;
  vertices.reserve(scored.path.vertices.size());
  for (const auto v : scored.path.vertices) {
    vertices.emplace_back(static_cast<uint64_t>(v));
  }
  object["vertices"] = json::Value(std::move(vertices));
  if (with_totals) {
    object["length_m"] = json::Value(scored.path.length_m);
    object["time_s"] = json::Value(scored.path.time_s);
  }
  return json::Value(std::move(object));
}

json::Value RankingJson(const std::vector<ScoredPath>& ranking,
                        bool with_totals) {
  json::Array candidates;
  candidates.reserve(ranking.size());
  for (const auto& scored : ranking) {
    candidates.push_back(ScoredPathJson(scored, with_totals));
  }
  json::Object object;
  object["candidates"] = json::Value(std::move(candidates));
  return json::Value(std::move(object));
}

Response HandleScore(const HttpBackend& backend, const std::string& body);
/// What /v1/route (or /v1/rank) did beyond the status code — feeds the
/// server-level deadline/degradation counters ServeConnection maintains.
struct RouteOutcome {
  bool deadline_exceeded = false;
  bool degraded = false;
};
/// Serves /v1/route and its /v1/rank alias: one body parser, one route
/// backend call, one status table. `rank_alias` picks only the 200 body
/// shape — /v1/rank's {"candidates": [...]} instead of RouteJson.
Response HandleRoute(const HttpBackend& backend, const Request& request,
                     const HttpServerOptions& options, bool rank_alias,
                     RouteOutcome* outcome);
Response HandleTraffic(const HttpBackend& backend, const std::string& body);
json::Value StatszJson(const HttpServerStats& stats,
                       const HttpServerOptions& options);

}  // namespace

/// Per-endpoint counters + a ring of recent latencies for percentiles.
struct HttpServer::Endpoint {
  /// Near-leaf rank: Record() runs after the response is written, with
  /// every request lock long dropped, and nothing is acquired under it.
  /// (All four endpoints share the rank — no thread holds two at once.)
  mutable common::Mutex mu{common::LockRank::kHttpEndpointStats,
                           "http.endpoint_stats"};
  uint64_t requests GUARDED_BY(mu) = 0;
  uint64_t errors GUARDED_BY(mu) = 0;
  uint64_t timeouts GUARDED_BY(mu) = 0;
  double latency_sum_s GUARDED_BY(mu) = 0;
  std::vector<double> ring GUARDED_BY(mu);
  size_t ring_next GUARDED_BY(mu) = 0;

  void Record(double latency_s, bool error, bool timeout = false)
      EXCLUDES(mu) {
    common::MutexLock lock(mu);
    ++requests;
    if (error) ++errors;
    if (timeout) ++timeouts;
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
      stats.timeouts = timeouts;
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
      rank_stats_(std::make_unique<Endpoint>()),
      score_stats_(std::make_unique<Endpoint>()),
      route_stats_(std::make_unique<Endpoint>()),
      traffic_stats_(std::make_unique<Endpoint>()) {
  if (!backend_.score) {
    throw std::invalid_argument("HttpBackend needs a score handler");
  }
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  // Zero timeouts would turn every recv into an immediate failure;
  // clamp rather than surprise (timeval has no "infinite" either).
  if (options_.idle_timeout_s < 1) options_.idle_timeout_s = 1;
  if (options_.request_deadline_s < 1) options_.request_deadline_s = 1;
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
    Request request;
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
        json::Object object;
        object["status"] = json::Value("ok");
        object["swap_count"] = json::Value(
            backend_.swap_count ? backend_.swap_count() : uint64_t{0});
        // Only servers with a live-graph backend report an epoch — the
        // body of a graph-less server stays byte-identical to before the
        // endpoint existed.
        if (backend_.graph_epoch) {
          object["graph_epoch"] = json::Value(backend_.graph_epoch());
        }
        {
          common::MutexLock lock(admit_mu_);
          object["inflight"] = json::Value(static_cast<uint64_t>(inflight_));
        }
        object["max_inflight"] =
            json::Value(static_cast<uint64_t>(options_.max_inflight));
        response.body = json::Dump(json::Value(std::move(object)));
      }
    } else if (request.target == "/statsz") {
      if (request.method != "GET") {
        response = ErrorResponse(405, "use GET");
      } else {
        response.body = json::Dump(StatszJson(stats(), options_));
      }
    } else if (request.target == "/v1/rank" ||
               request.target == "/v1/score" ||
               request.target == "/v1/route" ||
               request.target == "/v1/traffic") {
      const bool is_rank = request.target == "/v1/rank";
      const bool is_route = request.target == "/v1/route";
      const bool is_traffic = request.target == "/v1/traffic";
      if (request.method != "POST") {
        response = ErrorResponse(405, "use POST");
      } else if ((is_route || is_rank) && !backend_.route) {
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
        RouteOutcome outcome;
        try {
          response =
              is_route || is_rank
                  ? HandleRoute(backend_, request, options_, is_rank, &outcome)
              : is_traffic ? HandleTraffic(backend_, request.body)
                           : HandleScore(backend_, request.body);
        } catch (...) {
          // Non-std exceptions from the backend seam (and bad_alloc in
          // the response path) must not escape this std::thread —
          // std::terminate would take the whole server down — and must
          // not leak the admission slot.
          response = ErrorResponse(500, "internal error");
        }
        Release();
        if (outcome.deadline_exceeded) {
          deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
        }
        if (outcome.degraded) {
          degraded_total_.fetch_add(1, std::memory_order_relaxed);
        }
        (is_route     ? route_stats_
         : is_traffic ? traffic_stats_
         : is_rank    ? rank_stats_
                      : score_stats_)
            ->Record(watch.ElapsedSeconds(), response.status >= 400,
                     response.status == 504);
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
  try {
    std::vector<ScoredPath> ranking;
    if (!paths.empty()) ranking = backend.score(std::move(paths));
    Response response;
    response.body = json::Dump(RankingJson(ranking, /*with_totals=*/false));
    return response;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "http: /v1/score backend error: %s\n", e.what());
    return ErrorResponse(500, "internal error");
  } catch (...) {
    std::fprintf(stderr, "http: /v1/score backend error (non-std)\n");
    return ErrorResponse(500, "internal error");
  }
}

/// Renders a RouteResult's ranked paths: the /v1/rank candidate fields
/// plus the enumeration cost and the edge-id list (clients replaying the
/// route on the network need edges, not just vertices — parallel edges
/// make the vertex list ambiguous).
json::Value RouteJson(const RouteResult& result) {
  json::Array routes;
  routes.reserve(result.ranked.size());
  for (const auto& scored : result.ranked) {
    json::Object route;
    route["score"] = json::Value(scored.score);
    route["cost"] = json::Value(scored.path.cost);
    route["length_m"] = json::Value(scored.path.length_m);
    route["time_s"] = json::Value(scored.path.time_s);
    json::Array vertices;
    vertices.reserve(scored.path.vertices.size());
    for (const auto v : scored.path.vertices) {
      vertices.emplace_back(static_cast<uint64_t>(v));
    }
    route["vertices"] = json::Value(std::move(vertices));
    json::Array edges;
    edges.reserve(scored.path.edges.size());
    for (const auto e : scored.path.edges) {
      edges.emplace_back(static_cast<uint64_t>(e));
    }
    route["edges"] = json::Value(std::move(edges));
    routes.push_back(json::Value(std::move(route)));
  }
  json::Object object;
  // The engine that enumerated this candidate set. For a cache hit this
  // is the engine that SEEDED the entry (the algo is cached alongside the
  // paths), so a hit's body stays byte-identical to the miss it repeats.
  object["algo"] = json::Value(result.algo);
  object["cache_hit"] = json::Value(result.cache_hit);
  // Emitted only when true: a deadline-free request's body stays byte
  // identical to a server that predates deadlines, which the route
  // round-trip tests (and any byte-diffing client) rely on.
  if (result.degraded) object["degraded"] = json::Value(true);
  // Unconditional (0 on a graph-less server): a hit and the miss that
  // seeded it carry the same epoch, so the cache-hit byte-identity
  // guarantee is unaffected — and a client can pin any answer to the
  // graph version it was computed against.
  object["graph_epoch"] = json::Value(result.graph_epoch);
  object["routes"] = json::Value(std::move(routes));
  return json::Value(std::move(object));
}

/// Route error bodies carry the taxonomy slug next to the message so
/// clients can branch on "unreachable" vs "unknown_vertex" without
/// string-matching prose.
Response RouteErrorResponse(int http_status, const RouteResult& result) {
  Response response;
  response.status = http_status;
  json::Object object;
  object["error"] = json::Value(result.message);
  object["status"] = json::Value(RouteStatusSlug(result.status));
  response.body = json::Dump(json::Value(std::move(object)));
  return response;
}

Response HandleRoute(const HttpBackend& backend, const Request& request,
                     const HttpServerOptions& options, bool rank_alias,
                     RouteOutcome* outcome) {
  // Local validation failures carry the taxonomy slug too — clients
  // branching on body["status"] per the docs must never see a bare
  // {"error": ...} from this endpoint. That includes the parse failure
  // below: unparseable JSON is as much a bad request as a bad field.
  const auto bad_request = [](std::string message) {
    RouteResult result;
    result.status = RouteStatus::kBadRequest;
    result.message = std::move(message);
    return RouteErrorResponse(400, result);
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
    const double d = k_value->number_value();
    // The int-representability bound is checked here because casting an
    // out-of-range double is UB; the planner's max_k policy cap comes
    // after.
    if (!k_value->is_number() || d < 1 || d != std::floor(d) ||
        d > static_cast<double>(std::numeric_limits<int>::max())) {
      return bad_request("\"k\" must be a positive integer");
    }
    k = static_cast<int>(d);
  }
  // Budget: the budget_ms body field wins over the X-Deadline-Ms header
  // (the field travels with the query; the header is for clients that
  // cannot touch the body, e.g. proxies stamping a global budget).
  // Anchored HERE — before the backend call — so time lost between
  // anchor and enumeration (a stalled engine, an injected fault) counts
  // against the budget rather than extending it.
  int64_t budget_ms = -1;  // -1 = client sent nothing
  if (const json::Value* b = parsed->Find("budget_ms"); b != nullptr) {
    const double d = b->number_value();
    if (!b->is_number() || d < 1 || d != std::floor(d) ||
        d > static_cast<double>(std::numeric_limits<int32_t>::max())) {
      return bad_request("\"budget_ms\" must be a positive integer");
    }
    budget_ms = static_cast<int64_t>(d);
  } else if (const std::string header = request.Header("x-deadline-ms");
             !header.empty()) {
    uint64_t parsed_ms = 0;
    if (!ParseDigits(header, &parsed_ms) || parsed_ms == 0) {
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
  try {
    const RouteResult result = backend.route(route_request);
    outcome->deadline_exceeded =
        result.status == RouteStatus::kDeadlineExceeded;
    outcome->degraded = result.degraded;
    switch (result.status) {
      case RouteStatus::kOk: {
        Response response;
        response.body =
            json::Dump(rank_alias ? RankingJson(result.ranked,
                                                /*with_totals=*/true)
                                  : RouteJson(result));
        return response;
      }
      case RouteStatus::kUnreachable:
        return RouteErrorResponse(404, result);
      case RouteStatus::kDeadlineExceeded:
        return RouteErrorResponse(504, result);
      default:
        return RouteErrorResponse(400, result);
    }
  } catch (const std::exception& e) {
    // Server log gets the details; the wire gets a generic body — the
    // exception text can name internal paths/state, and the default
    // bind is 0.0.0.0.
    std::fprintf(stderr, "http: %s backend error: %s\n",
                 request.target.c_str(), e.what());
    return ErrorResponse(500, "internal error");
  } catch (...) {
    std::fprintf(stderr, "http: %s backend error (non-std)\n",
                 request.target.c_str());
    return ErrorResponse(500, "internal error");
  }
}

/// Traffic error bodies mirror the /v1/route convention: prose message
/// plus the stable TrafficStatusSlug for clients to branch on.
Response TrafficErrorResponse(int http_status, const TrafficResult& result) {
  Response response;
  response.status = http_status;
  json::Object object;
  object["error"] = json::Value(result.message);
  object["status"] = json::Value(TrafficStatusSlug(result.status));
  response.body = json::Dump(json::Value(std::move(object)));
  return response;
}

Response HandleTraffic(const HttpBackend& backend, const std::string& body) {
  // Shape/type errors found here and semantic errors found by the
  // backend (GraphStore::ApplyTraffic) share one taxonomy; this layer
  // only ever earns the generic bad_request slug.
  const auto bad_request = [](std::string message) {
    TrafficResult result;
    result.status = TrafficStatus::kBadUpdate;
    result.message = std::move(message);
    return TrafficErrorResponse(400, result);
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
    const double d = edge->number_value();
    // The EdgeId-representability bound is checked here because casting
    // an out-of-range double is UB; the existence check against the
    // CURRENT graph belongs to the backend (unknown_edge slug).
    if (d < 0 || d != std::floor(d) ||
        d > static_cast<double>(std::numeric_limits<graph::EdgeId>::max())) {
      return bad_request("\"edge\" must be a non-negative integer edge id");
    }
    update.edge = static_cast<graph::EdgeId>(d);
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
  try {
    const TrafficResult result = backend.traffic(updates);
    if (result.status != TrafficStatus::kOk) {
      return TrafficErrorResponse(400, result);
    }
    Response response;
    json::Object object;
    object["epoch"] = json::Value(result.epoch);
    object["cost_updates"] =
        json::Value(static_cast<uint64_t>(result.cost_updates));
    object["closures"] = json::Value(static_cast<uint64_t>(result.closures));
    object["reopenings"] =
        json::Value(static_cast<uint64_t>(result.reopenings));
    response.body = json::Dump(json::Value(std::move(object)));
    return response;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "http: /v1/traffic backend error: %s\n", e.what());
    return ErrorResponse(500, "internal error");
  } catch (...) {
    std::fprintf(stderr, "http: /v1/traffic backend error (non-std)\n");
    return ErrorResponse(500, "internal error");
  }
}

json::Value StatszJson(const HttpServerStats& stats,
                       const HttpServerOptions& options) {
  json::Object object;
  object["connections_accepted"] = json::Value(stats.connections_accepted);
  object["requests_total"] = json::Value(stats.requests_total);
  object["shed_total"] = json::Value(stats.shed_total);
  object["deadline_exceeded_count"] =
      json::Value(stats.deadline_exceeded_total);
  object["degraded_count"] = json::Value(stats.degraded_total);
  object["inflight"] = json::Value(stats.inflight);
  object["admission_waiting"] = json::Value(stats.admission_waiting);
  object["max_inflight"] =
      json::Value(static_cast<uint64_t>(options.max_inflight));
  object["max_queue_wait_us"] =
      json::Value(static_cast<int64_t>(options.max_queue_wait_us));
  object["graph_epoch"] = json::Value(stats.graph_epoch);
  {
    json::Object planner;
    planner["cache_hits"] = json::Value(stats.route_planner.cache_hits);
    planner["cache_misses"] = json::Value(stats.route_planner.cache_misses);
    planner["invalidations"] =
        json::Value(stats.route_planner.invalidations);
    planner["single_flight_waits"] =
        json::Value(stats.route_planner.single_flight_waits);
    planner["enumerations"] = json::Value(stats.route_planner.enumerations);
    planner["alt_fallbacks"] =
        json::Value(stats.route_planner.alt_fallbacks);
    object["route_planner"] = json::Value(std::move(planner));
  }
  {
    json::Object preprocessing;
    preprocessing["enabled"] = json::Value(stats.preprocessing.enabled);
    preprocessing["landmarks"] = json::Value(
        static_cast<uint64_t>(stats.preprocessing.landmarks));
    preprocessing["rebuilds"] = json::Value(stats.preprocessing.rebuilds);
    preprocessing["rebuild_p50_s"] =
        json::Value(stats.preprocessing.rebuild_p50_s);
    preprocessing["rebuild_p99_s"] =
        json::Value(stats.preprocessing.rebuild_p99_s);
    preprocessing["epochs_behind"] =
        json::Value(stats.preprocessing.epochs_behind);
    object["preprocessing"] = json::Value(std::move(preprocessing));
  }
  json::Object endpoints;
  const auto endpoint_json = [](const HttpEndpointStats& endpoint_stats) {
    json::Object endpoint;
    endpoint["requests"] = json::Value(endpoint_stats.requests);
    endpoint["errors"] = json::Value(endpoint_stats.errors);
    endpoint["timeouts"] = json::Value(endpoint_stats.timeouts);
    endpoint["latency_mean_s"] = json::Value(endpoint_stats.latency_mean_s);
    endpoint["latency_p50_s"] = json::Value(endpoint_stats.latency_p50_s);
    endpoint["latency_p99_s"] = json::Value(endpoint_stats.latency_p99_s);
    return json::Value(std::move(endpoint));
  };
  endpoints["/v1/rank"] = endpoint_json(stats.rank);
  endpoints["/v1/score"] = endpoint_json(stats.score);
  endpoints["/v1/route"] = endpoint_json(stats.route);
  endpoints["/v1/traffic"] = endpoint_json(stats.traffic);
  object["endpoints"] = json::Value(std::move(endpoints));
  return json::Value(std::move(object));
}

}  // namespace

HttpServerStats HttpServer::stats() const {
  HttpServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.requests_total = requests_total_.load(std::memory_order_relaxed);
  stats.shed_total = shed_total_.load(std::memory_order_relaxed);
  stats.deadline_exceeded_total =
      deadline_exceeded_total_.load(std::memory_order_relaxed);
  stats.degraded_total = degraded_total_.load(std::memory_order_relaxed);
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
  stats.rank = rank_stats_->Snapshot();
  stats.score = score_stats_->Snapshot();
  stats.route = route_stats_->Snapshot();
  stats.traffic = traffic_stats_->Snapshot();
  return stats;
}

// ---- HttpClient --------------------------------------------------------

HttpClient::~HttpClient() { Close(); }

void HttpClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string what = std::strerror(errno);
    Close();
    throw std::runtime_error("connect(127.0.0.1:" + std::to_string(port) +
                             ") failed: " + what);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A stalled server must fail the request, not hang the test/bench
  // process in recv() past every wall cap.
  timeval io_timeout{};
  io_timeout.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof(io_timeout));
  port_ = port;
  buffer_.clear();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

HttpClient::Response HttpClient::Request(const std::string& method,
                                         const std::string& path,
                                         const std::string& body) {
  if (fd_ < 0) throw std::runtime_error("HttpClient is not connected");
  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\n";
  request += "Content-Type: application/json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "\r\n";
  request += body;
  if (!SendAll(fd_, request.data(), request.size())) {
    Close();
    throw std::runtime_error("send failed");
  }

  // Read status line + headers.
  size_t header_end;
  for (;;) {
    header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      throw std::runtime_error("connection closed before response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  const std::string head = buffer_.substr(0, header_end);
  buffer_.erase(0, header_end + 4);

  Response response;
  // Status line: "HTTP/1.x SP 3DIGIT SP reason". std::atoi here would
  // read a garbled line ("HTTP/0.9 garbage") as status 0 and hand it to
  // the caller as if the server had answered — bench and tests could not
  // tell a broken counterparty from a real response. Parse strictly and
  // make malformation an error instead.
  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) line_end = head.size();
  const std::string status_line = head.substr(0, line_end);
  const size_t sp = status_line.find(' ');
  bool status_ok = status_line.rfind("HTTP/1.", 0) == 0 &&
                   sp != std::string::npos;
  if (status_ok) {
    size_t code_end = status_line.find(' ', sp + 1);
    if (code_end == std::string::npos) code_end = status_line.size();
    uint64_t code = 0;
    status_ok = code_end - (sp + 1) == 3 &&
                ParseDigits(status_line.substr(sp + 1, 3), &code) &&
                code >= 100 && code <= 599;
    response.status = static_cast<int>(code);
  }
  if (!status_ok) {
    Close();
    throw std::runtime_error("malformed status line: '" + status_line + "'");
  }

  size_t content_length = 0;
  bool server_closes = false;
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t eol = head.find("\r\n", pos + 2);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos + 2, eol - pos - 2);
    pos = eol == head.size() ? std::string::npos : eol;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    size_t value_begin = colon + 1;
    while (value_begin < line.size() && line[value_begin] == ' ') {
      ++value_begin;
    }
    const std::string value = line.substr(value_begin);
    if (name == "content-length") {
      // strtoull would wrap "-1" to ULLONG_MAX and stop at junk; a bad
      // length mis-frames every response after this one on the
      // keep-alive connection, so bail out instead.
      uint64_t length = 0;
      if (!ParseDigits(value, &length)) {
        Close();
        throw std::runtime_error("malformed Content-Length: '" + value +
                                 "'");
      }
      content_length = static_cast<size_t>(length);
    } else if (name == "retry-after") {
      // Delta-seconds only (what HttpServer emits). std::atoi read
      // garbage as 0, which callers treat as "retry immediately" — the
      // opposite of what a mangled back-off hint should do.
      uint64_t delay = 0;
      if (!ParseDigits(value, &delay) ||
          delay > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        Close();
        throw std::runtime_error("malformed Retry-After: '" + value + "'");
      }
      response.retry_after_s = static_cast<int>(delay);
    } else if (name == "connection" && value == "close") {
      server_closes = true;
    }
  }

  while (buffer_.size() < content_length) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      throw std::runtime_error("connection lost mid-body");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  if (server_closes) Close();
  return response;
}

HttpClient::Response HttpClient::RequestWithRetry(const std::string& method,
                                                  const std::string& path,
                                                  const std::string& body,
                                                  const RetryOptions& retry) {
  uint64_t jitter_state = retry.jitter_seed;
  const auto next_jitter = [&jitter_state] {
    // splitmix64 step: deterministic per (seed, attempt), no global RNG.
    jitter_state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = jitter_state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int attempt = 0;; ++attempt) {
    const bool last = attempt >= retry.max_retries;
    Response response;
    try {
      response = Request(method, path, body);
    } catch (const std::runtime_error&) {
      // Transport failure: Request() already closed the connection.
      // Reconnect and replay — the request never completed, so a replay
      // cannot double-apply it any harder than the network already
      // might. (Connect throws through when the server is truly gone.)
      if (last) throw;
      SleepBackoff(attempt, retry, /*retry_after_s=*/-1, next_jitter());
      Connect(port_);
      continue;
    }
    // Only explicit back-pressure is retried: 429 *asks* for a replay.
    // Any other status — success or failure — is the server's answer.
    if (response.status != 429 || last) return response;
    SleepBackoff(attempt, retry, response.retry_after_s, next_jitter());
  }
}

void HttpClient::SleepBackoff(int attempt, const RetryOptions& retry,
                              int retry_after_s, uint64_t jitter_bits) {
  int64_t backoff_ms =
      attempt < 30 ? static_cast<int64_t>(retry.base_backoff_ms) << attempt
                   : retry.max_backoff_ms;
  if (backoff_ms > retry.max_backoff_ms) backoff_ms = retry.max_backoff_ms;
  if (backoff_ms < 0) backoff_ms = 0;
  if (backoff_ms > 0) {
    // Up to +50% jitter so a herd of retrying clients decorrelates.
    backoff_ms += static_cast<int64_t>(
        jitter_bits % static_cast<uint64_t>(backoff_ms / 2 + 1));
  }
  // The server's explicit hint is a floor, never ignored: backing off
  // LESS than Retry-After would re-trip the very admission control that
  // shed us.
  if (retry_after_s > 0) {
    backoff_ms = std::max<int64_t>(backoff_ms, int64_t{retry_after_s} * 1000);
  }
  if (backoff_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

}  // namespace pathrank::serving
