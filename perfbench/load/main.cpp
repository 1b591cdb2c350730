// perfbench_load: the benchmark's load generator. It speaks only the wire
// API (HTTP/1.1 over loopback), so it builds without the PathRank library.
//
//   perfbench_load PLAN RESULTS
//
// PLAN, written by perfbench/run.py:
//   port <n>
//   mode closed|open
//   connections <n>      route connections (open mode)
//   seconds <s>          closed mode: stop sending after this long ...
//   min_count <n>        ... but not before n requests were answered
//   R <due_s> <json>     a POST /v1/route body and its due time
//   T <due_s> <json>     a POST /v1/traffic body and its due time
//
// closed: one connection sends the R lines in order, each as soon as the
// previous answer arrived (its due time is that arrival). open: each R
// goes out at its due time on the first idle one of `connections`
// keep-alive connections, and one more connection sends the T lines in
// order, each at its due time or when the previous answer arrived,
// whichever is later. Latency is always timed from the due time.
//
// RESULTS: one line per sent request, in plan order:
//   <R|T> <index> <due_ns> <sent_ns> <done_ns> <status> <min_epoch>
//   <late_ns>\t<response body>
// with times relative to the start. status 0 means the connection failed.
// min_epoch is the highest traffic epoch acknowledged before the send;
// late_ns is how far the generator itself slipped: send time minus the
// later of the due time and the moment a connection was free.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_load: %s\n", message.c_str());
  std::exit(2);
}

struct Request {
  char kind = 'R';
  double due_s = 0.0;
  std::string body;
  // Filled in when sent.
  bool sent = false;
  int64_t due_ns = 0, sent_ns = 0, done_ns = 0, late_ns = 0;
  int status = 0;
  uint64_t min_epoch = 0;
  std::string response;
};

/// One keep-alive HTTP/1.1 connection, Content-Length framed.
class Connection {
 public:
  explicit Connection(int port) : port_(port) { Open(); }
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// POSTs `body`; returns the status (0 when the connection failed, after
  /// which the next call reconnects) and the response body.
  int Post(const char* path, const std::string& body, std::string* out) {
    if (fd_ < 0) Open();
    if (fd_ < 0) return 0;
    std::string request = "POST ";
    request += path;
    request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
               "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    request += body;
    int status = 0;
    if (!SendAll(request) || !ReadResponse(&status, out)) {
      Close();
      return 0;
    }
    return status;
  }

 private:
  void Open() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
    }
    buffer_.clear();
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }
  bool ReadResponse(int* status, std::string* body) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, head_end);
    const size_t space = head.find(' ');
    if (space == std::string::npos) return false;
    *status = std::atoi(head.c_str() + space + 1);
    size_t length = 0;
    std::istringstream lines(head);
    std::string line;
    while (std::getline(lines, line)) {
      std::string lower = line;
      std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
      if (lower.rfind("content-length:", 0) == 0) {
        length = std::strtoul(line.c_str() + 15, nullptr, 10);
      }
    }
    buffer_.erase(0, head_end + 4);
    while (buffer_.size() < length) {
      if (!Fill()) return false;
    }
    body->assign(buffer_, 0, length);
    buffer_.erase(0, length);
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes
/// up late by a scheduler-dependent amount, which would otherwise add
/// to every open-loop latency.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

int64_t Ns(Clock::time_point t, Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start).count();
}

/// The epoch a /v1/traffic answer acknowledges, or 0.
uint64_t EpochOf(const std::string& body) {
  const size_t at = body.find("\"epoch\":");
  return at == std::string::npos ? 0 : std::strtoull(body.c_str() + at + 8, nullptr, 10);
}

void Send(Connection& conn, Request& r, const char* path,
          Clock::time_point start, Clock::time_point due,
          Clock::time_point free_at, const std::atomic<uint64_t>& acked) {
  r.min_epoch = acked.load();
  const auto sent = Clock::now();
  r.status = conn.Post(path, r.body, &r.response);
  const auto done = Clock::now();
  r.sent = true;
  r.due_ns = Ns(due, start);
  r.sent_ns = Ns(sent, start);
  r.done_ns = Ns(done, start);
  r.late_ns = Ns(sent, std::max(due, free_at));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) Fail("usage: perfbench_load PLAN RESULTS");
  std::ifstream plan(argv[1]);
  if (!plan) Fail(std::string("cannot read ") + argv[1]);
  int port = 0;
  int connections = 1;
  double seconds = 0.0;
  size_t min_count = 0;
  std::string mode;
  std::vector<Request> routes;
  std::vector<Request> traffic;
  std::string line;
  while (std::getline(plan, line)) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "port") {
      in >> port;
    } else if (key == "mode") {
      in >> mode;
    } else if (key == "connections") {
      in >> connections;
    } else if (key == "seconds") {
      in >> seconds;
    } else if (key == "min_count") {
      in >> min_count;
    } else if (key == "R" || key == "T") {
      Request r;
      r.kind = key[0];
      in >> r.due_s;
      std::getline(in >> std::ws, r.body);
      (key == "R" ? routes : traffic).push_back(std::move(r));
    } else if (!key.empty()) {
      Fail("bad plan line: " + line);
    }
  }
  if (port <= 0 || connections < 1 || (mode != "open" && mode != "closed")) {
    Fail("plan needs port, connections >= 1 and mode open|closed");
  }

  std::atomic<uint64_t> acked{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::this_thread::sleep_until(start);
  if (mode == "closed") {
    Connection conn(port);
    auto due = start;
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    for (size_t i = 0; i < routes.size(); ++i) {
      Request& r = routes[i];
      if (due >= stop && i >= min_count) break;
      Send(conn, r, "/v1/route", start, due, due, acked);
      due = start + std::chrono::nanoseconds(r.done_ns);
    }
  } else {
    std::atomic<size_t> next{0};
    auto due_of = [&](const Request& r) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(r.due_s));
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&] {
        Connection conn(port);
        for (size_t i; (i = next.fetch_add(1)) < routes.size();) {
          const auto free_at = Clock::now();
          const auto due = due_of(routes[i]);
          WaitUntil(due);
          Send(conn, routes[i], "/v1/route", start, due, free_at, acked);
        }
      });
    }
    // The traffic connection runs on this thread, so the generator uses
    // connections + 1 threads in all.
    if (!traffic.empty()) {
      Connection conn(port);
      for (Request& r : traffic) {
        const auto free_at = Clock::now();
        const auto due = std::max(due_of(r), free_at);
        WaitUntil(due);
        Send(conn, r, "/v1/traffic", start, due, free_at, acked);
        if (r.status == 200) {
          const uint64_t epoch = EpochOf(r.response);
          uint64_t seen = acked.load();
          while (epoch > seen && !acked.compare_exchange_weak(seen, epoch)) {
          }
        }
      }
    }
    for (auto& t : threads) t.join();
  }

  std::ofstream out(argv[2]);
  if (!out) Fail(std::string("cannot write ") + argv[2]);
  for (const auto* list : {&routes, &traffic}) {
    for (size_t i = 0; i < list->size(); ++i) {
      const Request& r = (*list)[i];
      if (!r.sent) continue;
      std::string body = r.response;
      std::replace(body.begin(), body.end(), '\n', ' ');
      out << r.kind << ' ' << i << ' ' << r.due_ns << ' ' << r.sent_ns << ' '
          << r.done_ns << ' ' << r.status << ' ' << r.min_epoch << ' '
          << r.late_ns << '\t' << body << '\n';
    }
  }
  return out.good() ? 0 : 2;
}
