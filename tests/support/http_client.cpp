#include "support/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/parse.h"

namespace pathrank::serving {
namespace {

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

}  // namespace

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
  // A stalled server must fail the request, not hang the test
  // process in recv() past every wall cap.
  timeval io_timeout{};
  io_timeout.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof(io_timeout));
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
  // the caller as if the server had answered — a test could not tell a
  // broken counterparty from a real response. Parse strictly and make
  // malformation an error instead.
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
                ParseUInt64(status_line.substr(sp + 1, 3), &code) &&
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
      if (!ParseUInt64(value, &length)) {
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
      if (!ParseUInt64(value, &delay) ||
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

}  // namespace pathrank::serving
