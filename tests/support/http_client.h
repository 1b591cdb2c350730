// Minimal blocking HTTP/1.1 client for the loopback server tests: one
// keep-alive connection, sequential requests. Not a general client —
// just enough to drive HttpServer. Its framing code is deliberately
// independent of the server's ParseRequestHead (not shared): the
// round-trip tests use this client as the server's counterparty, and a
// shared parser would let a framing bug cancel itself out.
#pragma once

#include <cstdint>
#include <string>

namespace pathrank::serving {

class HttpClient {
 public:
  /// One response, status line + headers parsed.
  struct Response {
    int status = 0;
    std::string body;
    /// Retry-After header value when present (shed responses), else -1.
    int retry_after_s = -1;
  };

  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
  void Connect(uint16_t port);
  void Close();

  /// Sends one request and reads the full response (Content-Length
  /// framed). The connection stays open for the next call; on a
  /// socket-level failure the connection closes and a runtime_error is
  /// thrown.
  Response Request(const std::string& method, const std::string& path,
                   const std::string& body = "");

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the previous response
};

}  // namespace pathrank::serving
