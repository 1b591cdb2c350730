// HTTP/1.1 request-head parsing for HttpServer, kept apart from the
// sockets: ParseRequestHead reads bytes already received and touches no
// file descriptor, so unit tests and fuzzers can drive the framing rules
// directly. The server's read loop only appends bytes and calls it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

namespace pathrank::serving {

/// Caps the request line + headers. Bigger means a client that never
/// sends "\r\n\r\n" ties up a worker and its buffer; 16 KB fits any sane
/// request many times over.
constexpr size_t kMaxHeaderBytes = 16 * 1024;

/// One parsed request. Header names are lowercased at parse time.
struct HttpRequest {
  std::string method;
  std::string target;
  std::map<std::string, std::string> headers;
  bool keep_alive = true;
  /// Body size the head announces (Content-Length; 0 when absent).
  size_t content_length = 0;
  /// The client sent "Expect: 100-continue" (any case) and waits for the
  /// interim response before sending the body.
  bool expect_continue = false;
  /// Filled by the reader once content_length bytes have arrived.
  std::string body;

  std::string Header(const std::string& name) const {
    const auto it = headers.find(name);
    return it != headers.end() ? it->second : std::string();
  }
};

/// What ParseRequestHead made of the bytes received so far.
struct RequestHead {
  /// kHeadIncomplete: no blank line yet and the bytes are within
  /// kMaxHeaderBytes, so read more. 200: `request` holds the head. 400
  /// (malformed), 413 (body over the limit) or 431 (head over
  /// kMaxHeaderBytes): reject with that status.
  int status = 0;
  HttpRequest request;
  /// With status 200: where the body starts, just past the blank line.
  size_t body_offset = 0;
};
constexpr int kHeadIncomplete = 0;

/// Parses the request head at the start of `bytes` (which may hold body
/// bytes and later pipelined requests after it). Framing rules: the
/// request line is METHOD SP TARGET SP HTTP/1.1 or HTTP/1.0; header
/// names must not end in whitespace; a duplicate Content-Length or any
/// non-empty Transfer-Encoding is rejected (both are request-smuggling
/// vectors); Content-Length is 1*DIGIT and at most `max_body_bytes`.
RequestHead ParseRequestHead(std::string_view bytes, size_t max_body_bytes);

}  // namespace pathrank::serving
