#include "serving/http_request.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "common/parse.h"

namespace pathrank::serving {
namespace {

std::string Lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool IsOptionalWhitespace(char c) { return c == ' ' || c == '\t'; }

}  // namespace

RequestHead ParseRequestHead(std::string_view bytes, size_t max_body_bytes) {
  RequestHead result;
  const size_t header_end = bytes.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    result.status = bytes.size() > kMaxHeaderBytes ? 431 : kHeadIncomplete;
    return result;
  }
  result.status = 400;
  HttpRequest& request = result.request;

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string_view head = bytes.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return result;
  request.method = request_line.substr(0, sp1);
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return result;

  // Headers, names lowercased.
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return result;
    // Whitespace before the colon must be a 400 (RFC 9112 §5.1), not a
    // silently ignored header: "Content-Length : N" stored under the
    // key "content-length " would mis-frame the body — the third
    // smuggling vector next to the TE+CL and duplicate-CL ones below.
    if (colon == 0 || IsOptionalWhitespace(line[colon - 1])) return result;
    std::string name = Lowercase(line.substr(0, colon));
    // Trim optional whitespace (space or HTAB, RFC 9110 §5.6.3) off both
    // ends of the value: "Content-Length:\t5 " must parse as "5".
    size_t value_begin = colon + 1;
    while (value_begin < line.size() &&
           IsOptionalWhitespace(line[value_begin])) {
      ++value_begin;
    }
    size_t value_end = line.size();
    while (value_end > value_begin &&
           IsOptionalWhitespace(line[value_end - 1])) {
      --value_end;
    }
    // Duplicate Content-Length is the other RFC 7230 §3.3.3 desync
    // vector (a proxy framing by the first value, us by the last):
    // reject instead of letting the map fold it last-one-wins.
    if (name == "content-length" && request.headers.count(name) > 0) {
      return result;
    }
    request.headers[std::move(name)] =
        line.substr(value_begin, value_end - value_begin);
  }

  // Keep-alive: HTTP/1.1 default unless "Connection: close"; HTTP/1.0
  // only with an explicit keep-alive.
  const std::string connection = Lowercase(request.Header("connection"));
  request.keep_alive = version == "HTTP/1.1" ? connection != "close"
                                             : connection == "keep-alive";

  // Body, Content-Length framed. Any Transfer-Encoding header is
  // rejected OUTRIGHT — even alongside a Content-Length, and even with an
  // empty value, which a proxy may read as a coding of its own. Framing a
  // TE+CL message by the length is the classic request-smuggling desync
  // (RFC 7230 §3.3.3): leftover chunk bytes would be parsed as the next
  // request on this connection.
  if (request.headers.count("transfer-encoding") > 0) return result;
  const auto length_it = request.headers.find("content-length");
  if (length_it != request.headers.end()) {
    // 1*DIGIT per RFC 9110: the whole-token unsigned parse rejects "-1",
    // "+5", trailing junk, and a value past uint64 (no strtoull-style
    // saturation to ULLONG_MAX).
    uint64_t parsed = 0;
    if (!ParseUInt64(length_it->second, &parsed)) return result;
    if (parsed > max_body_bytes) {
      result.status = 413;
      return result;
    }
    request.content_length = static_cast<size_t>(parsed);
  }
  // curl sends "Expect: 100-continue" before larger bodies and waits for
  // the interim response. The token is case-insensitive (RFC 9110
  // §10.1.1) — a client sending "100-Continue" must not stall.
  request.expect_continue =
      Lowercase(request.Header("expect")).find("100-continue") !=
      std::string::npos;
  result.status = 200;
  result.body_offset = header_end + 4;
  return result;
}

}  // namespace pathrank::serving
