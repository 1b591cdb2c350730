#include "serving/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>

#include "common/logging.h"

namespace pathrank::serving::json {
namespace {

/// Nesting cap: a body within HttpServerOptions::max_body_bytes can still
/// encode ~500k nested arrays ("[[[[..."), which would overflow the stack
/// of a recursive parser long before it exhausts memory.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> Run(std::string* error) {
    auto value = ParseValue(0);
    if (value) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        Fail("trailing characters after the JSON value");
        value.reset();
      }
    }
    if (!value && error) *error = error_;
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = "offset " + std::to_string(pos_) + ": " + what;
    }
    return false;
  }

  bool Consume(char expected, const char* what) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return Fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  std::optional<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxDepth));
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return std::nullopt;
        return Value(std::move(s));
      }
      case 't':
        if (!ConsumeLiteral("true")) return std::nullopt;
        return Value(true);
      case 'f':
        if (!ConsumeLiteral("false")) return std::nullopt;
        return Value(false);
      case 'n':
        if (!ConsumeLiteral("null")) return std::nullopt;
        return Value();
      default:
        return ParseNumber();
    }
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.substr(pos_, len) != literal) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    return true;
  }

  std::optional<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Object object;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Value(std::move(object));
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected string key");
        return std::nullopt;
      }
      std::string key;
      if (!ParseString(&key)) return std::nullopt;
      if (!Consume(':', "':' after object key")) return std::nullopt;
      auto value = ParseValue(depth + 1);
      if (!value) return std::nullopt;
      // Duplicate keys: last one wins (the common lenient behaviour).
      object.insert_or_assign(std::move(key), std::move(*value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume('}', "',' or '}' in object")) return std::nullopt;
      return Value(std::move(object));
    }
  }

  std::optional<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Array array;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Value(std::move(array));
    }
    for (;;) {
      auto value = ParseValue(depth + 1);
      if (!value) return std::nullopt;
      array.push_back(std::move(*value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!Consume(']', "',' or ']' in array")) return std::nullopt;
      return Value(std::move(array));
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("non-hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("high surrogate without a low surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("unknown escape character");
      }
    }
    return Fail("unterminated string");
  }

  /// For a grammar-valid literal that from_chars reported out of range:
  /// true when its magnitude fell BELOW the doubles (underflow — folds
  /// to signed zero, strtod-style), false when it rose above (overflow —
  /// no double value exists). Discriminator: the decimal exponent of the
  /// most significant digit plus the explicit exponent; underflow needs
  /// it below 0, overflow needs it at 308+, so the sign decides.
  static bool Underflows(std::string_view literal) {
    size_t p = literal.empty() ? 0 : (literal[0] == '-' ? 1 : 0);
    const size_t int_begin = p;
    while (p < literal.size() &&
           std::isdigit(static_cast<unsigned char>(literal[p]))) {
      ++p;
    }
    const size_t int_len = p - int_begin;
    bool seen_significant = false;
    int64_t msd_exp = 0;  // decimal exponent of the most significant digit
    for (size_t k = int_begin; k < int_begin + int_len; ++k) {
      if (literal[k] != '0') {
        seen_significant = true;
        msd_exp = static_cast<int64_t>(int_len - 1 - (k - int_begin));
        break;
      }
    }
    if (p < literal.size() && literal[p] == '.') {
      ++p;
      const size_t frac_begin = p;
      while (p < literal.size() &&
             std::isdigit(static_cast<unsigned char>(literal[p]))) {
        ++p;
      }
      if (!seen_significant) {
        for (size_t k = frac_begin; k < p; ++k) {
          if (literal[k] != '0') {
            seen_significant = true;
            msd_exp = -static_cast<int64_t>(k - frac_begin) - 1;
            break;
          }
        }
      }
    }
    int64_t exponent = 0;
    if (p < literal.size() && (literal[p] == 'e' || literal[p] == 'E')) {
      ++p;
      bool negative = false;
      if (p < literal.size() && (literal[p] == '+' || literal[p] == '-')) {
        negative = literal[p] == '-';
        ++p;
      }
      while (p < literal.size() &&
             std::isdigit(static_cast<unsigned char>(literal[p]))) {
        if (exponent < 100000000) {  // clamp: direction is all that matters
          exponent = exponent * 10 + (literal[p] - '0');
        }
        ++p;
      }
      if (negative) exponent = -exponent;
    }
    if (!seen_significant) return true;  // literal zero never errors; safe
    return msd_exp + exponent < 0;
  }

  std::optional<Value> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // Integer part: one zero, or a nonzero digit run (no leading zeros).
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (pos_ < text_.size() && text_[pos_] >= '1' &&
               text_[pos_] <= '9') {
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    } else {
      Fail("expected a value");
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        Fail("expected digit after decimal point");
        return std::nullopt;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        Fail("expected digit in exponent");
        return std::nullopt;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // The slice start..pos_ is a valid JSON number by construction.
    // std::from_chars, unlike strtod, is locale-independent — a host
    // application's setlocale(LC_NUMERIC, ...) must not change how the
    // wire format parses.
    double parsed = 0.0;
    const char* begin = text_.data() + start;
    const auto result = std::from_chars(begin, text_.data() + pos_, parsed);
    if (result.ec == std::errc::result_out_of_range) {
      // from_chars reports both directions as out_of_range. Underflow
      // ("1e-999") is valid JSON every mainstream parser folds to zero,
      // so fold it (sign preserved); overflow ("1e999") has no double
      // value, and silently folding it to 0.0 would hand the handler a
      // different number than the client sent — reject it.
      const std::string_view literal = text_.substr(start, pos_ - start);
      if (Underflows(literal)) {
        return Value(literal[0] == '-' ? -0.0 : 0.0);
      }
      pos_ = start;
      Fail("number out of double range");
      return std::nullopt;
    }
    return Value(parsed);
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

/// The one string escaper: `s` as a quoted JSON string. Runs of bytes
/// that need no escape are appended whole; bytes >= 0x80 pass through.
void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  size_t run = 0;  // first byte not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void WriteValue(const Value& value, Writer* writer) {
  switch (value.type()) {
    case Value::Type::kNull:
      writer->Null();
      break;
    case Value::Type::kBool:
      writer->Bool(value.bool_value());
      break;
    case Value::Type::kNumber:
      writer->Number(value.number_value());
      break;
    case Value::Type::kString:
      writer->String(value.string_value());
      break;
    case Value::Type::kArray:
      writer->BeginArray();
      for (const auto& element : value.array()) WriteValue(element, writer);
      writer->EndArray();
      break;
    case Value::Type::kObject:
      writer->BeginObject();
      for (const auto& [key, element] : value.object()) {
        writer->Key(key);
        WriteValue(element, writer);
      }
      writer->EndObject();
      break;
  }
}

}  // namespace

std::optional<Value> Parse(std::string_view text, std::string* error) {
  return Parser(text).Run(error);
}

void Writer::Separate() {
  if (out_->size() == start_) return;
  const char last = out_->back();
  // After an opening bracket or a key nothing goes between; after a
  // complete value (a literal, a number, '"', ']' or '}') a comma does.
  if (last != '[' && last != '{' && last != ':') out_->push_back(',');
}

Writer& Writer::BeginObject() {
  Separate();
  out_->push_back('{');
#ifndef NDEBUG
  last_keys_.emplace_back();
#endif
  return *this;
}

Writer& Writer::EndObject() {
  out_->push_back('}');
#ifndef NDEBUG
  last_keys_.pop_back();
#endif
  return *this;
}

Writer& Writer::BeginArray() {
  Separate();
  out_->push_back('[');
  return *this;
}

Writer& Writer::EndArray() {
  out_->push_back(']');
  return *this;
}

Writer& Writer::Key(std::string_view key) {
#ifndef NDEBUG
  PR_DCHECK(!last_keys_.empty()) << "json::Writer: key outside an object";
  std::optional<std::string>& last = last_keys_.back();
  PR_DCHECK(!last || *last < key)
      << "json::Writer: key \"" << key << "\" after \""
      << last.value_or("") << "\"; keys go in ascending byte order";
  last = std::string(key);
#endif
  Separate();
  AppendQuoted(key, out_);
  out_->push_back(':');
  return *this;
}

Writer& Writer::Null() {
  Separate();
  *out_ += "null";
  return *this;
}

Writer& Writer::Bool(bool b) {
  Separate();
  *out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::Number(double d) {
  Separate();
  if (!std::isfinite(d)) {
    *out_ += "null";
    return *this;
  }
  // std::to_chars, unlike snprintf, ignores LC_NUMERIC: a host locale
  // with a comma decimal point cannot corrupt the wire. Its shortest
  // double form parses back bitwise (sign of -0.0 included) but can be
  // exponent notation for an integral value (1e+05), so integral values
  // a double holds exactly take the integer conversion instead.
  constexpr double kTwoTo53 = 9007199254740992.0;
  char buf[32];  // longest shortest-form double is 24 chars
  char* end = nullptr;
  if (std::fabs(d) < kTwoTo53 && d == std::trunc(d) &&
      !(d == 0.0 && std::signbit(d))) {
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(d)).ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), d).ptr;
  }
  out_->append(buf, end);
  return *this;
}

Writer& Writer::String(std::string_view s) {
  Separate();
  AppendQuoted(s, out_);
  return *this;
}

std::string Dump(const Value& value) {
  std::string out;
  Writer writer(&out);
  WriteValue(value, &writer);
  return out;
}

}  // namespace pathrank::serving::json
