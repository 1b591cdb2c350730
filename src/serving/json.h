// Minimal JSON reader/writer for the HTTP serving front end — the wire
// format between HttpServer and its clients. Hand-rolled (no third-party
// dependency, matching the repo's dependency-free rule) and deliberately
// small: the server's request/response schemas need objects, arrays,
// strings, doubles and bools, nothing exotic.
//
// Writing goes through one streaming Writer: the server writes its
// response bodies straight from its own structs, and Dump is a walk of
// a DOM through the same Writer, so numbers and strings are formatted
// in exactly one place. The DOM (Value) is Parse's output and the tests'
// reference.
//
// Fidelity contract: doubles print in their shortest round-trippable
// form (std::to_chars) so Parse(Dump(x)) == x bitwise for every finite
// double, independent of the process locale. This is what lets the HTTP
// round-trip tests assert scores BITWISE equal to the in-process
// ServingEngine path — the serialization layer never rounds.
//
// Parsing is strict RFC-8259: exactly one value, no trailing input, no
// comments, no trailing commas, \uXXXX escapes (surrogate pairs included)
// decoded to UTF-8, nesting depth capped so a hostile body cannot blow
// the stack.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pathrank::serving::json {

class Value;
/// Array / object payloads. std::map keeps Dump output deterministic
/// (keys in ascending byte order), the order Writer requires.
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One JSON value: null, bool, number (double), string, array or object.
/// The payload is a tagged union (std::variant), not side-by-side
/// members: a parsed number costs one variant slot rather than dormant
/// string/array/map containers — which matters when a request body near
/// max_body_bytes parses into hundreds of thousands of Values.
class Value {
 public:
  /// Enumerators are in variant-alternative order: type() is the index.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(int64_t i) : data_(static_cast<double>(i)) {}
  Value(uint64_t u) : data_(static_cast<double>(u)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors. Calling the wrong one returns the type's zero value
  /// (false / 0.0 / empty) rather than throwing — callers check type()
  /// or is_*() first; the HTTP handlers always do.
  bool bool_value() const {
    const bool* b = std::get_if<bool>(&data_);
    return b != nullptr && *b;
  }
  double number_value() const {
    const double* d = std::get_if<double>(&data_);
    return d != nullptr ? *d : 0.0;
  }
  const std::string& string_value() const {
    static const std::string kEmpty;
    const std::string* s = std::get_if<std::string>(&data_);
    return s != nullptr ? *s : kEmpty;
  }
  const Array& array() const {
    static const Array kEmpty;
    const Array* a = std::get_if<Array>(&data_);
    return a != nullptr ? *a : kEmpty;
  }
  const Object& object() const {
    static const Object kEmpty;
    const Object* o = std::get_if<Object>(&data_);
    return o != nullptr ? *o : kEmpty;
  }

  /// Object member lookup: the value at `key`, or nullptr when this is
  /// not an object or the key is absent.
  const Value* Find(const std::string& key) const {
    const Object* o = std::get_if<Object>(&data_);
    if (o == nullptr) return nullptr;
    const auto it = o->find(key);
    return it != o->end() ? &it->second : nullptr;
  }

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      data_;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed). Returns nullopt on malformed input and, when
/// `error` is non-null, stores a one-line "offset N: what went wrong"
/// description for the 400 response body.
std::optional<Value> Parse(std::string_view text, std::string* error = nullptr);

/// Streaming compact-JSON writer: appends to a caller's string as the
/// caller walks its own data, with no DOM in between, and places the
/// ',' and ':' separators itself. The caller opens, names and closes;
/// every Begin needs its End, and every Key exactly one value.
///
/// Object keys must come in ascending byte order — the order std::map
/// gives a DOM Object — so a body written here is byte-identical to Dump
/// of the same DOM. Builds without NDEBUG check it (PR_DCHECK).
///
/// Numbers: shortest round-trip form (std::to_chars, locale-independent);
/// integral values with |d| < 2^53 print as plain integers ("100000",
/// never "1e+05"), so ids and counters reach clients as integers; -0.0
/// prints "-0", and a non-finite value "null" (JSON has no Inf/NaN).
class Writer {
 public:
  /// Appends to `*out`, after whatever it already holds.
  explicit Writer(std::string* out) : out_(out), start_(out->size()) {}

  Writer& BeginObject();
  Writer& EndObject();
  Writer& BeginArray();
  Writer& EndArray();
  /// Names the next member of the innermost open object.
  Writer& Key(std::string_view key);
  Writer& Null();
  Writer& Bool(bool b);
  Writer& Number(double d);
  Writer& String(std::string_view s);

 private:
  /// Writes the ',' a value or key needs after a previous sibling.
  void Separate();

  std::string* out_;
  size_t start_;  // out_->size() at construction: where this value begins
  /// The last key of each open object, innermost last (nullopt before
  /// its first key). Kept only in builds without NDEBUG, for the check.
  std::vector<std::optional<std::string>> last_keys_;
};

/// Serialises `value` compactly (no whitespace) through a Writer.
std::string Dump(const Value& value);

}  // namespace pathrank::serving::json
