// Streaming JSON writer. Every machine-readable file the tree emits
// (BENCH_*.json rows, advisor verdicts, SARIF, Chrome traces) is built
// through it, so the format decisions live in one place: separators,
// RFC 8259 string escaping, shortest round-trip doubles and the
// trailing newline.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace repro::json {

/// Appends one JSON document to an internal buffer. Members are
/// separated by ", " on one line, except that a container inside an
/// array starts on its own line, indented two spaces per enclosing
/// such array: one row per line for row lists. Misuse (a value in an
/// object without a key, an unbalanced close, a second top-level value)
/// throws ContractViolation.
class Writer {
 public:
  Writer& begin_object() { return open(true); }
  Writer& end_object() { return close(true); }
  Writer& begin_array() { return open(false); }
  Writer& end_array() { return close(false); }

  /// Names the next value; valid only directly inside an object.
  Writer& key(std::string_view name);

  Writer& value(std::string_view text);
  Writer& value(const char* text) { return value(std::string_view(text)); }
  Writer& value(bool flag) { return literal(flag ? "true" : "false"); }
  /// Shortest text that reads back as the same double. Non-finite
  /// values, which JSON cannot represent, are written as null.
  Writer& value(double number) {
    return std::isfinite(number) ? number_literal(number) : literal("null");
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T number) { return number_literal(number); }

  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The finished document plus a trailing newline. Every container
  /// must be closed; the writer is empty afterwards.
  [[nodiscard]] std::string finish();

 private:
  struct Frame {
    bool object;
    bool first = true;
    bool rows = false;  // an element started on its own line
  };

  template <typename T>
  Writer& number_literal(T number) {
    char buf[32];
    return literal({buf, std::to_chars(buf, buf + sizeof(buf), number).ptr});
  }
  Writer& literal(std::string_view text);
  Writer& open(bool object);
  Writer& close(bool object);
  void before_value(bool container);
  void separate(bool container);

  std::string out_;
  std::vector<Frame> stack_;
  std::size_t indent_ = 0;  // open arrays with rows: the indent depth
  bool keyed_ = false;      // key() written, its value not yet
};

}  // namespace repro::json
