#include "repro/common/json.hpp"

#include <utility>

#include "repro/common/assert.hpp"

namespace repro::json {

namespace {

/// RFC 8259 string: quote, backslash and every control character
/// escaped, everything else (UTF-8 included) passed through.
void append_quoted(std::string& out, std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

Writer& Writer::key(std::string_view name) {
  REPRO_REQUIRE_MSG(!stack_.empty() && stack_.back().object && !keyed_,
                    "json: key outside an object");
  separate(false);
  append_quoted(out_, name);
  out_ += ": ";
  keyed_ = true;
  return *this;
}

Writer& Writer::value(std::string_view text) {
  before_value(false);
  append_quoted(out_, text);
  return *this;
}

std::string Writer::finish() {
  REPRO_REQUIRE_MSG(stack_.empty() && !out_.empty(),
                    "json: document has unclosed containers");
  out_ += '\n';
  return std::exchange(out_, {});
}

Writer& Writer::literal(std::string_view text) {
  before_value(false);
  out_ += text;
  return *this;
}

Writer& Writer::open(bool object) {
  before_value(true);
  out_ += object ? '{' : '[';
  stack_.push_back(Frame{object});
  return *this;
}

Writer& Writer::close(bool object) {
  REPRO_REQUIRE_MSG(!stack_.empty() && stack_.back().object == object &&
                        !keyed_,
                    "json: close does not match the open container");
  if (stack_.back().rows) {
    --indent_;
    out_ += '\n';
    out_.append(2 * indent_, ' ');
  }
  stack_.pop_back();
  out_ += object ? '}' : ']';
  return *this;
}

void Writer::before_value(bool container) {
  if (keyed_) {
    keyed_ = false;
    return;
  }
  REPRO_REQUIRE_MSG(stack_.empty() ? out_.empty() : !stack_.back().object,
                    "json: value needs a key or an enclosing array");
  separate(container);
}

void Writer::separate(bool container) {
  if (stack_.empty()) {
    return;
  }
  Frame& frame = stack_.back();
  if (!frame.first) {
    out_ += ',';
  }
  if (container) {
    indent_ += frame.rows ? 0 : 1;
    frame.rows = true;
    out_ += '\n';
    out_.append(2 * indent_, ' ');
  } else if (!frame.first) {
    out_ += ' ';
  }
  frame.first = false;
}

}  // namespace repro::json
