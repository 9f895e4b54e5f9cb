// Minimal self-contained JSON DOM for tools/tracecheck (detlint reads
// compile_commands.json with it too).
//
// Parses exactly the subset the ntbshmem-trace-v1 artifact uses (objects,
// arrays, strings with escapes, numbers incl. exponents, booleans, null)
// into a deterministic DOM (std::map keys iterate sorted). It follows the
// JSON grammar strictly (no raw control characters in strings, no "+1" or
// "1."), because the export tests use it as their well-formedness check.
// Errors throw std::runtime_error with a byte offset; no dependencies beyond
// the standard library, so the checker builds anywhere the simulator does.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ntbshmem::tracecheck::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::map<std::string, Value> obj;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Integer view of a number (trace ids, times). The artifact only writes
  // integers below 2^53, so the double round-trip is exact.
  std::int64_t i64() const { return static_cast<std::int64_t>(number); }
  std::uint64_t u64() const { return static_cast<std::uint64_t>(number); }

  // Member lookup; returns a shared null for absent keys so chained reads
  // of optional fields never throw.
  const Value& at(const std::string& key) const {
    static const Value kNull{};
    auto it = obj.find(key);
    return it == obj.end() ? kNull : it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = string();
        return v;
      }
      case 't':
        if (!consume_lit("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_lit("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_lit("null")) fail("bad literal");
        return Value{};
      default:
        return number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.type = Value::Type::kBool;
    v.boolean = b;
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The artifact only escapes controls (\u00XX); decode as latin-1.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  // JSON's number grammar: -?digits(.digits)?([eE][+-]?digits)?
  Value number() {
    const std::size_t start = pos_;
    auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == first) fail("expected a value");
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      digits();
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline Value parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace ntbshmem::tracecheck::json
