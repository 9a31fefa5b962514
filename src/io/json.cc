#include "io/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace skyferry::io {

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  items_.push_back(std::move(v));
}

std::size_t Json::size() const noexcept {
  if (is_array()) return items_.size();
  if (is_object()) return members_.size();
  return 0;
}

Json& Json::set(std::string key, Json v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  char buf[32];
  // The shortest round-trip form has k significant digits, and %.Pg
  // round-trips for every P >= k but one case below, so the loop's
  // answer is %.{max(k, 15)}g; to_chars with a precision prints %g's
  // bytes.
  char* end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr;
  int k = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) k += (*p >= '0' && *p <= '9');
  const int prec = std::max(k, 15);
  end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec).ptr;
  // The case: just below a power of two the doubles are twice as dense,
  // so the shortest 16 digits can lie above v while %.16g rounds to a
  // decimal below it that parses to v's lower neighbour. Then it is 17.
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  if (prec == 16 && (std::bit_cast<std::uint64_t>(v) & kMantissa) == 0) {
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back != v) end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr;
  }
  out.append(buf, end);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dump_into(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_json_number(out, number_); return;
    case Type::kString: escape_string(out, string_); return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        items_[i].dump_into(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_string(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_into(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_into(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// ---- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    skip_ws();
    Json v;
    if (!parse_value(v)) {
      fill_error(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      err_ = "trailing characters after JSON value";
      fill_error(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill_error(std::string* error) const {
    if (error) *error = err_ + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool peek_is(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      err_ = "invalid literal";
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool parse_value(Json& out) {  // NOLINT(misc-no-recursion)
    if (pos_ >= text_.size()) {
      err_ = "unexpected end of input";
      return false;
    }
    switch (text_[pos_]) {
      case 'n': return consume_literal("null") && (out = Json(), true);
      case 't': return consume_literal("true") && (out = Json(true), true);
      case 'f': return consume_literal("false") && (out = Json(false), true);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': return parse_array(out);
      case '{': return parse_object(out);
      default: return parse_number(out);
    }
  }

  bool parse_number(Json& out) {
    // Scan the exact JSON number grammar first; strtod alone also accepts
    // hex, inf/nan, and leading '+', which JSON forbids.
    const std::size_t start = pos_;
    auto digit = [&] { return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9'; };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit()) {
      err_ = "invalid number";
      pos_ = start;
      return false;
    }
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit()) {
        err_ = "digit expected after decimal point";
        return false;
      }
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digit()) {
        err_ = "digit expected in exponent";
        return false;
      }
      while (digit()) ++pos_;
    }
    const std::string span(text_.substr(start, pos_ - start));
    out = Json(std::strtod(span.c_str(), nullptr));
    return true;
  }

  bool parse_hex4(unsigned& cp) {
    if (pos_ + 4 > text_.size()) {
      err_ = "truncated \\u escape";
      return false;
    }
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else {
        err_ = "invalid \\u escape";
        return false;
      }
    }
    return true;
  }

  void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            // Surrogate pair.
            if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default:
            err_ = "invalid escape";
            return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        err_ = "unescaped control character in string";
        return false;
      }
      out += c;
      ++pos_;
    }
    err_ = "unterminated string";
    return false;
  }

  bool parse_array(Json& out) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (peek_is(']')) {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      skip_ws();
      if (!parse_value(v)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (peek_is(',')) {
        ++pos_;
        continue;
      }
      if (peek_is(']')) {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool parse_object(Json& out) {  // NOLINT(misc-no-recursion)
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (peek_is('}')) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!peek_is('"')) {
        err_ = "expected object key";
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!peek_is(':')) {
        err_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      skip_ws();
      Json v;
      if (!parse_value(v)) return false;
      out.set(std::move(key), std::move(v));
      skip_ws();
      if (peek_is(',')) {
        ++pos_;
        continue;
      }
      if (peek_is('}')) {
        ++pos_;
        return true;
      }
      err_ = "expected ',' or '}' in object";
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::string err_{"parse error"};
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace skyferry::io
