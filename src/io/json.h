// Minimal JSON value type with a strict parser and a stable writer —
// the substrate of the golden-file format (check::GoldenFile) and any
// other machine-readable output the benches emit. Objects preserve
// insertion order so a regenerated golden diffs cleanly against the
// committed one.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace skyferry::io {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}        // NOLINT(google-explicit-constructor)
  Json(double v) noexcept : type_(Type::kNumber), number_(v) {}  // NOLINT(google-explicit-constructor)
  Json(int v) noexcept : Json(static_cast<double>(v)) {}         // NOLINT(google-explicit-constructor)
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                         // NOLINT

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed reads with a fallback when the value has a different type.
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept {
    return is_number() ? number_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }

  // ---- array interface ------------------------------------------------------
  /// Appends to an array (a null value silently becomes an array first).
  void push_back(Json v);
  [[nodiscard]] const std::vector<Json>& items() const noexcept { return items_; }
  [[nodiscard]] std::size_t size() const noexcept;

  // ---- object interface -----------------------------------------------------
  /// Sets `key` (a null value silently becomes an object first); an
  /// existing key is overwritten in place, otherwise the member is
  /// appended, preserving insertion order.
  Json& set(std::string key, Json v);
  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const noexcept {
    return members_;
  }

  // ---- serialization --------------------------------------------------------
  /// Serialize; `indent` > 0 pretty-prints with that many spaces per
  /// level, 0 emits the compact single-line form. Numbers round-trip
  /// (shortest representation that parses back exactly).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Strict parser (no trailing garbage, no comments). On failure
  /// returns nullopt and, when `error` is non-null, a message with the
  /// byte offset of the problem.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

 private:
  void dump_into(std::string& out, int indent, int depth) const;

  Type type_{Type::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Number formatting used by Json::dump: the shortest of %.15g/%.16g/%.17g
/// that parses back bit-identically (so goldens stay stable and exact);
/// non-finite values become `null`. Built on std::to_chars, it emits the
/// same bytes as printing with each precision in turn and checking each
/// with strtod, at a fraction of the cost.
[[nodiscard]] std::string json_number(double v);
/// json_number(v) appended to `out` (no temporary string).
void append_json_number(std::string& out, double v);

}  // namespace skyferry::io
