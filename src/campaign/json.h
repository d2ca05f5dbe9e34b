// Minimal JSON reader for campaign specs.
//
// The campaign layer turns scenarios into *data*, and data that a fleet
// operator edits by hand fails in boring ways: a trailing comma, a string
// where a number belongs, a misspelled key. This parser exists so every
// one of those failures dies fast with a `file:line:col` diagnostic
// instead of a half-applied spec. It covers exactly the JSON the spec
// schema needs — objects, arrays, strings (with escapes), numbers, bools,
// null — with no dependencies beyond the standard library.
//
// Values are immutable after parse; navigation helpers live on JsonValue
// and validation errors (wrong type, unknown key) are raised by the spec
// layer with the value's recorded position, so "platform.seed must be a
// number" points at the offending token, not at EOF.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace satin::campaign {

// Parse or validation failure; what() carries "<file>:<line>:<col>: msg".
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Typed accessors; throw JsonError (with this value's position) on a
  // kind mismatch. `where` names the value in the message, e.g.
  // "platform.num_little". as_int and as_uint convert an integer literal
  // exactly over the full 64-bit range and name one outside it; a literal
  // with a fraction or an exponent ("8.0") converts when its value is an
  // integer of magnitude at most 2^53.
  bool as_bool(const std::string& where) const;
  double as_number(const std::string& where) const;
  std::int64_t as_int(const std::string& where) const;
  std::uint64_t as_uint(const std::string& where) const;
  const std::string& as_string(const std::string& where) const;

  // Object navigation. Members preserve source order for error reporting;
  // find() is by key. Null when absent.
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members(
      const std::string& where) const;

  // Raises JsonError at this object's position naming every key that is
  // not in `allowed` — the fail-fast guard against misspelled spec knobs.
  void reject_unknown_keys(const std::string& where,
                           const std::vector<std::string>& allowed) const;

  [[noreturn]] void fail(const std::string& message) const;

 private:
  friend class JsonParser;

  template <typename Int>
  Int as_integer(const std::string& where, const char* expected) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // a string's text, or a number's literal token
  std::vector<std::pair<std::string, JsonValue>> object_;
  int line_ = 0;
  int col_ = 0;
  std::string source_;  // file label, for diagnostics (root value only on
                        // parse; propagated to children)
};

// Parses `text`; `source` labels diagnostics (a file path or "<spec>").
// Throws JsonError on any syntax problem, naming line and column.
JsonValue parse_json(const std::string& text, const std::string& source);

}  // namespace satin::campaign
