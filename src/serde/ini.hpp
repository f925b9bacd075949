// Minimal INI-style reader for declarative config text (scenario .scn files).
//
// Grammar (strict; anything else is an error with a line number):
//   [section]          — starts a new section entry; repeated names kept
//                        in file order ([crash] twice = two crashes)
//   key = value        — belongs to the current section, kept in file order
//   # comment / ; comment — full-line comments; blank lines ignored
//
// Values are returned verbatim (trimmed); typed access and key validation,
// including which sections and keys may repeat, belong to the schema
// (serde/ini_schema.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace dauct::serde {

struct IniKeyValue {
  std::string key;
  std::string value;
  std::size_t line = 0;  ///< 1-based source line, for error messages
};

struct IniSection {
  std::string name;
  std::size_t line = 0;
  std::vector<IniKeyValue> entries;
};

/// A parsed document: sections in file order. Keys before any [section]
/// header go into an implicit section with an empty name.
struct IniDoc {
  std::vector<IniSection> sections;
};

/// Parse or fail with a "line N: ..." message.
struct IniResult {
  std::optional<IniDoc> doc;
  std::string error;

  bool ok() const { return doc.has_value(); }
};

IniResult parse_ini(std::string_view text);

/// "line N: what" — the error form of every INI consumer.
std::string line_error(std::size_t line, const std::string& what);

}  // namespace dauct::serde
