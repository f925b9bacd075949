#include "serde/ini.hpp"

namespace dauct::serde {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string line_error(std::size_t line, const std::string& what) {
  return "line " + std::to_string(line) + ": " + what;
}

IniResult parse_ini(std::string_view text) {
  IniDoc doc;
  IniSection* current = nullptr;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);

    line = trim(line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        return {std::nullopt, line_error(line_no, "malformed section header")};
      }
      const std::string_view name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) {
        return {std::nullopt, line_error(line_no, "empty section name")};
      }
      doc.sections.push_back(IniSection{std::string(name), line_no, {}});
      current = &doc.sections.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return {std::nullopt, line_error(line_no, "expected 'key = value' or '[section]'")};
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return {std::nullopt, line_error(line_no, "empty key")};
    }
    if (!current) {
      doc.sections.push_back(IniSection{std::string(), line_no, {}});
      current = &doc.sections.back();
    }
    current->entries.push_back(
        IniKeyValue{std::string(key), std::string(value), line_no});
  }
  return {std::move(doc), std::string()};
}

}  // namespace dauct::serde
