// Table-driven INI schemas: one key table per section drives parsing,
// emission and strictness for a config format (.scn scenarios, fuzz bounds).
//
// A table row names a key, the field it fills (a member pointer, or a
// lambda returning a reference for a nested field), the value grammar (the
// serde/ini_values.hpp scalars, or a custom read/write pair) and when the
// key is written back. From the rows, IniSchema:
//  * parses strictly — an unknown section or key, a malformed or
//    out-of-range value, a key repeated in one section, a second copy of a
//    non-repeatable section, a missing required key and a tuning knob set
//    while its switch is off are all "line N: ..." errors;
//  * emits canonical text with default-valued keys omitted; every value is
//    written by the formatter the parser inverts, so emission is a fixpoint
//    of parse ∘ emit;
//  * lists its sections and keys, for the documentation tests.
// Rules that relate several sections stay with the consumer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serde/ini.hpp"
#include "serde/ini_values.hpp"

namespace dauct::serde {

/// When a key is written back, and whether its section must name it.
enum class Emit : std::uint8_t {
  kChanged,   ///< only while the field differs from the record's default
  kAlways,    ///< whenever its section is written
  kRequired,  ///< always; a section without the key is a parse error
};

/// One row of a section table. `Rec` is the record the section fills, `Doc`
/// the whole document, readable while a value is parsed or formatted (node
/// names, say, depend on another section's provider count).
template <class Rec, class Doc>
struct IniKey {
  std::string name;
  /// Text → field; false when the text is malformed or out of range.
  std::function<bool(Rec&, const std::string&, const Doc&)> parse;
  /// Field → canonical text; std::nullopt while an optional field is unset.
  std::function<std::optional<std::string>(const Rec&, const Doc&)> format;
  Emit emit = Emit::kChanged;
  /// A tuning knob of the boolean key `gate`: setting it while the gate is
  /// not true is an error (it would silently do nothing) unless the value
  /// formats as `inert`; it is not written while the gate is off.
  const char* gate = nullptr;
  const char* inert = nullptr;

  /// This key as a tuning knob of `gate_key`, inert at `inert_value`.
  IniKey knob(const char* gate_key, const char* inert_value = nullptr) && {
    gate = gate_key;
    inert = inert_value;
    return std::move(*this);
  }
};

/// Section-level rules beside the key rows.
template <class Rec>
struct IniRules {
  /// A non-repeatable section is written when a key differs from its
  /// default, or when this holds.
  std::function<bool(const Rec&)> present = nullptr;
  /// Checked once the section's keys are parsed: an error, or nullptr.
  std::function<const char*(const Rec&)> check = nullptr;
};

/// A document schema: its sections, each built by IniTable::section.
template <class Doc>
struct IniSchema {
  struct Section {
    std::string name;
    std::vector<std::string> keys;
    bool repeatable = false;
    std::function<std::string(Doc&, const IniSection&)> parse;
    std::function<void(const Doc&, bool, std::string&)> emit;
  };

  std::vector<Section> sections;  ///< in emission and parse order

  /// Parse `text` into `doc`: "" on success, else the first error. Sections
  /// are applied in schema order, so a section may depend on an earlier one;
  /// copies of a repeatable section keep their file order.
  std::string parse(std::string_view text, Doc& doc) const {
    const IniResult ini = parse_ini(text);
    if (!ini.ok()) return ini.error;
    for (const IniSection& sec : ini.doc->sections) {
      const auto named = [&](const Section& spec) { return spec.name == sec.name; };
      if (std::any_of(sections.begin(), sections.end(), named)) continue;
      return line_error(sec.line, sec.name.empty()
                                      ? "keys before any [section] header"
                                      : "unknown section [" + sec.name + "]");
    }
    for (const Section& spec : sections) {
      std::size_t first_line = 0;
      for (const IniSection& sec : ini.doc->sections) {
        if (sec.name != spec.name) continue;
        if (first_line != 0 && !spec.repeatable) {
          return line_error(sec.line, "section [" + sec.name +
                                          "] repeated (first at line " +
                                          std::to_string(first_line) + ")");
        }
        if (first_line == 0) first_line = sec.line;
        std::string error = spec.parse(doc, sec);
        if (!error.empty()) return error;
      }
    }
    return std::string();
  }

  /// Canonical text of `doc`. `every_key` writes every section and every
  /// set key, defaults included (a full dump for round-trip tests).
  std::string emit(const Doc& doc, bool every_key = false) const {
    std::string out;
    for (const Section& sec : sections) sec.emit(doc, every_key, out);
    return out;
  }
};

/// Builds the key rows and sections of one record type.
template <class Rec, class Doc>
struct IniTable {
  using Key = IniKey<Rec, Doc>;
  using Section = typename IniSchema<Doc>::Section;

  /// Any field: `read(text, doc)` yields a value or std::nullopt, and
  /// `write(value, doc)` its canonical text.
  template <class Field, class Read, class Write>
  static Key custom(std::string name, Field field, Read read, Write write,
                    Emit emit = Emit::kChanged) {
    Key key;
    key.name = std::move(name);
    key.emit = emit;
    key.parse = [field, read](Rec& rec, const std::string& text, const Doc& doc) {
      auto v = read(text, doc);
      auto& slot = std::invoke(field, rec);
      if (v) slot = static_cast<std::remove_reference_t<decltype(slot)>>(*v);
      return v.has_value();
    };
    key.format = [field, write](const Rec& rec,
                                const Doc& doc) -> std::optional<std::string> {
      const auto& v = std::invoke(field, rec);
      if constexpr (requires { v.has_value(); }) {  // an optional field
        if (!v) return std::nullopt;
        return write(*v, doc);
      } else {
        return write(v, doc);
      }
    };
    return key;
  }

  /// A scalar the serde/ini_values.hpp pair `read`/`write` converts, in
  /// [lo, hi].
  template <class Field, class V>
  static Key ranged(std::string name, Field field,
                    std::optional<V> (*read)(const std::string&),
                    std::type_identity_t<std::string (*)(V)> write, V lo,
                    V hi, Emit emit) {
    return custom(
        std::move(name), field,
        [read, lo, hi](const std::string& s, const Doc&) {
          const std::optional<V> v = read(s);
          return v && *v >= lo && *v <= hi ? v : std::nullopt;
        },
        [write](V v, const Doc&) { return write(v); }, emit);
  }

  template <class Field>
  static Key u64(std::string name, Field field, Emit emit = Emit::kChanged,
                 std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
    const auto write = [](std::uint64_t v) { return std::to_string(v); };
    return ranged(std::move(name), field, parse_u64, write, lo, hi, emit);
  }

  template <class Field>
  static Key probability(std::string name, Field field) {
    return ranged(std::move(name), field, parse_f64, format_f64, 0.0, 1.0,
                  Emit::kChanged);
  }

  /// Decimal milliseconds into nanoseconds, at least `lo` ns.
  template <class Field>
  static Key time_ms(std::string name, Field field, std::int64_t lo = 0) {
    return ranged(std::move(name), field, parse_time_ms, format_time_ms, lo,
                  kForeverNs, Emit::kChanged);
  }

  template <class Field>
  static Key boolean(std::string name, Field field, Emit emit = Emit::kChanged) {
    return custom(
        std::move(name), field,
        [](const std::string& s, const Doc&) { return parse_bool_word(s); },
        [](bool v, const Doc&) { return std::string(v ? "true" : "false"); },
        emit);
  }

  /// Free text, stored verbatim.
  template <class Field>
  static Key text(std::string name, Field field) {
    return custom(
        std::move(name), field,
        [](const std::string& s, const Doc&) { return std::optional(s); },
        [](const std::string& v, const Doc&) { return v; });
  }

  /// One of `words`. An enum field stores the word's index, so `words`
  /// lists the enumerators in order ("" for one no text selects).
  template <class Field>
  static Key one_of(std::string name, Field field, std::vector<std::string> words,
                    Emit emit = Emit::kChanged) {
    using V = std::remove_cvref_t<std::invoke_result_t<Field, Rec&>>;
    const auto read = [words](const std::string& s, const Doc&) -> std::optional<V> {
      const auto it = std::find(words.begin(), words.end(), s);
      if (s.empty() || it == words.end()) return std::nullopt;
      if constexpr (std::is_enum_v<V>) {
        return static_cast<V>(it - words.begin());
      } else {
        return s;
      }
    };
    const auto write = [words](const V& v, const Doc&) -> std::string {
      if constexpr (std::is_enum_v<V>) {
        return words[static_cast<std::size_t>(v)];
      } else {
        return v;
      }
    };
    return custom(std::move(name), field, read, write, emit);
  }

  /// A section filling the record `target(doc)` reaches — or, when that is
  /// a std::vector<Rec>, a repeatable one whose every copy appends a record.
  template <class Target>
  static Section section(std::string name, Target target, std::vector<Key> keys,
                         IniRules<Rec> rules = {}) {
    constexpr bool repeatable = !std::is_same_v<
        std::remove_cvref_t<std::invoke_result_t<Target, Doc&>>, Rec>;
    Section sec{name, {}, repeatable, nullptr, nullptr};
    for (const Key& key : keys) sec.keys.push_back(key.name);
    sec.parse = [=](Doc& doc, const IniSection& ini) {
      return parse_record(name, keys, rules, ini, fresh(std::invoke(target, doc)),
                          doc);
    };
    sec.emit = [=](const Doc& doc, bool every_key, std::string& out) {
      for (const Rec& rec : all(std::invoke(target, doc))) {
        emit_record(name, keys, rules, rec, doc, repeatable, every_key, out);
      }
    };
    return sec;
  }

 private:
  static Rec& fresh(Rec& rec) { return rec; }
  static Rec& fresh(std::vector<Rec>& list) { return list.emplace_back(); }
  static std::span<const Rec> all(const Rec& rec) { return {&rec, 1}; }
  static std::span<const Rec> all(const std::vector<Rec>& list) { return list; }

  /// The outermost gate up `key`'s chain that is not true, or nullptr.
  static const Key* closed_gate(const std::vector<Key>& keys, const Key& key,
                                const Rec& rec, const Doc& doc) {
    const Key* closed = nullptr;
    for (const Key* k = &key; k->gate;) {
      const std::string_view gate = k->gate;
      k = &*std::find_if(keys.begin(), keys.end(),
                         [&](const Key& g) { return g.name == gate; });
      if (k->format(rec, doc) != "true") closed = k;
    }
    return closed;
  }

  static std::string parse_record(const std::string& section,
                                  const std::vector<Key>& keys,
                                  const IniRules<Rec>& rules,
                                  const IniSection& ini, Rec& rec,
                                  const Doc& doc) {
    std::vector<std::size_t> line_of(keys.size(), 0);  // 0 = not set
    for (const IniKeyValue& kv : ini.entries) {
      std::size_t i = 0;
      while (i < keys.size() && keys[i].name != kv.key) ++i;
      if (i == keys.size()) {
        return line_error(kv.line, "unknown key '" + kv.key + "' in [" + section + "]");
      }
      if (line_of[i] != 0) {
        return line_error(kv.line, "key '" + kv.key + "' repeated in [" + section +
                                       "] (first at line " +
                                       std::to_string(line_of[i]) + ")");
      }
      line_of[i] = kv.line;
      if (!keys[i].parse(rec, kv.value, doc)) {
        return line_error(kv.line, "bad value for '" + kv.key + "': '" + kv.value + "'");
      }
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Key& key = keys[i];
      if (line_of[i] == 0 && key.emit == Emit::kRequired) {
        return line_error(ini.line, "[" + section + "] needs '" + key.name + "'");
      }
      if (line_of[i] == 0 || (key.inert && key.format(rec, doc) == key.inert)) continue;
      if (const Key* gate = closed_gate(keys, key, rec, doc)) {
        return line_error(ini.line, "[" + section + "] sets tuning knobs without " +
                                        gate->name +
                                        "=true; they would silently do nothing");
      }
    }
    const char* error = rules.check ? rules.check(rec) : nullptr;
    return error ? line_error(ini.line, error) : std::string();
  }

  static void emit_record(const std::string& section, const std::vector<Key>& keys,
                          const IniRules<Rec>& rules, const Rec& rec,
                          const Doc& doc, bool repeatable, bool every_key,
                          std::string& out) {
    static const Rec defaults{};
    std::string body;
    bool changed = false;
    for (const Key& key : keys) {
      const std::optional<std::string> value = key.format(rec, doc);
      if (!value || closed_gate(keys, key, rec, doc)) continue;
      const bool differs = value != key.format(defaults, doc);
      changed = changed || differs;
      if (differs || every_key || key.emit != Emit::kChanged) {
        body += key.name + " = " + *value + "\n";
      }
    }
    if (!repeatable && !every_key && !changed &&
        !(rules.present && rules.present(rec))) {
      return;
    }
    if (!out.empty()) out += "\n";
    out += "[" + section + "]\n" + body;
  }
};

}  // namespace dauct::serde
