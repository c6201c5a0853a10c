#include "analysis/diagnostic.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace mframe::analysis {

std::string_view severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

bool parseSeverity(std::string_view text, Severity& out) {
  if (text == "note") out = Severity::Note;
  else if (text == "warning") out = Severity::Warning;
  else if (text == "error") out = Severity::Error;
  else return false;
  return true;
}

std::string_view entityKindName(EntityKind k) {
  switch (k) {
    case EntityKind::Design: return "design";
    case EntityKind::Node: return "node";
    case EntityKind::Step: return "step";
    case EntityKind::Fu: return "fu";
    case EntityKind::Alu: return "alu";
    case EntityKind::Register: return "register";
    case EntityKind::Bus: return "bus";
    case EntityKind::Port: return "port";
    case EntityKind::Field: return "field";
  }
  return "?";
}

namespace {

bool parseEntityKind(std::string_view text, EntityKind& out) {
  for (int k = 0; k <= static_cast<int>(EntityKind::Field); ++k) {
    const auto e = static_cast<EntityKind>(k);
    if (entityKindName(e) == text) {
      out = e;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Diagnostic::toText() const {
  std::string where(entityKindName(entity));
  if (!loc.node.empty()) where += " '" + loc.node + "'";
  if (loc.step >= 0) where += util::format(" step %d", loc.step);
  if (loc.unit >= 0) where += util::format(" #%d", loc.unit);
  if (loc.line >= 0) where += util::format(" (line %d)", loc.line);
  std::string out = util::format("%s[%s] %s: %s",
                                 std::string(severityName(severity)).c_str(),
                                 rule.c_str(), where.c_str(), message.c_str());
  if (!fixit.empty()) out += " (fix: " + fixit + ")";
  for (const std::string& p : provenance) out += "\n    via: " + p;
  return out;
}

void LintReport::merge(LintReport other) {
  for (Diagnostic& d : other.diags_) diags_.push_back(std::move(d));
}

std::size_t LintReport::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [&](const Diagnostic& d) { return d.severity == s; }));
}

bool LintReport::hasAtOrAbove(Severity threshold) const {
  return std::any_of(diags_.begin(), diags_.end(), [&](const Diagnostic& d) {
    return d.severity >= threshold;
  });
}

std::vector<Diagnostic> LintReport::byRule(std::string_view rule) const {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags_)
    if (d.rule == rule) out.push_back(d);
  return out;
}

std::vector<std::string> LintReport::messages() const {
  std::vector<std::string> out;
  out.reserve(diags_.size());
  for (const Diagnostic& d : diags_) out.push_back(d.message);
  return out;
}

std::string LintReport::renderText() const {
  std::string out;
  for (const Diagnostic& d : diags_) out += d.toText() + "\n";
  out += util::format("%zu error(s), %zu warning(s), %zu note(s)\n",
                      count(Severity::Error), count(Severity::Warning),
                      count(Severity::Note));
  return out;
}

// -- JSON rendering ----------------------------------------------------------

namespace {

std::string quoted(std::string_view s) {
  return "\"" + util::jsonEscape(s) + "\"";
}

}  // namespace

std::string LintReport::renderJson(std::string_view designName) const {
  std::string out = "{\n";
  out += "  \"schema\": 2,\n";
  out += "  \"design\": " + quoted(designName) + ",\n";
  out += util::format(
      "  \"counts\": {\"error\": %zu, \"warning\": %zu, \"note\": %zu},\n",
      count(Severity::Error), count(Severity::Warning), count(Severity::Note));
  out += "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += "\"rule\": " + quoted(d.rule);
    out += ", \"severity\": " + quoted(severityName(d.severity));
    out += ", \"entity\": " + quoted(entityKindName(d.entity));
    out += ", \"location\": {";
    bool first = true;
    auto field = [&](const char* key, const std::string& value) {
      if (!first) out += ", ";
      first = false;
      out += quoted(key) + ": " + value;
    };
    if (!d.loc.node.empty()) field("node", quoted(d.loc.node));
    if (d.loc.line >= 0) field("line", util::format("%d", d.loc.line));
    if (d.loc.step >= 0) field("step", util::format("%d", d.loc.step));
    if (d.loc.unit >= 0) field("unit", util::format("%d", d.loc.unit));
    if (!d.loc.detail.empty()) field("detail", quoted(d.loc.detail));
    out += "}";
    out += ", \"message\": " + quoted(d.message);
    if (!d.fixit.empty()) out += ", \"fixit\": " + quoted(d.fixit);
    if (!d.provenance.empty()) {
      out += ", \"provenance\": [";
      for (std::size_t p = 0; p < d.provenance.size(); ++p) {
        if (p != 0) out += ", ";
        out += quoted(d.provenance[p]);
      }
      out += "]";
    }
    out += "}";
  }
  out += diags_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// -- JSON re-parsing ---------------------------------------------------------
//
// A deliberately small recursive-descent parser covering exactly the subset
// renderJson emits (objects, arrays, strings with the escapes above, and
// non-negative integers). Not a general JSON library.

namespace {

struct JsonCursor {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& m) {
    if (err.empty()) err = util::format("json error at offset %zu: %s", i, m.c_str());
    return false;
  }
  void skipWs() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    skipWs();
    if (i >= s.size() || s[i] != c)
      return fail(util::format("expected '%c'", c));
    ++i;
    return true;
  }
  bool peek(char c) {
    skipWs();
    return i < s.size() && s[i] == c;
  }
  bool parseString(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return fail("dangling escape");
        const char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (i + 4 > s.size()) return fail("bad \\u escape");
            out += static_cast<char>(
                std::strtol(std::string(s.substr(i, 4)).c_str(), nullptr, 16));
            i += 4;
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    return true;
  }
  bool parseInt(int& out) {
    skipWs();
    std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == start) return fail("expected integer");
    out = static_cast<int>(
        std::strtol(std::string(s.substr(start, i - start)).c_str(), nullptr, 10));
    return true;
  }
};

bool parseLocation(JsonCursor& c, Location& loc) {
  if (!c.eat('{')) return false;
  if (c.peek('}')) return c.eat('}');
  while (true) {
    std::string key;
    if (!c.parseString(key) || !c.eat(':')) return false;
    if (key == "node") {
      if (!c.parseString(loc.node)) return false;
    } else if (key == "detail") {
      if (!c.parseString(loc.detail)) return false;
    } else if (key == "line") {
      if (!c.parseInt(loc.line)) return false;
    } else if (key == "step") {
      if (!c.parseInt(loc.step)) return false;
    } else if (key == "unit") {
      if (!c.parseInt(loc.unit)) return false;
    } else {
      return c.fail("unknown location key '" + key + "'");
    }
    if (c.peek(',')) { c.eat(','); continue; }
    return c.eat('}');
  }
}

bool parseDiagnostic(JsonCursor& c, Diagnostic& d) {
  if (!c.eat('{')) return false;
  while (true) {
    std::string key;
    if (!c.parseString(key) || !c.eat(':')) return false;
    if (key == "rule") {
      if (!c.parseString(d.rule)) return false;
    } else if (key == "severity") {
      std::string sv;
      if (!c.parseString(sv)) return false;
      if (!parseSeverity(sv, d.severity)) return c.fail("bad severity '" + sv + "'");
    } else if (key == "entity") {
      std::string ev;
      if (!c.parseString(ev)) return false;
      if (!parseEntityKind(ev, d.entity)) return c.fail("bad entity '" + ev + "'");
    } else if (key == "location") {
      if (!parseLocation(c, d.loc)) return false;
    } else if (key == "message") {
      if (!c.parseString(d.message)) return false;
    } else if (key == "fixit") {
      if (!c.parseString(d.fixit)) return false;
    } else if (key == "provenance") {
      if (!c.eat('[')) return false;
      while (!c.peek(']')) {
        std::string entry;
        if (!c.parseString(entry)) return false;
        d.provenance.push_back(std::move(entry));
        if (c.peek(',')) c.eat(',');
      }
      if (!c.eat(']')) return false;
    } else {
      return c.fail("unknown diagnostic key '" + key + "'");
    }
    if (c.peek(',')) { c.eat(','); continue; }
    return c.eat('}');
  }
}

}  // namespace

std::optional<std::vector<Diagnostic>> parseDiagnosticsJson(
    std::string_view json, std::string* error) {
  JsonCursor c;
  c.s = json;
  std::vector<Diagnostic> out;
  auto bail = [&]() -> std::optional<std::vector<Diagnostic>> {
    if (error) *error = c.err.empty() ? "malformed document" : c.err;
    return std::nullopt;
  };
  if (!c.eat('{')) return bail();
  while (true) {
    std::string key;
    if (!c.parseString(key) || !c.eat(':')) return bail();
    if (key == "design") {
      std::string ignored;
      if (!c.parseString(ignored)) return bail();
    } else if (key == "schema") {
      int v;
      if (!c.parseInt(v)) return bail();
      if (v != 2) {
        c.fail(util::format("unsupported schema version %d", v));
        return bail();
      }
    } else if (key == "counts") {
      // Skip the tallies object; it is derivable from the diagnostics.
      if (!c.eat('{')) return bail();
      while (!c.peek('}')) {
        std::string k;
        int v;
        if (!c.parseString(k) || !c.eat(':') || !c.parseInt(v)) return bail();
        if (c.peek(',')) c.eat(',');
      }
      if (!c.eat('}')) return bail();
    } else if (key == "diagnostics") {
      if (!c.eat('[')) return bail();
      while (!c.peek(']')) {
        Diagnostic d;
        if (!parseDiagnostic(c, d)) return bail();
        out.push_back(std::move(d));
        if (c.peek(',')) c.eat(',');
      }
      if (!c.eat(']')) return bail();
    } else {
      c.fail("unknown key '" + key + "'");
      return bail();
    }
    if (c.peek(',')) { c.eat(','); continue; }
    if (!c.eat('}')) return bail();
    return out;
  }
}

}  // namespace mframe::analysis
