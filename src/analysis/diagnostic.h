// Structured diagnostics — the common currency of the lint engine.
//
// Every rule pass (DFG, schedule, RTL) emits Diagnostic records instead of
// raw strings: a stable rule id ("DFG003"), a severity, the kind of entity
// at fault and its location (node / step / unit), a human-readable message
// and an optional fix-it hint. A LintReport collects them in emission order
// and renders either plain text or a machine-readable JSON document, so
// tools can filter by rule or severity and CI can gate on thresholds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mframe::analysis {

enum class Severity : std::uint8_t { Note, Warning, Error };

std::string_view severityName(Severity s);

/// Parse "error"/"warning"/"note"; returns false on unknown text.
bool parseSeverity(std::string_view text, Severity& out);

/// What a diagnostic points at.
enum class EntityKind : std::uint8_t {
  Design,    ///< whole-design problems (no finer location)
  Node,      ///< a DFG node / the signal it produces
  Step,      ///< a control step
  Fu,        ///< an FU-type column of the placement grid
  Alu,       ///< an allocated ALU instance
  Register,  ///< an allocated register
  Bus,       ///< a shared interconnect bus
  Port,      ///< an ALU input port (mux)
  Field,     ///< a microcode ROM field
};

std::string_view entityKindName(EntityKind k);

/// Where in the design the problem sits. Unset fields are -1 / empty and are
/// omitted from rendered output.
struct Location {
  std::string node;    ///< signal name of the offending node
  int line = -1;       ///< source line for textual inputs
  int step = -1;       ///< 1-based control step
  int unit = -1;       ///< FU column / ALU index / register / bus / port index
  std::string detail;  ///< free-form context, e.g. a cycle path or field name

  bool operator==(const Location&) const = default;
};

struct Diagnostic {
  std::string rule;                    ///< stable id, e.g. "DFG003"
  Severity severity = Severity::Error;
  EntityKind entity = EntityKind::Design;
  Location loc;
  std::string message;
  std::string fixit;                   ///< optional suggested fix ("" = none)
  /// Provenance chain, outermost first — e.g. the validator's
  /// op -> step -> FU -> port -> bus -> register trail. Empty for rules
  /// whose location says everything.
  std::vector<std::string> provenance;

  /// One-line rendering: "error[DFG003] node 'y': message (fix: ...)",
  /// followed by one indented "via: ..." line per provenance entry.
  std::string toText() const;

  bool operator==(const Diagnostic&) const = default;
};

/// Ordered collection of diagnostics plus severity tallies.
class LintReport {
 public:
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }
  void merge(LintReport other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }

  std::size_t count(Severity s) const;
  bool hasErrors() const { return count(Severity::Error) > 0; }

  /// True when any diagnostic is at least as severe as `threshold`.
  bool hasAtOrAbove(Severity threshold) const;

  /// Diagnostics carrying the given rule id.
  std::vector<Diagnostic> byRule(std::string_view rule) const;

  /// The bare messages, in emission order (rtl::verifyDatapath's
  /// contract).
  std::vector<std::string> messages() const;

  /// Multi-line human-readable rendering (one toText() line per diagnostic,
  /// followed by a severity summary line).
  std::string renderText() const;

  /// Machine-readable rendering; see docs/FORMATS.md for the schema.
  std::string renderJson(std::string_view designName) const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Re-parse the output of LintReport::renderJson — the round-trip used by
/// tests and by downstream tools that archive lint results. Returns
/// std::nullopt and fills *error on malformed input.
std::optional<std::vector<Diagnostic>> parseDiagnosticsJson(
    std::string_view json, std::string* error = nullptr);

}  // namespace mframe::analysis
