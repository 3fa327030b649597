#include "repro/analysis/sarif.hpp"

#include <set>

#include "repro/common/atomic_file.hpp"
#include "repro/common/json.hpp"

namespace repro::analysis {

std::string diagnostics_to_sarif(std::string_view tool_name,
                                 std::string_view tool_version,
                                 std::span<const Diagnostic> diags) {
  std::set<std::string> rules;
  for (const Diagnostic& diag : diags) {
    rules.insert(diag.rule);
  }

  json::Writer w;
  w.begin_object();
  w.field("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  w.field("version", "2.1.0").key("runs").begin_array().begin_object();
  w.key("tool").begin_object().key("driver").begin_object();
  w.field("name", tool_name).field("version", tool_version);
  w.field("informationUri", "https://github.com/");
  w.key("rules").begin_array();
  for (const std::string& rule : rules) {
    w.begin_object().field("id", rule).end_object();
  }
  w.end_array().end_object().end_object();
  w.key("results").begin_array();
  for (const Diagnostic& diag : diags) {
    std::string message = diag.message;
    if (!diag.hint.empty()) {
      message += " (hint: " + diag.hint + ")";
    }
    std::string location = diag.region;
    const std::string where = diag.location();
    if (!where.empty()) {
      location += " [" + where + "]";
    }
    w.begin_object().field("ruleId", diag.rule);
    // SARIF result levels are the diagnostics' own severity names.
    w.field("level", severity_name(diag.severity));
    w.key("message").begin_object().field("text", message).end_object();
    w.key("locations").begin_array().begin_object();
    w.key("logicalLocations").begin_array().begin_object();
    w.field("fullyQualifiedName", location);
    w.end_object().end_array().end_object().end_array().end_object();
  }
  w.end_array().end_object().end_array().end_object();
  return w.finish();
}

void write_sarif(const std::string& path, std::string_view tool_name,
                 std::string_view tool_version,
                 std::span<const Diagnostic> diags) {
  atomic_write_file(path, diagnostics_to_sarif(tool_name, tool_version, diags));
}

}  // namespace repro::analysis
