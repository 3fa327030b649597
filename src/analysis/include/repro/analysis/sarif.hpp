// SARIF 2.1.0 emission of analysis diagnostics, so CI can annotate
// findings (GitHub code-scanning ingests SARIF directly). Minimal
// dialect: one run, one driver, logical locations only -- the
// diagnostics describe simulated pages and regions, not source files.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "repro/analysis/diagnostic.hpp"

namespace repro::analysis {

/// Renders diagnostics as one SARIF 2.1.0 document. Deterministic:
/// results keep `diags` order, the rule table is sorted by id.
[[nodiscard]] std::string diagnostics_to_sarif(
    std::string_view tool_name, std::string_view tool_version,
    std::span<const Diagnostic> diags);

/// Writes the SARIF document to `path` via atomic_write_file, like
/// the JSON emitters.
void write_sarif(const std::string& path, std::string_view tool_name,
                 std::string_view tool_version,
                 std::span<const Diagnostic> diags);

}  // namespace repro::analysis
