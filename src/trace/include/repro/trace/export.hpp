// Trace exporters.
//
// Two formats:
//  * the canonical dump -- a sorted plain-text rendering of the whole
//    trace (lane table, phase table, one line per event in canonical
//    order) whose bytes are identical across runs and job counts for a
//    deterministic simulation. Its FNV-1a digest is the regression
//    oracle the golden-trace suite checks in;
//  * Chrome trace-event JSON, loadable in chrome://tracing or Perfetto
//    for human inspection of the migration timeline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "repro/trace/sink.hpp"

namespace repro::trace {

/// Renders the canonical dump: header, lane table, phase table, then
/// every event in canonical (time, lane, seq) order, all-integer
/// fields, one line each.
void write_canonical(std::ostream& os, const TraceSink& sink);
[[nodiscard]] std::string canonical_dump(const TraceSink& sink);

/// 64-bit FNV-1a over a byte string.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Digest of the canonical dump as a 16-hex-digit string; the value
/// stored by the golden-trace regression suite.
[[nodiscard]] std::string digest(const TraceSink& sink);

/// Renders the trace as Chrome trace-event JSON ("traceEvents" array):
/// regions as B/E duration events on the team track, barrier waits as
/// per-thread complete events, queue occupancy as counter tracks, and
/// everything else as instant events with argument payloads.
[[nodiscard]] std::string chrome_trace_json(const TraceSink& sink);

}  // namespace repro::trace
