#include "repro/trace/export.hpp"

#include <ostream>
#include <sstream>

#include "repro/common/json.hpp"

namespace repro::trace {

namespace {

/// Microsecond timestamp for the Chrome viewer (its native unit).
double us(Ns t) { return static_cast<double>(t) / 1e3; }

}  // namespace

void write_canonical(std::ostream& os, const TraceSink& sink) {
  os << "# repro-trace v1\n";
  for (std::uint16_t l = 0; l < sink.num_lanes(); ++l) {
    os << "lane " << l << ' ' << sink.lane_name(l) << '\n';
  }
  for (std::uint32_t p = 1; p < sink.num_phases(); ++p) {
    os << "phase " << p << ' ' << sink.phase_name(p) << '\n';
  }
  for (const TraceEvent& e : sink.canonical_events()) {
    os << e.time << ' ' << event_kind_name(e.kind) << " lane=" << e.lane
       << " seq=" << e.seq << " it=" << e.iteration << " ph=" << e.phase
       << " node=" << e.node << " src=" << e.src << " dst=" << e.dst
       << " page=" << e.page << " a=" << e.a << " b=" << e.b
       << " cost=" << e.cost << '\n';
  }
}

std::string canonical_dump(const TraceSink& sink) {
  std::ostringstream os;
  write_canonical(os, sink);
  return os.str();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

std::string digest(const TraceSink& sink) {
  const std::uint64_t h = fnv1a64(canonical_dump(sink));
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h;
  return os.str();
}

std::string chrome_trace_json(const TraceSink& sink) {
  json::Writer w;
  w.begin_object().field("displayTimeUnit", "ns");
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : sink.canonical_events()) {
    switch (e.kind) {
      case EventKind::kRegionBegin:
      case EventKind::kRegionEnd:
        w.begin_object();
        w.field("ph", e.kind == EventKind::kRegionBegin ? "B" : "E");
        w.field("pid", 0).field("tid", 0).field("ts", us(e.time));
        w.field("name", sink.phase_name(e.phase)).field("cat", "region");
        w.key("args").begin_object().field("iteration", e.iteration);
        w.end_object().end_object();
        break;
      case EventKind::kBarrierWait:
        if (e.a == 0) {
          break;  // zero-length slices only clutter the viewer
        }
        // tid = simulated thread + 1 keeps thread tracks below the
        // team track (tid 0).
        w.begin_object().field("ph", "X").field("pid", 0);
        w.field("tid", e.node + 1).field("ts", us(e.time - e.a));
        w.field("dur", us(e.a)).field("name", "barrier");
        w.field("cat", "barrier").key("args").begin_object();
        w.field("thread", e.node).field("wait_ns", e.a);
        w.end_object().end_object();
        break;
      case EventKind::kQueueSample:
        w.begin_object().field("ph", "C").field("pid", 0);
        w.field("ts", us(e.time));
        w.field("name", "queue_backlog_node" + std::to_string(e.node));
        w.key("args").begin_object().field("backlog_ns", e.a);
        w.end_object().end_object();
        break;
      default:
        w.begin_object().field("ph", "i").field("s", "g").field("pid", 0);
        w.field("tid", 0).field("ts", us(e.time));
        w.field("name", event_kind_name(e.kind));
        w.field("cat", sink.lane_name(e.lane)).key("args").begin_object();
        w.field("iteration", e.iteration).field("page", e.page);
        w.field("node", e.node).field("src", e.src).field("dst", e.dst);
        w.field("a", e.a).field("b", e.b).field("cost_ns", e.cost);
        w.end_object().end_object();
        break;
    }
  }
  w.end_array().end_object();
  return w.finish();
}

}  // namespace repro::trace
