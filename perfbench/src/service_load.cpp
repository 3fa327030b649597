#include "service_load.hpp"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "grid.hpp"
#include "repro/harness/checkpoint.hpp"
#include "repro/service/client.hpp"
#include "repro/service/daemon.hpp"
#include "repro/service/protocol.hpp"
#include "repro/service/result_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using repro::harness::RunResult;
using repro::service::CellSpec;
using repro::service::SweepClient;
using repro::service::SweepReply;
using repro::service::SweepRequest;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWarmPerCycle = 4;
constexpr std::size_t kMinCycles = 12;

/// A SweepDaemon serving on its own thread. stop() drains it through
/// the client's shutdown request and joins the thread.
class DaemonSession {
 public:
  explicit DaemonSession(const repro::service::DaemonConfig& config)
      : socket_(config.socket_path), daemon_(config), thread_([this] {
          try {
            daemon_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~DaemonSession() { stop(); }

  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  /// Drains the daemon; returns its run() error, empty when clean.
  std::string stop() {
    if (thread_.joinable()) {
      if (!SweepClient(socket_).shutdown_daemon()) {
        daemon_.request_shutdown();
      }
      thread_.join();
    }
    return error_;
  }

  /// Valid after stop().
  [[nodiscard]] const repro::service::ServiceStats& stats() const {
    return daemon_.stats();
  }

 private:
  std::string socket_;
  repro::service::SweepDaemon daemon_;
  std::string error_;
  std::thread thread_;  // last: it uses every member above
};

/// What a session needs: the daemon's configuration and the warm grid
/// with the encoded results the journal was pre-seeded with.
struct ServiceFixture {
  repro::service::DaemonConfig config;
  SweepRequest warm;
  std::vector<std::string> warm_payloads;
};

ServiceFixture make_fixture(const std::string& dir) {
  ServiceFixture f;
  f.config.socket_path = dir + "/sd.sock";
  f.config.workers = kWorkers;
  f.config.cache.dir = dir + "/cache";
  f.warm.cells = service_warm_grid();
  repro::service::ResultCache cache(f.config.cache);
  for (const CellSpec& spec : f.warm.cells) {
    const RunResult result = repro::harness::run_benchmark(spec.to_config());
    f.warm_payloads.push_back(
        repro::harness::encode_result(spec.identity(), result));
    cache.insert(spec.identity(), f.warm_payloads.back());
  }
  return f;
}

/// The encoded form of a reply cell, for byte comparison.
std::string encoded(const CellSpec& spec, const RunResult& result) {
  return repro::harness::encode_result(spec.identity(), result);
}

void check_warm(const ServiceFixture& f, const SweepReply& reply,
                Report& report) {
  bool ok = reply.ok() && reply.cells.size() == f.warm.cells.size() &&
            reply.cache_hits == f.warm.cells.size();
  for (std::size_t i = 0; ok && i < reply.cells.size(); ++i) {
    ok = reply.cells[i].cached &&
         encoded(f.warm.cells[i], reply.cells[i].result) ==
             f.warm_payloads[i];
  }
  report.check(ok, "warm grid reply is not the cached grid: " + reply.error);
}

/// After a drain: no worker left to reap and no socket left behind.
void check_hygiene(const ServiceFixture& f, DaemonSession& session,
                   Report& report) {
  const std::string error = session.stop();
  report.check(error.empty(), "daemon run() failed: " + error);
  int status = 0;
  const pid_t pid = ::waitpid(-1, &status, WNOHANG);
  report.check(pid == -1 && errno == ECHILD,
               "a worker process outlived the daemon's drain");
  report.check(!std::filesystem::exists(f.config.socket_path),
               "daemon socket left behind after drain");
}

/// One closed-loop cycle: a cold request for a fresh cell, its direct
/// twin through run_benchmark, then kWarmPerCycle warm grid requests.
struct CycleTimes {
  double cold_ms = 0.0;
  double direct_ms = 0.0;
  std::vector<double> warm_ms;
  std::string cold_payload;
};

CycleTimes cycle(const ServiceFixture& f, SweepClient& client,
                 const CellSpec& spec, Report& report) {
  CycleTimes t;
  const auto t0 = std::chrono::steady_clock::now();
  const SweepReply cold = client.submit(SweepRequest{{spec}});
  t.cold_ms = ms_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const RunResult direct = repro::harness::run_benchmark(spec.to_config());
  t.direct_ms = ms_since(t1);
  const std::string want = encoded(spec, direct);
  report.check(cold.ok() && cold.cells.size() == 1 && !cold.cells[0].cached &&
                   encoded(spec, cold.cells[0].result) == want,
               "cold reply differs from run_benchmark for " + spec.format() +
                   ": " + cold.error);
  t.cold_payload = want;
  for (std::size_t w = 0; w < kWarmPerCycle; ++w) {
    const auto t2 = std::chrono::steady_clock::now();
    const SweepReply warm = client.submit(f.warm);
    t.warm_ms.push_back(ms_since(t2));
    check_warm(f, warm, report);
  }
  return t;
}

/// A connected Unix stream socket pair, closed on destruction.
struct SocketPair {
  int fds[2] = {-1, -1};

  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
  ~SocketPair() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
};

template <typename F>
double median_us(std::size_t reps, F&& op) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    op();
    us.push_back(ms_since(t0) * 1000.0);
  }
  return median(us);
}

}  // namespace

void run_service(const Options& opts, HostClock& clock, Report& report) {
  ScratchDir scratch(opts.scratch_root, "svc");
  const ServiceFixture f = make_fixture(scratch.path());

  // Set-up: daemon start (journal recovery, worker prefork) up to the
  // first answered request, repeated so its median is steady.
  Series setup;
  std::unique_ptr<DaemonSession> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (session != nullptr) {
      check_hygiene(f, *session, report);
    }
    const std::size_t cal = clock.calibrate();
    const auto t0 = std::chrono::steady_clock::now();
    session = std::make_unique<DaemonSession>(f.config);
    const SweepReply first = SweepClient(f.config.socket_path).submit(f.warm);
    setup.add(ms_since(t0) / 1000.0, cal);
    check_warm(f, first, report);
  }

  SweepClient client(f.config.socket_path);
  Series cold;
  Series direct;
  Series warm;
  std::vector<Series> per_template(kColdTemplates);
  const auto start = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (; n < kMinCycles || ms_since(start) < opts.seconds * 1000.0; ++n) {
    const std::size_t cal = clock.calibrate();
    const CycleTimes t =
        cycle(f, client, service_cold_cell(opts.seed, n), report);
    cold.add(t.cold_ms, cal);
    direct.add(t.direct_ms, cal);
    per_template[n % kColdTemplates].add(t.direct_ms, cal);
    for (const double ms : t.warm_ms) {
      warm.add(ms, cal);
    }
  }
  check_hygiene(f, *session, report);
  std::cout << "sweep_service: " << n << " cycles of 1 cold + "
            << kWarmPerCycle << " warm requests, " << kWorkers
            << " workers\n";

  double grid_s = 0.0;
  for (const Series& s : per_template) {
    grid_s += median(clock.normalize(s)) / 1000.0;
  }
  set_setup(report, clock, setup);
  report.set("grid_s", grid_s, "s");
  std::cout << "  grid_s = " << grid_s << " s\n";
  set_latency(report, clock, "cell_ms", direct, "ms");
  set_latency(report, clock, "cold_request_ms", cold, "ms");
  set_latency(report, clock, "warm_request_ms", warm, "ms");
  session.reset();
  report.check(scratch.remove(),
               "service scratch directory (journal) left behind");
}

void trace_service(const Options& opts, HostClock& clock, Report& report,
                   std::size_t cycles) {
  ScratchDir scratch(opts.scratch_root, "svctrace");
  const ServiceFixture f = make_fixture(scratch.path());

  // Direct calls into the cache, the framing and the codec.
  const std::size_t cal = clock.calibrate();
  std::vector<double> recover_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const repro::service::ResultCache probe(f.config.cache);
    recover_ms.push_back(ms_since(t0));
  }
  repro::service::ResultCache cache(f.config.cache);
  const double lookup_us = median_us(600, [&, i = std::size_t{0}]() mutable {
    (void)cache.lookup(f.warm.cells[i++ % f.warm.cells.size()].identity());
  });
  const double decode_us = median_us(120, [&, i = std::size_t{0}]() mutable {
    const std::size_t k = i++ % f.warm.cells.size();
    RunResult out;
    report.check(repro::harness::decode_result(f.warm_payloads[k],
                                               f.warm.cells[k].identity(),
                                               &out),
                 "decode_result rejected a cached payload");
  });
  const SocketPair pair;
  const double frame_us = median_us(200, [&, i = std::size_t{0}]() mutable {
    const std::string& payload = f.warm_payloads[i++ % f.warm_payloads.size()];
    repro::service::write_frame(
        pair.fds[0], repro::service::FrameType::kCellResult, payload);
    repro::service::Frame frame;
    report.check(repro::service::read_frame(pair.fds[1], &frame) ==
                         repro::service::ReadResult::kFrame &&
                     frame.payload == payload,
                 "frame round trip altered the payload");
  });

  // A short session of the workload's shape.
  std::vector<CycleTimes> times;
  repro::service::ServiceStats stats;
  {
    DaemonSession session(f.config);
    SweepClient client(f.config.socket_path);
    for (std::size_t n = 0; n < cycles; ++n) {
      times.push_back(
          cycle(f, client, service_cold_cell(opts.seed, n), report));
    }
    check_hygiene(f, session, report);
    stats = session.stats();
  }
  std::vector<double> overhead;
  for (const CycleTimes& t : times) {
    overhead.push_back(t.cold_ms - t.direct_ms);
  }
  repro::service::CacheConfig insert_config = f.config.cache;
  insert_config.dir = scratch.path() + "/insert";
  repro::service::ResultCache fresh(insert_config);
  std::vector<double> insert_us;
  for (std::size_t n = 0; n < times.size(); ++n) {
    const auto t0 = std::chrono::steady_clock::now();
    fresh.insert(service_cold_cell(opts.seed, n).identity(),
                 times[n].cold_payload);
    insert_us.push_back(ms_since(t0) * 1000.0);
  }

  const auto timing = [&](const std::string& name, double raw,
                          const std::string& unit) {
    report.set(name, clock.normalize(raw, cal), unit);
    report.set("host." + name, raw, unit);
  };
  timing("service.recover_ms", median(recover_ms), "ms");
  timing("service.cache_lookup_us", lookup_us, "us");
  timing("service.cache_insert_us", median(insert_us), "us");
  timing("service.frame_roundtrip_us", frame_us, "us");
  timing("harness.decode_result_us", decode_us, "us");
  timing("service.cold_overhead_ms", median(overhead), "ms");
  const double answered = static_cast<double>(
      stats.cache_hits + stats.cells_planned + stats.dedup_joins);
  report.set("service.cache_hit_frac",
             answered == 0.0 ? 0.0
                             : static_cast<double>(stats.cache_hits) / answered,
             "fraction");
  report.set("service.wasted_dispatch_frac",
             stats.dispatches == 0
                 ? 0.0
                 : static_cast<double>(stats.straggler_duplicates) /
                       static_cast<double>(stats.dispatches),
             "fraction");
  report.check(scratch.remove(),
               "service scratch directory (journal) left behind");
}

}  // namespace perfbench
