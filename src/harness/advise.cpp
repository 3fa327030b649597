#include "repro/harness/advise.hpp"

#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "repro/common/atomic_file.hpp"
#include "repro/common/json.hpp"
#include "repro/common/table.hpp"
#include "repro/nas/workload.hpp"
#include "repro/omp/machine.hpp"
#include "repro/upmlib/upmlib.hpp"

namespace repro::harness {

namespace {

void append_report(json::Writer& w, const analysis::AdvisorReport& report) {
  w.begin_object().field("benchmark", report.benchmark);
  w.field("predicted_best", report.predicted_best);
  w.field("ft_gap", report.ft_gap);
  w.field("distribution_unnecessary", report.distribution_unnecessary);
  w.field("timed_phases", report.dataflow.phases.size());
  w.key("cells").begin_array();
  for (const analysis::PlacementPrediction& cell : report.cells) {
    w.begin_object().field("label", cell.label);
    w.field("placement", cell.placement).field("upmlib", cell.upmlib);
    w.field("migrated_pages", cell.migrated_pages.size());
    w.field("frozen_pages", cell.frozen_pages.size());
    w.key("migrations_per_iteration").begin_array();
    for (const std::uint64_t migrations : cell.migrations_per_iteration) {
      w.value(migrations);
    }
    w.end_array();
    w.field("initial_remote_fraction", cell.initial_remote_fraction);
    w.field("steady_remote_fraction", cell.steady_remote_fraction);
    w.field("predicted_cost", cell.predicted_cost).end_object();
  }
  w.end_array().key("diagnostics").begin_array();
  for (const analysis::Diagnostic& diag : report.diagnostics) {
    w.begin_object().field("severity", analysis::severity_name(diag.severity));
    w.field("rule", diag.rule).field("region", diag.region);
    if (diag.page.has_value()) {
      w.field("page", diag.page->value());
    }
    w.field("message", diag.message).end_object();
  }
  w.end_array().end_object();
}

std::string percent(double fraction) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << fraction * 100.0 << "%";
  return os.str();
}

}  // namespace

analysis::CapturedProgram capture_benchmark(const RunConfig& config) {
  auto machine = omp::Machine::create(config.machine);
  // Dry-run regions never fault a page, so the placement policy is
  // inert; installed anyway so the machine is fully assembled.
  machine->set_placement("ft", config.seed);

  nas::WorkloadParams wparams = config.workload;
  wparams.compute_scale = config.compute_scale;
  auto workload = nas::make_workload(config.benchmark, wparams);
  workload->setup(*machine);

  // The hot memory areas come from the same registration call the real
  // runs use; the call trace records each memrefcnt() range without
  // touching any counter state.
  upm::Upmlib upmlib(machine->mmci(), machine->runtime(), config.upm);
  upmlib.enable_call_trace();
  workload->register_hot(upmlib);

  analysis::CapturedProgram captured;
  {
    analysis::PhaseRecorder recorder(machine->runtime());
    workload->cold_start(*machine);
    recorder.begin_timed();
    // One steady iteration, UPM mode off: the advisor models the
    // migration engine itself, so the capture must be the plain
    // iteration body.
    nas::IterationContext ctx;
    workload->iteration(*machine, ctx, 1);
    captured = recorder.take();
  }
  for (const upm::UpmCall& call : upmlib.call_trace()) {
    if (call.kind == upm::UpmCall::Kind::kMemRefCnt) {
      captured.hot_ranges.push_back(call.range);
    }
  }
  analysis::finalize_page_bound(captured);
  return captured;
}

analysis::AdvisorReport advise_benchmark(const RunConfig& config) {
  const analysis::CapturedProgram captured = capture_benchmark(config);

  analysis::AdvisorConfig acfg;
  acfg.threshold = config.upm.threshold;
  acfg.freeze_bouncing_pages = config.upm.freeze_bouncing_pages;
  std::uint32_t iterations = config.iterations;
  if (iterations == 0) {
    iterations = nas::make_workload(config.benchmark, config.workload)
                     ->default_iterations();
  }
  acfg.iterations = iterations;

  analysis::Advisor advisor(acfg,
                            analysis::AdvisorView::from_config(config.machine));
  return advisor.advise(config.benchmark, captured);
}

std::string advisor_report_to_json(const analysis::AdvisorReport& report) {
  json::Writer w;
  append_report(w, report);
  return w.finish();
}

void write_advisor_json(const std::string& path,
                        const std::vector<analysis::AdvisorReport>& reports) {
  json::Writer w;
  w.begin_object().field("advisor", "static-placement");
  w.key("reports").begin_array();
  for (const analysis::AdvisorReport& report : reports) {
    append_report(w, report);
  }
  w.end_array().end_object();
  atomic_write_file(path, w.finish());
}

void print_advisor_report(std::ostream& os,
                          const analysis::AdvisorReport& report) {
  os << "advisor: " << report.benchmark << " ("
     << report.dataflow.phases.size() << " timed phases, "
     << report.dataflow.page_bound << " pages)\n";
  TextTable table({"cell", "migrations", "frozen", "remote(iter1)",
                   "remote(steady)", "predicted cost"});
  for (const analysis::PlacementPrediction& cell : report.cells) {
    std::ostringstream cost;
    cost.precision(2);
    cost << std::fixed << cell.predicted_cost / 1e6 << " Mns(model)";
    table.add_row({cell.label, std::to_string(cell.migrated_pages.size()),
                   std::to_string(cell.frozen_pages.size()),
                   percent(cell.initial_remote_fraction),
                   percent(cell.steady_remote_fraction), cost.str()});
  }
  table.print(os);
  os << "predicted best: " << report.predicted_best << "; ft-base gap "
     << percent(report.ft_gap) << " => data distribution "
     << (report.distribution_unnecessary ? "unnecessary" : "beneficial")
     << "\n";
}

}  // namespace repro::harness
