// Static placement advisor: unit tests for the dataflow building
// blocks (access matrices, the abstract migrate_memory interpreter,
// the phase capture) plus end-to-end checks that the advisor's
// predictions agree with the simulator on a real cell, that its output
// is byte-deterministic, and that the SARIF/ground-truth plumbing
// round-trips.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "repro/analysis/advisor.hpp"
#include "repro/analysis/capture.hpp"
#include "repro/analysis/diagnostic.hpp"
#include "repro/analysis/sarif.hpp"
#include "repro/harness/advise.hpp"
#include "repro/harness/run.hpp"
#include "repro/omp/machine.hpp"
#include "repro/trace/ground_truth.hpp"

namespace repro::analysis {
namespace {

// ---- AccessMatrix ---------------------------------------------------------

TEST(AccessMatrix, AccumulatesAndSums) {
  AccessMatrix m(4, 3);
  m.add(0, 1, 10);
  m.add(0, 1, 5);
  m.add(0, 2, 7);
  EXPECT_EQ(m.at(0, 1), 15u);
  EXPECT_EQ(m.at(0, 0), 0u);
  EXPECT_EQ(m.page_total(0), 22u);
  EXPECT_EQ(m.page_total(3), 0u);
}

TEST(AccessMatrix, DominantNodeLowestWinsTies) {
  AccessMatrix m(2, 4);
  m.add(0, 3, 9);
  m.add(0, 1, 9);
  ASSERT_TRUE(m.dominant_node(0).has_value());
  EXPECT_EQ(*m.dominant_node(0), 1u);
  EXPECT_FALSE(m.dominant_node(1).has_value());
}

TEST(AccessMatrix, PlusEqualsAddsCellwise) {
  AccessMatrix a(2, 2);
  AccessMatrix b(2, 2);
  a.add(1, 0, 3);
  b.add(1, 0, 4);
  b.add(0, 1, 2);
  a += b;
  EXPECT_EQ(a.at(1, 0), 7u);
  EXPECT_EQ(a.at(0, 1), 2u);
}

// ---- predict_migrations ---------------------------------------------------

AdvisorConfig tiny_config() {
  AdvisorConfig config;
  config.iterations = 4;
  config.max_passes = 4;
  return config;
}

TEST(PredictMigrations, RatioMustExceedThreshold) {
  // lacc 10 / racc 20: exactly 2.0 -- the engine requires strictly
  // greater, so the page stays. 21 remote lines tips it over.
  AccessMatrix at_threshold(1, 2);
  at_threshold.add(0, 0, 10);
  at_threshold.add(0, 1, 20);
  const std::vector<std::uint64_t> pages = {0};
  const std::vector<std::int32_t> home = {0};
  auto stay = predict_migrations(
      tiny_config(), pages, home,
      [&](std::uint32_t) -> const AccessMatrix& { return at_threshold; });
  EXPECT_TRUE(stay.migrated_pages.empty());
  EXPECT_EQ(stay.final_home[0], 0);

  AccessMatrix over(1, 2);
  over.add(0, 0, 10);
  over.add(0, 1, 21);
  auto move = predict_migrations(
      tiny_config(), pages, home,
      [&](std::uint32_t) -> const AccessMatrix& { return over; });
  ASSERT_EQ(move.migrated_pages.size(), 1u);
  EXPECT_EQ(move.migrated_targets[0], 1);
  EXPECT_EQ(move.final_home[0], 1);
}

TEST(PredictMigrations, ZeroLocalCountsAsOne) {
  // lacc 0, racc 3: ratio 3/1 > 2 migrates even though the naive
  // division would be undefined.
  AccessMatrix counts(1, 2);
  counts.add(0, 1, 3);
  const std::vector<std::uint64_t> pages = {0};
  const std::vector<std::int32_t> home = {0};
  auto out = predict_migrations(
      tiny_config(), pages, home,
      [&](std::uint32_t) -> const AccessMatrix& { return counts; });
  ASSERT_EQ(out.migrated_pages.size(), 1u);
  EXPECT_EQ(out.final_home[0], 1);
}

TEST(PredictMigrations, TiedRemoteNodesKeepTheLowest) {
  AccessMatrix counts(1, 4);
  counts.add(0, 3, 9);
  counts.add(0, 2, 9);
  const std::vector<std::uint64_t> pages = {0};
  const std::vector<std::int32_t> home = {0};
  auto out = predict_migrations(
      tiny_config(), pages, home,
      [&](std::uint32_t) -> const AccessMatrix& { return counts; });
  ASSERT_EQ(out.migrated_pages.size(), 1u);
  EXPECT_EQ(out.migrated_targets[0], 2);
}

TEST(PredictMigrations, SteadyMatrixConvergesInOnePass) {
  // A constant counter image can only trigger each page once: after the
  // move the former remote node is local, the ratio inverts, and the
  // next pass migrates nothing -- the engine deactivates.
  AccessMatrix counts(3, 2);
  for (std::uint64_t page = 0; page < 3; ++page) {
    counts.add(page, 0, 1);
    counts.add(page, 1, 100);
  }
  const std::vector<std::uint64_t> pages = {0, 1, 2};
  const std::vector<std::int32_t> home = {0, 0, 0};
  auto out = predict_migrations(
      tiny_config(), pages, home,
      [&](std::uint32_t) -> const AccessMatrix& { return counts; });
  EXPECT_EQ(out.migrated_pages.size(), 3u);
  ASSERT_EQ(out.migrations_per_pass.size(), 2u);
  EXPECT_EQ(out.migrations_per_pass[0], 3u);
  EXPECT_EQ(out.migrations_per_pass[1], 0u);
  EXPECT_TRUE(out.frozen_pages.empty());
}

TEST(PredictMigrations, BouncingPageIsFrozen) {
  // Alternating counter images: node 1 dominates on odd passes, node 0
  // on even ones. The second migration would return the page to its
  // prior home one invocation later -- the bounce criterion freezes it.
  AccessMatrix odd(1, 2);
  odd.add(0, 1, 100);
  odd.add(0, 0, 1);
  AccessMatrix even(1, 2);
  even.add(0, 0, 100);
  even.add(0, 1, 1);
  const std::vector<std::uint64_t> pages = {0};
  const std::vector<std::int32_t> home = {0};
  auto config = tiny_config();
  auto out = predict_migrations(
      config, pages, home,
      [&](std::uint32_t pass) -> const AccessMatrix& {
        return pass % 2 == 1 ? odd : even;
      });
  ASSERT_EQ(out.frozen_pages.size(), 1u);
  EXPECT_EQ(out.frozen_pages[0], 0u);
  // Frozen after the first move: the page stays on node 1.
  EXPECT_EQ(out.final_home[0], 1);

  config.freeze_bouncing_pages = false;
  auto bounce = predict_migrations(
      config, pages, home,
      [&](std::uint32_t pass) -> const AccessMatrix& {
        return pass % 2 == 1 ? odd : even;
      });
  EXPECT_TRUE(bounce.frozen_pages.empty());
  // Without the freeze it ping-pongs every pass up to max_passes.
  EXPECT_EQ(bounce.migrations_per_pass.size(), config.max_passes);
}

// ---- PhaseRecorder / dry-run capture --------------------------------------

TEST(PhaseCapture, DryRunCapturesTemporariesWithoutSimulating) {
  auto machine = omp::Machine::create({});
  machine->set_placement("ft", 1);
  omp::Runtime& rt = machine->runtime();
  const Ns before = rt.now();

  CapturedProgram captured;
  {
    PhaseRecorder recorder(rt);
    // A temporary region, master-only: dies at the end of run(); the
    // capture must have copied it.
    sim::RegionBuilder init = rt.make_region();
    init.access(ThreadId(0), VPage(7), 4, /*write=*/true);
    rt.run("init", std::move(init));

    recorder.begin_timed();
    sim::RegionBuilder sweep = rt.make_region();
    for (std::uint32_t t = 0; t < rt.num_threads(); ++t) {
      sweep.access(ThreadId(t), VPage(100 + t), 8, /*write=*/false);
    }
    rt.run("sweep", std::move(sweep));
    captured = recorder.take();
  }
  finalize_page_bound(captured);

  // Dry run: no simulated time elapsed, and the runtime is restored.
  EXPECT_EQ(rt.now(), before);
  EXPECT_FALSE(rt.dry_run());

  ASSERT_EQ(captured.phases.size(), 2u);
  EXPECT_EQ(captured.phases[0].name, "init");
  EXPECT_FALSE(captured.phases[0].timed);
  EXPECT_EQ(captured.phases[0].pages.at(0), 7u);
  EXPECT_NE(captured.phases[0].is_write.at(0), 0);
  EXPECT_EQ(captured.phases[1].name, "sweep");
  EXPECT_TRUE(captured.phases[1].timed);
  EXPECT_EQ(captured.phases[1].num_threads(), rt.num_threads());
  EXPECT_EQ(captured.page_bound, 100u + rt.num_threads());
}

// ---- End-to-end: advisor vs simulator -------------------------------------

harness::RunConfig golden_cell(const std::string& benchmark) {
  harness::RunConfig config;
  config.benchmark = benchmark;
  config.placement = "ft";
  config.upm_mode = nas::UpmMode::kDistribution;
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  config.trace = true;
  return config;
}

TEST(AdvisorEndToEnd, PredictsTheFtUpmlibCellOfBT) {
  const harness::RunConfig config = golden_cell("BT");
  const AdvisorReport report = harness::advise_benchmark(config);
  const harness::RunResult actual = harness::run_benchmark(config);
  const trace::PlacementGroundTruth truth =
      trace::extract_ground_truth(*actual.trace);

  const PlacementPrediction* cell = nullptr;
  for (const PlacementPrediction& c : report.cells) {
    if (c.label == "ft-upmlib") {
      cell = &c;
    }
  }
  ASSERT_NE(cell, nullptr);

  // Acceptance bar: migration precision and recall at least 0.8. The
  // abstract interpreter actually reproduces the engine's decision
  // exactly on this cell, so assert the sharper property and keep the
  // 0.8 bound as the documented floor.
  EXPECT_EQ(cell->migrated_pages, truth.migrated_pages);
  ASSERT_GE(truth.migrated_pages.size(), 1u);
  for (std::size_t i = 0; i < truth.migrated_pages.size(); ++i) {
    EXPECT_EQ(cell->migrated_targets[i], truth.post_migration_home[i])
        << "page " << truth.migrated_pages[i];
    EXPECT_EQ(cell->initial_home[truth.migrated_pages[i]],
              truth.pre_migration_home[i])
        << "page " << truth.migrated_pages[i];
  }
  EXPECT_TRUE(cell->frozen_pages.empty());
  EXPECT_TRUE(truth.frozen_pages.empty());

  // All predicted migrations land in iteration 1, like the trace.
  std::vector<std::uint64_t> predicted_vec = cell->migrations_per_iteration;
  std::vector<std::uint64_t> actual_vec = truth.migrations_per_iteration;
  predicted_vec.resize(3, 0);
  actual_vec.resize(3, 0);
  EXPECT_EQ(predicted_vec, actual_vec);

  // The verdict diagnostics carry the rule family.
  bool saw_cold_home = false;
  bool saw_needs_migration = false;
  for (const Diagnostic& diag : report.diagnostics) {
    saw_cold_home = saw_cold_home || diag.rule == "advisor.cold-home";
    saw_needs_migration =
        saw_needs_migration || diag.rule == "advisor.needs-migration";
  }
  EXPECT_TRUE(saw_cold_home);
  EXPECT_TRUE(saw_needs_migration);
}

TEST(AdvisorEndToEnd, ReportIsByteDeterministic) {
  harness::RunConfig config;
  config.benchmark = "CG";
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  const AdvisorReport first = harness::advise_benchmark(config);
  const AdvisorReport second = harness::advise_benchmark(config);
  EXPECT_EQ(harness::advisor_report_to_json(first),
            harness::advisor_report_to_json(second));
  EXPECT_EQ(diagnostics_to_sarif("advisor", "1.0", first.diagnostics),
            diagnostics_to_sarif("advisor", "1.0", second.diagnostics));
}

TEST(AdvisorEndToEnd, RandomPlacementIsRejected) {
  harness::RunConfig config;
  config.benchmark = "CG";
  config.iterations = 3;
  config.workload.size_scale = 0.25;
  const CapturedProgram captured = harness::capture_benchmark(config);
  AdvisorConfig acfg;
  Advisor advisor(acfg, AdvisorView::from_config(config.machine));
  const LocalityDataflow flow = advisor.analyze(captured);
  EXPECT_THROW(advisor.predict(flow, captured.hot_ranges, "rand", false),
               std::exception);
}

// ---- Ground-truth extraction ----------------------------------------------

TEST(GroundTruth, ExtractsMigrationsFreezesAndIterations) {
  trace::TraceSink sink;
  const std::uint16_t lane = sink.register_lane("test");
  // emit() stamps iteration from the sink's context, not the event.
  sink.set_iteration(1);

  trace::TraceEvent begin;
  begin.kind = trace::EventKind::kIterationBegin;
  begin.iteration = 1;
  begin.time = 100;
  sink.emit(lane, begin);

  trace::TraceEvent mig;
  mig.kind = trace::EventKind::kPageMigration;
  mig.page = 42;
  mig.src = 0;
  mig.dst = 3;
  mig.iteration = 1;
  mig.time = 150;
  sink.emit(lane, mig);
  // The same page moves again later: post_migration_home tracks the
  // final destination, pre_migration_home the original source.
  mig.src = 3;
  mig.dst = 5;
  mig.time = 160;
  sink.emit(lane, mig);

  trace::TraceEvent freeze;
  freeze.kind = trace::EventKind::kPageFreeze;
  freeze.page = 7;
  freeze.node = 2;
  freeze.a = 0;  // bounce freeze, not give-up
  freeze.iteration = 1;
  freeze.time = 170;
  sink.emit(lane, freeze);

  trace::TraceEvent end;
  end.kind = trace::EventKind::kIterationEnd;
  end.iteration = 1;
  end.time = 300;
  end.a = 25;  // remote miss lines
  end.b = 75;  // local miss lines
  sink.emit(lane, end);

  const trace::PlacementGroundTruth truth =
      trace::extract_ground_truth(sink);
  ASSERT_EQ(truth.migrations.size(), 2u);
  ASSERT_EQ(truth.migrated_pages.size(), 1u);
  EXPECT_EQ(truth.migrated_pages[0], 42u);
  EXPECT_EQ(truth.pre_migration_home[0], 0);
  EXPECT_EQ(truth.post_migration_home[0], 5);
  ASSERT_EQ(truth.frozen_pages.size(), 1u);
  EXPECT_EQ(truth.frozen_pages[0], 7u);
  EXPECT_FALSE(truth.freezes[0].give_up);
  ASSERT_EQ(truth.migrations_per_iteration.size(), 1u);
  EXPECT_EQ(truth.migrations_per_iteration[0], 2u);
  ASSERT_EQ(truth.iteration_durations.size(), 1u);
  EXPECT_EQ(truth.iteration_durations[0], 200u);
  EXPECT_DOUBLE_EQ(truth.last_remote_fraction(), 0.25);
}

// ---- SARIF ----------------------------------------------------------------

TEST(Sarif, EscapesAndStructuresFindings) {
  Diagnostic diag;
  diag.severity = Severity::kError;
  diag.rule = "advisor.cold-home";
  diag.region = "phase \"with\\quotes\"";
  diag.page = VPage(42);
  diag.message = "line1\nline2";
  diag.hint = "fix it";
  const std::string doc =
      diagnostics_to_sarif("repro", "1.0", std::vector<Diagnostic>{diag});
  EXPECT_NE(doc.find("\"ruleId\": \"advisor.cold-home\""), std::string::npos);
  EXPECT_NE(doc.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(doc.find("phase \\\"with\\\\quotes\\\""), std::string::npos);
  EXPECT_NE(doc.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_EQ(doc.find('\n', doc.size() - 2), doc.size() - 1);

  // The advisor's JSON verdict carries the same message, escaped.
  AdvisorReport report;
  report.benchmark = "CG";
  report.diagnostics.push_back(diag);
  const std::string verdict = harness::advisor_report_to_json(report);
  EXPECT_NE(verdict.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(verdict.find("phase \\\"with\\\\quotes\\\""), std::string::npos);
  EXPECT_EQ(verdict.find("line1\nline2"), std::string::npos);
}

// ---- Severity parsing and canonical order ---------------------------------

TEST(DiagnosticHelpers, ParseSeverityRoundTrips) {
  EXPECT_EQ(parse_severity("note"), Severity::kNote);
  EXPECT_EQ(parse_severity("warning"), Severity::kWarning);
  EXPECT_EQ(parse_severity("error"), Severity::kError);
  EXPECT_FALSE(parse_severity("fatal").has_value());
  EXPECT_FALSE(parse_severity("").has_value());
}

TEST(DiagnosticHelpers, AnyAtOrAbove) {
  Diagnostic note;
  note.severity = Severity::kNote;
  Diagnostic warning;
  warning.severity = Severity::kWarning;
  const std::vector<Diagnostic> diags = {note, warning};
  EXPECT_TRUE(any_at_or_above(diags, Severity::kNote));
  EXPECT_TRUE(any_at_or_above(diags, Severity::kWarning));
  EXPECT_FALSE(any_at_or_above(diags, Severity::kError));
  EXPECT_FALSE(any_at_or_above({}, Severity::kNote));
}

TEST(DiagnosticHelpers, CanonicalSortIsOrderInsensitive) {
  auto make = [](const char* region, const char* rule, std::uint64_t page) {
    Diagnostic d;
    d.region = region;
    d.rule = rule;
    d.page = VPage(page);
    return d;
  };
  std::vector<Diagnostic> a = {make("z", "r1", 5), make("a", "r2", 9),
                               make("a", "r2", 3), make("a", "r1", 3)};
  std::vector<Diagnostic> b = {a[2], a[0], a[3], a[1]};
  canonical_sort(a);
  canonical_sort(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region) << i;
    EXPECT_EQ(a[i].rule, b[i].rule) << i;
    EXPECT_EQ(a[i].page, b[i].page) << i;
  }
  EXPECT_EQ(a[0].region, "a");
  EXPECT_EQ(a[0].rule, "r1");
  EXPECT_EQ(a[1].rule, "r2");
  EXPECT_EQ(a[1].page, VPage(3));
  EXPECT_EQ(a[2].page, VPage(9));
  EXPECT_EQ(a[3].region, "z");
}

}  // namespace
}  // namespace repro::analysis
