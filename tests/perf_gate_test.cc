/** End-to-end tests of the gm::perf pipeline: fingerprint round trips,
 *  baseline serialization, the regression-gate verdict logic
 *  (significance AND minimum effect), and the runner-side pieces the
 *  pipeline depends on — per-trial wall-time vectors, warm-up trials,
 *  and GM_FAULTS-injected slowdowns inside the timed region. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gm/graph/generators.hh"
#include "gm/harness/baseline_export.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/perf/baseline.hh"
#include "gm/par/parallel_for.hh"
#include "gm/perf/gate.hh"
#include "gm/support/env.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/json.hh"

namespace gm
{
namespace
{

using support::FaultInjector;

/** Disarms all fault sites on scope exit, pass or fail. */
struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::global().clear(); }
};

harness::Dataset
tiny_dataset()
{
    return harness::make_dataset(
        "tiny", graph::make_uniform(8, 8, 21), /*num_sources=*/8,
        /*seed=*/9);
}

perf::BaselineCell
make_cell(const std::string& kernel, const std::string& graph,
          std::vector<double> seconds)
{
    perf::BaselineCell cell;
    cell.mode = "Baseline";
    cell.framework = "GAP";
    cell.kernel = kernel;
    cell.graph = graph;
    cell.seconds = std::move(seconds);
    cell.verified = true;
    return cell;
}

/** Five slightly-jittered trials around @p center — enough samples for
 *  Mann-Whitney to reach significance when the medians truly differ. */
std::vector<double>
trials_around(double center)
{
    return {center * 0.99, center * 0.995, center, center * 1.005,
            center * 1.01};
}

perf::Baseline
one_cell_baseline(double center)
{
    perf::Baseline b;
    b.fingerprint = support::collect_fingerprint();
    b.cells.push_back(make_cell("BFS", "Kron", trials_around(center)));
    return b;
}

// --------------------------------------------------------- fingerprint

TEST(Fingerprint, JsonRoundTrips)
{
    support::EnvFingerprint fp = support::collect_fingerprint();
    fp.scales = "scale=16 trials=5 warmup=1";
    const auto parsed =
        support::parse_fingerprint_json(support::fingerprint_json(fp));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_TRUE(*parsed == fp);
    EXPECT_GT(parsed->threads, 0);
    EXPECT_FALSE(parsed->compiler.empty());
}

TEST(Fingerprint, ThreadsIsThePoolWidth)
{
    // tests/CMakeLists.txt also runs this with GM_THREADS=1, where the
    // record must say 1 whatever the host has.
    const support::EnvFingerprint fp = support::collect_fingerprint();
    EXPECT_EQ(fp.threads, par::num_threads());
    if (env_int("GM_THREADS", 0) == 1) {
        EXPECT_EQ(fp.threads, 1);
    }
}

TEST(Fingerprint, RecordLineIsRecognizable)
{
    const support::EnvFingerprint fp = support::collect_fingerprint();
    const std::string line = support::fingerprint_record_line(fp);
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(support::parse_flat_json(line, fields).is_ok());
    EXPECT_TRUE(support::is_fingerprint_record(fields));

    std::map<std::string, std::string> other = {{"kind", "cell"}};
    EXPECT_FALSE(support::is_fingerprint_record(other));
}

TEST(Fingerprint, ParserIgnoresUnknownKeys)
{
    const auto parsed = support::parse_fingerprint_json(
        "{\"git_sha\":\"abc\",\"threads\":8,\"future_field\":true}");
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->git_sha, "abc");
    EXPECT_EQ(parsed->threads, 8);
}

// ------------------------------------------------------------ baseline

TEST(BaselineIO, CellLineRoundTrips)
{
    perf::BaselineCell cell = make_cell("BFS", "Kron", {0.25, 0.5, 0.125});
    cell.counters["edges_traversed"] = 4242;
    cell.counters["iterations"] = 11;

    const auto parsed =
        perf::parse_baseline_cell_line(perf::baseline_cell_line(cell));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->key(), cell.key());
    EXPECT_EQ(parsed->seconds, cell.seconds);
    EXPECT_EQ(parsed->counters, cell.counters);
    EXPECT_TRUE(parsed->verified);
    EXPECT_EQ(parsed->failure, "none");
}

TEST(BaselineIO, SaveLoadRoundTripsAndSkipsTornLines)
{
    const std::string path = "/tmp/gm_perf_baseline_test.jsonl";
    perf::Baseline b = one_cell_baseline(0.1);
    b.fingerprint.scales = "scale=8 trials=5 warmup=0";
    perf::BaselineCell dnf = make_cell("TC", "Road", {});
    dnf.failure = "timeout";
    dnf.verified = false;
    b.cells.push_back(dnf);
    ASSERT_TRUE(perf::save_baseline(path, b).is_ok());

    // A crash mid-append leaves a torn final line; loaders skip it.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"kind\":\"cell\",\"mode\":\"Base";
    }
    const auto loaded = perf::load_baseline(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_TRUE(loaded->fingerprint == b.fingerprint);
    ASSERT_EQ(loaded->cells.size(), 2u);
    EXPECT_EQ(loaded->cells[0].key(), b.cells[0].key());
    EXPECT_EQ(loaded->cells[0].seconds, b.cells[0].seconds);
    EXPECT_TRUE(loaded->cells[0].completed());
    EXPECT_EQ(loaded->cells[1].failure, "timeout");
    EXPECT_FALSE(loaded->cells[1].completed());
    std::remove(path.c_str());
}

TEST(BaselineIO, MissingFileAndEmptyFileAreErrors)
{
    EXPECT_FALSE(perf::load_baseline("/tmp/gm_no_such_baseline.jsonl")
                     .is_ok());
    const std::string path = "/tmp/gm_perf_baseline_empty.jsonl";
    { std::ofstream out(path, std::ios::trunc); }
    EXPECT_FALSE(perf::load_baseline(path).is_ok());
    std::remove(path.c_str());
}

TEST(BaselineExport, CellResultCarriesTrialsAndCounters)
{
    harness::CellResult res;
    res.trial_seconds = {0.5, 0.25};
    res.verified = true;
    res.metrics.counters["edges_traversed"] = 99;
    const perf::BaselineCell cell = harness::to_baseline_cell(
        res, "Baseline", "GAP", "BFS", "Kron");
    EXPECT_EQ(cell.key(), "Baseline/GAP/BFS/Kron");
    EXPECT_EQ(cell.seconds, res.trial_seconds);
    EXPECT_EQ(cell.counters.at("edges_traversed"), 99u);
    EXPECT_TRUE(cell.completed());
}

// ---------------------------------------------------------------- gate

TEST(Gate, SelfComparisonPassesWithZeroRegressions)
{
    const perf::Baseline b = one_cell_baseline(0.1);
    const perf::GateReport report = perf::compare_baselines(b, b);
    EXPECT_EQ(report.regressed, 0);
    EXPECT_EQ(report.unchanged, 1);
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(perf::gate_exit_code(report), 0);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].verdict, perf::Verdict::kUnchanged);
    EXPECT_DOUBLE_EQ(report.cells[0].change, 0.0);
}

TEST(Gate, TwoXSlowdownIsARegression)
{
    const perf::Baseline ref = one_cell_baseline(0.1);
    const perf::Baseline cand = one_cell_baseline(0.2);
    const perf::GateReport report = perf::compare_baselines(ref, cand);
    EXPECT_EQ(report.regressed, 1);
    EXPECT_TRUE(report.failed());
    EXPECT_NE(perf::gate_exit_code(report), 0);
    ASSERT_EQ(report.cells.size(), 1u);
    const perf::CellComparison& c = report.cells[0];
    EXPECT_EQ(c.verdict, perf::Verdict::kRegressed);
    EXPECT_NEAR(c.change, 1.0, 0.05); // ~+100%
    EXPECT_LT(c.p_value, 0.05);
    EXPECT_EQ(c.ref_trials, 5);
    EXPECT_EQ(c.cand_trials, 5);
}

TEST(Gate, TwoXSpeedupIsAnImprovement)
{
    const perf::GateReport report = perf::compare_baselines(
        one_cell_baseline(0.2), one_cell_baseline(0.1));
    EXPECT_EQ(report.improved, 1);
    EXPECT_EQ(report.regressed, 0);
    EXPECT_FALSE(report.failed());
}

TEST(Gate, SignificantButTinyChangeIsUnchanged)
{
    // +2% shift: disjoint samples, so Mann-Whitney is significant, but
    // the effect is below min_effect — must NOT regress (the AND).
    const perf::GateReport report = perf::compare_baselines(
        one_cell_baseline(0.100), one_cell_baseline(0.102));
    EXPECT_EQ(report.regressed, 0);
    EXPECT_EQ(report.unchanged, 1);
    EXPECT_FALSE(report.failed());

    // Tighten min_effect to 1% and the same data regresses.
    perf::GateOptions strict;
    strict.min_effect = 0.01;
    const perf::GateReport strict_report = perf::compare_baselines(
        one_cell_baseline(0.100), one_cell_baseline(0.102), strict);
    EXPECT_EQ(strict_report.regressed, 1);
}

TEST(Gate, LargeButNoisyChangeIsUnchanged)
{
    // Medians differ by ~50% but the samples overlap heavily, so the
    // test can't call it significant — the other half of the AND.
    perf::Baseline ref;
    ref.cells.push_back(make_cell("BFS", "Kron", {0.1, 0.2, 0.15, 0.12, 0.18}));
    perf::Baseline cand;
    cand.cells.push_back(
        make_cell("BFS", "Kron", {0.15, 0.22, 0.11, 0.19, 0.21}));
    const perf::GateReport report = perf::compare_baselines(ref, cand);
    EXPECT_EQ(report.regressed, 0);
}

TEST(Gate, NewAndMissingCells)
{
    perf::Baseline ref = one_cell_baseline(0.1);
    ref.cells.push_back(make_cell("PR", "Road", trials_around(0.3)));
    perf::Baseline cand = one_cell_baseline(0.1);
    cand.cells.push_back(make_cell("CC", "Web", trials_around(0.2)));

    const perf::GateReport report = perf::compare_baselines(ref, cand);
    EXPECT_EQ(report.unchanged, 1); // BFS/Kron matched
    EXPECT_EQ(report.missing, 1);   // PR/Road gone
    EXPECT_EQ(report.added, 1);     // CC/Web new
    EXPECT_FALSE(report.failed());  // missing is informational by default

    perf::GateOptions strict;
    strict.fail_on_missing = true;
    const perf::GateReport strict_report =
        perf::compare_baselines(ref, cand, strict);
    EXPECT_TRUE(strict_report.failed());
}

TEST(Gate, CompletedToDnfIsARegression)
{
    const perf::Baseline ref = one_cell_baseline(0.1);
    perf::Baseline cand;
    perf::BaselineCell dnf = make_cell("BFS", "Kron", {});
    dnf.failure = "timeout";
    cand.cells.push_back(dnf);

    const perf::GateReport report = perf::compare_baselines(ref, cand);
    EXPECT_EQ(report.regressed, 1);
    EXPECT_TRUE(report.failed());
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_NE(report.cells[0].note.find("timeout"), std::string::npos);

    // DNF on both sides carries no new information.
    const perf::GateReport both = perf::compare_baselines(cand, cand);
    EXPECT_EQ(both.regressed, 0);
}

TEST(Gate, ReportRendersAndSerializes)
{
    const perf::GateReport pass = perf::compare_baselines(
        one_cell_baseline(0.1), one_cell_baseline(0.1));
    std::ostringstream os;
    perf::print_report(os, pass);
    EXPECT_NE(os.str().find("gate: PASS"), std::string::npos);

    const perf::GateReport fail = perf::compare_baselines(
        one_cell_baseline(0.1), one_cell_baseline(0.25));
    std::ostringstream os2;
    perf::print_report(os2, fail);
    EXPECT_NE(os2.str().find("gate: FAIL"), std::string::npos);
    EXPECT_NE(os2.str().find("regressed"), std::string::npos);

    const std::string path = "/tmp/gm_perf_gate_report.jsonl";
    ASSERT_TRUE(perf::write_report_json(path, fail).is_ok());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"kind\":\"gate_summary\""), std::string::npos);
    EXPECT_NE(text.find("\"verdict\":\"regressed\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Gate, BootstrapCiIsDeterministicAcrossCellOrder)
{
    // Per-cell seeds are derived from the cell key, so reordering the
    // baseline must not change any cell's CI.
    perf::Baseline ref;
    ref.cells.push_back(make_cell("BFS", "Kron", trials_around(0.1)));
    ref.cells.push_back(make_cell("PR", "Road", trials_around(0.3)));
    perf::Baseline flipped;
    flipped.cells.push_back(ref.cells[1]);
    flipped.cells.push_back(ref.cells[0]);

    const perf::GateReport a = perf::compare_baselines(ref, ref);
    const perf::GateReport b = perf::compare_baselines(flipped, flipped);
    ASSERT_EQ(a.cells.size(), 2u);
    ASSERT_EQ(b.cells.size(), 2u);
    for (const auto& cell_a : a.cells) {
        for (const auto& cell_b : b.cells) {
            if (cell_a.kernel != cell_b.kernel)
                continue;
            EXPECT_EQ(cell_a.cand_ci_lo, cell_b.cand_ci_lo);
            EXPECT_EQ(cell_a.cand_ci_hi, cell_b.cand_ci_hi);
        }
    }
}

// ------------------------------------------------- runner integration

TEST(RunnerPerf, TrialSecondsRecordsEveryTimedTrial)
{
    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 3;
    opts.verify = false;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());
    ASSERT_EQ(cell.trial_seconds.size(), 3u);
    double best = cell.trial_seconds[0];
    double total = 0;
    for (double s : cell.trial_seconds) {
        EXPECT_GT(s, 0.0);
        best = std::min(best, s);
        total += s;
    }
    EXPECT_DOUBLE_EQ(cell.best_seconds, best);
    EXPECT_DOUBLE_EQ(cell.avg_seconds, total / 3);
}

TEST(RunnerPerf, WarmupTrialsAreExcludedFromStatistics)
{
    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.warmup = 2;
    opts.trials = 2;
    opts.verify = false;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kPR, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());
    EXPECT_EQ(cell.trial_seconds.size(), 2u); // timed trials only
    EXPECT_EQ(cell.trials, 2);
}

TEST(RunnerPerf, InjectedDelayInflatesMeasuredTrialTime)
{
    InjectorGuard guard;
    // Fire on every poll of this cell's timed-region site, sleeping 60 ms
    // inside the running timer — a synthetic regression on one cell.
    ASSERT_TRUE(FaultInjector::global()
                    .configure("trial.timed.GAP.BFS.tiny:1:7:delay=60")
                    .is_ok());

    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = false;

    const harness::CellResult slow = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(slow.completed()) << "delay site must not DNF the cell";
    ASSERT_EQ(slow.trial_seconds.size(), 2u);
    for (double s : slow.trial_seconds)
        EXPECT_GE(s, 0.05) << "delay landed outside the timed region";

    // Other cells are untouched: the site key is fully qualified.
    const harness::CellResult other = harness::run_cell(
        ds, fw, harness::Kernel::kCC, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(other.completed());
    for (double s : other.trial_seconds)
        EXPECT_LT(s, 0.05);
}

} // namespace
} // namespace gm
