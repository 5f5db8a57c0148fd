/**
 * @file
 * Regenerates Table IV: the fastest time for each kernel/graph pair under
 * both the Baseline and the Optimized rule sets, with the winning
 * framework, over the full 6-framework x 6-kernel x 5-graph sweep.
 *
 * Env: GM_SCALE (default 15), GM_TRIALS (default 5), GM_THREADS,
 * GM_VERIFY=0 to skip verification, GM_TRIAL_TIMEOUT_MS for the per-trial
 * watchdog, GM_CHECKPOINT / GM_RESUME for crash-safe JSONL checkpointing.
 * Also dumps raw CSVs next to the binary (results_baseline.csv /
 * results_optimized.csv).
 */
#include <iostream>

#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/harness/tables.hh"
#include "gm/support/env.hh"
#include "gm/support/timer.hh"

int
main()
{
    using namespace gm;
    const int scale = static_cast<int>(env_int("GM_SCALE", 15));
    harness::RunOptions opts;
    opts.trials = static_cast<int>(env_int("GM_TRIALS", 5));
    opts.verify = env_bool("GM_VERIFY", true);
    opts.trial_timeout_ms =
        static_cast<int>(env_int("GM_TRIAL_TIMEOUT_MS", 0));
    opts.checkpoint_path = env_string("GM_CHECKPOINT", "");
    opts.resume_path = env_string("GM_RESUME", "");

    Timer timer;
    timer.start();
    const harness::DatasetSuite suite = harness::make_gap_suite(scale);
    const auto frameworks = harness::make_frameworks();
    const harness::ResultsCube baseline = harness::run_suite(
        suite, frameworks, harness::Mode::kBaseline, opts);
    const harness::ResultsCube optimized = harness::run_suite(
        suite, frameworks, harness::Mode::kOptimized, opts);
    timer.stop();

    harness::print_table4(std::cout, baseline, optimized);
    if (auto s = harness::write_csv("results_baseline.csv", baseline,
                                    harness::Mode::kBaseline);
        !s.is_ok())
        std::cerr << s.to_string() << "\n";
    if (auto s = harness::write_csv("results_optimized.csv", optimized,
                                    harness::Mode::kOptimized);
        !s.is_ok())
        std::cerr << s.to_string() << "\n";
    std::cout << "\n(scale 2^" << scale << ", " << opts.trials
              << " trials/cell, full sweep " << timer.seconds()
              << " s; raw data in results_*.csv)\n";
    return 0;
}
