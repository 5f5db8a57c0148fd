/**
 * @file
 * Regenerates Table V: every framework's speedup over the GAP reference
 * (as a percentage; >100% = faster than GAP) for all 30 GAP tests under
 * both rule sets — the paper's headline heat map.
 *
 * Env: GM_SCALE (default 15), GM_TRIALS (default 5), GM_THREADS.
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

    harness::print_table5(std::cout, baseline, optimized);
    std::cout << "\n(scale 2^" << scale << ", " << opts.trials
              << " trials/cell, full sweep " << timer.seconds() << " s)\n";
    return 0;
}
