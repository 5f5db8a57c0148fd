/**
 * @file
 * Full-sweep suite driver with crash-safe checkpointing: runs every
 * framework x kernel x graph cell under both rule sets, prints Tables
 * IV/V, and writes raw CSVs.  Unlike the bench/ table binaries this one
 * takes flags, streams finished cells to a JSONL checkpoint, and can
 * resume a killed sweep without re-running completed cells:
 *
 *   ./suite --scale 12 --checkpoint sweep.jsonl          # first run
 *   ./suite --scale 12 --checkpoint sweep.jsonl \
 *           --resume sweep.jsonl                         # after a crash
 *
 * Exit code is the most severe failure observed across the cube (see
 * gm::cli::ExitCode), so CI can tell a clean sweep from one with DNFs.
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "gm/cli/argparse.hh"
#include "gm/cli/driver.hh"
#include "gm/harness/baseline_export.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/harness/tables.hh"
#include "gm/perf/baseline.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/timer.hh"

namespace
{

void
usage()
{
    std::cout
        << "Usage: suite [options]\n"
        << "  --scale <n>              log2 vertices per graph (default 10)\n"
        << "  --trials <n>             timed trials per cell (default 2)\n"
        << "  --warmup <n>             untimed warm-up trials per cell,\n"
        << "                           excluded from statistics (default 0)\n"
        << "  --baseline-out <file>    write raw per-cell trial vectors +\n"
        << "                           environment fingerprint (JSONL) for\n"
        << "                           tools/perf_gate\n"
        << "  --no-verify              skip spec verification\n"
        << "  --trial-timeout-ms <ms>  watchdog deadline per trial (0 = off)\n"
        << "  --max-attempts <n>       retry budget for transient failures\n"
        << "  --checkpoint <file>      append finished cells as JSONL\n"
        << "  --resume <file>          skip cells recorded in this JSONL\n"
        << "  --csv-prefix <path>      CSV output prefix (default results)\n"
        << "  --trace-out <dir>        write one Chrome trace_event JSON\n"
        << "                           file per cell into <dir>\n"
        << "  --metrics-out <path>     append one metrics JSONL record per\n"
        << "                           trial to <path>\n"
        << "  --no-evict               keep every graph's derived forms\n"
        << "                           resident (default: evict per graph)\n"
        << "  --list-cells             print the mode x framework x kernel\n"
        << "                           x graph cell matrix (with each\n"
        << "                           cell's baseline key) and exit\n"
        << "                           without generating graphs or\n"
        << "                           running trials\n"
        << "  -h, --help               this help\n"
        << "exit codes: 0 ok, 1 usage, 2 invalid input, 3 kernel error,\n"
        << "            4 timeout, 5 wrong result, 6 injected fault\n";
}

/** Severity order for the whole-sweep exit code: worst failure wins. */
int
severity(int code)
{
    switch (code) {
      case gm::cli::kExitOk:
        return 0;
      case gm::cli::kExitWrongResult:
        return 1;
      case gm::cli::kExitFaultInjected:
        return 2;
      case gm::cli::kExitTimeout:
        return 3;
      case gm::cli::kExitKernelError:
        return 4;
      case gm::cli::kExitInvalidInput:
        return 5;
    }
    return 6;
}

int
worst_exit_code(const gm::harness::ResultsCube& cube)
{
    int worst = gm::cli::kExitOk;
    for (const auto& per_kernel : cube.cells) {
        for (const auto& per_graph : per_kernel) {
            for (const auto& cell : per_graph) {
                const int code = gm::cli::exit_code_for(cell.failure);
                if (severity(code) > severity(worst))
                    worst = code;
            }
        }
    }
    return worst;
}

/**
 * --list-cells: enumerate every cell a sweep at this scale would run —
 * one row per mode x framework x kernel x graph, keyed exactly as the
 * baseline/perf_gate pipeline keys them — without generating a single
 * graph or timing a single trial.  Lets CI scripts and serve_bench
 * workloads agree on cell identity up front.
 */
int
list_cells(int scale)
{
    using gm::harness::Kernel;
    const auto frameworks = gm::harness::make_frameworks();
    const auto graphs = gm::harness::gap_suite_graph_names();
    const Kernel kernels[] = {Kernel::kBFS, Kernel::kSSSP, Kernel::kCC,
                              Kernel::kPR,  Kernel::kBC,   Kernel::kTC};
    std::size_t count = 0;
    std::cout << "mode,framework,kernel,graph,key\n";
    for (const auto mode :
         {gm::harness::Mode::kBaseline, gm::harness::Mode::kOptimized}) {
        const std::string mode_name = gm::harness::to_string(mode);
        for (const auto& fw : frameworks) {
            for (const Kernel kernel : kernels) {
                const std::string kernel_name =
                    gm::harness::to_string(kernel);
                for (const auto& graph : graphs) {
                    std::cout << mode_name << "," << fw.name << ","
                              << kernel_name << "," << graph << ","
                              << mode_name << "/" << fw.name << "/"
                              << kernel_name << "/" << graph << "\n";
                    ++count;
                }
            }
        }
    }
    std::cout << "# " << count << " cells at scale 2^" << scale << "\n";
    return gm::cli::kExitOk;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gm;

    int scale = 10;
    std::string csv_prefix = "results";
    std::string baseline_out;
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = true;
    // Stream one graph's artifacts at a time: a 30-cell sweep holds at
    // most one graph's derived forms, not five graphs' worth.
    opts.evict_per_graph = true;

    bool list_only = false;
    cli::ArgParser parser("suite");
    parser.usage(usage);
    parser.value({"--scale"}, &scale);
    parser.value({"--trials"}, &opts.trials);
    parser.value({"--warmup"}, &opts.warmup);
    parser.value({"--baseline-out"}, &baseline_out);
    parser.flag({"--no-verify"}, [&opts] { opts.verify = false; });
    parser.flag({"--no-evict"}, [&opts] { opts.evict_per_graph = false; });
    parser.value({"--trial-timeout-ms"}, &opts.trial_timeout_ms);
    parser.value({"--max-attempts"}, &opts.max_attempts);
    parser.value({"--checkpoint"}, &opts.checkpoint_path);
    parser.value({"--resume"}, &opts.resume_path);
    parser.value({"--csv-prefix"}, &csv_prefix);
    parser.value({"--trace-out"}, &opts.trace_dir);
    parser.value({"--metrics-out"}, &opts.metrics_path);
    parser.flag({"--list-cells"}, &list_only);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? cli::kExitOk : cli::kExitUsage;
    if (list_only)
        return list_cells(scale);
    if (opts.trials < 1 || opts.warmup < 0 || opts.max_attempts < 1 ||
        opts.trial_timeout_ms < 0) {
        std::cerr << "invalid --trials/--warmup/--max-attempts/"
                     "--trial-timeout-ms\n";
        return cli::kExitUsage;
    }

    // One fingerprint for every artifact this sweep produces: CSV comment
    // headers, the metrics stream's leading record, and the baseline.
    support::EnvFingerprint fingerprint = support::collect_fingerprint();
    fingerprint.scales = "scale=" + std::to_string(scale) +
                         " trials=" + std::to_string(opts.trials) +
                         " warmup=" + std::to_string(opts.warmup);
    if (!opts.metrics_path.empty()) {
        if (auto s = support::append_jsonl(
                opts.metrics_path,
                support::fingerprint_record_line(fingerprint));
            !s.is_ok())
            std::cerr << s.to_string() << "\n";
    }

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
    harness::print_table5(std::cout, baseline, optimized);
    auto dump_csv = [&](const harness::ResultsCube& cube,
                        harness::Mode mode) {
        const std::string path =
            csv_prefix + "_" + harness::to_string(mode) + ".csv";
        if (auto s = harness::write_csv(path, cube, mode, &fingerprint);
            !s.is_ok())
            std::cerr << s.to_string() << "\n";
    };
    dump_csv(baseline, harness::Mode::kBaseline);
    dump_csv(optimized, harness::Mode::kOptimized);

    if (!baseline_out.empty()) {
        perf::Baseline record;
        record.fingerprint = fingerprint;
        harness::append_baseline_cells(record, baseline,
                                       harness::Mode::kBaseline);
        harness::append_baseline_cells(record, optimized,
                                       harness::Mode::kOptimized);
        if (auto s = perf::save_baseline(baseline_out, record); !s.is_ok())
            std::cerr << s.to_string() << "\n";
        else
            std::cout << "baseline written to " << baseline_out << " ("
                      << record.cells.size() << " cells)\n";
    }

    std::cout << "\n";
    harness::print_memory_report(std::cout, suite);
    const std::string memory_csv = csv_prefix + "_memory.csv";
    if (auto s = harness::write_memory_csv(memory_csv, suite, &fingerprint);
        !s.is_ok())
        std::cerr << s.to_string() << "\n";

    std::size_t peak = 0;
    std::string peak_graph = "-";
    auto fold_peak = [&](const harness::ResultsCube& cube) {
        for (std::size_t g = 0; g < cube.graph_peak_bytes.size(); ++g) {
            if (cube.graph_peak_bytes[g] > peak) {
                peak = cube.graph_peak_bytes[g];
                peak_graph = cube.graph_names[g];
            }
        }
    };
    fold_peak(baseline);
    fold_peak(optimized);
    std::cout << "\n(scale 2^" << scale << ", " << opts.trials
              << " trials/cell, full sweep " << timer.seconds() << " s; "
              << (opts.evict_per_graph ? "per-graph eviction on"
                                       : "eviction off")
              << ", peak graph footprint " << peak << " bytes on "
              << peak_graph << ")\n";

    const int base_code = worst_exit_code(baseline);
    const int opt_code = worst_exit_code(optimized);
    const int code =
        severity(base_code) >= severity(opt_code) ? base_code : opt_code;
    if (code != cli::kExitOk) {
        std::cerr << "sweep finished with DNF cells (exit " << code
                  << ")\n";
    }
    return code;
}
