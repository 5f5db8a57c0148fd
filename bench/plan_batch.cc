/**
 * @file
 * Multi-source fusion speedup check for gm::plan.
 *
 * The planner's headline rewrite turns a batch of single-source BFS
 * queries into one bit-parallel multi-source traversal: 64 sources share
 * a sweep, each carrying one lane of a 64-bit frontier word, so the
 * graph's edges are walked once per 64 sources instead of once per
 * source.  This bench measures exactly that rewrite through the same
 * executor both ways:
 *
 *   fused       one plan with a single 64-source kBatch node
 *               (ceil(64/64) = 1 sweep)
 *   sequential  one plan with 64 single-source kKernel BFS nodes
 *               (64 sweeps over the same graph)
 *
 * Both run through plan::execute, so the only difference is the fusion.
 * Every measured round cross-checks correctness: the fused batch's
 * source-major payload is sliced per source and compared bit-for-bit
 * against the corresponding single-source node's payload — any
 * divergence exits 2 before any gate is evaluated.
 *
 * The gate: sum(sequential) / sum(fused) over the measured rounds must
 * be at least --min-speedup (default 4).  Writes a fingerprinted
 * perf-baseline JSONL (--out) with one cell per {Fused, Sequential} that
 * tools/perf_gate can compare across runs; the committed reference lives
 * in perf/baselines/plan_batch.jsonl.
 *
 * Exit codes: 0 ok, 1 usage, 2 correctness violation (fused slice
 * diverges from its single-source run), 3 output-file error, 4 speedup
 * below --min-speedup.
 */
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/graph/frontier.hh"
#include "gm/graph/generators.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/par/parallel_for.hh"
#include "gm/perf/baseline.hh"
#include "gm/plan/execute.hh"
#include "gm/plan/plan.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"

namespace
{

using gm::Timer;
using gm::vid_t;
using gm::harness::Kernel;

constexpr std::uint64_t kSeed = 2020;

void
usage()
{
    std::cout
        << "Usage: plan_batch [options]\n"
        << "  --scale <n>        log2 vertices of the uniform graph\n"
        << "                     (default 13)\n"
        << "  --degree <n>       average degree (default 16)\n"
        << "  --sources <n>      BFS sources per round (default 64, the\n"
        << "                     fused sweep width)\n"
        << "  --rounds <n>       measured rounds (default 5)\n"
        << "  --min-speedup <x>  gate: the fused batch must beat the\n"
        << "                     sequential single-source plan by this\n"
        << "                     factor (default 4; 0 disables)\n"
        << "  --out <file>       fingerprinted perf-baseline JSONL\n"
        << "  -h, --help         this help\n";
}

double
sum(const std::vector<double>& v)
{
    double total = 0;
    for (double s : v)
        total += s;
    return total;
}

} // namespace

int
main(int argc, char** argv)
{
    int scale = 13;
    int degree = 16;
    int num_sources = 64;
    int rounds = 5;
    double min_speedup = 4.0;
    std::string out_path;

    gm::cli::ArgParser parser("plan_batch");
    parser.usage(usage);
    parser.value({"--scale"}, &scale);
    parser.value({"--degree"}, &degree);
    parser.value({"--sources"}, &num_sources);
    parser.value({"--rounds"}, &rounds);
    parser.value({"--min-speedup"}, &min_speedup);
    parser.value({"--out"}, &out_path);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? 0 : 1;
    if (scale < 8 || degree < 1 || num_sources < 1 || rounds < 1) {
        std::cerr << "invalid --scale/--degree/--sources/--rounds\n";
        return 1;
    }

    // Every case below runs on this one lease of every lane.
    gm::par::LaneLease lease(gm::par::num_threads());
    const gm::harness::Dataset ds = gm::harness::make_dataset(
        "uniform", gm::graph::make_uniform(scale, degree, kSeed),
        num_sources, kSeed);
    const std::vector<gm::harness::Framework> frameworks =
        gm::harness::make_frameworks();
    const gm::plan::Context ctx{&ds, &frameworks[gm::harness::kGapIndex],
                                gm::harness::Mode::kBaseline};
    const vid_t n = ds.g().num_vertices();

    // Seeded distinct-ish sources (collisions are fine: the comparison
    // still holds source by source).
    std::vector<vid_t> sources;
    sources.reserve(static_cast<std::size_t>(num_sources));
    gm::SplitMix64 rng(kSeed);
    for (int i = 0; i < num_sources; ++i)
        sources.push_back(
            static_cast<vid_t>(rng.next() % static_cast<std::uint64_t>(n)));

    gm::plan::Plan fused;
    fused.add_batch(Kernel::kBFS, sources);
    gm::plan::Plan sequential;
    for (vid_t s : sources)
        sequential.add_kernel(Kernel::kBFS, s);

    const int sweeps =
        (num_sources + gm::graph::kMaxFusedSources - 1) /
        gm::graph::kMaxFusedSources;
    std::cout << "graph: uniform 2^" << scale << " (" << n << " vertices, "
              << ds.g().num_edges_directed() << " arcs), " << num_sources
              << " sources -> " << sweeps << " fused sweep(s) vs "
              << num_sources << " single-source runs, " << rounds
              << " rounds\n";

    std::vector<double> fused_seconds;
    std::vector<double> sequential_seconds;
    // One untimed warm-up round, then `rounds` measured ones.
    for (int round = -1; round < rounds; ++round) {
        Timer fused_timer;
        fused_timer.start();
        auto fused_values = gm::plan::execute(fused, ctx);
        fused_timer.stop();
        Timer seq_timer;
        seq_timer.start();
        auto sequential_values = gm::plan::execute(sequential, ctx);
        seq_timer.stop();
        if (!fused_values.is_ok() || !sequential_values.is_ok()) {
            std::cerr << "plan execution failed: "
                      << (fused_values.is_ok()
                              ? sequential_values.status().to_string()
                              : fused_values.status().to_string())
                      << "\n";
            return 2;
        }

        // The fused payload is source-major: slice s must bit-match the
        // s-th single-source node's payload.
        const auto& flat = std::get<std::vector<std::int32_t>>(
            fused_values.value()[0]);
        for (std::size_t s = 0; s < sources.size(); ++s) {
            const auto& single = std::get<std::vector<std::int32_t>>(
                sequential_values.value()[s]);
            const auto offset = s * static_cast<std::size_t>(n);
            if (!std::equal(single.begin(), single.end(),
                            flat.begin() + static_cast<std::ptrdiff_t>(
                                               offset))) {
                std::cerr << "fused slice for source " << sources[s]
                          << " diverged from its single-source run\n";
                return 2;
            }
        }

        if (round >= 0) {
            fused_seconds.push_back(fused_timer.seconds());
            sequential_seconds.push_back(seq_timer.seconds());
        }
    }

    const double fused_total = sum(fused_seconds);
    const double sequential_total = sum(sequential_seconds);
    const double speedup =
        fused_total > 0 ? sequential_total / fused_total : 0;
    std::cout << std::left << std::setw(11) << "Plan" << std::right
              << std::setw(12) << "Total(ms)" << std::setw(12)
              << "Per-src(us)" << "\n";
    const double per_source_divisor =
        static_cast<double>(rounds) * static_cast<double>(num_sources);
    std::cout << std::left << std::setw(11) << "fused" << std::right
              << std::fixed << std::setprecision(3) << std::setw(12)
              << fused_total * 1e3 << std::setw(12)
              << fused_total * 1e6 / per_source_divisor << "\n";
    std::cout << std::left << std::setw(11) << "sequential" << std::right
              << std::setw(12) << sequential_total * 1e3 << std::setw(12)
              << sequential_total * 1e6 / per_source_divisor << "\n";
    std::cout << "speedup: " << std::setprecision(1) << speedup
              << "x (fused over sequential, " << num_sources
              << " sources)\n";

    if (!out_path.empty()) {
        gm::support::EnvFingerprint fingerprint =
            gm::support::collect_fingerprint();
        {
            std::ostringstream scales;
            scales << "scale=" << scale << " degree=" << degree
                   << " sources=" << num_sources << " rounds=" << rounds;
            fingerprint.scales = scales.str();
        }
        gm::perf::Baseline baseline;
        baseline.fingerprint = fingerprint;
        for (const bool is_fused : {true, false}) {
            gm::perf::BaselineCell cell;
            cell.mode = is_fused ? "Fused" : "Sequential";
            cell.framework = "plan";
            cell.kernel = "BFS";
            cell.graph = "uniform";
            cell.verified = true;
            cell.seconds = is_fused ? fused_seconds : sequential_seconds;
            cell.counters["sources"] =
                static_cast<std::uint64_t>(num_sources);
            cell.counters["sweeps"] = static_cast<std::uint64_t>(
                is_fused ? sweeps : num_sources);
            cell.counters["speedup_x1000"] =
                static_cast<std::uint64_t>(speedup * 1000);
            baseline.cells.push_back(std::move(cell));
        }
        if (auto s = gm::perf::save_baseline(out_path, baseline);
            !s.is_ok()) {
            std::cerr << s.to_string() << "\n";
            return 3;
        }
        std::cout << "baseline written to " << out_path << " ("
                  << baseline.cells.size() << " cells)\n";
    }

    if (min_speedup > 0 && speedup < min_speedup) {
        std::cerr << "FAIL: fused speedup " << std::setprecision(1)
                  << speedup << "x below the " << min_speedup
                  << "x gate\n";
        return 4;
    }
    std::cout << "OK: fused multi-source traversal at least "
              << std::setprecision(1) << min_speedup
              << "x faster than sequential single-source plans\n";
    return 0;
}
