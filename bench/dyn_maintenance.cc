/**
 * @file
 * Incremental-maintenance speedup check for gm::dyn.
 *
 * Applies seeded insert-only mutation batches sized at 0.05% of the
 * graph's arcs (well inside the <=0.1% regime the design targets) to a
 * uniform random graph and, each round, times the incremental
 * maintainer update against a from-scratch recompute of the same
 * kernel on the same post-mutation view.  Results are verified every
 * round: CC labels, BFS depths, and SSSP distances must be
 * bit-identical to the full recompute, and delta PageRank must agree
 * within the convergence epsilon (1e-6).
 *
 * The gate: over all measured rounds, sum(full) / sum(incremental)
 * must be at least --min-speedup (default 5) for CC, BFS, and SSSP.
 * PageRank is reported but not gated — on laptop-scale low-diameter
 * graphs the delta frontier decays slowly relative to the graph size,
 * so the production policy legitimately falls back to full recompute
 * there (the fallback is itself the policy under test).
 *
 * Writes a fingerprinted perf-baseline JSONL (--out) with one cell per
 * kernel x {Incremental, Full} that tools/perf_gate can compare across
 * runs; the committed reference lives in
 * perf/baselines/dyn_maintenance.jsonl.
 *
 * Exit codes: 0 ok, 1 usage, 2 correctness violation (result mismatch,
 * or a gated kernel unexpectedly fell back to full recompute),
 * 3 output-file error, 4 speedup below --min-speedup.
 */
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/dyn/incremental.hh"
#include "gm/dyn/overlay.hh"
#include "gm/graph/generators.hh"
#include "gm/par/parallel_for.hh"
#include "gm/perf/baseline.hh"
#include "gm/store/graph_store.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"

namespace
{

using gm::Timer;
using gm::vid_t;

constexpr std::uint64_t kGraphSeed = 7;
constexpr std::uint64_t kWeightSeed = 7;
constexpr vid_t kSource = 0;
constexpr double kPrEpsilon = 1e-6;

void
usage()
{
    std::cout
        << "Usage: dyn_maintenance [options]\n"
        << "  --scale <n>        log2 vertices of the uniform graph\n"
        << "                     (default 13)\n"
        << "  --degree <n>       average degree (default 16)\n"
        << "  --rounds <n>       measured mutation rounds (default 8)\n"
        << "  --min-speedup <x>  gate: incremental must beat full\n"
        << "                     recompute by this factor on CC, BFS,\n"
        << "                     and SSSP (default 5; 0 disables)\n"
        << "  --out <file>       fingerprinted perf-baseline JSONL\n"
        << "  -h, --help         this help\n";
}

/** Insert-only batch of `arcs` fresh seeded pairs (u != v). */
gm::dyn::MutationBatch
insert_batch(vid_t n, std::uint64_t seed, std::uint64_t arcs)
{
    gm::dyn::MutationBatch batch;
    gm::SplitMix64 rng(seed);
    const auto un = static_cast<std::uint64_t>(n);
    for (std::uint64_t i = 0; i < arcs; ++i) {
        const auto u = static_cast<vid_t>(rng.next() % un);
        const auto v = static_cast<vid_t>(
            (static_cast<std::uint64_t>(u) + 1 + rng.next() % (un - 1)) %
            un);
        batch.insert(u, v);
    }
    return batch;
}

/** Timing accumulator for one kernel. */
struct KernelTimes
{
    const char* name;
    bool gated;
    std::vector<double> incremental_seconds;
    std::vector<double> full_seconds;
    int fallbacks = 0;

    double
    sum(const std::vector<double>& v) const
    {
        double total = 0;
        for (double s : v)
            total += s;
        return total;
    }

    double
    speedup() const
    {
        const double inc = sum(incremental_seconds);
        return inc > 0 ? sum(full_seconds) / inc : 0;
    }
};

double
timed(const std::function<void()>& body)
{
    Timer t;
    t.start();
    body();
    t.stop();
    return t.seconds();
}

} // namespace

int
main(int argc, char** argv)
{
    int scale = 13;
    int degree = 16;
    int rounds = 8;
    double min_speedup = 5.0;
    std::string out_path;

    gm::cli::ArgParser parser("dyn_maintenance");
    parser.usage(usage);
    parser.value({"--scale"}, &scale);
    parser.value({"--degree"}, &degree);
    parser.value({"--rounds"}, &rounds);
    parser.value({"--min-speedup"}, &min_speedup);
    parser.value({"--out"}, &out_path);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? 0 : 1;
    if (scale < 8 || degree < 1 || rounds < 1) {
        std::cerr << "invalid --scale/--degree/--rounds\n";
        return 1;
    }

    // Every case below runs on this one lease of every lane.
    gm::par::LaneLease lease(gm::par::num_threads());
    auto store = std::make_shared<gm::store::GraphStore>(
        gm::graph::make_uniform(scale, degree, kGraphSeed), kWeightSeed);
    gm::dyn::DynamicGraph dg(store);
    gm::dyn::GraphView view = dg.view();
    const auto arcs = static_cast<std::uint64_t>(view.num_edges_directed());
    // 0.05% of arcs per batch: half the design ceiling, so the dirty
    // fraction stays clear of the incremental/full policy threshold.
    const std::uint64_t batch_arcs = std::max<std::uint64_t>(1, arcs / 2000);
    std::cout << "graph: uniform 2^" << scale << " (" << view.num_vertices()
              << " vertices, " << arcs << " arcs), batch " << batch_arcs
              << " inserted arcs (" << std::fixed << std::setprecision(4)
              << 100.0 * static_cast<double>(batch_arcs) /
                     static_cast<double>(arcs)
              << "% of arcs), " << rounds << " rounds\n";

    gm::dyn::CCMaintainer cc;
    gm::dyn::BfsMaintainer bfs(kSource);
    gm::dyn::SsspMaintainer sssp(kSource, kWeightSeed);
    gm::dyn::PageRankMaintainer pr;
    cc.rebuild(view);
    bfs.rebuild(view);
    sssp.rebuild(view);
    pr.rebuild(view);

    KernelTimes times[] = {{"CC", true, {}, {}},
                           {"BFS", true, {}, {}},
                           {"SSSP", true, {}, {}},
                           {"PR", false, {}, {}}};
    KernelTimes& cc_t = times[0];
    KernelTimes& bfs_t = times[1];
    KernelTimes& sssp_t = times[2];
    KernelTimes& pr_t = times[3];

    // One untimed warm-up round, then `rounds` measured ones.
    for (int round = -1; round < rounds; ++round) {
        const gm::dyn::MutationBatch batch = insert_batch(
            view.num_vertices(),
            kGraphSeed ^ (static_cast<std::uint64_t>(round + 1) *
                          0x9e3779b97f4a7c15ULL),
            batch_arcs);
        const auto effect = dg.apply(batch);
        if (!effect.is_ok()) {
            std::cerr << "apply failed: " << effect.status().to_string()
                      << "\n";
            return 2;
        }
        view = dg.view();

        bool inc_cc = false, inc_bfs = false, inc_sssp = false,
             inc_pr = false;
        const double cc_inc =
            timed([&] { inc_cc = cc.update(view, *effect); });
        const double bfs_inc =
            timed([&] { inc_bfs = bfs.update(view, *effect); });
        const double sssp_inc =
            timed([&] { inc_sssp = sssp.update(view, *effect); });
        const double pr_inc =
            timed([&] { inc_pr = pr.update(view, *effect); });

        std::vector<vid_t> full_cc, full_bfs;
        std::vector<gm::weight_t> full_sssp;
        std::vector<gm::score_t> full_pr;
        const double cc_full =
            timed([&] { full_cc = gm::dyn::cc_labels(view); });
        const double bfs_full =
            timed([&] { full_bfs = gm::dyn::bfs_depths(view, kSource); });
        const double sssp_full = timed([&] {
            full_sssp = gm::dyn::sssp_dists(view, kSource, kWeightSeed);
        });
        const double pr_full =
            timed([&] { full_pr = gm::dyn::pagerank(view); });

        // Correctness every round, warm-up included.
        if (cc.labels() != full_cc) {
            std::cerr << "CC labels diverged from full recompute\n";
            return 2;
        }
        if (bfs.depths() != full_bfs) {
            std::cerr << "BFS depths diverged from full recompute\n";
            return 2;
        }
        if (sssp.dists() != full_sssp) {
            std::cerr << "SSSP dists diverged from full recompute\n";
            return 2;
        }
        gm::score_t pr_diff = 0;
        for (std::size_t i = 0; i < full_pr.size(); ++i)
            pr_diff = std::max(pr_diff,
                               std::abs(pr.scores()[i] - full_pr[i]));
        if (pr_diff > kPrEpsilon) {
            std::cerr << "PR scores diverged from full recompute (max "
                      << pr_diff << ")\n";
            return 2;
        }
        if (!inc_cc || !inc_bfs || !inc_sssp) {
            std::cerr << "a gated kernel fell back to full recompute "
                         "(cc=" << inc_cc << " bfs=" << inc_bfs
                      << " sssp=" << inc_sssp << "); the batch is too "
                         "large for the policy threshold\n";
            return 2;
        }

        if (round >= 0) {
            cc_t.incremental_seconds.push_back(cc_inc);
            cc_t.full_seconds.push_back(cc_full);
            bfs_t.incremental_seconds.push_back(bfs_inc);
            bfs_t.full_seconds.push_back(bfs_full);
            sssp_t.incremental_seconds.push_back(sssp_inc);
            sssp_t.full_seconds.push_back(sssp_full);
            pr_t.incremental_seconds.push_back(pr_inc);
            pr_t.full_seconds.push_back(pr_full);
            if (!inc_pr)
                ++pr_t.fallbacks;
        }
        dg.compact();
        view = dg.view();
    }

    std::cout << std::left << std::setw(6) << "Kernel" << std::right
              << std::setw(12) << "Incr(ms)" << std::setw(12) << "Full(ms)"
              << std::setw(10) << "Speedup" << std::setw(8) << "Gated"
              << "\n";
    bool gate_ok = true;
    for (const KernelTimes& k : times) {
        const double speedup = k.speedup();
        std::cout << std::left << std::setw(6) << k.name << std::right
                  << std::fixed << std::setprecision(3) << std::setw(12)
                  << k.sum(k.incremental_seconds) * 1e3 << std::setw(12)
                  << k.sum(k.full_seconds) * 1e3 << std::setw(9)
                  << std::setprecision(1) << speedup << "x" << std::setw(7)
                  << (k.gated ? "yes" : "no");
        if (k.fallbacks > 0)
            std::cout << "  (" << k.fallbacks << " policy fallback(s))";
        std::cout << "\n";
        if (k.gated && min_speedup > 0 && speedup < min_speedup)
            gate_ok = false;
    }

    if (!out_path.empty()) {
        gm::support::EnvFingerprint fingerprint =
            gm::support::collect_fingerprint();
        {
            std::ostringstream scales;
            scales << "scale=" << scale << " degree=" << degree
                   << " rounds=" << rounds << " batch_arcs=" << batch_arcs;
            fingerprint.scales = scales.str();
        }
        gm::perf::Baseline baseline;
        baseline.fingerprint = fingerprint;
        for (const KernelTimes& k : times) {
            for (const bool incremental : {true, false}) {
                gm::perf::BaselineCell cell;
                cell.mode = incremental ? "Incremental" : "Full";
                cell.framework = "dyn";
                cell.kernel = k.name;
                cell.graph = "uniform";
                cell.verified = true;
                cell.seconds = incremental ? k.incremental_seconds
                                           : k.full_seconds;
                cell.counters["batch_arcs"] = batch_arcs;
                cell.counters["rounds"] =
                    static_cast<std::uint64_t>(rounds);
                cell.counters["speedup_x1000"] =
                    static_cast<std::uint64_t>(k.speedup() * 1000);
                cell.counters["fallbacks"] =
                    static_cast<std::uint64_t>(k.fallbacks);
                baseline.cells.push_back(std::move(cell));
            }
        }
        if (auto s = gm::perf::save_baseline(out_path, baseline);
            !s.is_ok()) {
            std::cerr << s.to_string() << "\n";
            return 3;
        }
        std::cout << "baseline written to " << out_path << " ("
                  << baseline.cells.size() << " cells)\n";
    }

    if (!gate_ok) {
        std::cerr << "FAIL: incremental speedup below " << min_speedup
                  << "x on a gated kernel\n";
        return 4;
    }
    std::cout << "OK: incremental maintenance at least "
              << std::setprecision(1) << min_speedup
              << "x faster than full recompute on CC/BFS/SSSP\n";
    return 0;
}
