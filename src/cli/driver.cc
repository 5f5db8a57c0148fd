#include "gm/cli/driver.hh"

#include <iomanip>
#include <iostream>
#include <memory>

#include "gm/gapref/verify.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/io.hh"
#include "gm/harness/runner.hh"
#include "gm/obs/metrics.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/status.hh"
#include "gm/support/timer.hh"

namespace gm::cli
{

namespace
{

using support::Status;
using support::StatusCode;
using support::StatusOr;

const harness::Framework*
find_framework(const std::vector<harness::Framework>& frameworks,
               const std::string& name)
{
    static const std::pair<const char*, const char*> aliases[] = {
        {"gap", "GAP"},         {"suitesparse", "SuiteSparse"},
        {"galois", "Galois"},   {"nwgraph", "NWGraph"},
        {"graphit", "GraphIt"}, {"gkc", "GKC"},
    };
    for (const auto& [alias, display] : aliases) {
        if (name == alias || name == display) {
            for (const auto& fw : frameworks)
                if (fw.name == display)
                    return &fw;
        }
    }
    return nullptr;
}

} // namespace

StatusOr<graph::CSRGraph>
build_input_graph(const Options& opts)
{
    switch (opts.source) {
      case GraphSource::kKronecker:
        return graph::make_kronecker(opts.scale, opts.degree, opts.seed);
      case GraphSource::kUniform:
        return graph::make_uniform(opts.scale, opts.degree, opts.seed);
      case GraphSource::kTwitterLike:
        return graph::make_twitter_like(opts.scale, opts.degree, opts.seed);
      case GraphSource::kWebLike:
        return graph::make_web_like(opts.scale, opts.degree, opts.seed);
      case GraphSource::kRoadLike: {
          const vid_t side = static_cast<vid_t>(1)
                             << ((opts.scale + 1) / 2);
          const vid_t cols =
              (static_cast<vid_t>(1) << opts.scale) / side;
          return graph::make_road_like(side, std::max<vid_t>(cols, 1),
                                       opts.seed);
      }
      case GraphSource::kFile: {
          // .gmg binaries carry their own header; anything else is a text
          // edge list.
          if (opts.file_path.size() >= 4 &&
              opts.file_path.substr(opts.file_path.size() - 4) == ".gmg") {
              return graph::load_binary(opts.file_path);
          }
          vid_t n = 0;
          auto edges = graph::read_edge_list(opts.file_path, &n);
          if (!edges.is_ok())
              return edges.status();
          return graph::try_build_graph(*std::move(edges), n,
                                        /*directed=*/!opts.symmetrize);
      }
    }
    return Status(StatusCode::kInvalidInput, "unknown graph source");
}

int
exit_code_for(harness::FailureKind kind)
{
    switch (kind) {
      case harness::FailureKind::kNone:
        return kExitOk;
      case harness::FailureKind::kInvalidInput:
        return kExitInvalidInput;
      case harness::FailureKind::kKernelError:
      case harness::FailureKind::kUnsupported:
        return kExitKernelError;
      case harness::FailureKind::kTimeout:
        return kExitTimeout;
      case harness::FailureKind::kWrongResult:
        return kExitWrongResult;
      case harness::FailureKind::kFaultInjected:
        return kExitFaultInjected;
    }
    return kExitKernelError;
}

int
run_kernel(harness::Kernel kernel, const Options& opts)
{
    Timer timer;
    timer.start();
    // The input is built on one lease of every lane, released before the
    // trials lease their own.
    auto build_lease = std::make_unique<par::LaneLease>(par::num_threads());
    auto built = build_input_graph(opts);
    if (!built.is_ok()) {
        std::cerr << "cannot build input graph: "
                  << built.status().to_string() << "\n";
        return kExitInvalidInput;
    }
    graph::CSRGraph g = *std::move(built);
    if (opts.symmetrize && g.is_directed()) {
        graph::EdgeList edges;
        for (vid_t v = 0; v < g.num_vertices(); ++v)
            for (vid_t u : g.out_neigh(v))
                edges.push_back({v, u});
        g = graph::build_graph(edges, g.num_vertices(), false);
    }
    auto made = harness::try_make_dataset(
        "cli", std::move(g), std::max(opts.trials * 4, 8), opts.seed + 1);
    if (!made.is_ok()) {
        std::cerr << "cannot build dataset: " << made.status().to_string()
                  << "\n";
        return exit_code_for(
            harness::failure_kind_from_status(made.status().code()));
    }
    harness::Dataset ds = *std::move(made);
    ds.delta = opts.delta;
    build_lease.reset();
    timer.stop();
    std::cout << "Graph: " << ds.g().num_vertices() << " vertices, "
              << ds.g().num_edges_directed() << " (directed) edges, built in "
              << std::fixed << std::setprecision(3) << timer.seconds()
              << " s\n";

    const auto frameworks = harness::make_frameworks();
    const harness::Framework* fw =
        find_framework(frameworks, opts.framework);
    if (fw == nullptr) {
        std::cerr << "unknown framework: " << opts.framework << "\n";
        return kExitInvalidInput;
    }
    const harness::Mode mode = opts.optimized ? harness::Mode::kOptimized
                                              : harness::Mode::kBaseline;
    std::cout << "Framework: " << fw->name << " ("
              << harness::to_string(mode) << " rules)\n";

    // GAPBS-style per-trial reporting; the harness rotates the sources.
    harness::RunOptions run_opts;
    run_opts.trials = 1;
    run_opts.verify = opts.verify;
    run_opts.trial_timeout_ms = opts.trial_timeout_ms;
    run_opts.max_attempts = opts.max_attempts;
    run_opts.trace_dir = opts.trace_dir;
    run_opts.metrics_path = opts.metrics_path;
    if (!run_opts.metrics_path.empty()) {
        support::EnvFingerprint fp = support::collect_fingerprint();
        fp.scales = "scale=" + std::to_string(opts.scale) +
                    " trials=" + std::to_string(opts.trials);
        if (auto s = support::append_jsonl(
                run_opts.metrics_path, support::fingerprint_record_line(fp));
            !s.is_ok())
            std::cerr << s.to_string() << "\n";
    }
    double total = 0;
    bool all_verified = true;
    harness::FailureKind failure = harness::FailureKind::kNone;
    obs::TrialMetrics last_metrics;
    for (int trial = 0; trial < opts.trials; ++trial) {
        // Rotate sources by rotating the dataset's source list.
        std::rotate(ds.sources.begin(), ds.sources.begin() + 1,
                    ds.sources.end());
        const harness::CellResult cell =
            harness::run_cell(ds, *fw, kernel, mode, run_opts);
        if (cell.failure != harness::FailureKind::kNone) {
            std::cerr << "Trial DNF:    "
                      << harness::to_string(cell.failure)
                      << (cell.failure_message.empty()
                              ? ""
                              : " (" + cell.failure_message + ")")
                      << "\n";
            failure = cell.failure;
            break;
        }
        std::cout << "Trial Time:   " << std::setprecision(5)
                  << cell.avg_seconds << "\n";
        total += cell.avg_seconds;
        all_verified &= cell.verified;
        last_metrics = cell.metrics;
    }
    if (failure != harness::FailureKind::kNone)
        return exit_code_for(failure);
    std::cout << "Average Time: " << total / opts.trials << "\n";
    if (!last_metrics.empty()) {
        std::cout << "Workload:     iterations="
                  << last_metrics.counter_or("iterations")
                  << " edges_traversed="
                  << last_metrics.counter_or("edges_traversed")
                  << " frontier_peak="
                  << last_metrics.counter_or("frontier_peak")
                  << " parallel_efficiency=" << std::setprecision(3)
                  << last_metrics.parallel_efficiency << "\n";
    }
    // Only the forms this kernel touched were ever built (lazy store).
    std::cout << "Graph Memory: " << ds.bytes_resident()
              << " bytes of graph artifacts resident\n";
    if (opts.verify) {
        std::cout << "Verification: " << (all_verified ? "PASS" : "FAIL")
                  << "\n";
    }
    return all_verified ? kExitOk : kExitWrongResult;
}

int
kernel_main(harness::Kernel kernel, const std::string& name, int argc,
            char** argv)
{
    const std::optional<Options> opts = parse_options(argc, argv, name);
    if (!opts.has_value())
        return kExitUsage;
    return run_kernel(kernel, *opts);
}

} // namespace gm::cli
