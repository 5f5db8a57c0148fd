/**
 * @file
 * Road-network routing — the workload class the paper's Road graph
 * represents, and the topology that separates the frameworks the most.
 *
 * Generates a road grid, computes shortest-path routes with delta-stepping,
 * shows how the delta parameter (the one knob GAP lets Baseline runs tune
 * per graph) changes the round count and runtime, and demonstrates the
 * asynchronous Galois-style SSSP that the paper highlights for
 * high-diameter graphs.
 */
#include <iomanip>
#include <iostream>

#include "gm/galoislite/kernels.hh"
#include "gm/gapref/kernels.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/stats.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/timer.hh"

int
main()
{
    using namespace gm;
    par::LaneLease lease(par::num_threads());

    const vid_t rows = 160;
    const vid_t cols = 160;
    const graph::CSRGraph roads = graph::make_road_like(rows, cols, 5);
    const graph::WCSRGraph weighted = graph::add_weights(roads, 11);
    std::cout << "road network: " << roads.num_vertices()
              << " intersections, " << roads.num_edges_directed()
              << " road segments, approx diameter "
              << graph::approx_diameter(roads) << " hops\n\n";

    const vid_t depot = 0;

    // Route lengths from the depot at different delta settings.
    std::cout << "delta-stepping sensitivity (GAP reference kernel):\n";
    std::vector<weight_t> dist;
    for (weight_t delta : {1, 8, 32, 128, 1024}) {
        Timer t;
        t.start();
        dist = gapref::sssp(weighted, depot, delta);
        t.stop();
        std::cout << "  delta " << std::setw(5) << delta << ": "
                  << std::fixed << std::setprecision(4) << t.seconds()
                  << " s\n";
    }

    // A few representative routes.
    std::cout << "\nsample routes from the depot (corner):\n";
    const vid_t far_corner = rows * cols - 1;
    const vid_t mid = (rows / 2) * cols + cols / 2;
    for (vid_t dest : {mid, far_corner}) {
        if (dist[dest] >= kInfWeight)
            std::cout << "  -> intersection " << dest << ": unreachable\n";
        else
            std::cout << "  -> intersection " << dest << ": cost "
                      << dist[dest] << "\n";
    }

    // Asynchronous execution: the Galois trick for high-diameter graphs.
    std::cout << "\nbulk-synchronous vs asynchronous execution:\n";
    Timer t;
    t.start();
    const auto d_sync = galoislite::sssp_sync(weighted, depot, 32);
    t.stop();
    const double sync_s = t.seconds();
    t.start();
    const auto d_async = galoislite::sssp_async(weighted, depot, 32);
    t.stop();
    std::cout << "  bulk-sync  " << std::fixed << std::setprecision(4)
              << sync_s << " s\n  async      " << t.seconds() << " s\n";
    std::cout << "  results identical: " << (d_sync == d_async ? "yes" : "no")
              << "\n";
    return 0;
}
