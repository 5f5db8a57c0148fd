/**
 * @file
 * Quickstart: build a graph from an edge list, run the six GAP kernels
 * through the reference implementations, and verify every result.
 *
 *   ./quickstart            # uses a small built-in Kronecker graph
 *   ./quickstart my.el      # or load a "u v" edge list from disk
 */
#include <algorithm>
#include <iostream>

#include "gm/gapref/kernels.hh"
#include "gm/gapref/verify.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graph/io.hh"
#include "gm/graph/stats.hh"
#include "gm/par/parallel_for.hh"

int
main(int argc, char** argv)
{
    using namespace gm;
    // Parallel primitives run on the lanes of a held lease; without one
    // they run serially on this thread.
    par::LaneLease lease(par::num_threads());

    // 1. Get a graph: from a file, or generate a small power-law one.
    graph::CSRGraph g;
    if (argc > 1) {
        vid_t n = 0;
        auto edges = graph::read_edge_list(argv[1], &n);
        if (!edges.is_ok()) {
            std::cerr << "cannot read " << argv[1] << ": "
                      << edges.status().to_string() << "\n";
            return 2;
        }
        g = graph::build_graph(*std::move(edges), n, /*directed=*/false);
        std::cout << "loaded " << argv[1] << ": ";
    } else {
        g = graph::make_kronecker(/*scale=*/12, /*degree=*/16, /*seed=*/42);
        std::cout << "generated Kronecker graph: ";
    }
    std::cout << g.num_vertices() << " vertices, " << g.num_edges()
              << " edges, approx diameter " << graph::approx_diameter(g)
              << "\n\n";

    const vid_t source = 0;
    std::string err;

    // 2. BFS: parent tree from the source.
    const auto parent = gapref::bfs(g, source);
    std::size_t reached = 0;
    for (vid_t p : parent)
        reached += p != kInvalidVid;
    std::cout << "BFS   reached " << reached << " vertices; verified="
              << gapref::verify_bfs(g, source, parent, &err) << "\n";

    // 3. SSSP: weighted shortest paths (weights attached on the fly).
    const graph::WCSRGraph wg = graph::add_weights(g, 7);
    const auto dist = gapref::sssp(wg, source, /*delta=*/64);
    std::cout << "SSSP  dist[last reachable sample] verified="
              << gapref::verify_sssp(wg, source, dist, &err) << "\n";

    // 4. PageRank.
    const auto scores = gapref::pagerank(g);
    vid_t top = 0;
    for (vid_t v = 1; v < g.num_vertices(); ++v)
        if (scores[v] > scores[top])
            top = v;
    std::cout << "PR    top vertex " << top << " (score " << scores[top]
              << "); verified="
              << gapref::verify_pagerank(g, scores, 0.85, 1e-4, &err)
              << "\n";

    // 5. Connected components.
    const auto comp = gapref::cc_afforest(g);
    std::vector<vid_t> labels(comp.begin(), comp.end());
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    std::cout << "CC    " << labels.size() << " components; verified="
              << gapref::verify_cc(g, comp, &err) << "\n";

    // 6. Betweenness centrality on four roots.
    const std::vector<vid_t> roots = {0, 1, 2, 3};
    const auto bc = gapref::bc(g, roots);
    std::cout << "BC    verified="
              << gapref::verify_bc(g, roots, bc, &err) << "\n";

    // 7. Triangle counting (undirected input).
    const std::uint64_t triangles = gapref::tc(g);
    std::cout << "TC    " << triangles << " triangles; verified="
              << gapref::verify_tc(g, triangles, &err) << "\n";

    return 0;
}
