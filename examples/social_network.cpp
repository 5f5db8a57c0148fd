/**
 * @file
 * Social-network analysis — the workload class the paper's Twitter graph
 * represents.  Generates a follow graph, then answers product-style
 * questions with different frameworks, showing that the choice of
 * framework is an implementation detail behind one analysis:
 *
 *   - Who are the most influential accounts?        (PageRank, Galois-style
 *     Gauss-Seidel — the PR winner in the paper)
 *   - How clustered is the community?               (triangle counting via
 *     GKC-style kernels — the TC winner)
 *   - Which accounts broker information flow?       (betweenness via the
 *     GraphIt-style schedule-driven kernel)
 *   - Is the network one connected community?       (FastSV on the
 *     GraphBLAS analogue)
 */
#include <algorithm>
#include <iostream>

#include "gm/galoislite/kernels.hh"
#include "gm/gkc/kernels.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/graphitlite/kernels.hh"
#include "gm/grb/lagraph.hh"
#include "gm/par/parallel_for.hh"

int
main()
{
    using namespace gm;
    par::LaneLease lease(par::num_threads());

    const graph::CSRGraph follows =
        graph::make_twitter_like(/*scale=*/13, /*degree=*/16, /*seed=*/99);
    std::cout << "follow graph: " << follows.num_vertices() << " accounts, "
              << follows.num_edges() << " follow edges\n\n";

    // Influence: PageRank over the follow graph.
    const auto rank = galoislite::pagerank_gauss_seidel(follows);
    std::vector<vid_t> order(follows.num_vertices());
    for (vid_t v = 0; v < follows.num_vertices(); ++v)
        order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](vid_t a, vid_t b) { return rank[a] > rank[b]; });
    std::cout << "top influencers (PageRank):\n";
    for (int i = 0; i < 5; ++i) {
        std::cout << "  account " << order[i] << "  score "
                  << rank[order[i]] << "  followers "
                  << follows.in_degree(order[i]) << "\n";
    }

    // Clustering: symmetrize the follow graph, count triangles.
    graph::EdgeList mutual;
    for (vid_t v = 0; v < follows.num_vertices(); ++v)
        for (vid_t u : follows.out_neigh(v))
            mutual.push_back({v, u});
    const graph::CSRGraph contacts =
        graph::build_graph(mutual, follows.num_vertices(), false);
    const std::uint64_t triangles = gkc::tc(contacts);
    // Wedges = sum over v of C(deg(v), 2); global clustering coefficient.
    double wedges = 0;
    for (vid_t v = 0; v < contacts.num_vertices(); ++v) {
        const double d = static_cast<double>(contacts.out_degree(v));
        wedges += d * (d - 1) / 2;
    }
    std::cout << "\ncommunity structure: " << triangles << " triangles, "
              << "global clustering coefficient "
              << (wedges > 0 ? 3.0 * triangles / wedges : 0.0) << "\n";

    // Brokers: betweenness from a handful of seed accounts.
    const std::vector<vid_t> seeds = {order[0], order[1], order[2],
                                      order[3]};
    graphitlite::Schedule sched; // default schedule
    const auto between = graphitlite::bc(follows, seeds, sched);
    vid_t broker = 0;
    for (vid_t v = 1; v < follows.num_vertices(); ++v)
        if (between[v] > between[broker])
            broker = v;
    std::cout << "top broker (BC from " << seeds.size()
              << " seeds): account " << broker << " (score "
              << between[broker] << ")\n";

    // Reachability: weak components over the follow graph via FastSV.
    grb::lagraph::GrbGraph gg = grb::lagraph::make_grb_graph(follows);
    const auto comp = grb::lagraph::cc_fastsv(gg);
    std::vector<vid_t> labels(comp.begin(), comp.end());
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    std::size_t giant = 0;
    for (vid_t label : labels) {
        const std::size_t size = static_cast<std::size_t>(
            std::count(comp.begin(), comp.end(), label));
        giant = std::max(giant, size);
    }
    std::cout << "\nconnectivity: " << labels.size()
              << " weak components; giant component covers "
              << 100.0 * static_cast<double>(giant) /
                     follows.num_vertices()
              << "% of accounts\n";
    return 0;
}
