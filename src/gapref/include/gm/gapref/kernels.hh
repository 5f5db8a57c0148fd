/**
 * @file
 * GAP Benchmark Suite reference kernels.
 *
 * These are faithful ports of the GAPBS reference implementations the paper
 * uses as its baseline: direction-optimizing BFS, delta-stepping SSSP with
 * the bucket-fusion optimization (which the paper notes was upstreamed from
 * GraphIt), PageRank via Jacobi SpMV, Afforest connected components, Brandes
 * betweenness centrality with successor bitmaps, and order-invariant
 * triangle counting with a heuristic-controlled relabel.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gm/graph/csr.hh"

namespace gm::gapref
{

using graph::CSRGraph;
using graph::WCSRGraph;

/**
 * Direction-optimizing breadth-first search (Beamer et al.).
 *
 * @return Parent array: parent[source] == source, kInvalidVid if unreached.
 * @param alpha Top-down -> bottom-up switch factor (default per GAPBS).
 * @param beta  Bottom-up -> top-down switch factor.
 */
std::vector<vid_t> bfs(const CSRGraph& graph, vid_t source, int alpha = 15,
                       int beta = 18);

/**
 * Delta-stepping SSSP with bucket fusion.
 *
 * @param delta Bucket width; GAP allows tuning this per graph.
 * @return Distance array; kInfWeight when unreachable.
 */
std::vector<weight_t> sssp(const WCSRGraph& graph, vid_t source,
                           weight_t delta);

/**
 * PageRank via Jacobi-style SpMV (pull over incoming edges).
 *
 * @param damping   Damping factor (0.85 per GAP).
 * @param tolerance L1 convergence threshold (1e-4 per GAP).
 * @param max_iters Iteration cap (20 per GAPBS defaults).
 */
std::vector<score_t> pagerank(const CSRGraph& graph, double damping = 0.85,
                              double tolerance = 1e-4, int max_iters = 20);

/**
 * Afforest connected components (Sutton et al.): subgraph sampling +
 * skipping the largest intermediate component.  Computes weakly connected
 * components on directed graphs.  Forwards to the shared graph::afforest.
 */
std::vector<vid_t> cc_afforest(const CSRGraph& graph);

/**
 * Approximate betweenness centrality (Brandes), @p num_sources roots.
 * Scores are normalized by the largest score, matching GAPBS.
 */
std::vector<score_t> bc(const CSRGraph& graph,
                        const std::vector<vid_t>& sources);

/**
 * Order-invariant triangle counting; relabels by degree first when the
 * sampling heuristic says the graph is skewed enough to repay it.
 * The input must be undirected.
 */
std::uint64_t tc(const CSRGraph& graph);

/** The relabel heuristic used by tc(); exposed for tests/ablations. */
bool tc_worth_relabeling(const CSRGraph& graph, std::uint64_t seed = 10);

/** Triangle counting without the relabel heuristic (ablation hook). */
std::uint64_t tc_no_relabel(const CSRGraph& graph);

} // namespace gm::gapref
