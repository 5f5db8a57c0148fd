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
 * Direction-optimizing breadth-first search (Beamer et al.).  Forwards to
 * the shared graph::direction_optimizing_bfs.
 *
 * @return Parent array: parent[source] == source, kInvalidVid if unreached.
 */
std::vector<vid_t> bfs(const CSRGraph& graph, vid_t source);

/**
 * Delta-stepping SSSP with bucket fusion.  Forwards to the shared
 * graph::delta_stepping with BucketDrain::kFused.
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
 * Approximate betweenness centrality (Brandes) from @p sources, with
 * successor bitmaps; scores are normalized by the largest score, matching
 * GAPBS.  Forwards to the shared graph::brandes_betweenness.
 */
std::vector<score_t> bc(const CSRGraph& graph,
                        const std::vector<vid_t>& sources);

/**
 * Order-invariant triangle counting; relabels by degree first when the
 * sampling heuristic (graph::worth_relabeling_by_degree) says the graph
 * is skewed enough to repay it.  The input must be undirected.  Forwards
 * to the shared graph::triangle_count.
 */
std::uint64_t tc(const CSRGraph& graph);

/** Triangle counting without the relabel heuristic (ablation hook). */
std::uint64_t tc_no_relabel(const CSRGraph& graph);

} // namespace gm::gapref
