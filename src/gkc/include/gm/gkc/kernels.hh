/**
 * @file
 * Graph Kernel Collection analogue: hand-tuned black-box kernels.
 *
 * Per the paper (Table III and Section V): direction-optimizing BFS with
 * thread-local frontier buffers, delta-stepping SSSP, a hybrid
 * Shiloach–Vishkin connected components (edge-centric hook + full compress;
 * the variant that beats Afforest on Urand), Gauss–Seidel PageRank, Brandes
 * BC, and Lee–Low-style triangle counting with heuristic degree relabeling
 * and an unrolled branch-light set intersection (the portable stand-in for
 * GKC's SIMD intersection).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gm/graph/csr.hh"

namespace gm::gkc
{

using graph::CSRGraph;
using graph::WCSRGraph;

/** Direction-optimizing BFS with local flush buffers. */
std::vector<vid_t> bfs(const CSRGraph& graph, vid_t source);

/** Delta-stepping SSSP (round-synchronous; no bucket fusion). */
std::vector<weight_t> sssp(const WCSRGraph& graph, vid_t source,
                           weight_t delta);

/** Hybrid Shiloach–Vishkin connected components. */
std::vector<vid_t> cc_sv(const CSRGraph& graph);

/** Blocked Gauss–Seidel PageRank (forwards to the shared
 *  graph::pagerank_gauss_seidel). */
std::vector<score_t> pagerank(const CSRGraph& graph, double damping = 0.85,
                              double tolerance = 1e-4, int max_iters = 100);

/** Brandes betweenness centrality with per-edge successor bits. */
std::vector<score_t> bc(const CSRGraph& graph,
                        const std::vector<vid_t>& sources);

/** Lee–Low triangle counting: heuristic relabel + unrolled merge
 *  intersection with high cache reuse. */
std::uint64_t tc(const CSRGraph& graph);

/** The unrolled intersection itself, exposed for tests and ablations:
 *  |a ∩ b| over sorted ranges. */
std::uint64_t intersect_sorted(const vid_t* a, std::size_t na,
                               const vid_t* b, std::size_t nb);

} // namespace gm::gkc
