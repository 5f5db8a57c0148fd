/**
 * gm::dyn tests: overlay semantics, the rebuild-from-scratch oracle
 * (random batched insert/delete interleavings must compact to exactly the
 * CSR graph::build_graph would produce from the surviving edge set),
 * cross-width determinism of compaction and incremental maintenance at
 * lease widths {1, 2, 5, 8}, incremental-vs-full equivalence (CC/BFS/SSSP
 * bit-identical, delta PageRank within convergence epsilon), and the
 * store-side generation lifecycle (identity stability, retired-generation
 * byte accounting tied to outstanding views).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "gm/dyn/incremental.hh"
#include "gm/dyn/overlay.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/hash.hh"
#include "gm/support/rng.hh"

namespace gm
{
namespace
{

using dyn::BatchEffect;
using dyn::DynamicGraph;
using dyn::GraphView;
using dyn::MutationBatch;

std::uint64_t
structure_hash(const graph::CSRGraph& g)
{
    support::Fnv1a h;
    h.update_value(g.num_vertices());
    h.update_value(g.is_directed());
    h.update_vector(g.out_offsets());
    h.update_vector(g.out_destinations());
    if (g.is_directed()) {
        h.update_vector(g.in_offsets());
        h.update_vector(g.in_destinations());
    }
    return h.digest();
}

/** Logical edge set shadowing a DynamicGraph: canonical (min,max) pairs
 *  for undirected graphs, raw arcs for directed ones. */
class ShadowEdges
{
  public:
    ShadowEdges(const graph::CSRGraph& g) : directed_(g.is_directed())
    {
        for (vid_t v = 0; v < g.num_vertices(); ++v)
            for (vid_t t : g.out_neigh(v))
                if (directed_ || v < t)
                    edges_.insert({v, t});
    }

    void
    insert(vid_t u, vid_t v)
    {
        if (u == v)
            return;
        edges_.insert(canon(u, v));
    }

    void
    erase(vid_t u, vid_t v)
    {
        if (u == v)
            return;
        edges_.erase(canon(u, v));
    }

    graph::CSRGraph
    rebuild(vid_t n) const
    {
        graph::EdgeList list;
        list.reserve(edges_.size());
        for (const auto& [u, v] : edges_)
            list.push_back({u, v});
        return graph::build_graph(list, n, directed_);
    }

  private:
    std::pair<vid_t, vid_t>
    canon(vid_t u, vid_t v) const
    {
        if (directed_)
            return {u, v};
        return {std::min(u, v), std::max(u, v)};
    }

    bool directed_;
    std::set<std::pair<vid_t, vid_t>> edges_;
};

/** Deterministic mutation script: @p rounds batches of mixed ops. */
MutationBatch
script_batch(vid_t n, int round, std::uint64_t seed, int ops)
{
    SplitMix64 mix(seed + static_cast<std::uint64_t>(round) * 7919);
    MutationBatch batch;
    for (int i = 0; i < ops; ++i) {
        const vid_t u = static_cast<vid_t>(mix.next() % n);
        const vid_t v = static_cast<vid_t>(mix.next() % n);
        if (mix.next() % 3 != 0)
            batch.insert(u, v);
        else
            batch.erase(u, v);
    }
    return batch;
}

std::shared_ptr<store::GraphStore>
make_store(graph::CSRGraph g, std::uint64_t weight_seed = 42)
{
    return std::make_shared<store::GraphStore>(std::move(g), weight_seed);
}

TEST(DynOverlay, InsertDeleteDedupeSemantics)
{
    par::LaneLease lease(par::num_threads());
    // Path 0-1-2 plus edge 2-3, undirected.
    graph::EdgeList edges{{0, 1}, {1, 2}, {2, 3}};
    auto store = make_store(graph::build_graph(edges, 4, false));
    DynamicGraph dg(store);

    MutationBatch batch;
    batch.insert(0, 1); // already present: no-op
    batch.insert(0, 2); // new edge
    batch.insert(2, 0); // duplicate of the same logical edge: no-op
    batch.insert(3, 3); // self loop: ignored
    batch.erase(1, 2);  // tombstones a base edge
    batch.erase(0, 3);  // absent: no-op
    auto effect = dg.apply(batch);
    ASSERT_TRUE(effect.status().is_ok());
    EXPECT_EQ(effect.value().inserted_arcs, 2); // 0-2 both directions
    EXPECT_EQ(effect.value().deleted_arcs, 2);  // 1-2 both directions
    EXPECT_EQ(effect.value().dirty, (std::vector<vid_t>{0, 1, 2}));

    const GraphView view = dg.view();
    EXPECT_TRUE(view.has_out_edge(0, 2));
    EXPECT_TRUE(view.has_out_edge(2, 0));
    EXPECT_FALSE(view.has_out_edge(1, 2));
    EXPECT_EQ(view.out_degree(0), 2);
    EXPECT_EQ(view.out_degree(1), 1);
    EXPECT_EQ(view.num_edges_directed(), store->base().num_edges_directed());

    // Merged iteration yields ascending targets.
    std::vector<vid_t> row;
    view.for_out(0, [&](vid_t t) { row.push_back(t); });
    EXPECT_EQ(row, (std::vector<vid_t>{1, 2}));

    // Deleting a buffered insert cancels it; re-inserting a tombstoned
    // base edge resurrects it.
    MutationBatch second;
    second.erase(0, 2);
    second.insert(1, 2);
    effect = dg.apply(second);
    ASSERT_TRUE(effect.status().is_ok());
    const GraphView after = dg.view();
    EXPECT_FALSE(after.has_out_edge(0, 2));
    EXPECT_TRUE(after.has_out_edge(1, 2));
    EXPECT_EQ(dg.pending_entries(), 0u); // everything cancelled out
}

TEST(DynOverlay, OutOfRangeEndpointRejectsWholeBatch)
{
    par::LaneLease lease(par::num_threads());
    auto store = make_store(graph::build_graph({{0, 1}}, 2, false));
    DynamicGraph dg(store);
    MutationBatch batch;
    batch.insert(0, 1);
    batch.insert(1, 7);
    const auto effect = dg.apply(batch);
    EXPECT_EQ(effect.status().code(), support::StatusCode::kInvalidInput);
    EXPECT_EQ(dg.pending_entries(), 0u);
}

TEST(DynOverlay, CompactIsNoopWhenClean)
{
    par::LaneLease lease(par::num_threads());
    auto store = make_store(graph::make_uniform(8, 4, 1));
    DynamicGraph dg(store);
    EXPECT_EQ(dg.compact(), 0u);
    EXPECT_EQ(store->generation(), 0u);
}

struct Topology
{
    const char* name;
    graph::CSRGraph graph;
};

std::vector<Topology>
topologies()
{
    std::vector<Topology> out;
    out.push_back({"uniform", graph::make_uniform(9, 6, 11)});
    out.push_back({"twitter", graph::make_twitter_like(9, 6, 12)});
    out.push_back({"road", graph::make_road_like(20, 25, 13)});
    return out;
}

TEST(DynOracle, RandomInterleavingsMatchRebuildFromScratch)
{
    par::LaneLease lease(par::num_threads());
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        ShadowEdges shadow(topo.graph);
        auto store = make_store(topo.graph);
        DynamicGraph dg(store);
        for (int round = 0; round < 10; ++round) {
            const MutationBatch batch = script_batch(n, round, 0xabcd, 24);
            ASSERT_TRUE(dg.apply(batch).status().is_ok()) << topo.name;
            for (const graph::Edge& e : batch.inserts)
                shadow.insert(e.u, e.v);
            for (const graph::Edge& e : batch.deletes)
                shadow.erase(e.u, e.v);
            // Compact on a stride so some rounds stack deltas on deltas.
            if (round % 3 == 2) {
                dg.compact();
                EXPECT_EQ(structure_hash(store->base()),
                          structure_hash(shadow.rebuild(n)))
                    << topo.name << " round " << round;
            }
        }
        dg.compact();
        EXPECT_EQ(structure_hash(store->base()),
                  structure_hash(shadow.rebuild(n)))
            << topo.name << " final";
    }
}

/** Run @p compute under lease widths {1, 2, 5, 8}; all must agree. */
void
expect_width_invariant(const std::function<std::uint64_t()>& compute)
{
    const std::uint64_t reference = [&] {
        par::LaneLease lease(1);
        return compute();
    }();
    for (const int w : {2, 5, 8}) {
        par::LaneLease lease(w);
        EXPECT_EQ(compute(), reference) << "width " << w;
    }
}

TEST(DynDeterminism, CompactionAndMaintenanceAreWidthInvariant)
{
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        const auto run = [&]() -> std::uint64_t {
            auto store = make_store(topo.graph);
            DynamicGraph dg(store);
            dyn::CCMaintainer cc;
            dyn::PageRankMaintainer pr;
            cc.rebuild(dg.view());
            pr.rebuild(dg.view());
            support::Fnv1a h;
            for (int round = 0; round < 4; ++round) {
                const auto effect =
                    dg.apply(script_batch(n, round, 0x5eed, 12));
                cc.update(dg.view(), effect.value());
                pr.update(dg.view(), effect.value());
                dg.compact();
                h.update_value(structure_hash(store->base()));
            }
            h.update_vector(cc.labels());
            for (const score_t s : pr.scores())
                h.update_value(s);
            h.update_vector(dyn::bfs_depths(dg.view(), 0));
            h.update_vector(dyn::sssp_dists(dg.view(), 0, 42));
            return h.digest();
        };
        expect_width_invariant(run);
    }
}

TEST(DynIncremental, InsertOnlyRepairMatchesFullRecomputeBitwise)
{
    par::LaneLease lease(par::num_threads());
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        auto store = make_store(topo.graph);
        DynamicGraph dg(store);
        const vid_t source = 1;
        dyn::CCMaintainer cc;
        dyn::BfsMaintainer bfs(source);
        dyn::SsspMaintainer sssp(source, 42);
        cc.rebuild(dg.view());
        bfs.rebuild(dg.view());
        sssp.rebuild(dg.view());

        SplitMix64 mix(99);
        for (int round = 0; round < 6; ++round) {
            MutationBatch batch;
            for (int i = 0; i < 10; ++i) {
                batch.insert(static_cast<vid_t>(mix.next() % n),
                             static_cast<vid_t>(mix.next() % n));
            }
            const auto effect = dg.apply(batch);
            ASSERT_TRUE(effect.status().is_ok());
            EXPECT_TRUE(cc.update(dg.view(), effect.value()));
            EXPECT_TRUE(bfs.update(dg.view(), effect.value()));
            EXPECT_TRUE(sssp.update(dg.view(), effect.value()));

            EXPECT_EQ(cc.labels(), dyn::cc_labels(dg.view()))
                << topo.name << " round " << round;
            EXPECT_EQ(bfs.depths(), dyn::bfs_depths(dg.view(), source))
                << topo.name << " round " << round;
            EXPECT_EQ(sssp.dists(), dyn::sssp_dists(dg.view(), source, 42))
                << topo.name << " round " << round;
        }
        EXPECT_EQ(cc.stats().incremental, 6u);
        EXPECT_EQ(cc.stats().full, 0u);
    }
}

TEST(DynIncremental, DeletesFallBackToFullAndStayCorrect)
{
    par::LaneLease lease(par::num_threads());
    auto store = make_store(graph::make_uniform(9, 6, 21));
    const vid_t n = store->base().num_vertices();
    DynamicGraph dg(store);
    const vid_t source = 1;
    dyn::CCMaintainer cc;
    dyn::BfsMaintainer bfs(source);
    dyn::SsspMaintainer sssp(source, 42);
    cc.rebuild(dg.view());
    bfs.rebuild(dg.view());
    sssp.rebuild(dg.view());

    SplitMix64 mix(0xdead);
    for (int round = 0; round < 4; ++round) {
        // Half the rounds delete real edges so the fallback path fires.
        MutationBatch batch;
        for (int i = 0; i < 8; ++i) {
            batch.insert(static_cast<vid_t>(mix.next() % n),
                         static_cast<vid_t>(mix.next() % n));
        }
        if (round % 2 == 1) {
            const GraphView view = dg.view();
            for (int i = 0; i < 3; ++i) {
                const vid_t u = static_cast<vid_t>(mix.next() % n);
                view.for_out(u, [&](vid_t t) {
                    if (batch.deletes.empty() || batch.deletes.back().u != u)
                        batch.erase(u, t);
                });
            }
        }
        const auto effect = dg.apply(batch);
        ASSERT_TRUE(effect.status().is_ok());
        const bool had_deletes = effect.value().has_deletes();
        const bool cc_inc = cc.update(dg.view(), effect.value());
        bfs.update(dg.view(), effect.value());
        sssp.update(dg.view(), effect.value());
        if (had_deletes) {
            EXPECT_FALSE(cc_inc);
        }
        EXPECT_EQ(cc.labels(), dyn::cc_labels(dg.view())) << round;
        EXPECT_EQ(bfs.depths(), dyn::bfs_depths(dg.view(), source)) << round;
        EXPECT_EQ(sssp.dists(), dyn::sssp_dists(dg.view(), source, 42))
            << round;
    }
    EXPECT_GT(cc.stats().full, 0u);
    EXPECT_GT(cc.stats().incremental, 0u);
}

TEST(DynIncremental, DeltaPageRankStaysWithinConvergenceEpsilon)
{
    par::LaneLease lease(par::num_threads());
    for (auto& topo : topologies()) {
        const vid_t n = topo.graph.num_vertices();
        auto store = make_store(topo.graph);
        DynamicGraph dg(store);
        // These laptop-scale graphs have tiny decay horizons relative to
        // their size, so the production policy would (correctly) fall
        // back to full recompute; disable it to pin the incremental math.
        dyn::PageRankMaintainer pr({}, {.full_threshold = 1.0});
        pr.rebuild(dg.view());

        for (int round = 0; round < 5; ++round) {
            const auto effect = dg.apply(script_batch(n, round, 0xfeed, 12));
            ASSERT_TRUE(effect.status().is_ok());
            pr.update(dg.view(), effect.value());
            const std::vector<score_t> full = dyn::pagerank(dg.view());
            ASSERT_EQ(pr.scores().size(), full.size());
            score_t max_diff = 0;
            for (std::size_t i = 0; i < full.size(); ++i) {
                max_diff = std::max(max_diff,
                                    std::abs(pr.scores()[i] - full[i]));
            }
            EXPECT_LT(max_diff, 1e-6) << topo.name << " round " << round;
        }
        EXPECT_GT(pr.stats().incremental, 0u);
    }
}

TEST(DynGenerations, IdentityStableWhileFingerprintTracksGenerations)
{
    par::LaneLease lease(par::num_threads());
    auto store = make_store(graph::make_uniform(8, 4, 31));
    const std::uint64_t id0 = store->identity();
    EXPECT_EQ(store->fingerprint(), id0);

    DynamicGraph dg(store);
    MutationBatch batch;
    batch.insert(0, 5);
    batch.insert(1, 7);
    ASSERT_TRUE(dg.apply(batch).status().is_ok());
    EXPECT_EQ(dg.compact(), 1u);
    EXPECT_EQ(store->generation(), 1u);
    EXPECT_EQ(store->identity(), id0);
    EXPECT_NE(store->fingerprint(), id0);
}

TEST(DynGenerations, RetiredGenerationBytesFollowOutstandingViews)
{
    par::LaneLease lease(par::num_threads());
    auto store = make_store(graph::make_uniform(8, 4, 33));
    DynamicGraph dg(store);
    const std::size_t clean_bytes = store->bytes_resident();

    // Pin generation 0 with a live view, then compact past it.
    GraphView pinned = dg.view();
    MutationBatch batch;
    batch.insert(2, 9);
    ASSERT_TRUE(dg.apply(batch).status().is_ok());
    EXPECT_GT(store->bytes_resident(), clean_bytes); // overlay charged
    dg.compact();

    // Old generation still byte-accounted while the view holds it.
    const std::size_t with_retired = store->bytes_resident();
    EXPECT_GT(with_retired, clean_bytes);
    bool saw_retired = false;
    for (const auto& row : store->artifacts())
        if (row.name == "retired" && row.resident)
            saw_retired = true;
    EXPECT_TRUE(saw_retired);

    pinned = GraphView(); // drop the last view: generation retires
    EXPECT_LT(store->bytes_resident(), with_retired);
    for (const auto& row : store->artifacts()) {
        if (row.name == "retired") {
            EXPECT_FALSE(row.resident);
        }
    }
}

} // namespace
} // namespace gm
