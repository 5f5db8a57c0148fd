/** Tests for the Galois-like operator-formulation framework. */
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "gm/galoislite/kernels.hh"
#include "gm/galoislite/worklist.hh"
#include "gm/gapref/verify.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/support/rng.hh"

namespace gm::galoislite
{
namespace
{

struct TestGraph
{
    std::string name;
    graph::CSRGraph g;
};

const std::vector<TestGraph>&
graphs()
{
    static std::vector<TestGraph> gs = [] {
        std::vector<TestGraph> v;
        v.push_back({"kron", graph::make_kronecker(10, 12, 4)});
        v.push_back({"urand", graph::make_uniform(10, 10, 5)});
        v.push_back({"road", graph::make_road_like(30, 30, 6)});
        v.push_back({"web", graph::make_web_like(9, 8, 7)});
        return v;
    }();
    return gs;
}

std::vector<vid_t>
pick_sources(const graph::CSRGraph& g, int count, std::uint64_t seed)
{
    std::vector<vid_t> sources;
    Xoshiro256 rng(seed);
    while (static_cast<int>(sources.size()) < count) {
        const vid_t v = static_cast<vid_t>(rng.next_bounded(g.num_vertices()));
        if (g.out_degree(v) > 0)
            sources.push_back(v);
    }
    return sources;
}

TEST(InsertBagTest, CollectsFromAllLanes)
{
    InsertBag<int> bag;
    par::parallel_lanes([&](int lane, int) {
        for (int i = 0; i < 10; ++i)
            bag.push(lane, lane * 100 + i);
    });
    auto all = bag.take_all();
    EXPECT_EQ(all.size(),
              static_cast<std::size_t>(10 * par::ThreadPool::current_width()));
    EXPECT_EQ(bag.size(), 0u);
}

TEST(ForEachAsync, ProcessesAllSeedItems)
{
    std::atomic<int> count{0};
    std::vector<int> seeds(1000);
    for (int i = 0; i < 1000; ++i)
        seeds[i] = i;
    for_each_async<int>(seeds,
                        [&](int, AsyncContext<int>&) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ForEachAsync, PushedWorkIsExecuted)
{
    // Each item below 1000 pushes item+1; starting from 0 we must see all.
    std::vector<std::atomic<int>> seen(1001);
    for_each_async<int>({0}, [&](int item, AsyncContext<int>& ctx) {
        seen[static_cast<std::size_t>(item)].fetch_add(1);
        if (item < 1000)
            ctx.push(item + 1);
    });
    for (int i = 0; i <= 1000; ++i)
        ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ForEachAsync, EmptyInitialTerminates)
{
    int calls = 0;
    for_each_async<int>({}, [&](int, AsyncContext<int>&) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(HeuristicTest, PowerLawMeansSync)
{
    EXPECT_FALSE(pick_async_by_sampling(graph::make_kronecker(11, 16, 3)));
    EXPECT_TRUE(pick_async_by_sampling(graph::make_road_like(40, 40, 3)));
    EXPECT_TRUE(pick_async_by_sampling(graph::make_uniform(11, 16, 3)));
}

TEST(GaloisKernels, BfsSyncAndAsyncVerify)
{
    for (const auto& tg : graphs()) {
        for (vid_t src : pick_sources(tg.g, 2, 41)) {
            std::string err;
            EXPECT_TRUE(
                gapref::verify_bfs(tg.g, src, bfs_sync(tg.g, src), &err))
                << tg.name << " sync src=" << src << ": " << err;
            EXPECT_TRUE(
                gapref::verify_bfs(tg.g, src, bfs_async(tg.g, src), &err))
                << tg.name << " async src=" << src << ": " << err;
        }
    }
}

TEST(GaloisKernels, SsspSyncAndAsyncVerify)
{
    for (const auto& tg : graphs()) {
        const graph::WCSRGraph wg = graph::add_weights(tg.g, 88);
        for (vid_t src : pick_sources(tg.g, 2, 42)) {
            std::string err;
            EXPECT_TRUE(gapref::verify_sssp(wg, src,
                                            sssp_sync(wg, src, 32), &err))
                << tg.name << " sync: " << err;
            EXPECT_TRUE(gapref::verify_sssp(wg, src,
                                            sssp_async(wg, src, 32), &err))
                << tg.name << " async: " << err;
        }
    }
}

TEST(GaloisKernels, CcBothVariantsVerify)
{
    for (const auto& tg : graphs()) {
        std::string err;
        EXPECT_TRUE(gapref::verify_cc(tg.g, cc_afforest(tg.g), &err))
            << tg.name << ": " << err;
        EXPECT_TRUE(
            gapref::verify_cc(tg.g, cc_afforest_edge_blocked(tg.g), &err))
            << tg.name << " blocked: " << err;
    }
}

TEST(GaloisKernels, PageRankGaussSeidelVerifies)
{
    for (const auto& tg : graphs()) {
        std::string err;
        EXPECT_TRUE(gapref::verify_pagerank(
            tg.g, pagerank_gauss_seidel(tg.g), 0.85, 1e-4, &err))
            << tg.name << ": " << err;
    }
}

TEST(GaloisKernels, BcBothVariantsVerify)
{
    for (const auto& tg : graphs()) {
        const auto sources = pick_sources(tg.g, 4, 43);
        std::string err;
        EXPECT_TRUE(
            gapref::verify_bc(tg.g, sources, bc_sync(tg.g, sources), &err))
            << tg.name << " sync: " << err;
        EXPECT_TRUE(
            gapref::verify_bc(tg.g, sources, bc_async(tg.g, sources), &err))
            << tg.name << " async: " << err;
    }
}

TEST(GaloisKernels, TcVerifies)
{
    for (const auto& tg : graphs()) {
        if (tg.g.is_directed())
            continue;
        std::string err;
        EXPECT_TRUE(gapref::verify_tc(tg.g, tc(tg.g), &err))
            << tg.name << ": " << err;
    }
}

} // namespace
} // namespace gm::galoislite
