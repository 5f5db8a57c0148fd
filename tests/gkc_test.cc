/** Tests for the GKC-like hand-tuned kernels. */
#include <gtest/gtest.h>

#include "gm/gapref/verify.hh"
#include "gm/gkc/kernels.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/generators.hh"
#include "gm/support/rng.hh"

namespace gm::gkc
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
        v.push_back({"twitter", graph::make_twitter_like(9, 10, 7)});
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

TEST(IntersectSorted, HandCases)
{
    const std::vector<vid_t> a = {1, 3, 5, 7, 9, 11, 13, 15};
    const std::vector<vid_t> b = {2, 3, 4, 7, 8, 15, 16, 17};
    EXPECT_EQ(intersect_sorted(a.data(), a.size(), b.data(), b.size()), 3u);
    EXPECT_EQ(intersect_sorted(a.data(), 0, b.data(), b.size()), 0u);
    EXPECT_EQ(intersect_sorted(a.data(), a.size(), a.data(), a.size()),
              a.size());
}

TEST(IntersectSorted, MatchesNaiveOnRandomSets)
{
    Xoshiro256 rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::set<vid_t> sa;
        std::set<vid_t> sb;
        const int na = 1 + static_cast<int>(rng.next_bounded(40));
        const int nb = 1 + static_cast<int>(rng.next_bounded(40));
        for (int i = 0; i < na; ++i)
            sa.insert(static_cast<vid_t>(rng.next_bounded(60)));
        for (int i = 0; i < nb; ++i)
            sb.insert(static_cast<vid_t>(rng.next_bounded(60)));
        std::vector<vid_t> a(sa.begin(), sa.end());
        std::vector<vid_t> b(sb.begin(), sb.end());
        std::size_t naive = 0;
        for (vid_t x : a)
            naive += sb.count(x);
        EXPECT_EQ(intersect_sorted(a.data(), a.size(), b.data(), b.size()),
                  naive)
            << "trial " << trial;
    }
}

TEST(GkcKernels, BfsVerifies)
{
    for (const auto& tg : graphs()) {
        for (vid_t src : pick_sources(tg.g, 2, 71)) {
            std::string err;
            EXPECT_TRUE(gapref::verify_bfs(tg.g, src, bfs(tg.g, src), &err))
                << tg.name << " src=" << src << ": " << err;
        }
    }
}

TEST(GkcKernels, SsspVerifies)
{
    for (const auto& tg : graphs()) {
        const graph::WCSRGraph wg = graph::add_weights(tg.g, 123);
        for (vid_t src : pick_sources(tg.g, 2, 72)) {
            std::string err;
            EXPECT_TRUE(
                gapref::verify_sssp(wg, src, sssp(wg, src, 32), &err))
                << tg.name << ": " << err;
        }
    }
}

TEST(GkcKernels, CcVerifies)
{
    for (const auto& tg : graphs()) {
        std::string err;
        EXPECT_TRUE(gapref::verify_cc(tg.g, cc_sv(tg.g), &err))
            << tg.name << ": " << err;
    }
}

TEST(GkcKernels, PageRankVerifies)
{
    for (const auto& tg : graphs()) {
        std::string err;
        EXPECT_TRUE(
            gapref::verify_pagerank(tg.g, pagerank(tg.g), 0.85, 1e-4, &err))
            << tg.name << ": " << err;
    }
}

TEST(GkcKernels, BcVerifies)
{
    for (const auto& tg : graphs()) {
        const auto sources = pick_sources(tg.g, 4, 73);
        std::string err;
        EXPECT_TRUE(
            gapref::verify_bc(tg.g, sources, bc(tg.g, sources), &err))
            << tg.name << ": " << err;
    }
}

TEST(GkcKernels, TcVerifies)
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
} // namespace gm::gkc
