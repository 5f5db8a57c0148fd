#include "gm/harness/dataset.hh"

#include <cmath>

#include "gm/graph/generators.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/log.hh"
#include "gm/support/rng.hh"

namespace gm::harness
{

support::StatusOr<Dataset>
try_make_dataset(std::string name, graph::CSRGraph g, int num_sources,
                 std::uint64_t seed)
{
    if (g.num_vertices() == 0 || g.num_edges_directed() == 0) {
        return support::Status(support::StatusCode::kInvalidInput,
                               "dataset '" + name +
                                   "' has no vertices or no edges");
    }
    try {
        // Derived forms are lazy (the store builds each on first access);
        // only the base-graph statistics and sources are computed eagerly.
        Dataset ds(std::make_shared<store::GraphStore>(std::move(g),
                                                       seed ^ 0x5eed));
        ds.name = std::move(name);
        const graph::CSRGraph& base = ds.g();

        ds.distribution = graph::classify_degree_distribution(base);
        ds.approx_diameter = graph::approx_diameter(base);
        // Scaled-down analogue of the paper's high/low diameter split: a
        // diameter past sqrt(n) says "mesh-like" (Road), far beyond the
        // O(log n) diameters of the power-law and uniform graphs.
        ds.high_diameter =
            static_cast<double>(ds.approx_diameter) >
            std::sqrt(static_cast<double>(base.num_vertices()));

        Xoshiro256 rng(seed);
        while (static_cast<int>(ds.sources.size()) < num_sources) {
            const vid_t v =
                static_cast<vid_t>(rng.next_bounded(base.num_vertices()));
            if (base.out_degree(v) > 0)
                ds.sources.push_back(v);
        }
        return ds;
    } catch (...) {
        return support::current_exception_status();
    }
}

Dataset
make_dataset(std::string name, graph::CSRGraph g, int num_sources,
             std::uint64_t seed)
{
    auto ds = try_make_dataset(std::move(name), std::move(g), num_sources,
                               seed);
    if (!ds.is_ok())
        fatal(ds.status().to_string());
    return *std::move(ds);
}

std::vector<std::string>
gap_suite_graph_names()
{
    return {"Road", "Twitter", "Web", "Kron", "Urand"};
}

DatasetSuite
make_gap_suite(int scale, int num_sources, std::uint64_t seed)
{
    GM_ASSERT(scale >= 6 && scale <= 24, "suite scale out of range");
    // Generators fork on this lease, or on the caller's if it holds one.
    par::LaneLease lease(par::num_threads());
    DatasetSuite suite;
    const int degree = 16;

    // Matching Table I's ordering: real graphs (Road, Twitter, Web), then
    // synthetic (Kron, Urand).  Road's grid is sized to ~2^scale vertices.
    const vid_t side = static_cast<vid_t>(1) << (scale / 2);
    const vid_t rows = side;
    const vid_t cols = (vid_t{1} << scale) / side;

    suite.datasets.push_back(std::make_shared<Dataset>(make_dataset(
        "Road", graph::make_road_like(rows, cols, seed + 1), num_sources,
        seed + 11)));
    suite.datasets.back()->delta = 16; // high diameter: narrower buckets

    suite.datasets.push_back(std::make_shared<Dataset>(make_dataset(
        "Twitter", graph::make_twitter_like(scale, degree, seed + 2),
        num_sources, seed + 12)));
    suite.datasets.push_back(std::make_shared<Dataset>(make_dataset(
        "Web", graph::make_web_like(scale, 12, seed + 3), num_sources,
        seed + 13)));
    suite.datasets.push_back(std::make_shared<Dataset>(make_dataset(
        "Kron", graph::make_kronecker(scale, degree, seed + 4), num_sources,
        seed + 14)));
    suite.datasets.push_back(std::make_shared<Dataset>(make_dataset(
        "Urand", graph::make_uniform(scale, degree, seed + 5), num_sources,
        seed + 15)));
    return suite;
}

} // namespace gm::harness
