/** Tests for the benchmark harness: datasets, registry wiring, the trial
 *  runner, and the cross-framework agreement property (every framework
 *  produces spec-verified results on every kernel and graph). */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/harness/tables.hh"
#include "gm/par/parallel_for.hh"

namespace gm::harness
{
namespace
{

const DatasetSuite&
small_suite()
{
    static DatasetSuite suite = make_gap_suite(/*scale=*/10,
                                               /*num_sources=*/8);
    return suite;
}

TEST(DatasetTest, SuiteHasFiveGraphsInTableOrder)
{
    const DatasetSuite& suite = small_suite();
    ASSERT_EQ(suite.size(), 5u);
    EXPECT_EQ(suite[0].name, "Road");
    EXPECT_EQ(suite[1].name, "Twitter");
    EXPECT_EQ(suite[2].name, "Web");
    EXPECT_EQ(suite[3].name, "Kron");
    EXPECT_EQ(suite[4].name, "Urand");
}

TEST(DatasetTest, TopologyClassesMatchTableOne)
{
    const DatasetSuite& suite = small_suite();
    // Road: directed, bounded degree, high diameter.
    EXPECT_TRUE(suite[0].g().is_directed());
    EXPECT_EQ(suite[0].distribution, graph::DegreeDistribution::kBounded);
    EXPECT_TRUE(suite[0].high_diameter);
    // Twitter / Web: directed power-law.
    EXPECT_TRUE(suite[1].g().is_directed());
    EXPECT_EQ(suite[1].distribution, graph::DegreeDistribution::kPower);
    EXPECT_TRUE(suite[2].g().is_directed());
    // Kron: undirected power-law; Urand: undirected normal.
    EXPECT_FALSE(suite[3].g().is_directed());
    EXPECT_EQ(suite[3].distribution, graph::DegreeDistribution::kPower);
    EXPECT_FALSE(suite[4].g().is_directed());
    EXPECT_EQ(suite[4].distribution, graph::DegreeDistribution::kNormal);
    EXPECT_FALSE(suite[4].high_diameter);
}

TEST(DatasetTest, DerivedFormsAreConsistent)
{
    for (const auto& ds : small_suite().datasets) {
        EXPECT_EQ(ds->wg().num_vertices(), ds->g().num_vertices());
        EXPECT_EQ(ds->wg().num_edges_directed(), ds->g().num_edges_directed());
        EXPECT_FALSE(ds->g_undirected().is_directed());
        EXPECT_EQ(ds->g_undirected().num_vertices(), ds->g().num_vertices());
        EXPECT_EQ(ds->grb().n, ds->g().num_vertices());
        EXPECT_EQ(ds->grb().A.nvals(), ds->g().num_edges_directed());
        EXPECT_FALSE(ds->sources.empty());
        for (vid_t s : ds->sources)
            EXPECT_GT(ds->g().out_degree(s), 0);
    }
}

TEST(RegistryTest, SixFrameworksGapFirst)
{
    const auto frameworks = make_frameworks();
    ASSERT_EQ(frameworks.size(), 6u);
    EXPECT_EQ(frameworks[kGapIndex].name, "GAP");
    for (const auto& fw : frameworks) {
        EXPECT_TRUE(fw.bfs && fw.sssp && fw.cc && fw.pr && fw.bc && fw.tc)
            << fw.name;
    }
}

/** The paper's core experimental control: every framework must produce
 *  verified results for all 30 GAP tests in both rule sets. */
using FrameworkModeParam = std::tuple<int, int>;

class AllCellsVerify : public ::testing::TestWithParam<FrameworkModeParam>
{
};

std::string
framework_mode_name(const ::testing::TestParamInfo<FrameworkModeParam>& info)
{
    static const char* names[] = {"GAP",     "SuiteSparse", "Galois",
                                  "NWGraph", "GraphIt",     "GKC"};
    return std::string(names[std::get<0>(info.param)]) +
           (std::get<1>(info.param) == 0 ? "_Baseline" : "_Optimized");
}

TEST_P(AllCellsVerify, CellProducesVerifiedResult)
{
    const auto frameworks = make_frameworks();
    const auto [f, mode_int] = GetParam();
    const Mode mode = mode_int == 0 ? Mode::kBaseline : Mode::kOptimized;
    RunOptions opts;
    opts.trials = 1;
    for (const auto& ds : small_suite().datasets) {
        for (Kernel kernel : kAllKernels) {
            const CellResult cell =
                run_cell(*ds, frameworks[static_cast<std::size_t>(f)],
                         kernel, mode, opts);
            EXPECT_TRUE(cell.verified)
                << frameworks[static_cast<std::size_t>(f)].name << " "
                << to_string(kernel) << " " << ds->name << " "
                << to_string(mode);
            EXPECT_GT(cell.avg_seconds, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllFrameworksBothModes, AllCellsVerify,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 2)),
                         framework_mode_name);

TEST(TablesTest, TableOneMentionsEveryGraph)
{
    std::ostringstream os;
    print_table1(os, small_suite());
    const std::string out = os.str();
    for (const char* name : {"Road", "Twitter", "Web", "Kron", "Urand"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
    EXPECT_NE(out.find("power"), std::string::npos);
    EXPECT_NE(out.find("bounded"), std::string::npos);
}

TEST(TablesTest, StaticTablesPrint)
{
    std::ostringstream os2;
    print_table2(os2);
    EXPECT_NE(os2.str().find("sparse linear algebra"), std::string::npos);
    std::ostringstream os3;
    print_table3(os3);
    EXPECT_NE(os3.str().find("FastSV"), std::string::npos);
    EXPECT_NE(os3.str().find("Label propagation"), std::string::npos);
}

TEST(TablesTest, SpeedupTableUsesGapAsDenominator)
{
    // Build a tiny fake cube: two frameworks, GAP twice as slow as "X"
    // => X shows 200%.
    ResultsCube cube;
    cube.framework_names = {"GAP", "X"};
    cube.graph_names = {"G"};
    cube.cells.assign(
        2, std::vector<std::vector<CellResult>>(
               std::size(kAllKernels), std::vector<CellResult>(1)));
    for (Kernel k : kAllKernels) {
        auto& gap_cell = cube.cells[0][static_cast<std::size_t>(k)][0];
        gap_cell.avg_seconds = 1.0;
        gap_cell.best_seconds = 1.0;
        gap_cell.verified = true;
        gap_cell.trials = 1;
        auto& x_cell = cube.cells[1][static_cast<std::size_t>(k)][0];
        x_cell.avg_seconds = 0.5;
        x_cell.best_seconds = 0.5;
        x_cell.verified = true;
        x_cell.trials = 1;
    }
    std::ostringstream os;
    print_table5(os, cube, cube);
    EXPECT_NE(os.str().find("200.0%"), std::string::npos);
}

TEST(RunnerTest, TrialRunsOnEveryPoolLane)
{
    // A trial holds one lease of every pool lane, inline and on the
    // watchdog's thread alike, so its forks record the pool width.
    const auto frameworks = make_frameworks();
    for (const int timeout_ms : {0, 60'000}) {
        RunOptions opts;
        opts.trials = 1;
        opts.verify = false;
        opts.trial_timeout_ms = timeout_ms;
        const CellResult cell =
            run_cell(small_suite()[3], frameworks[kGapIndex], Kernel::kPR,
                     Mode::kBaseline, opts);
        ASSERT_TRUE(cell.completed()) << cell.failure_message;
        EXPECT_EQ(cell.metrics.lanes, par::num_threads())
            << "timeout " << timeout_ms;
    }
}

TEST(RunnerTest, CsvRoundTripHasHeaderAndRows)
{
    const auto frameworks = make_frameworks();
    ResultsCube cube;
    cube.framework_names = {"GAP"};
    cube.graph_names = {"G"};
    cube.cells.assign(
        1, std::vector<std::vector<CellResult>>(
               std::size(kAllKernels), std::vector<CellResult>(1)));
    const std::string path = "/tmp/gm_harness_test.csv";
    write_csv(path, cube, Mode::kBaseline);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_NE(line.find("framework"), std::string::npos);
    int rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, 6); // six kernels x one graph
    std::remove(path.c_str());
}

} // namespace
} // namespace gm::harness
