/** Unit tests for the gm::par substrate: pool, loops, reductions, atomics. */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/watchdog.hh"

namespace gm::par
{
namespace
{

TEST(ThreadPool, RunsJobOnAllLanes)
{
    ThreadPool& pool = ThreadPool::instance();
    LaneLease lease(pool.num_threads());
    std::vector<int> hit(static_cast<std::size_t>(lease.width()), 0);
    pool.run([&](int lane) { hit[static_cast<std::size_t>(lane)] = 1; });
    for (int h : hit)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    LaneLease lease(num_threads());
    std::atomic<int> counter{0};
    for (int round = 0; round < 200; ++round) {
        ThreadPool::instance().run(
            [&](int) { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(counter.load(), 200 * lease.width());
}

TEST(ThreadPool, PropagatesCancelTokenIntoLanes)
{
    // The watchdog installs a per-trial token on the supervised worker as
    // a thread-local; run() must hand it to every pool lane or parallel
    // kernels could never be cancelled.
    support::CancelToken token;
    ThreadPool& pool = ThreadPool::instance();
    LaneLease lease(pool.num_threads());
    std::vector<std::atomic<int>> saw(static_cast<std::size_t>(lease.width()));
    {
        support::ScopedCancelToken scope(&token);
        std::thread canceller([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            token.request();
        });
        pool.run([&](int lane) {
            // Bounded spin so a propagation regression fails the EXPECTs
            // below instead of wedging the pool forever.
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(5);
            while (!support::cancel_requested() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            saw[static_cast<std::size_t>(lane)] =
                support::cancel_requested() ? 1 : 0;
        });
        canceller.join();
    }
    for (const auto& lane_saw : saw)
        EXPECT_EQ(lane_saw.load(), 1);
    EXPECT_FALSE(support::cancel_requested()); // scope restored
}

TEST(ThreadPool, NestedRunDegradesToSerial)
{
    LaneLease lease(num_threads());
    std::atomic<int> inner_calls{0};
    ThreadPool::instance().run([&](int) {
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        ThreadPool::instance().run(
            [&](int lane) {
                EXPECT_EQ(lane, 0);
                inner_calls.fetch_add(1);
            });
    });
    EXPECT_EQ(inner_calls.load(), lease.width());
}

class ScheduleTest : public ::testing::TestWithParam<Schedule>
{
  protected:
    LaneLease lease_{num_threads()};
};

TEST_P(ScheduleTest, CoversEveryIndexExactlyOnce)
{
    constexpr int kN = 100000;
    std::vector<std::atomic<int>> hits(kN);
    parallel_for<int>(0, kN,
                      [&](int i) { hits[i].fetch_add(1); }, GetParam());
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ScheduleTest, EmptyRangeIsNoop)
{
    int calls = 0;
    parallel_for<int>(5, 5, [&](int) { ++calls; }, GetParam());
    parallel_for<int>(7, 3, [&](int) { ++calls; }, GetParam());
    EXPECT_EQ(calls, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ScheduleTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic,
                                           Schedule::kCyclic));

TEST(ParallelFor, NonZeroBeginRespected)
{
    LaneLease lease(num_threads());
    std::vector<std::atomic<int>> hits(100);
    parallel_for<int>(10, 90, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0);
}

TEST(ParallelReduce, SumMatchesSerial)
{
    LaneLease lease(num_threads());
    constexpr std::int64_t kN = 1000000;
    const std::int64_t sum = parallel_reduce<std::int64_t, std::int64_t>(
        0, kN, 0, [](std::int64_t i) { return i; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(ParallelReduce, MaxMatchesSerial)
{
    LaneLease lease(num_threads());
    std::vector<int> data(10000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<int>((i * 7919) % 10007);
    const int expected = *std::max_element(data.begin(), data.end());
    const int got = parallel_reduce<std::size_t, int>(
        0, data.size(), 0, [&](std::size_t i) { return data[i]; },
        [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(got, expected);
}

TEST(ParallelBlocks, PartitionIsDisjointAndComplete)
{
    LaneLease lease(num_threads());
    constexpr int kN = 12345;
    std::vector<std::atomic<int>> hits(kN);
    parallel_blocks<int>(0, kN, [&](int, int lo, int hi) {
        for (int i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (int i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelLanes, EveryLaneRunsOnce)
{
    LaneLease lease(num_threads());
    std::atomic<int> calls{0};
    parallel_lanes([&](int lane, int lanes) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, lanes);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), lease.width());
}

TEST(Atomics, CompareAndSwap)
{
    int x = 5;
    EXPECT_TRUE(compare_and_swap(x, 5, 9));
    EXPECT_EQ(x, 9);
    EXPECT_FALSE(compare_and_swap(x, 5, 11));
    EXPECT_EQ(x, 9);
}

TEST(Atomics, FetchMinOnlyDecreases)
{
    int x = 10;
    EXPECT_TRUE(fetch_min(x, 3));
    EXPECT_EQ(x, 3);
    EXPECT_FALSE(fetch_min(x, 7));
    EXPECT_EQ(x, 3);
}

TEST(Atomics, ConcurrentFetchMinFindsGlobalMin)
{
    LaneLease lease(num_threads());
    int x = 1 << 30;
    parallel_for<int>(0, 100000, [&](int i) { fetch_min(x, i ^ 0x2a); });
    // The minimum of i^42 over the range is 0 (at i == 42).
    EXPECT_EQ(x, 0);
}

TEST(Atomics, ConcurrentFloatAdd)
{
    LaneLease lease(num_threads());
    double total = 0;
    parallel_for<int>(0, 100000, [&](int) { atomic_add_float(total, 1.0); });
    EXPECT_DOUBLE_EQ(total, 100000.0);
}

TEST(Atomics, ConcurrentFetchAddCounts)
{
    LaneLease lease(num_threads());
    std::int64_t counter = 0;
    parallel_for<int>(0, 50000,
                      [&](int) { fetch_add<std::int64_t>(counter, 2); });
    EXPECT_EQ(counter, 100000);
}

TEST(Barrier, SinglePartyNeverBlocks)
{
    SpinBarrier b(1);
    b.wait();
    b.wait();
    SUCCEED();
}

TEST(Barrier, SynchronizesPhases)
{
    LaneLease lease(num_threads());
    const int lanes = ThreadPool::current_width();
    SpinBarrier barrier(lanes);
    std::vector<int> phase_a(static_cast<std::size_t>(lanes), 0);
    std::atomic<bool> ok{true};
    parallel_lanes([&](int lane, int) {
        phase_a[static_cast<std::size_t>(lane)] = 1;
        barrier.wait();
        for (int v : phase_a) {
            if (v != 1)
                ok = false;
        }
        barrier.wait();
    });
    EXPECT_TRUE(ok.load());
}

// ------------------------------------------------------------- no lease

TEST(Unleased, PrimitivesStayOnCallingThread)
{
    ASSERT_EQ(LaneLease::current(), nullptr);
    EXPECT_EQ(ThreadPool::current_width(), 1);
    const auto self = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    std::atomic<int> count{0};
    parallel_for(0, 10000, [&](int) {
        if (std::this_thread::get_id() != self)
            off_thread.fetch_add(1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(off_thread.load(), 0);
    EXPECT_EQ(count.load(), 10000);

    const long sum = parallel_reduce(
        0, 1000, 0L, [](int i) { return static_cast<long>(i); },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(sum, 999L * 1000 / 2);

    int lanes_seen = -1;
    parallel_lanes([&](int lane, int lanes) {
        EXPECT_EQ(lane, 0);
        lanes_seen = lanes;
    });
    EXPECT_EQ(lanes_seen, 1);

    int blocks = 0;
    parallel_blocks(0, 100, [&](int, int lo, int hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 100);
        ++blocks;
    });
    EXPECT_EQ(blocks, 1);

    int runs = 0;
    const int width = ThreadPool::instance().run([&](int lane) {
        EXPECT_EQ(lane, 0);
        EXPECT_EQ(std::this_thread::get_id(), self);
        ++runs;
    });
    EXPECT_EQ(width, 1);
    EXPECT_EQ(runs, 1);
}

TEST(Unleased, WidthReturnsToOneWhenLeaseEnds)
{
    {
        LaneLease lease(num_threads());
        EXPECT_EQ(ThreadPool::current_width(), lease.width());
    }
    EXPECT_EQ(LaneLease::current(), nullptr);
    EXPECT_EQ(ThreadPool::current_width(), 1);
}

TEST(Unleased, CancellationStillThrows)
{
    // Unlike the nested-in-pool degrade (silent return), code run without
    // a lease surfaces cancellation as an exception so a cancelled trial
    // unwinds out of its kernel.
    support::CancelToken token;
    token.request();
    support::ScopedCancelToken scope(&token);
    EXPECT_THROW(parallel_for(0, 100000, [](int) {}),
                 support::CancelledError);
    EXPECT_THROW(parallel_reduce(
                     0, 100000, 0L,
                     [](int i) { return static_cast<long>(i); },
                     [](long a, long b) { return a + b; }),
                 support::CancelledError);
    EXPECT_THROW(parallel_blocks(0, 100, [](int, int, int) {}),
                 support::CancelledError);
}

TEST(ThreadPool, UnleasedSubmitterDoesNotBlockOnPool)
{
    // A thread without a lease never waits for workers, so it makes
    // progress even while another thread holds every worker in a long
    // pool job.
    ThreadPool& pool = ThreadPool::instance();
    std::atomic<bool> leased{false};
    std::atomic<bool> release{false};
    std::thread hog([&] {
        LaneLease lease(pool.num_threads());
        leased.store(true, std::memory_order_release);
        pool.run([&](int lane) {
            if (lane == 0) {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
        });
    });
    while (!leased.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::atomic<int> serial_sum{0};
    std::thread serial([&] {
        parallel_for(0, 1000,
                     [&](int) { serial_sum.fetch_add(1); });
        release.store(true, std::memory_order_release);
    });
    serial.join();
    hog.join();
    EXPECT_EQ(serial_sum.load(), 1000);
}

// ------------------------------------------------------------- LaneLease

TEST(LaneLease, GrantsAtMostRequestedWidth)
{
    const int pool_width = ThreadPool::instance().num_threads();
    LaneLease lease(2);
    EXPECT_GE(lease.width(), 1);
    EXPECT_LE(lease.width(), std::min(2, pool_width));
    EXPECT_EQ(LaneLease::current(), &lease);
}

TEST(LaneLease, RunUsesExactlyTheLeasedLanes)
{
    LaneLease lease(ThreadPool::instance().num_threads());
    const int width = lease.width();
    std::vector<std::atomic<int>> hit(static_cast<std::size_t>(width));
    const int used = ThreadPool::instance().run([&](int lane) {
        ASSERT_LT(lane, width);
        hit[static_cast<std::size_t>(lane)].fetch_add(1);
    });
    EXPECT_EQ(used, width);
    for (const auto& h : hit)
        EXPECT_EQ(h.load(), 1);
}

TEST(LaneLease, CurrentWidthIsTheWidthThatRuns)
{
    // current_width(), run()'s return value and the lane count
    // parallel_lanes passes all report the lanes that actually run.
    const int pool_width = num_threads();
    for (const int w : {1, 2, pool_width}) {
        LaneLease lease(w);
        const int width = lease.width();
        EXPECT_EQ(width, std::min(w, pool_width)) << "width " << w;
        EXPECT_EQ(ThreadPool::current_width(), width) << "width " << w;

        std::atomic<int> run_lanes{0};
        const int used = ThreadPool::instance().run([&](int lane) {
            EXPECT_LT(lane, width);
            run_lanes.fetch_add(1);
        });
        EXPECT_EQ(used, width) << "width " << w;
        EXPECT_EQ(run_lanes.load(), width) << "width " << w;

        std::atomic<int> region_lanes{0};
        parallel_lanes([&](int lane, int lanes) {
            EXPECT_LT(lane, lanes);
            EXPECT_EQ(lanes, width);
            region_lanes.fetch_add(1);
        });
        EXPECT_EQ(region_lanes.load(), width) << "width " << w;
    }
}

TEST(LaneLease, NestedLeaseAdoptsEnclosingWidth)
{
    LaneLease outer(ThreadPool::instance().num_threads());
    {
        LaneLease inner(1);
        // Adoption: the inner lease must not shrink (or re-acquire) the
        // thread's lanes; primitives keep running on the outer grant.
        EXPECT_EQ(inner.width(), outer.width());
        EXPECT_EQ(LaneLease::current(), &outer);
    }
    EXPECT_EQ(LaneLease::current(), &outer);
}

TEST(LaneLease, WidthOneLeaseDegradesPrimitivesToSerial)
{
    LaneLease lease(1);
    EXPECT_EQ(lease.width(), 1);
    std::thread::id self = std::this_thread::get_id();
    int calls = 0;
    parallel_for<int>(0, 100, [&](int) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        ++calls;
    });
    EXPECT_EQ(calls, 100);
}

TEST(LaneLease, InsideLaneAdoptsSerially)
{
    LaneLease lease(num_threads());
    ThreadPool::instance().run([&](int) {
        LaneLease nested(8);
        EXPECT_EQ(nested.width(), 1);
    });
}

TEST(LaneLease, ConcurrentHoldersProgressIndependently)
{
    // Two threads each hold a lease and fork repeatedly; neither may
    // deadlock on the other (disjoint lanes, or serial fallback when the
    // pool has no spare workers).
    std::atomic<long> total{0};
    auto work = [&] {
        LaneLease lease(2);
        for (int round = 0; round < 50; ++round) {
            ThreadPool::instance().run(
                [&](int) { total.fetch_add(1, std::memory_order_relaxed); });
        }
    };
    std::thread a(work);
    std::thread b(work);
    a.join();
    b.join();
    // Each fork runs on >= 1 lane, so 100 forks contribute >= 100.
    EXPECT_GE(total.load(), 100);
}

// ------------------------------------------- cross-width determinism

/** Runs @p body under an owned lease of each width in {1, 2, 3, pool}
 *  and checks every run produces bit-identical results. */
template <typename Fn>
void
expect_same_at_every_width(Fn&& body)
{
    const int pool_width = ThreadPool::instance().num_threads();
    const int widths[] = {1, 2, 3, pool_width};
    const auto reference = [&] {
        LaneLease lease(1);
        return body();
    }();
    for (const int w : widths) {
        LaneLease lease(w);
        EXPECT_EQ(body(), reference) << "width " << w;
    }
}

TEST(Determinism, FloatSumBitIdenticalAcrossWidths)
{
    // Summands with wildly different magnitudes: any reassociation of
    // the fold shows up in the low bits of the double.
    constexpr int kN = 100000;
    expect_same_at_every_width([&] {
        return parallel_reduce<int, double>(
            0, kN, 0.0,
            [](int i) { return 1.0 / (1.0 + i) + (i % 7) * 1e9; },
            [](double a, double b) { return a + b; });
    });
}

TEST(Determinism, NonCommutativeCombineOrdered)
{
    // combine(a, b) = a * 31 + b is order-sensitive: any deviation from
    // the ascending chunk fold changes the value.
    constexpr int kN = 10000;
    expect_same_at_every_width([&] {
        return parallel_reduce<int, std::uint64_t>(
            0, kN, 0,
            [](int i) { return static_cast<std::uint64_t>(i % 13); },
            [](std::uint64_t a, std::uint64_t b) { return a * 31 + b; });
    });
}

TEST(Determinism, ReduceMatchesOneLaneFoldExactly)
{
    constexpr int kN = 54321; // not a multiple of the chunk grid
    const auto fold = [] {
        return parallel_reduce<int, double>(
            0, kN, 0.0, [](int i) { return 1.0 / (1.0 + i); },
            [](double a, double b) { return a + b; });
    };
    const double one_lane = [&] {
        LaneLease lease(1);
        return fold();
    }();
    // Bit equality, not near-equality: the contract is that the parallel
    // path performs the identical chunk-grid fold the one-lane path does
    // (the grid is a function of kN alone).  A naive continuous fold is
    // a *different* association and is only near-equal.
    {
        LaneLease lease(num_threads());
        EXPECT_EQ(fold(), one_lane);
    }
    double naive = 0.0;
    for (int i = 0; i < kN; ++i)
        naive += 1.0 / (1.0 + i);
    EXPECT_NEAR(one_lane, naive, 1e-9);
}

} // namespace
} // namespace gm::par
