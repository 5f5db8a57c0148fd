/**
 * @file
 * Data-parallel loop and reduction primitives on top of ThreadPool.
 *
 * Three schedules mirror the OpenMP trio the evaluated frameworks rely on:
 *  - kStatic:  contiguous blocks, one per lane — best locality.
 *  - kDynamic: lanes grab fixed-size chunks from an atomic cursor — best
 *              load balance for skewed work (power-law graphs).
 *  - kCyclic:  lane t handles iterations t, t+N, t+2N, ... — the NWGraph
 *              paper-described distribution for triangle counting.
 *
 * All primitives execute on the calling thread's LaneLease, so concurrent
 * callers holding disjoint leases run in parallel.  Without a lease, or
 * inside a pool lane, they run on the calling thread at width 1.
 *
 * parallel_reduce is deterministic by construction: iterations are
 * partitioned on a fixed chunk grid derived from the iteration count
 * alone (never from the lane count), each chunk is accumulated serially
 * in index order, and chunk partials are combined in ascending chunk
 * order — the same fold the one-lane path performs.  Floating-point
 * reductions are therefore bit-identical at any GM_THREADS / lease width.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "gm/par/thread_pool.hh"
#include "gm/support/watchdog.hh"

namespace gm::par
{

/** Loop iteration-assignment policy. */
enum class Schedule { kStatic, kDynamic, kCyclic };

namespace detail
{

/** Iterations between cancellation polls in contiguous loops; amortizes
 *  the relaxed atomic load to ~zero cost in kernel hot paths. */
inline constexpr std::uint64_t kCancelPollMask = 0x3FF;

/** Target chunk count of the deterministic reduction grid.  The grid is
 *  a function of the iteration count only — two runs at different lane
 *  counts walk identical chunks and combine them in identical order. */
inline constexpr std::int64_t kReduceChunkTarget = 256;

/** Chunk length of the deterministic grid over @p n iterations. */
template <typename Index>
Index
reduce_chunk_length(Index n)
{
    const auto wide = static_cast<std::int64_t>(n);
    const std::int64_t chunk =
        (wide + kReduceChunkTarget - 1) / kReduceChunkTarget;
    return chunk < 1 ? Index{1} : static_cast<Index>(chunk);
}

} // namespace detail

/**
 * Parallel for over [begin, end).
 *
 * @param fn    Body receiving the iteration index.
 * @param sched Iteration-assignment policy.
 * @param grain Chunk size for kDynamic (ignored otherwise).
 */
template <typename Index, typename Fn>
void
parallel_for(Index begin, Index end, Fn&& fn,
             Schedule sched = Schedule::kDynamic, Index grain = 0)
{
    if (begin >= end)
        return;
    const Index n = end - begin;

    const auto run_serial = [&] {
        // Nested (in-lane) calls must not throw across the pool boundary;
        // they bail out silently and the outermost serial level throws.
        const bool nested = ThreadPool::in_parallel_region();
        std::uint64_t polls = 0;
        for (Index i = begin; i < end; ++i) {
            if ((polls++ & detail::kCancelPollMask) == 0 &&
                support::cancel_requested()) {
                if (nested)
                    return;
                support::check_cancelled();
            }
            fn(i);
        }
    };

    const int lanes = ThreadPool::current_width();
    if (n == 1 || lanes == 1) {
        run_serial();
        return;
    }
    ThreadPool& pool = ThreadPool::instance();

    if (sched == Schedule::kStatic) {
        pool.run([&](int lane) {
            const Index block = (n + lanes - 1) / lanes;
            const Index lo = begin + block * lane;
            const Index hi = lo + block < end ? lo + block : end;
            std::uint64_t polls = 0;
            for (Index i = lo; i < hi; ++i) {
                if ((polls++ & detail::kCancelPollMask) == 0 &&
                    support::cancel_requested()) {
                    return;
                }
                fn(i);
            }
        });
    } else if (sched == Schedule::kCyclic) {
        pool.run([&](int lane) {
            std::uint64_t polls = 0;
            for (Index i = begin + lane; i < end; i += lanes) {
                if ((polls++ & detail::kCancelPollMask) == 0 &&
                    support::cancel_requested()) {
                    return;
                }
                fn(i);
            }
        });
    } else {
        if (grain <= 0) {
            grain = n / (static_cast<Index>(lanes) * 16);
            if (grain < 1)
                grain = 1;
        }
        std::atomic<Index> cursor{begin};
        pool.run([&](int) {
            for (;;) {
                if (support::cancel_requested())
                    return;
                const Index lo =
                    cursor.fetch_add(grain, std::memory_order_relaxed);
                if (lo >= end)
                    return;
                const Index hi = lo + grain < end ? lo + grain : end;
                for (Index i = lo; i < hi; ++i)
                    fn(i);
            }
        });
    }
    // Lanes drain early once cancelled; surface that to the (serial)
    // caller as an exception so kernels unwind instead of iterating on a
    // half-updated frontier forever.
    support::check_cancelled();
}

/**
 * Parallel for handing each lane a contiguous [lo, hi) block; useful when
 * the body wants to amortize per-lane state over many iterations.
 */
template <typename Index, typename Fn>
void
parallel_blocks(Index begin, Index end, Fn&& fn)
{
    if (begin >= end)
        return;
    const int lanes = ThreadPool::current_width();
    if (lanes == 1) {
        fn(0, begin, end);
        if (!ThreadPool::in_parallel_region())
            support::check_cancelled();
        return;
    }
    const Index n = end - begin;
    ThreadPool::instance().run([&](int lane) {
        const Index block = (n + lanes - 1) / lanes;
        const Index lo = begin + block * lane;
        const Index hi = lo + block < end ? lo + block : end;
        if (lo < hi)
            fn(lane, lo, hi);
    });
    support::check_cancelled();
}

/**
 * Run @p fn once per lane with (lane, lane_count); fn pulls its own work.
 *
 * The lane count passed to @p fn is ThreadPool::current_width(), so
 * shared state (or a SpinBarrier) sized by it before entering matches the
 * lanes that run.
 */
template <typename Fn>
void
parallel_lanes(Fn&& fn)
{
    const int lanes = ThreadPool::current_width();
    if (lanes == 1) {
        fn(0, 1);
        return;
    }
    ThreadPool::instance().run([&](int lane) { fn(lane, lanes); });
}

/**
 * Deterministic parallel reduction over [begin, end).
 *
 * @param identity Identity element of @p combine.
 * @param map      Per-iteration value: map(i).
 * @param combine  Associative combiner.
 *
 * Evaluates combine over a fixed chunk grid (see file comment): the
 * result is a pure function of [begin, end), map, and combine — never of
 * the lane count — so float sums are bit-identical at any width.
 */
template <typename Index, typename T, typename Map, typename Combine>
T
parallel_reduce(Index begin, Index end, T identity, Map&& map,
                Combine&& combine)
{
    if (begin >= end)
        return identity;
    const Index n = end - begin;
    const Index chunk = detail::reduce_chunk_length(n);
    const std::size_t num_chunks =
        static_cast<std::size_t>((n + chunk - 1) / chunk);

    // Serial accumulation of one chunk, in index order.  @p bail tells it
    // to drain silently on cancellation (pool lanes and nested calls must
    // not throw across the fork boundary).
    const auto chunk_value = [&](std::size_t c, bool bail) -> T {
        T acc = identity;
        const Index lo = begin + static_cast<Index>(c) * chunk;
        const Index hi = lo + chunk < end ? lo + chunk : end;
        std::uint64_t polls = 0;
        for (Index i = lo; i < hi; ++i) {
            if ((polls++ & detail::kCancelPollMask) == 0 &&
                support::cancel_requested()) {
                if (bail)
                    break;
                support::check_cancelled();
            }
            acc = combine(acc, map(i));
        }
        return acc;
    };

    const auto run_serial = [&]() -> T {
        const bool nested = ThreadPool::in_parallel_region();
        T acc = identity;
        for (std::size_t c = 0; c < num_chunks; ++c) {
            if (nested && support::cancel_requested())
                break;
            acc = combine(acc, chunk_value(c, nested));
        }
        return acc;
    };

    if (num_chunks == 1 || ThreadPool::current_width() == 1)
        return run_serial();

    std::vector<T> partial(num_chunks, identity);
    std::atomic<std::size_t> cursor{0};
    ThreadPool::instance().run([&](int) {
        for (;;) {
            if (support::cancel_requested())
                return;
            const std::size_t c =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (c >= num_chunks)
                return;
            partial[c] = chunk_value(c, /*bail=*/true);
        }
    });
    support::check_cancelled();
    // Ordered combine: ascending chunk index, exactly the serial fold.
    T acc = identity;
    for (std::size_t c = 0; c < num_chunks; ++c)
        acc = combine(acc, partial[c]);
    return acc;
}

/** Number of lanes the process-wide pool runs with. */
inline int
num_threads()
{
    return ThreadPool::instance().num_threads();
}

} // namespace gm::par
