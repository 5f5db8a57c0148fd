#include "gm/graph/frontier.hh"

#include <algorithm>
#include <atomic>

#include "gm/support/watchdog.hh"

namespace gm::graph
{

namespace
{

/**
 * One fused sweep advancing sources [base, base + width) of @p sources.
 *
 * Per-vertex 64-bit masks: seen[v] holds every source that has reached v,
 * cur[v] the sources whose frontier contains v this level.  The expand
 * phase ORs cur[u] & ~seen[v] into next[v] atomically (OR is commutative,
 * so races change who writes, never the value); the settle phase — one
 * lane per frontier vertex, no races — commits the new bits into seen,
 * rotates them into cur, and records this level as the depth for every
 * source bit that just arrived.  Depths therefore depend only on the
 * level structure, making the output width-invariant.
 */
void
fused_sweep(const CSRGraph& g, const std::vector<vid_t>& sources,
            std::size_t base, int width, std::vector<vid_t>& depths)
{
    const vid_t n = g.num_vertices();
    const auto vertices = static_cast<std::size_t>(n);
    std::vector<std::uint64_t> seen(vertices, 0);
    std::vector<std::uint64_t> cur(vertices, 0);
    std::vector<std::uint64_t> next(vertices, 0);

    std::vector<vid_t> frontier;
    for (int s = 0; s < width; ++s) {
        const auto src = static_cast<std::size_t>(sources[base + s]);
        if (seen[src] == 0)
            frontier.push_back(sources[base + s]);
        seen[src] |= std::uint64_t{1} << s;
        cur[src] |= std::uint64_t{1} << s;
        depths[(base + s) * vertices + src] = 0;
    }

    const auto& offsets = g.out_offsets();
    const auto& dests = g.out_destinations();
    const int max_lanes = par::ThreadPool::current_width();

    std::vector<vid_t> next_frontier;
    std::vector<std::vector<vid_t>> locals(
        static_cast<std::size_t>(max_lanes));
    vid_t level = 0;
    while (!frontier.empty()) {
        support::check_cancelled();
        ++level;

        // Expand: propagate each frontier vertex's mask along its
        // out-edges.  seen[] is stable for the whole phase, so the
        // still-unseen filter is race-free; the first lane to put any bit
        // into next[v] claims v for the next frontier (dedup).
        par::parallel_lanes([&](int lane, int lanes) {
            std::vector<vid_t>& local = locals[static_cast<std::size_t>(lane)];
            for (std::size_t i = static_cast<std::size_t>(lane);
                 i < frontier.size(); i += static_cast<std::size_t>(lanes)) {
                const vid_t u = frontier[i];
                const std::uint64_t mask = cur[static_cast<std::size_t>(u)];
                for (eid_t e = offsets[u]; e < offsets[u + 1]; ++e) {
                    const auto v = static_cast<std::size_t>(dests[e]);
                    const std::uint64_t add = mask & ~seen[v];
                    if (add == 0)
                        continue;
                    std::atomic_ref<std::uint64_t> word(next[v]);
                    if (word.fetch_or(add, std::memory_order_relaxed) == 0)
                        local.push_back(dests[e]);
                }
            }
        });

        // Retire the old frontier's active masks (settle below re-fills
        // cur for vertices that gained bits this level).
        par::parallel_for<std::size_t>(
            0, frontier.size(),
            [&](std::size_t i) {
                cur[static_cast<std::size_t>(frontier[i])] = 0;
            },
            par::Schedule::kStatic);

        next_frontier.clear();
        for (auto& local : locals) {
            next_frontier.insert(next_frontier.end(), local.begin(),
                                 local.end());
            local.clear();
        }

        // Settle: one owner per new-frontier vertex; no concurrent
        // writers touch the same v.
        par::parallel_for<std::size_t>(
            0, next_frontier.size(), [&](std::size_t i) {
                const auto v =
                    static_cast<std::size_t>(next_frontier[i]);
                std::uint64_t fresh = next[v];
                next[v] = 0;
                seen[v] |= fresh;
                cur[v] = fresh;
                while (fresh != 0) {
                    const int s = __builtin_ctzll(fresh);
                    depths[(base + static_cast<std::size_t>(s)) * vertices +
                           v] = level;
                    fresh &= fresh - 1;
                }
            });
        frontier.swap(next_frontier);
    }
}

} // namespace

std::vector<vid_t>
multi_source_bfs_depths(const CSRGraph& g, const std::vector<vid_t>& sources)
{
    const auto vertices = static_cast<std::size_t>(g.num_vertices());
    std::vector<vid_t> depths(sources.size() * vertices, kInvalidVid);
    for (std::size_t base = 0; base < sources.size();
         base += kMaxFusedSources) {
        const int width = static_cast<int>(
            std::min<std::size_t>(kMaxFusedSources, sources.size() - base));
        fused_sweep(g, sources, base, width, depths);
    }
    return depths;
}

} // namespace gm::graph
