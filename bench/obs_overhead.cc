/**
 * @file
 * gm::obs inactive-path overhead check.  The acceptance bar for the
 * tracing subsystem is that instrumented kernels regress < 2% when no
 * session is active, which in practice means every probe's inactive path
 * must cost a handful of nanoseconds (one thread-local read and one
 * relaxed atomic load, no clock, no lock).
 *
 * This binary measures that path directly — counter_add, counter_max, and
 * ScopedSpan with tracing off — and, for context, the same probes under an
 * active session plus a whole instrumented BFS trial both ways.  It exits
 * nonzero when an inactive probe exceeds a deliberately generous absolute
 * budget (kBudgetNs), so CI catches an accidental slow path (e.g. a lock
 * or clock read sneaking in before the generation check) without being
 * sensitive to machine load the way a relative 2% check would be.
 *
 * Env: GM_SCALE (default 12).
 */
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>

#include "gm/gapref/kernels.hh"
#include "gm/graph/generators.hh"
#include "gm/obs/trace.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/env.hh"
#include "gm/support/timer.hh"

namespace
{

using namespace gm;

/** Generous per-probe budget for the inactive path, in nanoseconds. */
constexpr double kBudgetNs = 25.0;

volatile std::uint64_t sink = 0;

double
ns_per_op(const char* label, std::uint64_t iters,
          const std::function<void(std::uint64_t)>& body)
{
    // Best of three: the first rep warms instruction caches.
    double best_ns = 0;
    for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        t.start();
        body(iters);
        t.stop();
        const double ns = t.seconds() * 1e9 / static_cast<double>(iters);
        if (rep == 0 || ns < best_ns)
            best_ns = ns;
    }
    std::cout << "  " << std::left << std::setw(28) << label << std::right
              << std::fixed << std::setprecision(2) << std::setw(8)
              << best_ns << " ns/op\n";
    return best_ns;
}

} // namespace

int
main()
{
    const int scale = static_cast<int>(gm::env_int("GM_SCALE", 12));
    constexpr std::uint64_t kProbeIters = 20'000'000;

    std::cout << "gm::obs probe overhead (budget "
              << static_cast<int>(kBudgetNs) << " ns/op inactive)\n";

    std::cout << "inactive (no session):\n";
    const double add_ns =
        ns_per_op("counter_add", kProbeIters, [](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                obs::counter_add("bench.count", 1);
            sink = sink + n;
        });
    const double max_ns =
        ns_per_op("counter_max", kProbeIters, [](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                obs::counter_max("bench.max", i);
            sink = sink + n;
        });
    const double span_ns =
        ns_per_op("ScopedSpan", kProbeIters, [](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                obs::ScopedSpan span("bench.span");
            }
            sink = sink + n;
        });

    std::cout << "active (session running, for context):\n";
    {
        obs::TraceSession session;
        session.start();
        ns_per_op("counter_add", 2'000'000, [](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                obs::counter_add("bench.count", 1);
            sink = sink + n;
        });
        session.stop();
    }

    // Context: one instrumented kernel end to end, both ways, on one lease
    // of every lane.
    par::LaneLease lease(par::num_threads());
    const graph::CSRGraph g = graph::make_kronecker(scale, 16, 7);
    const auto run_bfs = [&] {
        const auto parent = gapref::bfs(g, 0);
        sink = sink + static_cast<std::uint64_t>(parent.size());
    };
    {
        Timer t;
        t.start();
        run_bfs();
        t.stop();
        std::cout << "bfs scale " << scale
                  << " tracing off: " << std::setprecision(4) << t.seconds()
                  << " s\n";
    }
    {
        obs::TraceSession session;
        session.start();
        Timer t;
        t.start();
        run_bfs();
        t.stop();
        session.stop();
        std::cout << "bfs scale " << scale
                  << " tracing on:  " << std::setprecision(4) << t.seconds()
                  << " s (" << session.counters().size()
                  << " counters collected)\n";
    }

    const bool ok =
        add_ns <= kBudgetNs && max_ns <= kBudgetNs && span_ns <= kBudgetNs;
    if (!ok) {
        std::cerr << "FAIL: inactive probe exceeds " << kBudgetNs
                  << " ns/op budget\n";
        return 1;
    }
    std::cout << "OK: inactive probes within budget\n";
    return 0;
}
