/**
 * @file
 * The serve_hot phase: a closed loop of one client per two lanes, each
 * submitting its next request when the previous reply is in hand.  The
 * population is a small set of distinct GAP BFS/SSSP/CC/PR queries,
 * warmed into the ResultCache before timing, so every timed request is a
 * fresh hit and no kernel runs: the serve stages (admission, queue
 * handoff, cache probe, publish, waiter wake-up) do all the work.
 */
#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "gm/serve/server.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using gm::harness::Kernel;
using gm::serve::Request;

constexpr int kPopulation = 32;
/** One hit in this many has its whole payload re-fingerprinted; every hit
 *  has its reported fingerprint compared. */
constexpr std::uint64_t kFullCheckEvery = 64;
/** Traced runs alternate traced and untraced slices of this length to
 *  measure the recorder's own cost. */
constexpr double kTraceSliceS = 0.25;

struct Entry
{
    Request req;
    std::uint64_t fingerprint = 0; ///< direct (serverless) answer
};

struct Sample
{
    float latency_us;
    float submit_us;
    float handoff_us;
    float wake_us;
    bool traced;
    bool hit;
};

} // namespace

void
run_serve_hot(Context& ctx, double budget_s)
{
    const auto& suite = ctx.suite;
    const auto& gap = ctx.frameworks[gm::harness::kGapIndex];
    const Kernel kernels[] = {Kernel::kBFS, Kernel::kSSSP, Kernel::kCC,
                              Kernel::kPR};

    gm::Xoshiro256 rng(ctx.cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<Entry> population;
    std::set<std::tuple<std::size_t, int, gm::vid_t>> seen;
    while (static_cast<int>(population.size()) < kPopulation) {
        const std::size_t g = rng.next_bounded(suite.size());
        const Kernel kernel = kernels[rng.next_bounded(std::size(kernels))];
        const bool sourced =
            kernel == Kernel::kBFS || kernel == Kernel::kSSSP;
        const auto& ds = suite[g];
        const gm::vid_t source =
            sourced ? ds.sources[rng.next_bounded(ds.sources.size())] : 0;
        if (!seen.insert({g, static_cast<int>(kernel), source}).second)
            continue;
        Entry e;
        e.req.graph = ds.name;
        e.req.kernel = kernel;
        e.req.source = source;
        e.req.mode = ctx.cfg.workload.mode;
        e.fingerprint = direct_fingerprint(gap, ds, kernel,
                                           ctx.cfg.workload.mode, source);
        population.push_back(std::move(e));
    }
    if (ctx.cfg.corrupt)
        population[0].fingerprint ^= 1;

    gm::serve::ServerOptions options;
    options.workers = ctx.cfg.lanes;
    options.queue_capacity = 1024;
    gm::serve::Server server(suite, ctx.frameworks, options);

    // Warm the cache: one execution per distinct query, each checked.
    for (const Entry& e : population) {
        auto handle = server.submit(e.req);
        const auto res = handle.is_ok() ? handle->wait() : handle.status();
        const bool ok = res.is_ok() &&
                        ctx.tally.check(gm::serve::result_fingerprint(
                                            *res->value) == e.fingerprint);
        ctx.tally.op(ok);
    }

    // Each request in flight keeps a client and a server worker busy, so
    // half as many clients as lanes keeps every busy thread on a core of
    // its own: the tail then measures the serve path, not preemption.
    const int clients = std::max(1, ctx.cfg.lanes / 2);
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::vector<Sample>> samples(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            gm::Xoshiro256 pick(ctx.cfg.seed * 0x2545f4914f6cdd1dULL +
                                static_cast<std::uint64_t>(c) + 7);
            std::vector<Sample>& out = samples[static_cast<std::size_t>(c)];
            out.reserve(1 << 16);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            while (!stop.load(std::memory_order_relaxed)) {
                const std::uint64_t draw = pick.next();
                const Entry& e = population[draw % population.size()];
                const bool traced = trace::enabled();
                const std::int64_t t0 = gm::Timer::now_ns();
                std::int64_t t1 = t0;
                const auto res =
                    [&]() -> gm::support::StatusOr<gm::serve::QueryResult> {
                    trace::Scope request("serve.request");
                    auto handle = [&] {
                        trace::Scope span("serve.submit");
                        return server.submit(e.req);
                    }();
                    t1 = gm::Timer::now_ns();
                    if (!handle.is_ok())
                        return handle.status();
                    trace::Scope span("serve.wait");
                    return handle->wait();
                }();
                const std::int64_t t2 = gm::Timer::now_ns();
                bool ok = res.is_ok() &&
                          ctx.tally.check(res->fingerprint == e.fingerprint);
                if (res.is_ok() && (draw >> 40) % kFullCheckEvery == 0)
                    ok = ctx.tally.check(gm::serve::result_fingerprint(
                                             *res->value) == e.fingerprint) &&
                         ok;
                ctx.tally.op(ok);
                if (!res.is_ok())
                    continue;
                const double latency_us = static_cast<double>(t2 - t0) * 1e-3;
                const double service_us = res->service_seconds * 1e6;
                out.push_back(
                    {static_cast<float>(latency_us),
                     static_cast<float>(static_cast<double>(t1 - t0) * 1e-3),
                     static_cast<float>(service_us -
                                        (res->queue_seconds +
                                         res->execute_seconds) *
                                            1e6),
                     static_cast<float>(latency_us - service_us), traced,
                     res->cache_hit});
            }
        });
    }

    const double begin = now_s();
    go.store(true, std::memory_order_release);
    if (ctx.cfg.trace) {
        bool on = false;
        for (double t = kTraceSliceS; t < budget_s; t += kTraceSliceS) {
            on = !on;
            trace::set_enabled(on);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(begin + t - now_s()));
        }
        trace::set_enabled(false);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(begin + budget_s - now_s()));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads)
        t.join();
    const double elapsed = now_s() - begin;
    if (ctx.cfg.trace)
        trace::set_enabled(true);

    std::vector<double> latency, submit, handoff, wake;
    double traced_sum = 0, untraced_sum = 0;
    std::size_t traced_n = 0, untraced_n = 0, hits = 0;
    for (const auto& per_client : samples) {
        for (const Sample& s : per_client) {
            latency.push_back(s.latency_us);
            submit.push_back(s.submit_us);
            handoff.push_back(s.handoff_us);
            wake.push_back(s.wake_us);
            hits += s.hit ? 1 : 0;
            (s.traced ? traced_sum : untraced_sum) += s.latency_us;
            ++(s.traced ? traced_n : untraced_n);
        }
    }
    const auto n = static_cast<double>(latency.size());
    std::printf("serve_hot: %zu requests from %d clients in %.2f s\n",
                latency.size(), clients, elapsed);

    ctx.e2e.add("hit_p50_us", pct(latency, 50), "us");
    ctx.e2e.add("hit_p99_us", pct(latency, 99), "us");
    ctx.e2e.add("hot_rps", n / elapsed, "req/s");

    ctx.layer.add("serve.submit_us_p50", pct(submit, 50), "us");
    ctx.layer.add("serve.submit_us_p99", pct(submit, 99), "us");
    ctx.layer.add("serve.handoff_us_p50", pct(handoff, 50), "us");
    ctx.layer.add("serve.handoff_us_p99", pct(handoff, 99), "us");
    ctx.layer.add("serve.wake_us_p50", pct(wake, 50), "us");
    ctx.layer.add("serve.wake_us_p99", pct(wake, 99), "us");
    ctx.layer.add("serve.hot_hit_ratio", n > 0 ? hits / n : 0, "ratio");
    const double overhead =
        traced_n > 0 && untraced_n > 0 && untraced_sum > 0
            ? (traced_sum / static_cast<double>(traced_n)) /
                  (untraced_sum / static_cast<double>(untraced_n))
            : 1.0;
    ctx.layer.add("bench.trace_overhead", overhead, "ratio");
}

} // namespace perfbench
