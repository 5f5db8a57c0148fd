/**
 * @file
 * The serve_mixed phase: an open loop from one dispatcher, first at the
 * workload's nominal rate, then up a geometric ladder of short steps
 * that stops at the first step missing the read latency limit.  Each
 * slot is drawn from (seed, step, index): GAP BFS/SSSP reads from
 * uniformly drawn sources (mostly misses), CC/PR reads (hits until a
 * write invalidates them), widths split between one lane and all lanes,
 * a few percent of insert-heavy Server::mutate batches applied by one
 * writer thread, and a few percent of fused 64-source BFS plans, all
 * under the workload's rule set.  A collector thread waits every
 * handle.  Every operation is timed from when it was due.
 *
 * Answers are checked after the timed steps: the writer's batches are
 * replayed through gm::dyn onto a separately generated copy of the suite,
 * and a seeded sample of reads, plus every plan that no write overlapped,
 * is compared by fingerprint against a direct kernel run on the same
 * graph generation.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "gm/dyn/overlay.hh"
#include "gm/plan/execute.hh"
#include "gm/serve/server.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using gm::harness::Kernel;
using gm::serve::Server;

constexpr double kWriteShare = 0.08;
constexpr double kPlanShare = 0.08;
constexpr int kPlanSources = 64;
constexpr int kInsertsPerBatch = 8;
/** Step 0 runs at the nominal rate for kNominalShare of the phase and sets
 *  the latency metrics.  The ladder steps above it run at kLadderStart x
 *  kLadderGrowth^k times nominal, sharing the rest of the phase equally,
 *  and stop at the first miss. */
constexpr double kNominalShare = 0.6;
constexpr double kLadderStart = 2.0;
constexpr double kLadderGrowth = 1.25;
constexpr int kSteps = 9;
/** Largest lag of the nominal step's last slot, as a share of the step,
 *  before the run counts as invalid. */
constexpr double kMaxIssueLag = 0.03;
/** Share of reads re-checked against a direct kernel run.  Fixed, so the
 *  seed alone picks which reads are checked. */
constexpr double kSampledShare = 0.25;

struct ReadRec
{
    int step = 0;
    std::size_t graph = 0;
    gm::serve::Request req;
    bool sampled = false;
    std::int64_t due_ns = 0;
    std::int64_t enter_ns = 0;
    std::uint64_t span = 0; ///< serve.request span id
    // Filled by the collector.
    gm::support::StatusCode code = gm::support::StatusCode::kOk;
    bool hit = false;
    bool shared = false;
    double service_s = 0;
    double queue_s = 0;
    double execute_s = 0;
    double efficiency = 0;
    int lanes = 0;
    std::uint64_t generation = 0;
    std::uint64_t fingerprint = 0; ///< of the payload (sampled reads)
};

struct PlanRec
{
    int step = 0;
    std::size_t graph = 0;
    gm::serve::PlanRequest req;
    std::int64_t enter_ns = 0;
    std::int64_t done_ns = 0;
    bool ok = false;
    double service_s = 0;
    int nodes = 0;
    int executed = 0;
    int cache_hits = 0;
    int fused_sweeps = 0;
    int sources_fused = 0;
    std::uint64_t generation = 0;
    std::vector<std::uint64_t> node_fingerprints; ///< of the payloads
};

struct WriteRec
{
    int step = 0;
    std::size_t graph = 0;
    gm::dyn::MutationBatch batch;
    std::int64_t due_ns = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    bool ok = false;
    gm::serve::MutationOutcome outcome;
};

/** Unbounded FIFO from the dispatcher to one worker thread. */
template <typename T>
class Channel
{
  public:
    void
    push(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    /** Next item; false once closed and drained. */
    bool
    pop(T& out)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !items_.empty() || closed_; });
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> items_; // guarded by mu_
    bool closed_ = false; // guarded by mu_
};

struct CollectJob
{
    ReadRec* read = nullptr;
    Server::Handle handle;
    PlanRec* plan = nullptr;
    Server::PlanHandle plan_handle;
};

/** The collector and writer threads with their channels; closing the
 *  channels and joining happens on every exit path. */
struct Workers
{
    Channel<CollectJob> to_collector;
    Channel<WriteRec*> to_writer;
    std::thread collector;
    std::thread writer;

    Workers() = default;
    Workers(const Workers&) = delete;
    Workers& operator=(const Workers&) = delete;

    ~Workers() { join(); }

    void
    join()
    {
        to_collector.close();
        to_writer.close();
        if (collector.joinable())
            collector.join();
        if (writer.joinable())
            writer.join();
    }
};

double
uniform(gm::SplitMix64& rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/** A read's latency: from when it was due to the server's completion
 *  stamp (submit() entry plus the server's submit-to-done time). */
double
read_ms(const ReadRec& r)
{
    return ms(r.enter_ns - r.due_ns) + r.service_s * 1e3;
}

/** Seeded, insert-heavy batch: fresh random arcs plus one delete of an
 *  arc of the generation-0 graph (a no-op when already gone). */
gm::dyn::MutationBatch
make_batch(const gm::graph::CSRGraph& g, gm::SplitMix64& rng)
{
    const auto n = static_cast<std::uint64_t>(g.num_vertices());
    gm::dyn::MutationBatch batch;
    for (int i = 0; i < kInsertsPerBatch; ++i) {
        const auto u = static_cast<gm::vid_t>(rng.next() % n);
        const auto v = static_cast<gm::vid_t>(
            (static_cast<std::uint64_t>(u) + 1 + rng.next() % (n - 1)) % n);
        batch.insert(u, v);
    }
    for (int tries = 0; tries < 16; ++tries) {
        const auto u = static_cast<gm::vid_t>(rng.next() % n);
        const auto neigh = g.out_neigh(u);
        if (!neigh.empty()) {
            batch.erase(u, neigh[rng.next() % neigh.size()]);
            break;
        }
    }
    return batch;
}

/**
 * Replay the writer's batches per graph onto @p reference and compare
 * every sampled read and every write-free plan against a direct run on
 * the graph generation that answered it.  Returns mismatches.
 */
std::uint64_t
check_answers(Context& ctx, const gm::harness::DatasetSuite& reference,
              const std::deque<ReadRec>& reads,
              const std::deque<PlanRec>& plans,
              const std::deque<WriteRec>& writes)
{
    const auto& gap = ctx.frameworks[gm::harness::kGapIndex];
    using Key = std::pair<std::size_t, std::uint64_t>; // graph, generation
    std::map<Key, std::vector<const ReadRec*>> read_groups;
    std::map<Key, std::vector<const PlanRec*>> plan_groups;
    for (const ReadRec& r : reads) {
        if (r.sampled && r.code == gm::support::StatusCode::kOk)
            read_groups[{r.graph, r.generation}].push_back(&r);
    }
    for (const PlanRec& p : plans) {
        if (!p.ok)
            continue;
        bool stable = true; // no write on this graph overlapped the plan
        for (const WriteRec& w : writes) {
            if (w.graph == p.graph && w.begin_ns < p.done_ns &&
                w.end_ns > p.enter_ns)
                stable = false;
        }
        if (stable)
            plan_groups[{p.graph, p.generation}].push_back(&p);
    }

    std::uint64_t mismatched = 0;
    auto verdict = [&](bool match) {
        if (!ctx.tally.check(match))
            ++mismatched;
    };
    for (std::size_t g = 0; g < reference.size(); ++g) {
        const gm::harness::Dataset& ref = reference[g];
        gm::dyn::DynamicGraph replay(ref.store());
        auto check_generation = [&](std::uint64_t gen) {
            std::map<std::pair<int, gm::vid_t>, std::uint64_t> memo;
            if (auto it = read_groups.find({g, gen}); it != read_groups.end()) {
                for (const ReadRec* r : it->second) {
                    const bool sourced = r->req.kernel == Kernel::kBFS ||
                                         r->req.kernel == Kernel::kSSSP;
                    const std::pair<int, gm::vid_t> key{
                        static_cast<int>(r->req.kernel),
                        sourced ? r->req.source : 0};
                    auto m = memo.find(key);
                    if (m == memo.end())
                        m = memo.emplace(key, direct_fingerprint(
                                                  gap, ref, r->req.kernel,
                                                  r->req.mode, r->req.source))
                                .first;
                    verdict(r->fingerprint == m->second);
                }
                read_groups.erase(it);
            }
            if (auto it = plan_groups.find({g, gen}); it != plan_groups.end()) {
                const gm::plan::Context pctx{&ref, &gap,
                                             ctx.cfg.workload.mode};
                for (const PlanRec* p : it->second) {
                    auto values = gm::plan::execute(p->req.plan, pctx);
                    for (int k = 0; k < p->nodes; ++k) {
                        verdict(values.is_ok() &&
                                gm::plan::value_fingerprint(
                                    (*values)[static_cast<std::size_t>(k)]) ==
                                    p->node_fingerprints
                                        [static_cast<std::size_t>(k)]);
                    }
                }
                plan_groups.erase(it);
            }
        };
        check_generation(0);
        for (const WriteRec& w : writes) {
            if (w.graph != g || !w.ok)
                continue;
            const bool applied = replay.apply(w.batch).is_ok();
            if (w.outcome.compacted)
                replay.compact();
            verdict(applied &&
                    ref.store()->generation() == w.outcome.generation);
            if (w.outcome.compacted)
                check_generation(w.outcome.generation);
        }
        // The replayed graph must end where the served one did.
        verdict(ref.store()->fingerprint() ==
                ctx.suite[g].store()->fingerprint());
    }
    // Answers stamped with a generation the replay never produced.
    for (const auto& [key, group] : read_groups) {
        for (std::size_t i = 0; i < group.size(); ++i)
            verdict(false);
    }
    for (const auto& [key, group] : plan_groups) {
        for (std::size_t i = 0; i < group.size(); ++i)
            verdict(false);
    }
    return mismatched;
}

} // namespace

void
run_serve_mixed(Context& ctx, const gm::harness::DatasetSuite& reference,
                double budget_s)
{
    const Config& cfg = ctx.cfg;
    const auto& suite = ctx.suite;
    const double nominal = cfg.workload.nominal_rps;
    const double slo_ms = cfg.workload.slo_ms;

    gm::serve::ServerOptions options;
    options.workers = cfg.lanes;
    options.queue_capacity = 1 << 16; // the open loop never sheds
    Server server(suite, ctx.frameworks, options);

    std::deque<ReadRec> reads;
    std::deque<PlanRec> plans;
    std::deque<WriteRec> writes;
    std::atomic<std::int64_t> outstanding{0};

    // Generator threads: this dispatcher, one collector, one writer (the
    // dispatcher applies writes itself on hosts with fewer than 3 lanes).
    const bool writer_thread = cfg.lanes >= 3;
    auto apply_write = [&](WriteRec& w) {
        w.begin_ns = gm::Timer::now_ns();
        {
            trace::Scope span("dyn.mutate");
            auto out = server.mutate(suite[w.graph].name, w.batch);
            w.ok = out.is_ok();
            if (w.ok)
                w.outcome = *out;
        }
        w.end_ns = gm::Timer::now_ns();
        ctx.tally.op(w.ok);
        outstanding.fetch_sub(1);
    };
    Workers workers; // after everything its threads use
    if (writer_thread) {
        workers.writer = std::thread([&] {
            WriteRec* w = nullptr;
            while (workers.to_writer.pop(w))
                apply_write(*w);
        });
    }
    workers.collector = std::thread([&] {
        CollectJob job;
        while (workers.to_collector.pop(job)) {
            const std::int64_t wait_ns = gm::Timer::now_ns();
            if (job.read != nullptr) {
                ReadRec& r = *job.read;
                const auto res = job.handle.wait();
                job.handle = {};
                trace::record("serve.wait", wait_ns, gm::Timer::now_ns(),
                              r.span, r.span);
                trace::record("serve.request", r.due_ns, gm::Timer::now_ns(),
                              0, r.span, r.span);
                if (res.is_ok()) {
                    r.hit = res->cache_hit;
                    r.shared = res->shared_execution;
                    r.service_s = res->service_seconds;
                    r.queue_s = res->queue_seconds;
                    r.execute_s = res->execute_seconds;
                    r.lanes = res->lanes;
                    r.efficiency = res->parallel_efficiency;
                    r.generation = res->generation;
                    if (r.sampled)
                        r.fingerprint =
                            gm::serve::result_fingerprint(*res->value);
                } else {
                    r.code = res.status().code();
                }
                ctx.tally.op(res.is_ok());
            } else {
                PlanRec& p = *job.plan;
                const auto res = job.plan_handle.wait();
                job.plan_handle = {};
                p.done_ns = gm::Timer::now_ns();
                const std::uint64_t id = trace::new_id();
                trace::record("plan.run", p.enter_ns, p.done_ns, 0, id, id);
                p.ok = res.is_ok();
                if (p.ok) {
                    p.service_s = res->service_seconds;
                    p.nodes = static_cast<int>(res->nodes.size());
                    p.executed = res->executed;
                    p.cache_hits = res->cache_hits;
                    p.fused_sweeps = res->fused_sweeps;
                    p.sources_fused = res->sources_fused;
                    p.generation = res->generation;
                    for (const auto& node : res->nodes)
                        p.node_fingerprints.push_back(
                            node.value ? gm::serve::result_fingerprint(
                                             *node.value)
                                       : 0);
                }
                ctx.tally.op(p.ok);
            }
            outstanding.fetch_sub(1);
        }
    });

    const gm::serve::ServerStats before = server.stats_snapshot();
    double step_rate[kSteps], step_s[kSteps];
    for (int s = 0; s < kSteps; ++s) {
        step_rate[s] =
            s == 0 ? nominal
                   : nominal * kLadderStart * std::pow(kLadderGrowth, s - 1);
        step_s[s] = s == 0 ? budget_s * kNominalShare
                           : budget_s * (1 - kNominalShare) / (kSteps - 1);
    }

    std::vector<double> late_ms; // the nominal step
    double step_p99[kSteps] = {};
    bool step_swamped[kSteps] = {};
    int last = 0; ///< highest step run; all below it met the limit
    double end_lag_ms = 0;
    std::uint64_t refused = 0;
    for (int s = 0; s < kSteps; ++s) {
        last = s;
        const double rate = step_rate[s];
        const auto slots = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(rate * step_s[s]));
        const double interval_ns = 1e9 / rate;
        const std::int64_t begin_ns = gm::Timer::now_ns() + 1000000;
        // A growing backlog: more outstanding than can drain within the
        // limit.  The step misses, so stop feeding it (this also bounds an
        // overloaded step's memory).
        const double backlog_cap = std::max(64.0, 2 * rate * slo_ms * 1e-3);
        for (std::int64_t i = 0; i < slots; ++i) {
            if (static_cast<double>(outstanding.load()) > backlog_cap) {
                step_swamped[s] = true;
                break;
            }
            const std::int64_t due =
                begin_ns + static_cast<std::int64_t>(
                               static_cast<double>(i) * interval_ns);
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due)));
            const std::int64_t now = gm::Timer::now_ns();
            if (s == 0) {
                late_ms.push_back(ms(now - due));
                end_lag_ms = ms(now - due);
            }

            // The slot depends only on (seed, step, index), never on how
            // far an earlier step got.
            gm::SplitMix64 rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
                               (static_cast<std::uint64_t>(s) << 32) +
                               static_cast<std::uint64_t>(i));
            const double kind = uniform(rng);
            const std::size_t g = rng.next() % suite.size();
            const auto n = static_cast<std::uint64_t>(
                reference[g].g().num_vertices());
            const int width = (rng.next() & 1) != 0 ? cfg.lanes : 1;
            if (kind < kWriteShare) {
                WriteRec& w = writes.emplace_back();
                w.step = s;
                w.graph = g;
                w.due_ns = due;
                w.batch = make_batch(reference[g].g(), rng);
                outstanding.fetch_add(1);
                if (writer_thread)
                    workers.to_writer.push(&w);
                else
                    apply_write(w);
            } else if (kind < kWriteShare + kPlanShare) {
                PlanRec& p = plans.emplace_back();
                p.step = s;
                p.graph = g;
                std::vector<gm::vid_t> sources;
                for (int k = 0; k < kPlanSources; ++k)
                    sources.push_back(static_cast<gm::vid_t>(rng.next() % n));
                const int batch =
                    p.req.plan.add_batch(Kernel::kBFS, std::move(sources));
                p.req.plan.add_histogram(batch, 16);
                p.req.plan.add_top_k(batch, 8);
                p.req.graph = suite[g].name;
                p.req.mode = cfg.workload.mode;
                p.req.width = width;
                p.enter_ns = gm::Timer::now_ns();
                auto handle = server.submit_plan(p.req);
                if (!handle.is_ok()) {
                    ctx.tally.op(false);
                    continue;
                }
                outstanding.fetch_add(1);
                workers.to_collector.push(
                    {nullptr, {}, &p, *std::move(handle)});
            } else {
                ReadRec& r = reads.emplace_back();
                r.step = s;
                r.graph = g;
                r.due_ns = due;
                const double k = uniform(rng);
                r.req.kernel = k < 0.35   ? Kernel::kBFS
                               : k < 0.60 ? Kernel::kSSSP
                               : k < 0.80 ? Kernel::kCC
                                          : Kernel::kPR;
                r.req.graph = suite[g].name;
                r.req.mode = cfg.workload.mode;
                r.req.source = static_cast<gm::vid_t>(rng.next() % n);
                r.req.width = width;
                r.sampled = uniform(rng) < kSampledShare;
                r.span = trace::new_id();
                r.enter_ns = gm::Timer::now_ns();
                auto handle = server.submit(r.req);
                trace::record("serve.submit", r.enter_ns, gm::Timer::now_ns(),
                              r.span, r.span);
                if (!handle.is_ok()) {
                    r.code = handle.status().code();
                    ++refused;
                    ctx.tally.op(false);
                    continue;
                }
                outstanding.fetch_add(1);
                workers.to_collector.push(
                    {&r, *std::move(handle), nullptr, {}});
            }
        }
        while (outstanding.load() > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::vector<double> latency;
        for (const ReadRec& r : reads) {
            if (r.step == s && r.code == gm::support::StatusCode::kOk)
                latency.push_back(read_ms(r));
        }
        step_p99[s] = pct(latency, 99);
        const bool meets = !step_swamped[s] && step_p99[s] <= slo_ms;
        std::printf("serve_mixed: step %d at %.1f req/s: %zu reads, p99 "
                    "%.2f ms%s -> %s\n",
                    s, rate, latency.size(), step_p99[s],
                    step_swamped[s] ? ", stopped on a growing backlog" : "",
                    meets ? "meets" : "misses");
        if (!meets)
            break;
    }
    workers.join();
    const gm::serve::ServerStats after = server.stats_snapshot();
    server.shutdown();

    if (cfg.corrupt) {
        for (ReadRec& r : reads) {
            if (r.sampled && r.code == gm::support::StatusCode::kOk) {
                r.fingerprint ^= 1;
                break;
            }
        }
    }
    const std::uint64_t before_checked = ctx.tally.checked.load();
    const std::uint64_t mismatched =
        check_answers(ctx, reference, reads, plans, writes);
    ctx.tally.failed.fetch_add(mismatched);
    std::printf("serve_mixed: %zu reads, %zu writes, %zu plans; %llu answers "
                "checked, %llu mismatched\n",
                reads.size(), writes.size(), plans.size(),
                static_cast<unsigned long long>(ctx.tally.checked.load() -
                                                before_checked),
                static_cast<unsigned long long>(mismatched));

    std::vector<double> nominal_ms, queue_ms, execute_ms, efficiency;
    double lanes_granted = 0, lanes_asked = 0, hits = 0, joins = 0;
    double deadline = 0;
    for (const ReadRec& r : reads) {
        if (r.code == gm::support::StatusCode::kDeadlineExceeded)
            ++deadline;
        if (r.code != gm::support::StatusCode::kOk)
            continue;
        if (r.step != 0)
            continue;
        nominal_ms.push_back(read_ms(r));
        queue_ms.push_back(r.queue_s * 1e3);
        hits += r.hit ? 1 : 0;
        joins += r.shared ? 1 : 0;
        if (!r.hit && !r.shared) {
            execute_ms.push_back(r.execute_s * 1e3);
            lanes_granted += r.lanes;
            lanes_asked += r.req.width;
            if (r.req.width > 1)
                efficiency.push_back(r.efficiency);
        }
    }
    // rate_at_slo_rps: where the read p99 crosses the limit, interpolated
    // in log-log between the last step that met it and the first that
    // missed (a step stopped on a growing backlog counts as at least twice
    // the limit).  When the nominal step misses, it is scaled down by the
    // overshoot; when the whole ladder meets, it is the top step's rate.
    const bool top_met = last == kSteps - 1 && !step_swamped[last] &&
                         step_p99[last] <= slo_ms;
    const double p1 = step_swamped[last]
                          ? std::max(step_p99[last], 2 * slo_ms)
                          : step_p99[last];
    double rate_at_slo = step_rate[last];
    if (last == 0 && !top_met) {
        rate_at_slo = nominal * slo_ms / p1;
    } else if (!top_met) {
        const double p0 = std::max(step_p99[last - 1], 1e-3);
        const double t =
            p1 > p0 ? std::clamp(std::log(slo_ms / p0) / std::log(p1 / p0),
                                 0.0, 1.0)
                    : 1.0;
        rate_at_slo = step_rate[last - 1] *
                      std::pow(step_rate[last] / step_rate[last - 1], t);
    }
    std::printf("serve_mixed: rate_at_slo_rps %.1f (%s)\n", rate_at_slo,
                top_met ? "the whole ladder met the limit" : "interpolated");

    // Writes and plans: the nominal step.
    std::vector<double> write_ms, apply_ms, quiesce_ms, plan_ms;
    double incremental = 0, maintained = 0;
    for (const WriteRec& w : writes) {
        if (!w.ok || w.step != 0)
            continue;
        write_ms.push_back(ms(w.end_ns - w.due_ns));
        apply_ms.push_back(w.outcome.mutate_seconds * 1e3);
        quiesce_ms.push_back(ms(w.end_ns - w.begin_ns) -
                             w.outcome.mutate_seconds * 1e3);
        if (w.outcome.inserted_arcs > 0 || w.outcome.deleted_arcs > 0) {
            maintained += 2;
            incremental += (w.outcome.cc_incremental ? 1 : 0) +
                           (w.outcome.pr_incremental ? 1 : 0);
        }
    }
    double nodes = 0, node_hits = 0, executed = 0, sweeps = 0, fused = 0;
    for (const PlanRec& p : plans) {
        if (!p.ok)
            continue;
        nodes += p.nodes;
        node_hits += p.cache_hits;
        executed += p.executed;
        sweeps += p.fused_sweeps;
        fused += p.sources_fused;
        if (p.step == 0)
            plan_ms.push_back(p.service_s * 1e3);
    }
    const int write_tail = tail_percentile(write_ms.size());
    std::printf("serve_mixed: write_tail_ms is p%d of %zu writes; plan_p50 "
                "over %zu plans\n",
                write_tail, write_ms.size(), plan_ms.size());

    // The generator fell behind when the nominal step's last slot went
    // out more than kMaxIssueLag of the step's length after it was due (an
    // overloaded ladder step may starve the dispatcher; it sets no latency
    // metric, and it misses the limit either way).
    if (end_lag_ms > kMaxIssueLag * step_s[0] * 1e3) {
        std::printf("serve_mixed: INVALID: generator fell %.2f ms behind "
                    "in the nominal step\n",
                    end_lag_ms);
        ctx.tally.invalid = true;
    }
    const double late_p99 = pct(late_ms, 99);

    ctx.e2e.add("read_p50_ms", pct(nominal_ms, 50), "ms");
    ctx.e2e.add("rate_at_slo_rps", rate_at_slo, "req/s");
    ctx.e2e.add("write_p50_ms", pct(write_ms, 50), "ms");
    ctx.e2e.add("plan_p50_ms", pct(plan_ms, 50), "ms");
    ctx.e2e.add("read_p99_ms", pct(nominal_ms, 99), "ms");
    ctx.e2e.add("write_tail_ms", pct(write_ms, write_tail), "ms");

    const double reads_n =
        std::max<double>(1, static_cast<double>(nominal_ms.size()));
    ctx.layer.add("serve.queue_ms_p50", pct(queue_ms, 50), "ms");
    ctx.layer.add("serve.queue_ms_p99", pct(queue_ms, 99), "ms");
    ctx.layer.add("serve.execute_ms_p50", pct(execute_ms, 50), "ms");
    ctx.layer.add("serve.execute_ms_p99", pct(execute_ms, 99), "ms");
    ctx.layer.add("serve.lanes_ratio",
                  lanes_asked > 0 ? lanes_granted / lanes_asked : 0,
                  "ratio");
    ctx.layer.add("serve.efficiency_p50", pct(efficiency, 50), "ratio");
    ctx.layer.add("serve.hit_ratio", hits / reads_n, "ratio");
    ctx.layer.add("serve.join_ratio", joins / reads_n, "ratio");
    ctx.layer.add("serve.executions",
                  static_cast<double>(after.executions - before.executions),
                  "count");
    ctx.layer.add("serve.shed_frac",
                  static_cast<double>(refused) /
                      std::max<double>(1, static_cast<double>(reads.size())),
                  "ratio");
    ctx.layer.add("serve.deadline_frac",
                  deadline /
                      std::max<double>(1, static_cast<double>(reads.size())),
                  "ratio");
    ctx.layer.add("dyn.apply_ms_p50", pct(apply_ms, 50), "ms");
    ctx.layer.add("dyn.quiesce_ms_p50", pct(quiesce_ms, 50), "ms");
    ctx.layer.add("dyn.incremental_ratio",
                  maintained > 0 ? incremental / maintained : 0, "ratio");
    ctx.layer.add("dyn.compactions",
                  static_cast<double>(after.compactions - before.compactions),
                  "count");
    ctx.layer.add("plan.node_hit_ratio", nodes > 0 ? node_hits / nodes : 0,
                  "ratio");
    ctx.layer.add("plan.sources_per_sweep", sweeps > 0 ? fused / sweeps : 0,
                  "count");
    ctx.layer.add("plan.executed_nodes", executed, "count");
    ctx.layer.add("bench.generator_late_ms_p99", late_p99, "ms");
}

} // namespace perfbench
