/**
 * @file
 * Seeded, deterministic load generator for gm::serve.
 *
 * Builds the GAP suite at a given scale, stands up a Server, and drives
 * it with a reproducible request stream sampled (Xoshiro256, --seed) from
 * a fixed population of distinct queries — so cache hits, single-flight
 * joins, and (in open-loop overload) shed counts are repeatable run to
 * run.
 *
 * Two drive modes:
 *
 *   closed loop (default)  --clients threads, each issuing its next
 *                          request when the previous one completes; load
 *                          self-limits to the service rate.
 *   open loop (--open-loop) one dispatcher submits at a fixed --rate
 *                          regardless of completions; with a small queue
 *                          (or a GM_FAULTS serve.execute delay) this is
 *                          how CI manufactures deterministic shedding
 *                          and deadline misses.
 *
 * A third mode, --chaos, is the resilience harness: a three-phase run
 * (warm: fault-free, populates the cache; storm: a pinned GM_FAULTS-
 * syntax fault spec is armed across the serve.* sites; recover: faults
 * cleared, breakers probe shut) over a mixed-priority, allow_stale
 * workload with client-side retries and a short cache TTL.  It reports
 * availability (fraction of requests answered, fresh or degraded),
 * goodput (fresh answers/s), degraded share, and breaker transitions,
 * writes them as a fingerprinted SLO JSONL (--slo-out), and can gate CI
 * runs (--min-availability, exit 4 on violation).
 *
 * Reports throughput, p50/p95/p99 service latency (gm::stats), cache hit
 * ratio, and shed/deadline counts; optionally writes a per-request CSV
 * and a fingerprinted perf-baseline JSONL (one cell per kernel x graph,
 * seconds = per-request service latencies) that tools/perf_gate can
 * compare across runs.
 *
 * Exit codes: 0 ok (shed/deadline outcomes are expected under overload),
 * 1 usage, 2 output-file error, 3 unexpected kernel failures, 4 chaos
 * SLO violation (--min-availability).
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/dyn/overlay.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/perf/baseline.hh"
#include "gm/plan/plan.hh"
#include "gm/serve/server.hh"
#include "gm/stats/stats.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/fingerprint.hh"
#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"

namespace
{

using gm::Timer;
using gm::harness::Kernel;
using gm::serve::Request;
using gm::serve::Server;
using gm::serve::ServerOptions;
using gm::serve::ServerStats;
using gm::support::StatusCode;

void
usage()
{
    std::cout
        << "Usage: serve_bench [options]\n"
        << "  --scale <n>        log2 vertices per suite graph (default 8)\n"
        << "  --workers <n>      server worker threads (default 4)\n"
        << "  --queue <n>        admission queue capacity (default 64)\n"
        << "  --cache-mb <n>     result cache budget in MiB (default 64;\n"
        << "                     0 disables caching)\n"
        << "  --requests <n>     total requests to issue (default 200)\n"
        << "  --distinct <n>     distinct query population size (default 32)\n"
        << "  --clients <n>      closed-loop client threads (default 8)\n"
        << "  --open-loop        open-loop mode: submit at --rate from one\n"
        << "                     dispatcher instead of closed-loop clients\n"
        << "  --rate <req/s>     open-loop arrival rate (default 500)\n"
        << "  --deadline-ms <n>  per-request deadline (default 0 = none)\n"
        << "  --width <spec>     execution-width distribution over the\n"
        << "                     query population: a single width (\"8\")\n"
        << "                     or weighted widths (\"1:0.7,8:0.3\");\n"
        << "                     default 1\n"
        << "  --lane-budget <n>  server lane budget (default 0 = derive\n"
        << "                     from workers and GM_THREADS)\n"
        << "  --framework <name> framework to query (default GAP)\n"
        << "  --kernels <csv>    kernels in the population\n"
        << "                     (default BFS,SSSP,CC,PR)\n"
        << "  --write-mix <frac> fraction of request slots that first\n"
        << "                     apply a seeded mutation batch via\n"
        << "                     Server::mutate (inserts + an occasional\n"
        << "                     delete), exercising generation-tagged\n"
        << "                     caching and incremental maintenance;\n"
        << "                     closed-loop and chaos drivers only\n"
        << "                     (default 0)\n"
        << "  --plan-mix <frac>  fraction of request slots that also run a\n"
        << "                     seeded multi-node query plan end to end\n"
        << "                     via Server::run_plan (fused BFS batches,\n"
        << "                     aggregations, per-component reduces);\n"
        << "                     plan outcomes fold into availability.\n"
        << "                     Closed-loop and chaos drivers only\n"
        << "                     (default 0)\n"
        << "  --seed <n>         workload seed (default 42)\n"
        << "  --csv <file>       write one row per request\n"
        << "  --baseline-out <f> write fingerprinted perf-baseline JSONL\n"
        << "                     (one cell per kernel x graph) for\n"
        << "                     tools/perf_gate\n"
        << "  --metrics-out <f>  server-side per-request metrics JSONL\n"
        << "  --metrics-port <n> serve a Prometheus-style /metrics text\n"
        << "                     endpoint on 127.0.0.1:<n> for the run\n"
        << "                     (0 = ephemeral; the chosen port is\n"
        << "                     printed; scrape with tools/gmtop)\n"
        << "  --telemetry-out <f> periodic {\"kind\":\"serve.telemetry\"}\n"
        << "                     registry snapshots (JSONL, crash-safe\n"
        << "                     append)\n"
        << "  --telemetry-flush-ms <n>  snapshot interval (default 250)\n"
        << "chaos mode:\n"
        << "  --chaos            three-phase fault-storm run (warm, storm,\n"
        << "                     recover) over a mixed-priority allow_stale\n"
        << "                     workload; reports an SLO summary\n"
        << "  --chaos-faults <s> GM_FAULTS-syntax spec armed for the storm\n"
        << "                     phase (default: 20% serve.execute errors\n"
        << "                     plus admission delay + cache-insert drops)\n"
        << "  --cache-ttl-ms <n> result-cache TTL (default 25 in chaos;\n"
        << "                     expired entries serve degraded)\n"
        << "  --think-ms <n>     per-client pause between requests\n"
        << "                     (default 1 in chaos; forces re-execution\n"
        << "                     past the TTL instead of pure cache hits)\n"
        << "  --slo-out <file>   fingerprinted SLO JSONL (one record per\n"
        << "                     phase plus an overall record)\n"
        << "  --min-availability <frac>  exit 4 if storm-phase availability\n"
        << "                     drops below this fraction (e.g. 0.99)\n"
        << "  -h, --help         this help\n";
}

/** What the generator observed about one issued request. */
struct Outcome
{
    int population_index = 0;
    StatusCode code = StatusCode::kOk;
    bool cache_hit = false;
    bool shared = false;
    bool degraded = false;
    double queue_seconds = 0;
    double execute_seconds = 0;
    double service_seconds = 0;
    int lanes = 0; ///< lanes granted (0 = no kernel ran)
    double parallel_efficiency = 0;
};

/** Parsed --width spec: candidate widths with sampling weights. */
struct WidthDist
{
    std::vector<int> widths = {1};
    std::vector<double> weights = {1.0};

    int
    sample(gm::Xoshiro256& rng) const
    {
        double total = 0;
        for (double w : weights)
            total += w;
        double x = rng.next_double() * total;
        for (std::size_t i = 0; i < widths.size(); ++i) {
            x -= weights[i];
            if (x <= 0)
                return widths[i];
        }
        return widths.back();
    }
};

/** "8" or "1:0.7,8:0.3" (width:weight pairs, weights default 1). */
bool
parse_width_dist(const std::string& spec, WidthDist* out)
{
    out->widths.clear();
    out->weights.clear();
    std::stringstream in(spec);
    std::string item;
    while (std::getline(in, item, ',')) {
        const std::size_t colon = item.find(':');
        const std::string width_part = item.substr(0, colon);
        char* end = nullptr;
        const long width = std::strtol(width_part.c_str(), &end, 10);
        if (end == width_part.c_str() || *end != '\0' || width < 1)
            return false;
        double weight = 1.0;
        if (colon != std::string::npos) {
            const std::string weight_part = item.substr(colon + 1);
            weight = std::strtod(weight_part.c_str(), &end);
            if (end == weight_part.c_str() || *end != '\0' || weight <= 0)
                return false;
        }
        out->widths.push_back(static_cast<int>(width));
        out->weights.push_back(weight);
    }
    return !out->widths.empty();
}

std::vector<Kernel>
parse_kernels(const std::string& csv, bool* ok)
{
    std::vector<Kernel> kernels;
    std::stringstream in(csv);
    std::string name;
    *ok = true;
    while (std::getline(in, name, ',')) {
        bool found = false;
        for (Kernel kernel : gm::harness::kAllKernels) {
            if (gm::harness::to_string(kernel) == name) {
                kernels.push_back(kernel);
                found = true;
            }
        }
        if (!found) {
            std::cerr << "unknown kernel: " << name << "\n";
            *ok = false;
        }
    }
    if (kernels.empty())
        *ok = false;
    return kernels;
}

/** Fixed population of distinct queries, then a sampled request stream —
 *  everything downstream of the seed is reproducible. */
std::vector<Request>
make_population(const gm::harness::DatasetSuite& suite,
                const std::vector<Kernel>& kernels,
                const std::string& framework, int distinct, int deadline_ms,
                const WidthDist& width_dist, gm::Xoshiro256& rng)
{
    std::vector<Request> population;
    population.reserve(static_cast<std::size_t>(distinct));
    for (int i = 0; i < distinct; ++i) {
        const auto& ds =
            *suite.datasets[rng.next_bounded(suite.size())];
        Request req;
        req.framework = framework;
        req.kernel = kernels[rng.next_bounded(kernels.size())];
        req.graph = ds.name;
        req.source = ds.sources[rng.next_bounded(ds.sources.size())];
        req.deadline_ms = deadline_ms;
        req.width = width_dist.sample(rng);
        population.push_back(req);
    }
    return population;
}

void
record_outcome(Outcome& out, const gm::support::StatusOr<
                                 gm::serve::QueryResult>& result)
{
    if (result.is_ok()) {
        out.code = StatusCode::kOk;
        out.cache_hit = result->cache_hit;
        out.shared = result->shared_execution;
        out.degraded = result->degraded;
        out.queue_seconds = result->queue_seconds;
        out.execute_seconds = result->execute_seconds;
        out.service_seconds = result->service_seconds;
        out.lanes = result->lanes;
        out.parallel_efficiency = result->parallel_efficiency;
    } else {
        out.code = result.status().code();
    }
}

/** Target of a --write-mix mutation: graph name plus vertex count. */
struct MutTarget
{
    std::string graph;
    gm::vid_t num_vertices = 0;
};

/**
 * Seeded write-mix driver.  Each call to maybe_mutate consumes one
 * slot; a slot triggers a mutation with probability `mix`, and slot
 * k's batch content is a pure function of (seed, k) — so the multiset
 * of applied batches is fixed regardless of how client threads
 * interleave.  Batches are mostly inserts of fresh random arcs plus an
 * occasional delete, which keeps the dirty fraction small enough that
 * maintenance stays incremental (the interesting regime for caching).
 */
class Mutator
{
  public:
    Mutator(Server& server, std::vector<MutTarget> targets, double mix,
            std::uint64_t seed)
        : server_(server), targets_(std::move(targets)), mix_(mix),
          seed_(seed)
    {
    }

    void
    maybe_mutate()
    {
        if (mix_ <= 0 || targets_.empty())
            return;
        const std::uint64_t slot =
            slots_.fetch_add(1, std::memory_order_relaxed);
        gm::SplitMix64 rng(seed_ ^ (slot * 0x9e3779b97f4a7c15ULL));
        if (static_cast<double>(rng.next() >> 11) * 0x1.0p-53 >= mix_)
            return;
        const MutTarget& target =
            targets_[rng.next() % targets_.size()];
        const auto n = static_cast<std::uint64_t>(target.num_vertices);
        gm::dyn::MutationBatch batch;
        for (int i = 0; i < 4; ++i) {
            const auto u = static_cast<gm::vid_t>(rng.next() % n);
            const auto v = static_cast<gm::vid_t>(
                (static_cast<std::uint64_t>(u) + 1 + rng.next() % (n - 1)) %
                n);
            batch.insert(u, v);
        }
        // One delete per batch: usually a no-op (arc absent) but it
        // lands on real arcs often enough to exercise tombstones.
        const auto du = static_cast<gm::vid_t>(rng.next() % n);
        const auto dv = static_cast<gm::vid_t>(rng.next() % n);
        if (du != dv)
            batch.erase(du, dv);
        if (server_.mutate(target.graph, batch).is_ok())
            applied_.fetch_add(1, std::memory_order_relaxed);
        else
            failed_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t applied() const { return applied_.load(); }
    std::uint64_t failed() const { return failed_.load(); }

  private:
    Server& server_;
    std::vector<MutTarget> targets_;
    double mix_;
    std::uint64_t seed_;
    std::atomic<std::uint64_t> slots_{0};
    std::atomic<std::uint64_t> applied_{0};
    std::atomic<std::uint64_t> failed_{0};
};

/** Point-in-time PlanMixer counters (deltas fold into phase stats). */
struct PlanCounts
{
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t executed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t shared = 0;
    std::uint64_t sources_fused = 0;
};

/**
 * Seeded plan-mix driver, shaped like the write-mix Mutator: each call
 * to maybe_plan consumes one slot, a slot fires with probability `mix`,
 * and slot k's plan is a pure function of (seed, k) — the multiset of
 * submitted plans is fixed regardless of client interleaving.  Plans
 * rotate through three scripted shapes: a fused multi-source BFS batch
 * with histogram + top-k consumers, a single-kernel BFS with a depth
 * histogram, and a CC x PR per-component reduce.
 */
class PlanMixer
{
  public:
    PlanMixer(Server& server, std::vector<MutTarget> targets, double mix,
              std::uint64_t seed)
        : server_(server), targets_(std::move(targets)), mix_(mix),
          seed_(seed)
    {
    }

    void
    maybe_plan()
    {
        if (mix_ <= 0 || targets_.empty())
            return;
        const std::uint64_t slot =
            slots_.fetch_add(1, std::memory_order_relaxed);
        gm::SplitMix64 rng(seed_ ^ (slot * 0x9e3779b97f4a7c15ULL));
        if (static_cast<double>(rng.next() >> 11) * 0x1.0p-53 >= mix_)
            return;
        const MutTarget& target =
            targets_[rng.next() % targets_.size()];
        const auto n = static_cast<std::uint64_t>(target.num_vertices);
        gm::plan::Plan plan;
        switch (rng.next() % 3) {
          case 0: {
            std::vector<gm::vid_t> sources;
            const int count = 4 + static_cast<int>(rng.next() % 12);
            sources.reserve(static_cast<std::size_t>(count));
            for (int i = 0; i < count; ++i)
                sources.push_back(static_cast<gm::vid_t>(rng.next() % n));
            const int batch =
                plan.add_batch(Kernel::kBFS, std::move(sources));
            plan.add_histogram(batch, 16);
            plan.add_top_k(batch, 8);
            break;
          }
          case 1: {
            const int bfs = plan.add_kernel(
                Kernel::kBFS, static_cast<gm::vid_t>(rng.next() % n));
            plan.add_histogram(bfs, 32);
            break;
          }
          default: {
            const int cc = plan.add_kernel(Kernel::kCC);
            const int pr = plan.add_kernel(Kernel::kPR);
            plan.add_component_reduce(cc, pr,
                                      gm::plan::ReduceOp::kSum);
            plan.add_top_k(pr, 8);
            break;
          }
        }
        gm::serve::PlanRequest req;
        req.graph = target.graph;
        req.plan = std::move(plan);
        const auto result = server_.run_plan(req);
        std::lock_guard<std::mutex> lock(mu_);
        ++counts_.submitted;
        if (result.is_ok()) {
            ++counts_.ok;
            counts_.executed +=
                static_cast<std::uint64_t>(result->executed);
            counts_.cache_hits +=
                static_cast<std::uint64_t>(result->cache_hits);
            counts_.shared += static_cast<std::uint64_t>(result->shared);
            counts_.sources_fused +=
                static_cast<std::uint64_t>(result->sources_fused);
        } else {
            ++counts_.failed;
        }
    }

    PlanCounts
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counts_;
    }

  private:
    Server& server_;
    std::vector<MutTarget> targets_;
    double mix_;
    std::uint64_t seed_;
    std::atomic<std::uint64_t> slots_{0};
    mutable std::mutex mu_;
    PlanCounts counts_;
};

void
print_plans(const PlanMixer& planner)
{
    const PlanCounts p = planner.snapshot();
    std::cout << "plans:       submitted=" << p.submitted << " ok=" << p.ok
              << " failed=" << p.failed << " nodes_executed=" << p.executed
              << " node_cache_hits=" << p.cache_hits << " shared="
              << p.shared << " sources_fused=" << p.sources_fused << "\n";
}

void
print_mutations(const Mutator& mutator, const ServerStats& stats)
{
    std::cout << "mutations:   applied=" << mutator.applied()
              << " failed=" << mutator.failed() << " inserted_arcs="
              << stats.mutation_inserted_arcs << " deleted_arcs="
              << stats.mutation_deleted_arcs << " compactions="
              << stats.compactions << " incremental="
              << stats.dyn_incremental << " full=" << stats.dyn_full
              << "\n";
}

int
write_csv(const std::string& path, const std::vector<Request>& population,
          const std::vector<Outcome>& outcomes)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "cannot open csv file: " << path << "\n";
        return 2;
    }
    out << "request,framework,kernel,graph,source,status,cache_hit,"
           "shared_execution,degraded,queue_seconds,execute_seconds,"
           "service_seconds,width,lanes,parallel_efficiency\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome& o = outcomes[i];
        const Request& req = population[
            static_cast<std::size_t>(o.population_index)];
        out << i << "," << req.framework << ","
            << gm::harness::to_string(req.kernel) << "," << req.graph
            << "," << req.source << "," << gm::support::to_string(o.code)
            << "," << (o.cache_hit ? 1 : 0) << "," << (o.shared ? 1 : 0)
            << "," << (o.degraded ? 1 : 0)
            << "," << gm::support::json_double(o.queue_seconds) << ","
            << gm::support::json_double(o.execute_seconds) << ","
            << gm::support::json_double(o.service_seconds) << ","
            << req.width << "," << o.lanes << ","
            << gm::support::json_double(o.parallel_efficiency) << "\n";
    }
    out.flush();
    if (!out) {
        std::cerr << "write error: " << path << "\n";
        return 2;
    }
    std::cout << "per-request csv written to " << path << " ("
              << outcomes.size() << " rows)\n";
    return 0;
}

int
write_baseline(const std::string& path,
               const gm::support::EnvFingerprint& fingerprint,
               const std::vector<Request>& population,
               const std::vector<Outcome>& outcomes)
{
    // One perf cell per kernel x graph: seconds = ok service latencies.
    std::map<std::string, gm::perf::BaselineCell> cells;
    std::map<std::string, std::uint64_t> hits;
    for (const Outcome& o : outcomes) {
        const Request& req = population[
            static_cast<std::size_t>(o.population_index)];
        const std::string kernel = gm::harness::to_string(req.kernel);
        const std::string key = kernel + "/" + req.graph;
        gm::perf::BaselineCell& cell = cells[key];
        if (cell.kernel.empty()) {
            cell.mode = "Serve";
            cell.framework = req.framework;
            cell.kernel = kernel;
            cell.graph = req.graph;
            cell.verified = true;
        }
        ++cell.counters["requests"];
        if (o.code == StatusCode::kOk) {
            cell.seconds.push_back(o.service_seconds);
            if (o.cache_hit)
                ++hits[key];
        }
    }
    gm::perf::Baseline baseline;
    baseline.fingerprint = fingerprint;
    for (auto& [key, cell] : cells) {
        cell.counters["cache_hits"] = hits[key];
        baseline.cells.push_back(std::move(cell));
    }
    if (auto s = gm::perf::save_baseline(path, baseline); !s.is_ok()) {
        std::cerr << s.to_string() << "\n";
        return 2;
    }
    std::cout << "baseline written to " << path << " ("
              << baseline.cells.size() << " cells)\n";
    return 0;
}

// ---------------------------------------------------------------- chaos

/** Aggregated view of one chaos phase. */
struct PhaseStats
{
    std::string name;
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t fresh = 0;    ///< ok and not degraded
    std::uint64_t degraded = 0; ///< ok but served stale
    std::uint64_t shed = 0;
    std::uint64_t deadline = 0;
    std::uint64_t failed = 0;
    double wall_seconds = 0;
    std::uint64_t executions = 0; ///< outcomes that ran a kernel
    std::uint64_t lanes_total = 0;
    /** Executions on more than one lane: the only ones with a parallel
     *  efficiency to average. */
    std::uint64_t parallel_executions = 0;
    double efficiency_total = 0;

    double
    mean_lanes() const
    {
        return executions == 0 ? 0
                               : static_cast<double>(lanes_total) /
                                     static_cast<double>(executions);
    }

    double
    mean_parallel_efficiency() const
    {
        return parallel_executions == 0
                   ? 0
                   : efficiency_total /
                         static_cast<double>(parallel_executions);
    }

    double
    availability() const
    {
        return issued == 0 ? 1.0
                           : static_cast<double>(ok) /
                                 static_cast<double>(issued);
    }

    double
    goodput_rps() const
    {
        return wall_seconds > 0
                   ? static_cast<double>(fresh) / wall_seconds
                   : 0;
    }

    double
    degraded_share() const
    {
        return ok == 0 ? 0
                       : static_cast<double>(degraded) /
                             static_cast<double>(ok);
    }
};

PhaseStats
summarize_phase(const std::string& name,
                const std::vector<Outcome>& outcomes, double wall)
{
    PhaseStats phase;
    phase.name = name;
    phase.issued = outcomes.size();
    phase.wall_seconds = wall;
    for (const Outcome& o : outcomes) {
        if (o.lanes > 0) {
            ++phase.executions;
            phase.lanes_total += static_cast<std::uint64_t>(o.lanes);
        }
        if (o.lanes > 1) {
            ++phase.parallel_executions;
            phase.efficiency_total += o.parallel_efficiency;
        }
        switch (o.code) {
          case StatusCode::kOk:
            ++phase.ok;
            if (o.degraded)
                ++phase.degraded;
            else
                ++phase.fresh;
            break;
          case StatusCode::kResourceExhausted:
            ++phase.shed;
            break;
          case StatusCode::kDeadlineExceeded:
            ++phase.deadline;
            break;
          default:
            ++phase.failed;
            break;
        }
    }
    return phase;
}

void
print_phase(const PhaseStats& p)
{
    std::cout << "chaos " << std::left << std::setw(8) << (p.name + ":")
              << std::right << " issued=" << p.issued << " ok=" << p.ok
              << " availability=" << std::fixed << std::setprecision(4)
              << p.availability() << " degraded=" << p.degraded
              << " shed=" << p.shed << " deadline_exceeded=" << p.deadline
              << " failed=" << p.failed << " goodput=" << std::setprecision(1)
              << p.goodput_rps() << " req/s\n";
}

std::string
slo_record_line(const PhaseStats& p, const ServerStats& stats,
                bool overall)
{
    std::ostringstream out;
    out << "{\"kind\":\"serve.slo\",\"phase\":\""
        << gm::support::json_escape(p.name) << "\",\"issued\":" << p.issued
        << ",\"ok\":" << p.ok << ",\"degraded\":" << p.degraded
        << ",\"shed\":" << p.shed << ",\"deadline_exceeded\":" << p.deadline
        << ",\"failed\":" << p.failed << ",\"availability\":"
        << gm::support::json_double(p.availability())
        << ",\"goodput_rps\":" << gm::support::json_double(p.goodput_rps())
        << ",\"degraded_share\":"
        << gm::support::json_double(p.degraded_share())
        << ",\"wall_seconds\":" << gm::support::json_double(p.wall_seconds)
        << ",\"mean_lanes\":" << gm::support::json_double(p.mean_lanes())
        << ",\"mean_parallel_efficiency\":"
        << gm::support::json_double(p.mean_parallel_efficiency());
    if (overall)
        out << ",\"breaker_transitions\":" << stats.breaker_transitions
            << ",\"breaker_open_cells\":" << stats.breaker_open_cells
            << ",\"retries\":" << stats.retries
            << ",\"retry_denied\":" << stats.retry_denied;
    out << "}";
    return out.str();
}

} // namespace

int
main(int argc, char** argv)
{
    int scale = 8;
    int requests = 200;
    int distinct = 32;
    int clients = 8;
    bool open_loop = false;
    double rate = 500;
    int deadline_ms = 0;
    std::string width_spec = "1";
    std::string framework = "GAP";
    std::string kernels_csv = "BFS,SSSP,CC,PR";
    std::uint64_t seed = 42;
    double write_mix = 0;
    double plan_mix = 0;
    std::size_t cache_mb = 64;
    std::string csv_path;
    std::string baseline_path;
    bool chaos = false;
    std::string chaos_faults =
        "serve.execute:0.2:9,serve.admission:0.05:11:delay=2,"
        "serve.cache.insert:0.25:13";
    int cache_ttl_ms = -1; // chaos defaults to 25; -1 = unset
    int think_ms = -1;     // chaos defaults to 1; -1 = unset
    std::string slo_path;
    double min_availability = -1;
    ServerOptions server_options;

    gm::cli::ArgParser parser("serve_bench");
    parser.usage(usage);
    parser.value({"--scale"}, &scale);
    parser.value({"--workers"}, &server_options.workers);
    parser.value({"--queue"}, [&server_options](const std::string& v) {
        const int n = std::atoi(v.c_str());
        if (n < 1)
            return false;
        server_options.queue_capacity = static_cast<std::size_t>(n);
        return true;
    });
    parser.value({"--cache-mb"}, &cache_mb);
    parser.value({"--requests"}, &requests);
    parser.value({"--distinct"}, &distinct);
    parser.value({"--clients"}, &clients);
    parser.flag({"--open-loop"}, &open_loop);
    parser.value({"--rate"}, &rate);
    parser.value({"--deadline-ms"}, &deadline_ms);
    parser.value({"--width"}, &width_spec);
    parser.value({"--lane-budget"}, &server_options.lane_budget);
    parser.value({"--framework"}, &framework);
    parser.value({"--kernels"}, &kernels_csv);
    parser.value({"--seed"}, &seed);
    parser.value({"--write-mix"}, &write_mix);
    parser.value({"--plan-mix"}, &plan_mix);
    parser.value({"--csv"}, &csv_path);
    parser.value({"--baseline-out"}, &baseline_path);
    parser.value({"--metrics-out"}, &server_options.metrics_path);
    parser.value({"--metrics-port"}, &server_options.metrics_port);
    parser.value({"--telemetry-out"}, &server_options.telemetry_path);
    parser.value({"--telemetry-flush-ms"},
                 &server_options.telemetry_flush_ms);
    parser.flag({"--chaos"}, &chaos);
    parser.value({"--chaos-faults"}, &chaos_faults);
    parser.value({"--cache-ttl-ms"}, &cache_ttl_ms);
    parser.value({"--think-ms"}, &think_ms);
    parser.value({"--slo-out"}, &slo_path);
    parser.value({"--min-availability"}, &min_availability);
    if (!parser.parse(argc, argv))
        return parser.help_requested() ? 0 : 1;
    if (scale < 6 || requests < 1 || distinct < 1 || clients < 1 ||
        server_options.workers < 1 || rate <= 0 || deadline_ms < 0) {
        std::cerr << "invalid --scale/--requests/--distinct/--clients/"
                     "--workers/--rate/--deadline-ms\n";
        return 1;
    }
    if (write_mix < 0 || write_mix > 1) {
        std::cerr << "invalid --write-mix (want a fraction in [0,1])\n";
        return 1;
    }
    if (plan_mix < 0 || plan_mix > 1) {
        std::cerr << "invalid --plan-mix (want a fraction in [0,1])\n";
        return 1;
    }
    server_options.cache_capacity_bytes = cache_mb << 20;
    if (cache_ttl_ms >= 0)
        server_options.cache_ttl_ms = cache_ttl_ms;
    if (chaos) {
        // Chaos posture: short TTL so the storm actually executes (and
        // stale entries exist to degrade onto), a breaker that opens and
        // re-closes within the run, and client-side retries.
        if (cache_ttl_ms < 0)
            server_options.cache_ttl_ms = 25;
        if (think_ms < 0)
            think_ms = 1;
        server_options.breaker.failure_threshold = 3;
        server_options.breaker.cooldown_ns = 250'000'000; // 250 ms
        server_options.breaker.close_successes = 1;
        server_options.retry.max_attempts = 3;
        server_options.retry.initial_backoff_ms = 2;
        server_options.retry.max_backoff_ms = 20;
        server_options.retry.seed = seed;
        // SLO windows sized to the run, not to production: 50 ms buckets
        // so the burn monitor fires within the storm phase and clears
        // during recovery.  The target is on *fresh* availability, and
        // this workload deliberately serves degraded under faults, so
        // 90% (not three nines) is the meaningful line here.
        server_options.slo.bucket_ns = 50'000'000;
        server_options.slo.short_buckets = 4;
        server_options.slo.long_buckets = 20;
        server_options.slo.availability_target = 0.9;
    }
    if (think_ms < 0)
        think_ms = 0;

    bool kernels_ok = false;
    const std::vector<Kernel> kernels =
        parse_kernels(kernels_csv, &kernels_ok);
    if (!kernels_ok)
        return 1;
    WidthDist width_dist;
    if (!parse_width_dist(width_spec, &width_dist)) {
        std::cerr << "bad --width spec: " << width_spec << "\n";
        return 1;
    }

    gm::support::EnvFingerprint fingerprint =
        gm::support::collect_fingerprint();
    {
        std::ostringstream scales;
        scales << "scale=" << scale << " workers="
               << server_options.workers << " requests=" << requests
               << " distinct=" << distinct << " seed=" << seed
               << (open_loop ? " open-loop" : " closed-loop");
        if (write_mix > 0)
            scales << " write-mix=" << write_mix;
        fingerprint.scales = scales.str();
    }
    if (!server_options.metrics_path.empty()) {
        if (auto s = gm::support::append_jsonl(
                server_options.metrics_path,
                gm::support::fingerprint_record_line(fingerprint));
            !s.is_ok())
            std::cerr << s.to_string() << "\n";
    }

    Timer build_timer;
    build_timer.start();
    gm::harness::DatasetSuite suite = gm::harness::make_gap_suite(scale);
    build_timer.stop();
    std::cout << "suite built: " << suite.size() << " graphs at 2^"
              << scale << " vertices in " << std::fixed
              << std::setprecision(3) << build_timer.seconds() << " s\n";

    // Mutation targets are captured before the suite moves into the
    // server; the write-mix driver only needs names and vertex counts.
    std::vector<MutTarget> targets;
    if (write_mix > 0 || plan_mix > 0) {
        targets.reserve(suite.size());
        for (const auto& ds : suite.datasets)
            targets.push_back(
                {ds->name, static_cast<gm::vid_t>(ds->g().num_vertices())});
    }

    gm::Xoshiro256 rng(seed);
    const std::vector<Request> population = make_population(
        suite, kernels, framework, distinct, deadline_ms, width_dist, rng);
    std::vector<int> stream(static_cast<std::size_t>(requests));
    for (int& index : stream)
        index = static_cast<int>(rng.next_bounded(population.size()));

    Server server(std::move(suite), gm::harness::make_frameworks(),
                  server_options);
    Mutator mutator(server, targets, write_mix, seed ^ 0x64796eULL);
    PlanMixer planner(server, std::move(targets), plan_mix,
                      seed ^ 0x706c616eULL);
    if (server.metrics_port() >= 0)
        // Flushed eagerly: scrape clients (CI, gmtop) parse the port
        // from a redirected log while the bench is still running.
        std::cout << "metrics exposition on 127.0.0.1:"
                  << server.metrics_port() << std::endl;

    if (chaos) {
        // Closed-loop driver over explicit population indices; every
        // request opts into degraded serving and priorities rotate
        // deterministically across the three classes.
        auto drive = [&](const std::vector<int>& indices) {
            std::vector<Outcome> outs(indices.size());
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> threads;
            threads.reserve(static_cast<std::size_t>(clients));
            for (int c = 0; c < clients; ++c) {
                threads.emplace_back([&] {
                    for (;;) {
                        const std::size_t i =
                            next.fetch_add(1, std::memory_order_relaxed);
                        if (i >= indices.size())
                            return;
                        Outcome& out = outs[i];
                        out.population_index = indices[i];
                        Request req = population[
                            static_cast<std::size_t>(indices[i])];
                        req.allow_stale = true;
                        req.priority = static_cast<gm::serve::Priority>(
                            i % static_cast<std::size_t>(
                                    gm::serve::kPriorityClasses));
                        mutator.maybe_mutate();
                        planner.maybe_plan();
                        record_outcome(out, server.query(req));
                        if (think_ms > 0)
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(think_ms));
                    }
                });
            }
            for (auto& thread : threads)
                thread.join();
            return outs;
        };
        auto run_phase = [&](const std::string& name,
                             const std::vector<int>& indices) {
            const PlanCounts plans_before = planner.snapshot();
            Timer timer;
            timer.start();
            const std::vector<Outcome> outs = drive(indices);
            timer.stop();
            PhaseStats phase =
                summarize_phase(name, outs, timer.seconds());
            // Plans issued during the phase fold into its availability:
            // a completed plan is one served (fresh) unit of work, a
            // failed one counts against the SLO like a failed query.
            const PlanCounts plans_after = planner.snapshot();
            phase.issued += plans_after.submitted - plans_before.submitted;
            phase.ok += plans_after.ok - plans_before.ok;
            phase.fresh += plans_after.ok - plans_before.ok;
            phase.failed += plans_after.failed - plans_before.failed;
            print_phase(phase);
            // End-of-phase burn-monitor state: CI greps for
            // "slo storm: ... firing=1" / "slo recover: ... firing=0".
            const gm::telemetry::SloEvaluation ev =
                server.slo_evaluation();
            std::cout << "slo " << std::left << std::setw(8)
                      << (name + ":") << std::right << " firing="
                      << (ev.firing ? 1 : 0) << " burn_short="
                      << std::fixed << std::setprecision(1)
                      << ev.burn_short << " burn_long=" << ev.burn_long
                      << " fresh_availability_short="
                      << std::setprecision(4)
                      << ev.fresh_availability_short << " p99_short_ms="
                      << std::setprecision(2)
                      << static_cast<double>(ev.p99_short_ns) * 1e-6
                      << "\n";
            return phase;
        };

        // Warm: every distinct query once, fault-free, so each cache key
        // exists before the storm.
        gm::support::FaultInjector::global().clear();
        std::vector<int> warm_indices(population.size());
        for (std::size_t i = 0; i < warm_indices.size(); ++i)
            warm_indices[i] = static_cast<int>(i);
        const PhaseStats warm = run_phase("warm", warm_indices);

        // Storm: the pinned fault spec is armed for the sampled stream.
        if (auto s = gm::support::FaultInjector::global().configure(
                chaos_faults);
            !s.is_ok()) {
            std::cerr << "bad --chaos-faults: " << s.to_string() << "\n";
            return 1;
        }
        std::cout << "chaos storm faults: " << chaos_faults << "\n";
        const PhaseStats storm = run_phase("storm", stream);
        gm::support::FaultInjector::global().clear();
        const std::uint64_t storm_transitions =
            server.stats_snapshot().breaker_transitions;

        // Recover: wait out the breaker cooldown, then run the
        // population twice fault-free so every open cell gets probed
        // shut.
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            server_options.breaker.cooldown_ns) +
            std::chrono::milliseconds(50));
        std::vector<int> recover_indices = warm_indices;
        recover_indices.insert(recover_indices.end(),
                               warm_indices.begin(), warm_indices.end());
        const PhaseStats recover = run_phase("recover", recover_indices);

        // Settle: age the storm's buckets out of the burn monitor's
        // short window, then one fault-free pass so the final
        // evaluation sees recovery only — this is the phase whose
        // "firing=0" line proves the monitor clears.
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            server_options.slo.bucket_ns *
            (server_options.slo.short_buckets + 1)));
        const PhaseStats settle = run_phase("settle", warm_indices);

        server.shutdown();
        const ServerStats stats = server.stats_snapshot();

        PhaseStats overall;
        overall.name = "overall";
        for (const PhaseStats* p : {&warm, &storm, &recover, &settle}) {
            overall.issued += p->issued;
            overall.ok += p->ok;
            overall.fresh += p->fresh;
            overall.degraded += p->degraded;
            overall.shed += p->shed;
            overall.deadline += p->deadline;
            overall.failed += p->failed;
            overall.wall_seconds += p->wall_seconds;
        }
        std::cout << "breaker:     transitions=" << stats.breaker_transitions
                  << " (storm " << storm_transitions << ") open_cells="
                  << stats.breaker_open_cells << " retries="
                  << stats.retries << " retry_denied=" << stats.retry_denied
                  << "\n";
        if (write_mix > 0)
            print_mutations(mutator, stats);
        if (plan_mix > 0)
            print_plans(planner);
        std::cout << "chaos_slo:   availability=" << std::fixed
                  << std::setprecision(4) << storm.availability()
                  << " degraded_share=" << storm.degraded_share()
                  << " goodput=" << std::setprecision(1)
                  << storm.goodput_rps() << " req/s breaker_transitions="
                  << stats.breaker_transitions << " failed="
                  << overall.failed << "\n";

        int code = 0;
        if (!slo_path.empty()) {
            std::vector<std::string> lines = {
                gm::support::fingerprint_record_line(fingerprint)};
            for (const PhaseStats* p : {&warm, &storm, &recover, &settle})
                lines.push_back(slo_record_line(*p, stats, false));
            lines.push_back(slo_record_line(overall, stats, true));
            gm::support::Status written;
            for (const std::string& line : lines) {
                written = gm::support::append_jsonl(slo_path, line);
                if (!written.is_ok())
                    break;
            }
            if (!written.is_ok()) {
                std::cerr << written.to_string() << "\n";
                code = 2;
            } else {
                std::cout << "slo report written to " << slo_path << "\n";
            }
        }
        if (min_availability >= 0 &&
            storm.availability() < min_availability) {
            std::cerr << "SLO violation: storm availability "
                      << storm.availability() << " < " << min_availability
                      << "\n";
            code = std::max(code, 4);
        }
        return code;
    }

    std::vector<Outcome> outcomes(static_cast<std::size_t>(requests));
    Timer drive_timer;
    drive_timer.start();
    if (open_loop) {
        // Fixed-interval arrivals; completions are collected afterwards
        // from the handles, so a slow server sheds instead of slowing the
        // dispatcher down.
        const auto interval = std::chrono::nanoseconds(
            static_cast<std::int64_t>(1e9 / rate));
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::pair<int, Server::Handle>> pending;
        pending.reserve(stream.size());
        for (int i = 0; i < requests; ++i) {
            std::this_thread::sleep_until(start + i * interval);
            Outcome& out = outcomes[static_cast<std::size_t>(i)];
            out.population_index = stream[static_cast<std::size_t>(i)];
            auto handle = server.submit(
                population[static_cast<std::size_t>(
                    out.population_index)]);
            if (handle.is_ok())
                pending.emplace_back(i, *std::move(handle));
            else
                out.code = handle.status().code();
        }
        for (auto& [index, handle] : pending)
            record_outcome(outcomes[static_cast<std::size_t>(index)],
                           handle.wait());
    } else {
        std::atomic<int> next{0};
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            workers.emplace_back([&] {
                for (;;) {
                    const int i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= requests)
                        return;
                    Outcome& out = outcomes[static_cast<std::size_t>(i)];
                    out.population_index =
                        stream[static_cast<std::size_t>(i)];
                    mutator.maybe_mutate();
                    planner.maybe_plan();
                    record_outcome(
                        out, server.query(population[
                                 static_cast<std::size_t>(
                                     out.population_index)]));
                }
            });
        }
        for (auto& worker : workers)
            worker.join();
    }
    drive_timer.stop();
    server.shutdown();

    // ------------------------------------------------------------ report
    std::vector<double> latencies;
    std::uint64_t ok = 0, deadline = 0, cancelled = 0, shed = 0,
                  failed = 0, hits = 0;
    // Efficiency is averaged over multi-lane executions only: a one-lane
    // execution has none to report.
    std::uint64_t execs = 0, lanes_total = 0, parallel_execs = 0;
    double efficiency_total = 0;
    for (const Outcome& o : outcomes) {
        if (o.lanes > 0) {
            ++execs;
            lanes_total += static_cast<std::uint64_t>(o.lanes);
        }
        if (o.lanes > 1) {
            ++parallel_execs;
            efficiency_total += o.parallel_efficiency;
        }
        switch (o.code) {
          case StatusCode::kOk:
            ++ok;
            latencies.push_back(o.service_seconds);
            if (o.cache_hit)
                ++hits;
            break;
          case StatusCode::kDeadlineExceeded:
            ++deadline;
            break;
          case StatusCode::kCancelled:
            ++cancelled;
            break;
          case StatusCode::kResourceExhausted:
            ++shed;
            break;
          default:
            ++failed;
            break;
        }
    }
    const ServerStats stats = server.stats_snapshot();
    const double wall = drive_timer.seconds();
    const double hit_ratio =
        ok > 0 ? static_cast<double>(hits) / static_cast<double>(ok) : 0;
    std::ostringstream mode_line;
    if (open_loop)
        mode_line << "open loop @ " << std::fixed << std::setprecision(0)
                  << rate << " req/s";
    else
        mode_line << "closed loop, " << clients << " clients";
    std::cout << "mode:        " << mode_line.str() << "\n";
    std::cout << "requests:    " << requests << " over " << distinct
              << " distinct queries (seed " << seed << ")\n";
    std::cout << "throughput:  " << std::fixed << std::setprecision(1)
              << static_cast<double>(requests) / wall << " req/s ("
              << std::setprecision(3) << wall << " s wall)\n";
    std::cout << "latency:     p50 "
              << gm::stats::percentile_of(latencies, 50) * 1e3
              << " ms, p95 "
              << gm::stats::percentile_of(latencies, 95) * 1e3
              << " ms, p99 "
              << gm::stats::percentile_of(latencies, 99) * 1e3 << " ms ("
              << ok << " ok)\n";
    std::cout << "cache:       " << hits << " hits (ratio "
              << std::setprecision(3) << hit_ratio << "), "
              << stats.single_flight_joins << " single-flight joins, "
              << stats.executions << " executions\n";
    std::cout << "outcomes:    ok=" << ok << " deadline_exceeded="
              << deadline << " cancelled=" << cancelled << " shed=" << shed
              << " failed=" << failed << "\n";
    if (write_mix > 0)
        print_mutations(mutator, stats);
    if (plan_mix > 0)
        print_plans(planner);
    if (execs > 0) {
        std::cout << "parallel:    mean lanes/request "
                  << std::setprecision(2)
                  << static_cast<double>(lanes_total) /
                         static_cast<double>(execs)
                  << " over " << execs << " executions, mean efficiency "
                  << std::setprecision(3)
                  << (parallel_execs == 0
                          ? 0.0
                          : efficiency_total /
                                static_cast<double>(parallel_execs))
                  << " over " << parallel_execs
                  << " multi-lane executions (" << stats.lanes_granted
                  << " lanes granted in total)\n";
    }

    int code = 0;
    if (!csv_path.empty())
        code = std::max(code, write_csv(csv_path, population, outcomes));
    if (!baseline_path.empty())
        code = std::max(code, write_baseline(baseline_path, fingerprint,
                                             population, outcomes));
    if (failed > 0) {
        std::cerr << failed << " request(s) failed unexpectedly\n";
        code = std::max(code, 3);
    }
    if (const PlanCounts plans = planner.snapshot(); plans.failed > 0) {
        std::cerr << plans.failed << " plan(s) failed unexpectedly\n";
        code = std::max(code, 3);
    }
    return code;
}
