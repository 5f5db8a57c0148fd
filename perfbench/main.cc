/**
 * @file
 * gm_perfbench: the repository benchmark.
 *
 *   gm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Every workload generates the GAP suite from the seed, then runs three
 * phases against the program's public functions under one rule set of
 * Tables IV/V: cells (the cube at one and all lanes), serve_hot
 * (closed-loop cache hits) and serve_mixed (open-loop reads, writes and
 * plans).  It checks every answer it can and prints each metric by name
 * with its unit; the last line of standard output is one JSON object.
 * --trace 0 reports the bounded end-to-end metrics, --trace 1 the
 * per-layer ones (see README.md).
 *
 * Exit codes: 0 ok, 1 an operation failed, an answer was wrong or the
 * load generator fell behind, 2 usage.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "gm/harness/dataset.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/timer.hh"
#include "perfbench.hh"

namespace
{

using perfbench::Config;
using perfbench::Report;
using perfbench::Workload;

/** The workloads BENCHMARK.json names: the paper's two rule sets on the
 *  2^14-vertex suite.  Both run every phase.  The nominal serve_mixed rate
 *  is a sixth of a quiet 4-core host's capacity and half of what it keeps
 *  while moderately slowed by other tenants (README.md). */
const Workload kWorkloads[] = {
    {"baseline", gm::harness::Mode::kBaseline, 14, 40, 250},
    {"optimized", gm::harness::Mode::kOptimized, 14, 40, 250},
};

/** The end-to-end metrics BENCHMARK.json bounds: those whose spread over
 *  ten seeds stayed within the largest allowed bound in every recorded
 *  set on a shared host (README.md).  An untraced run prints the others
 *  as "unbounded"; the traced run reports them with the per-layer
 *  metrics. */
const std::set<std::string> kBounded = {"setup_s", "peak_rss_mb",
                                        "ok_frac"};

/** Setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 7;
/** Share of --seconds given to serve_hot.  The cells pass takes what it
 *  takes; serve_mixed gets the rest of --seconds, but at least
 *  kMixedMinShare of it, so a slow host shortens the open loop rather
 *  than lengthening the run. */
constexpr double kHotShare = 0.075;
constexpr double kMixedMinShare = 0.3;
/** par probes: the median over kProbeBatches of the mean call time in a
 *  batch of kProbeBatch calls (a lone call can be shorter than the
 *  clock's resolution). */
constexpr int kProbeBatches = 200;
constexpr int kProbeBatch = 10;

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "gm_perfbench: %s\n"
                 "usage: gm_perfbench --workload <baseline|optimized>"
                 " --seed <n> --seconds <s> --trace <0|1>\n"
                 "                    [--scale <n>] [--trace-out <file>]"
                 " [--corrupt-answer]\n",
                 msg);
    return 2;
}

/** Microseconds per call of @p fn (see kProbeBatches). */
template <typename Fn>
double
probe_us(Fn&& fn)
{
    std::vector<double> us;
    us.reserve(kProbeBatches);
    for (int i = 0; i < kProbeBatches; ++i) {
        const std::int64_t t0 = gm::Timer::now_ns();
        for (int k = 0; k < kProbeBatch; ++k)
            fn();
        us.push_back(static_cast<double>(gm::Timer::now_ns() - t0) * 1e-3 /
                     kProbeBatch);
    }
    return perfbench::pct(std::move(us), 50);
}

struct SetupRun
{
    gm::harness::DatasetSuite suite;
    double total_s = 0;
    double generate_s = 0;
    double build_ms[4] = {}; ///< weighted, undirected, grb, grb_weighted
};

/** Generate the suite and build every form the phases read. */
SetupRun
set_up(const Config& cfg)
{
    SetupRun run;
    const double t0 = perfbench::now_s();
    run.suite = gm::harness::make_gap_suite(cfg.workload.scale, 16, cfg.seed);
    run.generate_s = perfbench::now_s() - t0;
    for (const auto& ds : run.suite.datasets) {
        const gm::store::GraphStore& store = *ds->store();
        auto timed = [&](int form, auto&& get) {
            const double b = perfbench::now_s();
            get();
            run.build_ms[form] += (perfbench::now_s() - b) * 1e3;
        };
        timed(0, [&] { store.weighted(); });
        timed(1, [&] {
            store.undirected();
            // Optimized-mode TC reads the degree-relabeled copy too.
            if (cfg.workload.mode == gm::harness::Mode::kOptimized)
                store.relabeled();
        });
        timed(2, [&] { store.grb(); });
        timed(3, [&] { store.grb_weighted(); });
    }
    run.total_s = perfbench::now_s() - t0;
    return run;
}

void
print_metric(const char* kind, const perfbench::Metric& m)
{
    std::printf("%s %s = %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Config cfg;
    std::string workload;
    int scale = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--corrupt-answer") {
            cfg.corrupt = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            workload = argv[++i];
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(argv[++i], nullptr);
            have_seconds = true;
        } else if (arg == "--trace") {
            cfg.trace = std::strcmp(argv[++i], "1") == 0;
            have_trace = true;
        } else if (arg == "--scale") {
            scale = std::atoi(argv[++i]);
        } else if (arg == "--trace-out") {
            cfg.trace_out = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    bool found = false;
    for (const Workload& w : kWorkloads) {
        if (w.name == workload) {
            cfg.workload = w;
            found = true;
        }
    }
    if (!found)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace || cfg.seconds <= 0)
        return usage("--seed, --seconds (> 0) and --trace are required");
    if (scale != 0) {
        if (scale < 6 || scale > 20)
            return usage("--scale must be in [6, 20]");
        cfg.workload.scale = scale;
    }
    cfg.lanes = gm::par::ThreadPool::instance().num_threads();
    std::printf("workload %s seed %llu mode %s scale %d lanes %d seconds "
                "%.3g trace %d\n",
                cfg.workload.name.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                gm::harness::to_string(cfg.workload.mode).c_str(),
                cfg.workload.scale, cfg.lanes, cfg.seconds,
                cfg.trace ? 1 : 0);

    Report e2e, layer;
    perfbench::Tally tally;

    // Setup, several times: the last run is served and measured, the one
    // before it is the untouched reference serve_mixed checks against.
    // Under a one-lane lease: set-up time then measures the set-up work,
    // not the host's cross-core wake-ups, which swing several-fold on a
    // shared host.
    std::vector<double> setup_s, generate_s, build_ms[4];
    gm::harness::DatasetSuite suite, reference;
    {
        gm::par::LaneLease setup_lease(1);
        for (int rep = 0; rep < kSetupReps; ++rep) {
            reference = std::move(suite);
            SetupRun run = set_up(cfg);
            setup_s.push_back(run.total_s);
            generate_s.push_back(run.generate_s);
            for (int f = 0; f < 4; ++f)
                build_ms[f].push_back(run.build_ms[f]);
            suite = std::move(run.suite);
        }
    }
    for (std::size_t g = 0; g < suite.size(); ++g)
        tally.op(tally.check(suite[g].store()->fingerprint() ==
                             reference[g].store()->fingerprint()));

    const double resident_mb =
        static_cast<double>(suite.bytes_resident()) / (1 << 20);
    auto& pool = gm::par::ThreadPool::instance();
    auto noop = [](int) {};
    double fork_us[2];
    for (int w = 0; w < 2; ++w) {
        gm::par::LaneLease lease(w == 0 ? 1 : cfg.lanes);
        fork_us[w] = probe_us([&] { pool.run(noop); });
    }
    const double lease_us =
        probe_us([&] { gm::par::LaneLease lease(cfg.lanes); });

    if (cfg.trace)
        perfbench::trace::set_enabled(true);
    const auto frameworks = gm::harness::make_frameworks();
    perfbench::Context ctx{cfg, suite, frameworks, e2e, layer, tally};
    const double start = perfbench::now_s();
    perfbench::run_cells(ctx);
    // Up to here the work is fixed by the seed.  The serve phases then
    // hold as many requests and answers as the host's speed lets them
    // serve, so they would make the peak follow the host.
    e2e.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    perfbench::run_serve_hot(ctx, cfg.seconds * kHotShare);
    perfbench::run_serve_mixed(
        ctx, reference,
        std::max(cfg.seconds - (perfbench::now_s() - start),
                 cfg.seconds * kMixedMinShare));
    perfbench::trace::set_enabled(false);

    const double attempted = static_cast<double>(tally.attempted.load());
    const double failed = static_cast<double>(tally.failed.load());
    e2e.add("setup_s", perfbench::pct(setup_s, 50), "s");
    e2e.add("ok_frac", (attempted - failed) / attempted, "ratio");

    layer.add("graph.generate_s", perfbench::pct(generate_s, 50), "s");
    const char* forms[4] = {"weighted", "undirected", "grb", "grb_weighted"};
    for (int f = 0; f < 4; ++f)
        layer.add(std::string("store.build_ms.") + forms[f],
                  perfbench::pct(build_ms[f], 50), "ms");
    layer.add("store.resident_mb", resident_mb, "MiB");
    layer.add("par.fork_us.w1", fork_us[0], "us");
    layer.add("par.fork_us.wmax", fork_us[1], "us");
    layer.add("par.lease_us.wmax", lease_us, "us");
    for (const auto& [name, us] : perfbench::trace::self_us())
        layer.add("span." + name + ".self_us", us, "us");
    layer.add("check.checked", static_cast<double>(tally.checked.load()),
              "count");
    layer.add("check.mismatched",
              static_cast<double>(tally.mismatched.load()), "count");
    if (cfg.trace && !cfg.trace_out.empty() &&
        !perfbench::trace::write(cfg.trace_out))
        std::fprintf(stderr, "gm_perfbench: cannot write %s\n",
                     cfg.trace_out.c_str());

    const bool correct = tally.mismatched.load() == 0 && !tally.invalid;
    std::printf("answers: %llu checked, %llu mismatched; operations: %llu "
                "attempted, %llu failed\n",
                static_cast<unsigned long long>(tally.checked.load()),
                static_cast<unsigned long long>(tally.mismatched.load()),
                static_cast<unsigned long long>(tally.attempted.load()),
                static_cast<unsigned long long>(tally.failed.load()));
    // The JSON carries exactly BENCHMARK.json's end_to_end metrics
    // (untraced) or its per_layer ones (traced).
    std::vector<perfbench::Metric> shown;
    if (cfg.trace)
        shown = layer.metrics();
    for (const auto& m : e2e.metrics()) {
        const bool unbounded = kBounded.count(m.name) == 0;
        if (!cfg.trace)
            print_metric(unbounded ? "unbounded" : "end_to_end", m);
        if (cfg.trace == unbounded)
            shown.push_back(m);
    }
    if (cfg.trace) {
        for (const auto& m : shown)
            print_metric("per_layer", m);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted.load());
    json += ", \"failed\": " + std::to_string(tally.failed.load());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : shown) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct && tally.failed.load() == 0 ? 0 : 1;
}
