/**
 * @file
 * Shared pieces of the repository benchmark: run configuration, the
 * metric report, operation/answer-check tallies, percentile helpers, and
 * the benchmark's own in-memory span recorder.
 *
 * The benchmark drives the program only through its public headers; every
 * span here wraps a call the benchmark makes into one layer, so no probe
 * lives under src/.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"

namespace perfbench
{

/** Fixed parameters of one workload (BENCHMARK.json names them). */
struct Workload
{
    std::string name;
    /** Rule set of every cell, served query and plan (Tables IV/V). */
    gm::harness::Mode mode = gm::harness::Mode::kBaseline;
    int scale = 14;          ///< log2 vertices per GAP graph
    double nominal_rps = 0;  ///< serve_mixed nominal step rate
    double slo_ms = 0;       ///< serve_mixed read p99 latency limit
};

/** One benchmark run. */
struct Config
{
    Workload workload;
    std::uint64_t seed = 1;
    double seconds = 40;     ///< measured time, split across the phases
    bool trace = false;      ///< traced run: per-layer metrics
    std::string trace_out;   ///< span dump of a traced run ("" = none)
    bool corrupt = false;    ///< test hook: corrupt one checked answer
    int lanes = 1;           ///< all lanes of the process-wide pool
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Named metrics in insertion order; a name may be added once. */
class Report
{
  public:
    void add(const std::string& name, double value, const std::string& unit);
    const std::vector<Metric>& metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Operations attempted/failed and answers checked/mismatched, shared by
 *  every phase.  A mismatched answer also counts as a failed operation. */
struct Tally
{
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> checked{0};
    std::atomic<std::uint64_t> mismatched{0};
    /** Set when the load generator fell behind its schedule. */
    bool invalid = false;

    void
    op(bool ok)
    {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (!ok)
            failed.fetch_add(1, std::memory_order_relaxed);
    }

    /** Record one answer check; returns @p match. */
    bool
    check(bool match)
    {
        checked.fetch_add(1, std::memory_order_relaxed);
        if (!match)
            mismatched.fetch_add(1, std::memory_order_relaxed);
        return match;
    }
};

/** What every phase needs. */
struct Context
{
    const Config& cfg;
    const gm::harness::DatasetSuite& suite;
    const std::vector<gm::harness::Framework>& frameworks;
    Report& e2e;   ///< end-to-end metrics (untraced run)
    Report& layer; ///< per-layer metrics (traced run)
    Tally& tally;
};

/** The phases every workload runs, in this order (see README.md). */
void run_cells(Context& ctx);
void run_serve_hot(Context& ctx, double budget_s);
/** @param reference An identical, separately generated suite that the
 *  served answers are checked against (serve_mixed mutates @p ctx's). */
void run_serve_mixed(Context& ctx,
                     const gm::harness::DatasetSuite& reference,
                     double budget_s);

/** Fingerprint of @p kernel's answer from a direct run of @p fw on @p ds
 *  (no server), in the same encoding serve::result_fingerprint uses. */
std::uint64_t direct_fingerprint(const gm::harness::Framework& fw,
                                 const gm::harness::Dataset& ds,
                                 gm::harness::Kernel kernel,
                                 gm::harness::Mode mode, gm::vid_t source);

/** Percentile p in [0, 100] (linear interpolation); 0 when empty. */
double pct(std::vector<double> samples, double p);
/** Geometric mean of positive samples; 0 when empty. */
double geomean(const std::vector<double>& samples);
/** Highest whole percentile with at least ten of @p n samples beyond it
 *  (never below the median). */
int tail_percentile(std::size_t n);
/** Seconds on the steady clock the program itself uses. */
double now_s();
/** Peak resident set of the process so far, in MiB. */
double peak_rss_mb();

namespace trace
{

/** Span names the benchmark records, one per layer boundary. */
inline constexpr const char* kSpanNames[] = {
    "cells.cell",     "harness.run_cell", "store.weighted",
    "store.undirected", "store.grb",      "store.grb_weighted",
    "par.fork",       "serve.request",    "serve.submit",
    "serve.wait",     "dyn.mutate",       "plan.run",
};

/** Turn recording on or off (process-wide; off by default). */
void set_enabled(bool on);
bool enabled();

/** Fresh id for a span or a request (one request's spans share the id
 *  of its serve.request span).  Unique even while recording is off. */
std::uint64_t new_id();

/** RAII span on the calling thread; nests under the thread's innermost
 *  open span.  Does nothing while recording is off. */
class Scope
{
  public:
    explicit Scope(const char* name, std::uint64_t request = 0);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /** Span id (0 when recording is off). */
    std::uint64_t id() const { return id_; }

  private:
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    std::int64_t start_ns_ = 0;
};

/** Record a finished span explicitly, for spans that start on one
 *  thread and end on another.  @p id 0 takes a fresh id.  Does nothing
 *  while recording is off. */
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t parent, std::uint64_t request,
            std::uint64_t id = 0);

/** Mean self time (span minus the union of its children) per span name
 *  in microseconds, over every recorded span.  Call after all recording
 *  threads have been joined. */
std::map<std::string, double> self_us();

/** Write every span as one JSON line.  Returns false on I/O error. */
bool write(const std::string& path);

} // namespace trace

} // namespace perfbench
