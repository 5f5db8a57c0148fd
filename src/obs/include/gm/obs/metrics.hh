/**
 * @file
 * Per-trial workload metrics: a TraceSession summarized into counters,
 * high-water marks, a per-span-name time breakdown, and derived parallel
 * efficiency.  Serializes to a one-level JSON object (the "metrics" blob
 * in checkpoint v2 lines and the per-trial JSONL stream) and parses back,
 * so tools/profile_report can rebuild the workload-characterization table
 * offline.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "gm/obs/trace.hh"
#include "gm/support/status.hh"

namespace gm::obs
{

/** Summary of one trial's session; all fields survive a JSON round trip. */
struct TrialMetrics
{
    /** Session wall time, start() to stop(). */
    double wall_seconds = 0;

    /** Summed monotonic counters (e.g. iterations, edges_traversed). */
    std::map<std::string, std::uint64_t> counters;

    /** Max-merged high-water counters (e.g. frontier_peak, par.lanes). */
    std::map<std::string, std::uint64_t> maxima;

    /** Total seconds per span name (summed over instances and threads). */
    std::map<std::string, double> span_seconds;

    /** Pool lanes observed during the trial (maxima["par.lanes"]). */
    int lanes = 0;

    /** Summed lane busy time (counters["par.busy_ns"], in seconds). */
    double busy_seconds = 0;

    /** busy_seconds / (wall_seconds * lanes); 0 when undefined. */
    double parallel_efficiency = 0;

    /** Graph-store high-water resident bytes, filled in by the runner. */
    std::uint64_t peak_bytes = 0;

    bool
    empty() const
    {
        return wall_seconds == 0 && counters.empty() && maxima.empty() &&
               span_seconds.empty();
    }

    /** counters[name], or maxima[name], or @p fallback. */
    std::uint64_t counter_or(const std::string& name,
                             std::uint64_t fallback = 0) const;
};

/** Summarize a stopped session (peak_bytes is left for the caller). */
TrialMetrics summarize(const TraceSession& session);

/** One-level JSON object, e.g. {"wall_seconds":...,"counters":{...}}. */
std::string metrics_json(const TrialMetrics& metrics);

/** Inverse of metrics_json; kCorruptData on malformed input. */
support::StatusOr<TrialMetrics> parse_metrics_json(const std::string& text);

/** One per-trial JSONL record: cell coordinates plus the metrics blob. */
struct MetricsRecord
{
    std::string mode;
    std::string framework;
    std::string kernel;
    std::string graph;
    int trial = 0;   ///< trial index within the cell
    int attempt = 0; ///< 1-based attempt number that produced the trial
    /** Request-scoped trace id (gm::serve): every record for one logical
     *  query — across retries, single-flight joins, and degraded serves —
     *  carries the same id.  0 = not request-scoped (suite trials);
     *  serialized as a 16-digit hex "trace" field, omitted when 0, so
     *  pre-trace JSONL streams and checkpoints still round-trip. */
    std::uint64_t trace_id = 0;
    TrialMetrics metrics;
};

/** A trace id as the 16-digit lowercase hex every JSONL record carries
 *  in its "trace" field. */
std::string trace_hex(std::uint64_t trace_id);

/** Serialize @p record as a single JSON line (no trailing newline). */
std::string metrics_record_line(const MetricsRecord& record);

/** Parse one JSONL line; kCorruptData for torn/malformed lines. */
support::StatusOr<MetricsRecord>
parse_metrics_record_line(const std::string& line);

} // namespace gm::obs
