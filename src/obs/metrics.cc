#include "gm/obs/metrics.hh"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "gm/support/json.hh"

namespace gm::obs
{

namespace
{

using support::Status;
using support::StatusCode;
using support::StatusOr;

Status
corrupt(const std::string& what)
{
    return Status(StatusCode::kCorruptData, "metrics: " + what);
}

template <typename Map, typename Render>
void
append_map(std::ostringstream& out, const char* key, const Map& map,
           Render render)
{
    out << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [name, value] : map) {
        if (!first)
            out << ",";
        first = false;
        out << "\"" << support::json_escape(name) << "\":" << render(value);
    }
    out << "}";
}

Status
parse_u64_map(const std::string& raw,
              std::map<std::string, std::uint64_t>& out)
{
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(raw, fields); !s.is_ok())
        return s;
    for (const auto& [name, value] : fields) {
        try {
            out[name] = std::stoull(value);
        } catch (const std::exception&) {
            return corrupt("non-integer counter '" + name + "'");
        }
    }
    return Status::ok();
}

Status
parse_double_map(const std::string& raw,
                 std::map<std::string, double>& out)
{
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(raw, fields); !s.is_ok())
        return s;
    for (const auto& [name, value] : fields) {
        try {
            out[name] = std::stod(value);
        } catch (const std::exception&) {
            return corrupt("non-numeric span time '" + name + "'");
        }
    }
    return Status::ok();
}

} // namespace

std::uint64_t
TrialMetrics::counter_or(const std::string& name,
                         std::uint64_t fallback) const
{
    if (const auto it = counters.find(name); it != counters.end())
        return it->second;
    if (const auto it = maxima.find(name); it != maxima.end())
        return it->second;
    return fallback;
}

TrialMetrics
summarize(const TraceSession& session)
{
    TrialMetrics m;
    m.wall_seconds =
        static_cast<double>(session.end_ns() - session.begin_ns()) * 1e-9;
    m.counters = session.counters();
    m.maxima = session.maxima();
    for (const SpanRecord& span : session.spans())
        m.span_seconds[span.name] +=
            static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
    m.lanes = static_cast<int>(m.counter_or("par.lanes", 0));
    m.busy_seconds =
        static_cast<double>(m.counter_or("par.busy_ns", 0)) * 1e-9;
    if (m.lanes > 0 && m.wall_seconds > 0)
        m.parallel_efficiency =
            m.busy_seconds / (m.wall_seconds * m.lanes);
    return m;
}

std::string
metrics_json(const TrialMetrics& metrics)
{
    std::ostringstream out;
    out << "{\"wall_seconds\":" << support::json_double(metrics.wall_seconds)
        << ",\"lanes\":" << metrics.lanes
        << ",\"busy_seconds\":" << support::json_double(metrics.busy_seconds)
        << ",\"parallel_efficiency\":"
        << support::json_double(metrics.parallel_efficiency)
        << ",\"peak_bytes\":" << metrics.peak_bytes;
    append_map(out, "counters", metrics.counters,
               [](std::uint64_t v) { return std::to_string(v); });
    append_map(out, "maxima", metrics.maxima,
               [](std::uint64_t v) { return std::to_string(v); });
    append_map(out, "spans", metrics.span_seconds,
               [](double v) { return support::json_double(v); });
    out << "}";
    return out.str();
}

StatusOr<TrialMetrics>
parse_metrics_json(const std::string& text)
{
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(text, fields); !s.is_ok())
        return s;

    TrialMetrics m;
    try {
        if (const auto it = fields.find("wall_seconds"); it != fields.end())
            m.wall_seconds = std::stod(it->second);
        if (const auto it = fields.find("lanes"); it != fields.end())
            m.lanes = std::stoi(it->second);
        if (const auto it = fields.find("busy_seconds"); it != fields.end())
            m.busy_seconds = std::stod(it->second);
        if (const auto it = fields.find("parallel_efficiency");
            it != fields.end())
            m.parallel_efficiency = std::stod(it->second);
        if (const auto it = fields.find("peak_bytes"); it != fields.end())
            m.peak_bytes = std::stoull(it->second);
    } catch (const std::exception&) {
        return corrupt("non-numeric scalar field");
    }
    if (const auto it = fields.find("counters"); it != fields.end()) {
        if (Status s = parse_u64_map(it->second, m.counters); !s.is_ok())
            return s;
    }
    if (const auto it = fields.find("maxima"); it != fields.end()) {
        if (Status s = parse_u64_map(it->second, m.maxima); !s.is_ok())
            return s;
    }
    if (const auto it = fields.find("spans"); it != fields.end()) {
        if (Status s = parse_double_map(it->second, m.span_seconds);
            !s.is_ok())
            return s;
    }
    return m;
}

std::string
trace_hex(std::uint64_t trace_id)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(trace_id));
    return std::string(hex);
}

std::string
metrics_record_line(const MetricsRecord& record)
{
    std::ostringstream out;
    out << "{\"mode\":\"" << support::json_escape(record.mode) << "\""
        << ",\"framework\":\"" << support::json_escape(record.framework)
        << "\""
        << ",\"kernel\":\"" << support::json_escape(record.kernel) << "\""
        << ",\"graph\":\"" << support::json_escape(record.graph) << "\""
        << ",\"trial\":" << record.trial
        << ",\"attempt\":" << record.attempt;
    if (record.trace_id != 0)
        out << ",\"trace\":\"" << trace_hex(record.trace_id) << "\"";
    out << ",\"metrics\":" << metrics_json(record.metrics) << "}";
    return out.str();
}

StatusOr<MetricsRecord>
parse_metrics_record_line(const std::string& line)
{
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(line, fields); !s.is_ok())
        return s;

    MetricsRecord rec;
    const auto require = [&](const char* key, std::string& out) {
        const auto it = fields.find(key);
        if (it == fields.end())
            return corrupt(std::string("missing field '") + key + "'");
        out = it->second;
        return Status::ok();
    };
    if (Status s = require("mode", rec.mode); !s.is_ok())
        return s;
    if (Status s = require("framework", rec.framework); !s.is_ok())
        return s;
    if (Status s = require("kernel", rec.kernel); !s.is_ok())
        return s;
    if (Status s = require("graph", rec.graph); !s.is_ok())
        return s;
    std::string trial, metrics;
    if (Status s = require("trial", trial); !s.is_ok())
        return s;
    if (Status s = require("metrics", metrics); !s.is_ok())
        return s;
    try {
        rec.trial = std::stoi(trial);
        if (const auto it = fields.find("attempt"); it != fields.end())
            rec.attempt = std::stoi(it->second);
        if (const auto it = fields.find("trace"); it != fields.end())
            rec.trace_id = std::stoull(it->second, nullptr, 16);
    } catch (const std::exception&) {
        return corrupt("non-integer trial/attempt/trace");
    }
    auto parsed = parse_metrics_json(metrics);
    if (!parsed.is_ok())
        return parsed.status();
    rec.metrics = *std::move(parsed);
    return rec;
}

} // namespace gm::obs
