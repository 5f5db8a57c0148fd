#include "gm/harness/checkpoint.hh"

#include <map>
#include <sstream>
#include <stdexcept>

#include "gm/obs/metrics.hh"
#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/log.hh"

namespace gm::harness
{

namespace
{

using support::Status;
using support::StatusCode;
using support::StatusOr;
using support::json_double;
using support::json_escape;

/** Fetch a required field or fail with kCorruptData. */
Status
require(const std::map<std::string, std::string>& fields,
        const std::string& key, std::string& out)
{
    const auto it = fields.find(key);
    if (it == fields.end()) {
        return Status(StatusCode::kCorruptData,
                      "checkpoint line: missing field '" + key + "'");
    }
    out = it->second;
    return Status::ok();
}

} // namespace

std::string
checkpoint_line(const CheckpointRecord& record)
{
    // "v":3 marks lines carrying the raw trial vector (and the v2 metrics
    // blob); parse_checkpoint_line still accepts v2 and unversioned (v1)
    // lines from older sweeps.
    std::ostringstream out;
    out << "{\"v\":3"
        << ",\"mode\":\"" << json_escape(record.mode) << "\""
        << ",\"framework\":\"" << json_escape(record.framework) << "\""
        << ",\"kernel\":\"" << json_escape(record.kernel) << "\""
        << ",\"graph\":\"" << json_escape(record.graph) << "\""
        << ",\"best_seconds\":" << json_double(record.cell.best_seconds)
        << ",\"avg_seconds\":" << json_double(record.cell.avg_seconds)
        << ",\"trials\":" << record.cell.trials
        << ",\"attempts\":" << record.cell.attempts
        << ",\"verified\":" << (record.cell.verified ? "true" : "false")
        << ",\"supported\":" << (record.cell.supported ? "true" : "false")
        << ",\"failure\":\"" << json_escape(to_string(record.cell.failure))
        << "\""
        << ",\"failure_message\":\""
        << json_escape(record.cell.failure_message) << "\"";
    if (!record.cell.trial_seconds.empty()) {
        out << ",\"trial_seconds\":"
            << support::json_double_array(record.cell.trial_seconds);
    }
    if (!record.cell.metrics.empty())
        out << ",\"metrics\":" << obs::metrics_json(record.cell.metrics);
    out << "}";
    return out.str();
}

StatusOr<CheckpointRecord>
parse_checkpoint_line(const std::string& line)
{
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(line, fields); !s.is_ok())
        return s;

    CheckpointRecord rec;
    std::string best, avg, trials, verified, failure;
    if (Status s = require(fields, "mode", rec.mode); !s.is_ok())
        return s;
    if (Status s = require(fields, "framework", rec.framework); !s.is_ok())
        return s;
    if (Status s = require(fields, "kernel", rec.kernel); !s.is_ok())
        return s;
    if (Status s = require(fields, "graph", rec.graph); !s.is_ok())
        return s;
    if (Status s = require(fields, "best_seconds", best); !s.is_ok())
        return s;
    if (Status s = require(fields, "avg_seconds", avg); !s.is_ok())
        return s;
    if (Status s = require(fields, "trials", trials); !s.is_ok())
        return s;
    if (Status s = require(fields, "verified", verified); !s.is_ok())
        return s;
    if (Status s = require(fields, "failure", failure); !s.is_ok())
        return s;

    try {
        rec.cell.best_seconds = std::stod(best);
        rec.cell.avg_seconds = std::stod(avg);
        rec.cell.trials = std::stoi(trials);
    } catch (const std::exception&) {
        return Status(StatusCode::kCorruptData,
                      "checkpoint line: non-numeric timing field");
    }
    rec.cell.verified = verified == "true";
    rec.cell.failure = failure_kind_from_string(failure);

    // Optional fields (v1 checkpoints lack some or all of them).
    if (const auto it = fields.find("attempts"); it != fields.end()) {
        try {
            rec.cell.attempts = std::stoi(it->second);
        } catch (const std::exception&) {
            rec.cell.attempts = rec.cell.trials;
        }
    }
    if (const auto it = fields.find("supported"); it != fields.end())
        rec.cell.supported = it->second == "true";
    if (const auto it = fields.find("failure_message"); it != fields.end())
        rec.cell.failure_message = it->second;
    if (const auto it = fields.find("trial_seconds"); it != fields.end()) {
        // v3 field; v1/v2 cells resume with an empty sample vector, which
        // the perf pipeline treats as "no raw samples recorded".
        if (Status s = support::parse_json_double_array(
                it->second, rec.cell.trial_seconds);
            !s.is_ok())
            return s;
    }
    if (const auto it = fields.find("metrics"); it != fields.end()) {
        auto metrics = obs::parse_metrics_json(it->second);
        if (!metrics.is_ok())
            return metrics.status();
        rec.cell.metrics = *std::move(metrics);
    }
    return rec;
}

StatusOr<std::vector<CheckpointRecord>>
load_checkpoint(const std::string& path)
{
    std::vector<CheckpointRecord> records;
    const auto counts =
        support::read_jsonl(path, [&records](int, const std::string& line) {
            auto rec = parse_checkpoint_line(line);
            if (!rec.is_ok())
                return rec.status();
            records.push_back(*std::move(rec));
            return Status::ok();
        });
    if (!counts.is_ok())
        return counts.status();
    if (counts->skipped > 0) {
        log_warn(path, ": ", counts->skipped,
                 " unreadable record(s) skipped; those cells will rerun");
    }
    return records;
}

} // namespace gm::harness
