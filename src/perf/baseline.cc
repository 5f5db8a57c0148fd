#include "gm/perf/baseline.hh"

#include <fstream>
#include <sstream>

#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"

namespace gm::perf
{

namespace
{

using support::Status;
using support::StatusCode;
using support::StatusOr;
using support::json_escape;

Status
require(const std::map<std::string, std::string>& fields,
        const std::string& key, std::string& out)
{
    const auto it = fields.find(key);
    if (it == fields.end()) {
        return Status(StatusCode::kCorruptData,
                      "baseline cell: missing field '" + key + "'");
    }
    out = it->second;
    return Status::ok();
}

} // namespace

std::string
baseline_cell_line(const BaselineCell& cell)
{
    std::ostringstream out;
    out << "{\"kind\":\"cell\""
        << ",\"mode\":\"" << json_escape(cell.mode) << "\""
        << ",\"framework\":\"" << json_escape(cell.framework) << "\""
        << ",\"kernel\":\"" << json_escape(cell.kernel) << "\""
        << ",\"graph\":\"" << json_escape(cell.graph) << "\""
        << ",\"seconds\":" << support::json_double_array(cell.seconds)
        << ",\"verified\":" << (cell.verified ? "true" : "false")
        << ",\"failure\":\"" << json_escape(cell.failure) << "\"";
    if (!cell.counters.empty()) {
        out << ",\"counters\":{";
        bool first = true;
        for (const auto& [name, value] : cell.counters) {
            if (!first)
                out << ",";
            first = false;
            out << "\"" << json_escape(name) << "\":" << value;
        }
        out << "}";
    }
    out << "}";
    return out.str();
}

StatusOr<BaselineCell>
parse_baseline_cell_line(const std::string& line)
{
    if (support::record_kind(line) != "cell") {
        return Status(StatusCode::kCorruptData,
                      "baseline cell: not a cell record");
    }
    std::map<std::string, std::string> fields;
    if (Status s = support::parse_flat_json(line, fields); !s.is_ok())
        return s;

    BaselineCell cell;
    std::string seconds, verified;
    if (Status s = require(fields, "mode", cell.mode); !s.is_ok())
        return s;
    if (Status s = require(fields, "framework", cell.framework); !s.is_ok())
        return s;
    if (Status s = require(fields, "kernel", cell.kernel); !s.is_ok())
        return s;
    if (Status s = require(fields, "graph", cell.graph); !s.is_ok())
        return s;
    if (Status s = require(fields, "seconds", seconds); !s.is_ok())
        return s;
    if (Status s = support::parse_json_double_array(seconds, cell.seconds);
        !s.is_ok())
        return s;
    if (Status s = require(fields, "verified", verified); !s.is_ok())
        return s;
    cell.verified = verified == "true";
    if (Status s = require(fields, "failure", cell.failure); !s.is_ok())
        return s;

    if (const auto it = fields.find("counters"); it != fields.end()) {
        std::map<std::string, std::string> raw;
        if (Status s = support::parse_flat_json(it->second, raw);
            !s.is_ok())
            return s;
        for (const auto& [name, value] : raw) {
            try {
                cell.counters[name] = std::stoull(value);
            } catch (const std::exception&) {
                return Status(StatusCode::kCorruptData,
                              "baseline cell: non-numeric counter '" +
                                  name + "'");
            }
        }
    }
    return cell;
}

Status
save_baseline(const std::string& path, const Baseline& baseline)
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "cannot write baseline: " + path);
    }
    // Leading fingerprint record carries the format version.
    std::string fp = support::fingerprint_record_line(baseline.fingerprint);
    out << "{\"v\":" << baseline.version << "," << fp.substr(1) << '\n';
    for (const BaselineCell& cell : baseline.cells)
        out << baseline_cell_line(cell) << '\n';
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "write error on baseline: " + path);
    }
    return Status::ok();
}

StatusOr<Baseline>
load_baseline(const std::string& path)
{
    Baseline baseline;
    const auto counts = support::read_jsonl(
        path, [&baseline](int, const std::string& line) -> Status {
            if (support::record_kind(line) == "fingerprint") {
                std::map<std::string, std::string> fields;
                if (Status s = support::parse_flat_json(line, fields);
                    !s.is_ok())
                    return s;
                auto fp = support::parse_fingerprint_json(line);
                if (!fp.is_ok())
                    return fp.status();
                baseline.fingerprint = *std::move(fp);
                if (const auto it = fields.find("v"); it != fields.end()) {
                    try {
                        baseline.version = std::stoi(it->second);
                    } catch (const std::exception&) {
                    }
                }
                return Status::ok();
            }
            auto cell = parse_baseline_cell_line(line);
            if (!cell.is_ok())
                return cell.status();
            baseline.cells.push_back(*std::move(cell));
            return Status::ok();
        });
    if (!counts.is_ok())
        return counts.status();
    if (counts->readable == 0) {
        return Status(StatusCode::kCorruptData,
                      "no readable baseline records in " + path);
    }
    return baseline;
}

} // namespace gm::perf
