#include "gm/obs/chrome_trace.hh"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "gm/support/json.hh"

namespace gm::obs
{

namespace
{

/** Synthetic row holding one whole-session span per trial. */
constexpr int kSessionTid = 9999;

/** Microseconds with sub-microsecond precision, as trace_event wants. */
std::string
micros(std::int64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns) * 1e-3);
    return buf;
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::string process_name)
    : process_name_(std::move(process_name))
{
}

void
ChromeTraceWriter::add_session(const TraceSession& session,
                               const std::string& label)
{
    if (!have_origin_ || session.begin_ns() < origin_ns_) {
        origin_ns_ = session.begin_ns();
        have_origin_ = true;
    }
    spans_.push_back(SpanRecord{label, session.begin_ns(), session.end_ns(),
                                kSessionTid, 0});
    spans_.insert(spans_.end(), session.spans().begin(),
                  session.spans().end());
}

std::string
ChromeTraceWriter::json() const
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\""
        << support::json_escape(process_name_) << "\"}}";

    std::set<int> tids;
    for (const SpanRecord& span : spans_)
        tids.insert(span.tid);
    for (int tid : tids) {
        // Thread names are "sessions" or "t<tid>": nothing to escape.
        out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":"
            << tid << ",\"args\":{\"name\":\"";
        if (tid == kSessionTid)
            out << "sessions";
        else
            out << "t" << tid;
        out << "\"}}";
    }

    for (const SpanRecord& span : spans_) {
        out << ",\n{\"name\":\"" << support::json_escape(span.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
            << ",\"ts\":" << micros(span.begin_ns - origin_ns_)
            << ",\"dur\":" << micros(span.end_ns - span.begin_ns)
            << ",\"args\":{\"depth\":" << span.depth << "}}";
    }
    out << "\n]}\n";
    return out.str();
}

support::Status
ChromeTraceWriter::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return support::Status(support::StatusCode::kInvalidInput,
                               "cannot write trace file: " + path);
    }
    out << json();
    if (!out) {
        return support::Status(support::StatusCode::kInvalidInput,
                               "write error on trace file: " + path);
    }
    return support::Status::ok();
}

} // namespace gm::obs
