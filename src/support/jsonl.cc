#include "gm/support/jsonl.hh"

#include <fstream>
#include <mutex>

#include "gm/support/log.hh"

namespace gm::support
{

Status
append_jsonl(const std::string& path, const std::string& line)
{
    static std::mutex append_mu;
    std::lock_guard<std::mutex> lock(append_mu);
    std::ofstream out(path, std::ios::out | std::ios::app);
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "cannot open JSONL stream: " + path);
    }
    out << line << '\n';
    out.close();
    if (!out) {
        return Status(StatusCode::kInvalidInput,
                      "write error on JSONL stream: " + path);
    }
    return Status::ok();
}

StatusOr<JsonlCounts>
read_jsonl(const std::string& path,
           const std::function<Status(int line_no, const std::string& line)>&
               fn)
{
    std::ifstream in(path);
    if (!in) {
        return Status(StatusCode::kInvalidInput,
                      "cannot open JSONL stream: " + path);
    }
    JsonlCounts counts;
    std::string line;
    for (int line_no = 1; std::getline(in, line); ++line_no) {
        if (line.empty())
            continue;
        if (Status s = fn(line_no, line); !s.is_ok()) {
            // Typically the torn final line of a killed writer.
            log_warn(path, ":", line_no,
                     ": skipping unreadable record (", s.message(), ")");
            ++counts.skipped;
            continue;
        }
        ++counts.readable;
    }
    if (counts.readable == 0 && counts.skipped > 0) {
        return Status(StatusCode::kCorruptData,
                      "no readable records in " + path);
    }
    return counts;
}

std::string
record_kind(const std::string& line)
{
    const std::string tag = "\"kind\":\"";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + tag.size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos)
        return "";
    return line.substr(begin, end - begin);
}

} // namespace gm::support
