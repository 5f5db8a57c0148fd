#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "gm/serve/request.hh"
#include "gm/stats/stats.hh"
#include "gm/support/timer.hh"
#include "perfbench.hh"

namespace perfbench
{

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    for (const Metric& m : metrics_) {
        if (m.name == name) {
            std::fprintf(stderr, "perfbench: metric %s added twice\n",
                         name.c_str());
            std::abort();
        }
    }
    metrics_.push_back({name, value, unit});
}

std::uint64_t
direct_fingerprint(const gm::harness::Framework& fw,
                   const gm::harness::Dataset& ds, gm::harness::Kernel kernel,
                   gm::harness::Mode mode, gm::vid_t source)
{
    using gm::harness::Kernel;
    gm::serve::ResultValue value;
    switch (kernel) {
      case Kernel::kBFS:
        value = fw.bfs(ds, source, mode);
        break;
      case Kernel::kSSSP:
        value = fw.sssp(ds, source, mode);
        break;
      case Kernel::kCC:
        value = fw.cc(ds, mode);
        break;
      case Kernel::kPR:
        value = fw.pr(ds, mode);
        break;
      case Kernel::kBC:
        value = fw.bc(ds, std::vector<gm::vid_t>{source}, mode);
        break;
      case Kernel::kTC:
        value = fw.tc(ds, mode);
        break;
    }
    return gm::serve::result_fingerprint(value);
}

double
pct(std::vector<double> samples, double p)
{
    return gm::stats::percentile_of(std::move(samples), p);
}

double
geomean(const std::vector<double>& samples)
{
    if (samples.empty())
        return 0;
    double log_sum = 0;
    for (double v : samples)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

int
tail_percentile(std::size_t n)
{
    if (n <= 20)
        return 50;
    const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
    return std::max(50, static_cast<int>(std::floor(p)));
}

double
now_s()
{
    return static_cast<double>(gm::Timer::now_ns()) * 1e-9;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024;
}

namespace trace
{
namespace
{

struct Span
{
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
};

/** One thread's spans and open-span stack.  Owned by the registry so the
 *  spans outlive the thread that recorded them. */
struct Buffer
{
    std::vector<Span> spans;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> open; ///< id, req
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_registry; // guarded by mu

Buffer&
local_buffer()
{
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
        auto owned = std::make_unique<Buffer>();
        buffer = owned.get();
        std::lock_guard<std::mutex> lock(g_registry_mu);
        g_registry.push_back(std::move(owned));
    }
    return *buffer;
}

std::vector<Span>
all_spans()
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& buffer : g_registry)
        out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    return out;
}

} // namespace

void
set_enabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
new_id()
{
    return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Scope::Scope(const char* name, std::uint64_t request) : name_(name)
{
    if (!enabled())
        return;
    Buffer& buffer = local_buffer();
    id_ = new_id();
    if (!buffer.open.empty()) {
        parent_ = buffer.open.back().first;
        request_ = buffer.open.back().second;
    }
    if (request != 0)
        request_ = request;
    else if (buffer.open.empty())
        request_ = id_; // a root span is its own request
    buffer.open.emplace_back(id_, request_);
    start_ns_ = gm::Timer::now_ns();
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    const std::int64_t end_ns = gm::Timer::now_ns();
    Buffer& buffer = local_buffer();
    buffer.open.pop_back();
    buffer.spans.push_back(
        {name_, start_ns_, end_ns, id_, parent_, request_});
}

void
record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
       std::uint64_t parent, std::uint64_t request, std::uint64_t id)
{
    if (!enabled())
        return;
    local_buffer().spans.push_back({name, start_ns, end_ns,
                                    id != 0 ? id : new_id(), parent,
                                    request});
}

std::map<std::string, double>
self_us()
{
    const std::vector<Span> spans = all_spans();
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);
    }
    std::map<std::string, std::pair<double, std::size_t>> acc;
    for (const char* name : kSpanNames)
        acc[name] = {0.0, 0};
    for (const Span& span : spans) {
        // Union of the children's intervals, clipped to the span.
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        if (auto it = children.find(span.id); it != children.end()) {
            for (std::size_t c : it->second) {
                const std::int64_t lo =
                    std::max(span.start_ns, spans[c].start_ns);
                const std::int64_t hi = std::min(span.end_ns, spans[c].end_ns);
                if (hi > lo)
                    cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.start_ns;
        for (const auto& [lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        auto& [total, count] = acc[span.name];
        total += static_cast<double>(span.end_ns - span.start_ns - covered);
        ++count;
    }
    std::map<std::string, double> out;
    for (const auto& [name, tc] : acc)
        out[name] = tc.second == 0 ? 0.0
                                   : tc.first * 1e-3 /
                                         static_cast<double>(tc.second);
    return out;
}

bool
write(const std::string& path)
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : all_spans()) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace trace

} // namespace perfbench
