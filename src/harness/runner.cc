#include "gm/harness/runner.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "gm/gapref/verify.hh"
#include "gm/harness/checkpoint.hh"
#include "gm/obs/chrome_trace.hh"
#include "gm/obs/trace.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"

namespace gm::harness
{

namespace
{

using support::Status;
using support::StatusCode;

/**
 * Append one record to a harness stream.  A failed write loses only that
 * record, and the sweep goes on; it is warned about once per path, with
 * what the loss means (@p consequence), not once per record.
 */
void
append_or_warn(const std::string& path, const std::string& line,
               const char* consequence)
{
    const Status written = support::append_jsonl(path, line);
    if (written.is_ok())
        return;
    static std::mutex warned_mu;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(warned_mu);
    if (warned.insert(path).second)
        log_warn(written.to_string(), "; ", consequence);
}

/** Sources for trial @p t: SSSP/BFS take one, BC takes four. */
vid_t
trial_source(const Dataset& ds, int trial)
{
    return ds.sources[static_cast<std::size_t>(trial) % ds.sources.size()];
}

std::vector<vid_t>
trial_bc_sources(const Dataset& ds, int trial)
{
    std::vector<vid_t> sources;
    for (int i = 0; i < 4; ++i) {
        sources.push_back(
            ds.sources[static_cast<std::size_t>(trial * 4 + i) %
                       ds.sources.size()]);
    }
    return sources;
}

/** Everything a trial attempt produces besides its Status. */
struct TrialOutput
{
    double seconds = 0;
    bool verify_ok = true;
    std::string verify_err;
};

/**
 * Build every graph form this kernel may touch before the trial timer
 * starts.  Per the GAP rules, converting a graph into a framework's
 * native format is untimed, so the store's lazy builds must never land
 * inside the timed region.  Warming runs inside the supervised attempt,
 * so a fault injected into a form builder still hits the watchdog and
 * retry machinery rather than killing the sweep.
 */
void
warm_forms(const Dataset& ds, Kernel kernel, Mode mode)
{
    ds.g();
    switch (kernel) {
      case Kernel::kBFS:
      case Kernel::kCC:
      case Kernel::kPR:
      case Kernel::kBC:
        ds.grb();
        break;
      case Kernel::kSSSP:
        ds.wg();
        ds.grb_weighted();
        break;
      case Kernel::kTC:
        ds.g_undirected();
        if (mode == Mode::kOptimized)
            ds.g_relabeled();
        break;
    }
}

/**
 * Injection point *inside* the timed region, polled right after the trial
 * timer starts: slowdown faults (GM_FAULTS ":delay=<ms>") armed here land
 * in the measured wall time, which is how the perf-gate CI tier
 * manufactures a reproducible regression on one chosen cell.  Both the
 * broad site and the fully-qualified per-cell site are polled.
 */
void
timed_faults(const Dataset& ds, const Framework& fw, Kernel kernel)
{
    auto& injector = support::FaultInjector::global();
    if (!injector.enabled())
        return;
    injector.at("trial.timed");
    injector.at("trial.timed." + fw.name + "." + to_string(kernel) + "." +
                ds.name);
}

/**
 * One attempt of one trial: kernel (timed) + optional verification, run
 * inline on the calling thread under one lease of every pool lane (or the
 * caller's own lease, which it adopts).  Exceptions escape to the
 * watchdog.
 */
void
run_trial_attempt(const Dataset& ds, const Framework& fw, Kernel kernel,
                  Mode mode, int trial, bool check, TrialOutput& out)
{
    par::LaneLease lease(par::num_threads());

    // Fault-injection sites: all kernels, and per-framework targeting.
    auto& injector = support::FaultInjector::global();
    injector.at("kernel");
    injector.at("kernel." + fw.name);

    {
        obs::ScopedSpan span("warm_forms");
        warm_forms(ds, kernel, mode);
    }

    Timer timer;
    bool ok = true;
    std::string err;
    switch (kernel) {
      case Kernel::kBFS: {
          const vid_t src = trial_source(ds, trial);
          std::vector<vid_t> parent;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              parent = fw.bfs(ds, src, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_bfs(ds.g(), src, parent, &err);
          }
          break;
      }
      case Kernel::kSSSP: {
          const vid_t src = trial_source(ds, trial);
          std::vector<weight_t> dist;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              dist = fw.sssp(ds, src, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_sssp(ds.wg(), src, dist, &err);
          }
          break;
      }
      case Kernel::kCC: {
          std::vector<vid_t> comp;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              comp = fw.cc(ds, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_cc(ds.g(), comp, &err);
          }
          break;
      }
      case Kernel::kPR: {
          std::vector<score_t> scores;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              scores = fw.pr(ds, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_pagerank(ds.g(), scores, 0.85, 1e-4,
                                           &err);
          }
          break;
      }
      case Kernel::kBC: {
          const auto sources = trial_bc_sources(ds, trial);
          std::vector<score_t> scores;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              scores = fw.bc(ds, sources, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_bc(ds.g(), sources, scores, &err);
          }
          break;
      }
      case Kernel::kTC: {
          std::uint64_t count = 0;
          {
              obs::ScopedSpan span("kernel");
              timer.start();
              timed_faults(ds, fw, kernel);
              count = fw.tc(ds, mode);
              timer.stop();
          }
          if (check) {
              obs::ScopedSpan span("verify");
              ok = gapref::verify_tc(ds.g_undirected(), count, &err);
          }
          break;
      }
    }
    out.seconds = timer.seconds();
    out.verify_ok = ok;
    out.verify_err = std::move(err);
}

/** Should this failure be retried (transient) rather than recorded? */
bool
is_transient(StatusCode code)
{
    return code == StatusCode::kFaultInjected ||
           code == StatusCode::kKernelError;
}

} // namespace

std::string
to_string(FailureKind kind)
{
    switch (kind) {
      case FailureKind::kNone:
        return "none";
      case FailureKind::kTimeout:
        return "timeout";
      case FailureKind::kKernelError:
        return "kernel_error";
      case FailureKind::kWrongResult:
        return "wrong_result";
      case FailureKind::kUnsupported:
        return "unsupported";
      case FailureKind::kFaultInjected:
        return "fault_injected";
      case FailureKind::kInvalidInput:
        return "invalid_input";
    }
    return "?";
}

const char*
short_label(FailureKind kind)
{
    switch (kind) {
      case FailureKind::kNone:
        return "";
      case FailureKind::kTimeout:
        return "T/O";
      case FailureKind::kKernelError:
        return "ERR";
      case FailureKind::kWrongResult:
        return "WRONG";
      case FailureKind::kUnsupported:
        return "UNSUP";
      case FailureKind::kFaultInjected:
        return "FAULT";
      case FailureKind::kInvalidInput:
        return "BADIN";
    }
    return "?";
}

FailureKind
failure_kind_from_string(const std::string& name)
{
    for (FailureKind kind :
         {FailureKind::kNone, FailureKind::kTimeout,
          FailureKind::kKernelError, FailureKind::kWrongResult,
          FailureKind::kUnsupported, FailureKind::kFaultInjected,
          FailureKind::kInvalidInput}) {
        if (name == to_string(kind))
            return kind;
    }
    return FailureKind::kKernelError;
}

FailureKind
failure_kind_from_status(support::StatusCode code)
{
    switch (code) {
      case StatusCode::kOk:
        return FailureKind::kNone;
      case StatusCode::kTimeout:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kCancelled:
        return FailureKind::kTimeout;
      case StatusCode::kWrongResult:
        return FailureKind::kWrongResult;
      case StatusCode::kUnsupported:
        return FailureKind::kUnsupported;
      case StatusCode::kFaultInjected:
        return FailureKind::kFaultInjected;
      case StatusCode::kInvalidInput:
      case StatusCode::kCorruptData:
        return FailureKind::kInvalidInput;
      case StatusCode::kKernelError:
      case StatusCode::kResourceExhausted: // never produced by a trial
      case StatusCode::kUnavailable:       // serving-layer only
        return FailureKind::kKernelError;
    }
    return FailureKind::kKernelError;
}

CellResult
run_cell(const Dataset& ds, const Framework& fw, Kernel kernel, Mode mode,
         const RunOptions& opts)
{
    CellResult cell;
    cell.best_seconds = std::numeric_limits<double>::infinity();
    cell.verified = true;
    double total = 0;
    const int max_attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;

    const bool profile = opts.profile_enabled();
    const std::string cell_label = to_string(mode) + "/" + fw.name + "/" +
                                   to_string(kernel) + "/" + ds.name;
    obs::ChromeTraceWriter trace_writer(cell_label);

    // Untimed warm-up trials: same supervised execution path as real
    // trials so hangs and faults still hit the watchdog, but nothing is
    // recorded — they exist only to populate caches (and the page cache /
    // branch predictors) before measurement.  Each one is wrapped in a
    // "warmup" span so Chrome traces show where measurement really began.
    for (int w = 0; w < opts.warmup; ++w) {
        auto out = std::make_shared<TrialOutput>();
        obs::TraceSession session;
        if (profile)
            session.start();
        const std::uint64_t session_gen = session.gen();
        const Status status = support::run_with_watchdog(
            [out, &ds, &fw, kernel, mode, w, session_gen] {
                obs::SessionBinding bind(session_gen);
                obs::ScopedSpan span("warmup");
                run_trial_attempt(ds, fw, kernel, mode, w,
                                  /*check=*/false, *out);
            },
            opts.trial_timeout_ms);
        session.stop();
        if (!opts.trace_dir.empty())
            trace_writer.add_session(session,
                                     "warmup " + std::to_string(w));
        if (!status.is_ok()) {
            // Not a DNF: the timed trials below render the real verdict.
            log_warn(fw.name, " ", to_string(kernel), " on ", ds.name,
                     " warm-up ", w, " failed (", status.to_string(),
                     "); proceeding to timed trials");
        }
    }

    for (int trial = 0; trial < opts.trials; ++trial) {
        const bool check =
            opts.verify && (!opts.verify_first_trial_only || trial == 0);

        // The trial output is heap-owned and the closure captures only
        // values: if the watchdog abandons a hung worker, the stray thread
        // may finish long after this stack frame is gone, so it must never
        // write through references into it.  (ds and fw are caller-owned
        // and outlive the sweep.)
        auto out = std::make_shared<TrialOutput>();
        Status status = Status::ok();
        int last_attempt = 0;
        obs::TraceSession session;
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            ++cell.attempts;
            last_attempt = attempt;
            out = std::make_shared<TrialOutput>();
            // One trace session per attempt.  The worker (and every pool
            // lane it drives) is bound to the session's generation, so a
            // watchdog-abandoned attempt keeps writing under a dead
            // generation and its stragglers are dropped at collection
            // instead of polluting the next attempt's session.
            if (profile)
                session.start();
            const std::uint64_t session_gen = session.gen();
            status = support::run_with_watchdog(
                [out, &ds, &fw, kernel, mode, trial, check, session_gen] {
                    obs::SessionBinding bind(session_gen);
                    run_trial_attempt(ds, fw, kernel, mode, trial, check,
                                      *out);
                },
                opts.trial_timeout_ms);
            session.stop();
            if (!opts.trace_dir.empty()) {
                trace_writer.add_session(
                    session, "trial " + std::to_string(trial) +
                                 " attempt " + std::to_string(attempt));
            }
            if (status.is_ok())
                break;
            if (!is_transient(status.code()) || attempt == max_attempts)
                break;
            // Exponential backoff, exponent-capped and saturated so the
            // shift stays defined for arbitrarily large --max-attempts.
            const long long backoff = std::min<long long>(
                static_cast<long long>(opts.retry_backoff_ms)
                    << std::min(attempt - 1, 10),
                60'000);
            log_warn(fw.name, " ", to_string(kernel), " on ", ds.name,
                     " trial ", trial, " attempt ", attempt, " failed (",
                     status.to_string(), "); retrying in ", backoff, " ms");
            if (backoff > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
            }
        }

        if (!status.is_ok()) {
            // DNF: record why and stop burning deadline on more trials.
            cell.failure = failure_kind_from_status(status.code());
            cell.failure_message = status.message();
            cell.verified = false;
            log_warn(fw.name, " ", to_string(kernel), " on ", ds.name,
                     " DNF after ", cell.attempts, " attempt(s): ",
                     status.to_string());
            break;
        }

        if (!out->verify_ok) {
            log_warn(fw.name, " ", to_string(kernel), " on ", ds.name,
                     " failed verification: ", out->verify_err);
            cell.verified = false;
            cell.failure = FailureKind::kWrongResult;
            if (cell.failure_message.empty())
                cell.failure_message = out->verify_err;
        }
        cell.best_seconds = std::min(cell.best_seconds, out->seconds);
        total += out->seconds;
        cell.trial_seconds.push_back(out->seconds);
        ++cell.trials;

        if (profile) {
            obs::TrialMetrics metrics = obs::summarize(session);
            metrics.peak_bytes = ds.store()->bytes_high_water();
            if (!opts.metrics_path.empty()) {
                obs::MetricsRecord rec;
                rec.mode = to_string(mode);
                rec.framework = fw.name;
                rec.kernel = to_string(kernel);
                rec.graph = ds.name;
                rec.trial = trial;
                rec.attempt = last_attempt;
                rec.metrics = metrics;
                append_or_warn(opts.metrics_path,
                               obs::metrics_record_line(rec),
                               "per-trial metrics will not be recorded");
            }
            cell.metrics = std::move(metrics);
        }
    }

    cell.avg_seconds = cell.trials > 0 ? total / cell.trials : 0;
    if (cell.trials == 0)
        cell.best_seconds = 0;

    if (!opts.trace_dir.empty() && !trace_writer.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.trace_dir, ec);
        const std::string file = to_string(mode) + "_" + fw.name + "_" +
                                 to_string(kernel) + "_" + ds.name +
                                 ".json";
        const std::string path =
            (std::filesystem::path(opts.trace_dir) / file).string();
        if (Status s = trace_writer.write(path); !s.is_ok()) {
            log_warn("cannot write trace for ", cell_label, ": ",
                     s.to_string());
        }
    }
    return cell;
}

ResultsCube
run_suite(const DatasetSuite& suite,
          const std::vector<Framework>& frameworks, Mode mode,
          const RunOptions& opts)
{
    ResultsCube cube;
    for (const auto& fw : frameworks)
        cube.framework_names.push_back(fw.name);
    for (const auto& ds : suite.datasets)
        cube.graph_names.push_back(ds->name);

    // Cells already completed in a previous (killed) run of this sweep.
    std::map<std::tuple<std::string, std::string, std::string>, CellResult>
        resumed;
    if (!opts.resume_path.empty()) {
        auto records = load_checkpoint(opts.resume_path);
        if (!records.is_ok()) {
            log_warn("cannot resume from ", opts.resume_path, ": ",
                     records.status().to_string(), "; running all cells");
        } else {
            for (const CheckpointRecord& rec : *records) {
                if (rec.mode != to_string(mode))
                    continue;
                resumed[{rec.framework, rec.kernel, rec.graph}] = rec.cell;
            }
            log_info("resuming ", to_string(mode), " sweep: ",
                     resumed.size(), " cell(s) restored from ",
                     opts.resume_path);
        }
    }

    cube.cells.resize(frameworks.size());
    for (std::size_t f = 0; f < frameworks.size(); ++f) {
        cube.cells[f].resize(std::size(kAllKernels));
        for (Kernel kernel : kAllKernels)
            cube.cells[f][static_cast<std::size_t>(kernel)].resize(
                suite.size());
    }
    cube.graph_peak_bytes.assign(suite.size(), 0);

    // Graph-major order: every cell touching graph g runs before the
    // first cell of graph g+1, so evict_per_graph bounds the sweep's
    // footprint by one graph's derived artifacts.  Checkpoints are keyed
    // by (mode, framework, kernel, graph), not by position, so resume
    // files written under either loop order stay compatible.
    for (std::size_t g = 0; g < suite.size(); ++g) {
        for (std::size_t f = 0; f < frameworks.size(); ++f) {
            for (Kernel kernel : kAllKernels) {
                auto& row = cube.cells[f][static_cast<std::size_t>(kernel)];
                const auto key = std::make_tuple(
                    frameworks[f].name, to_string(kernel), suite[g].name);
                if (const auto it = resumed.find(key);
                    it != resumed.end()) {
                    row[g] = it->second;
                    log_info(to_string(mode), " ", frameworks[f].name, " ",
                             to_string(kernel), " ", suite[g].name,
                             ": restored from checkpoint");
                    continue;
                }
                row[g] = run_cell(suite[g], frameworks[f], kernel, mode,
                                  opts);
                log_info(to_string(mode), " ", frameworks[f].name, " ",
                         to_string(kernel), " ", suite[g].name, ": ",
                         row[g].avg_seconds, " s",
                         row[g].completed() ? "" : " (DNF)");
                if (!opts.checkpoint_path.empty()) {
                    append_or_warn(
                        opts.checkpoint_path,
                        checkpoint_line(CheckpointRecord{
                            to_string(mode), frameworks[f].name,
                            to_string(kernel), suite[g].name, row[g]}),
                        "sweep will not be resumable");
                }
            }
        }
        cube.graph_peak_bytes[g] = suite[g].bytes_resident();
        if (opts.evict_per_graph) {
            suite[g].evict_derived();
            log_info(suite[g].name, ": peak ", cube.graph_peak_bytes[g],
                     " bytes of graph artifacts; derived forms evicted");
        }
    }
    return cube;
}

} // namespace gm::harness
