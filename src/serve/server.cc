#include "gm/serve/server.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <sstream>
#include <thread>

#include "gm/dyn/incremental.hh"
#include "gm/obs/metrics.hh"
#include "gm/par/thread_pool.hh"
#include "gm/support/fault_injector.hh"
#include "gm/support/hash.hh"
#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/rng.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"
#include "gm/telemetry/exposition.hh"
#include "gm/telemetry/registry.hh"
#include "serve_internal.hh"

namespace gm::serve
{

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace detail
{

/**
 * Per-graph dynamic state, created lazily on the first mutate() for a
 * graph: the store's delta overlay plus the kernels the server maintains
 * across mutations.  CC and PageRank are global (sourceless) answers, so
 * one maintainer each covers the graph; BFS/SSSP maintenance is per
 * source and lives with callers that pin a source (bench/dyn_maintenance
 * exercises it).  Guarded by the server's dyn_mu_.
 */
struct DynState
{
    dyn::DynamicGraph graph;
    dyn::CCMaintainer cc;
    dyn::PageRankMaintainer pr;
    std::uint64_t batches = 0; ///< applied batches (compaction cadence)

    DynState(std::shared_ptr<store::GraphStore> store,
             const dyn::MaintainerOptions& opts)
        : graph(std::move(store)), cc(opts), pr({}, opts)
    {
        const dyn::GraphView view = graph.view();
        cc.rebuild(view);
        pr.rebuild(view);
    }
};

} // namespace detail

using detail::RequestState;

namespace
{

using detail::find_framework;

bool
kernel_uses_source(harness::Kernel kernel)
{
    return kernel == harness::Kernel::kBFS ||
           kernel == harness::Kernel::kSSSP ||
           kernel == harness::Kernel::kBC;
}

/**
 * Cache identity of a request: the cell coordinates with the graph pinned
 * by stable store identity (two suites at different scales never
 * collide), plus every parameter that changes the answer.  Sourceless
 * kernels normalize source to 0 so "PR from 3" and "PR from 7" dedupe.
 * Identity, not fingerprint: mutations install fresh CSR generations
 * without changing the key — the cache's generation tag decides whether
 * an entry under the key is still fresh.
 */
std::string
make_cache_key(const Request& req, const harness::Framework& fw,
               const harness::Dataset& ds)
{
    const vid_t source = kernel_uses_source(req.kernel) ? req.source : 0;
    std::ostringstream key;
    key << harness::to_string(req.mode) << "/" << fw.name << "/"
        << harness::to_string(req.kernel) << "/" << req.graph << "@"
        << std::hex << ds.store()->identity() << std::dec << "/d"
        << ds.delta << "/s" << source;
    return key.str();
}

/** Breaker identity: the unit that fails together.  Source and mode are
 *  deliberately excluded — a sick kernel is sick from every source. */
std::string
make_cell_key(const Request& req, const harness::Framework& fw)
{
    return fw.name + "/" + std::string(harness::to_string(req.kernel)) +
           "/" + req.graph;
}

/** Run the kernel for @p state on the calling thread. */
ResultValue
execute_kernel(const RequestState& state)
{
    const harness::Framework& fw = *state.fw;
    const harness::Dataset& ds = *state.ds;
    const Request& req = state.req;
    switch (req.kernel) {
      case harness::Kernel::kBFS:
        return fw.bfs(ds, req.source, req.mode);
      case harness::Kernel::kSSSP:
        return fw.sssp(ds, req.source, req.mode);
      case harness::Kernel::kCC:
        return fw.cc(ds, req.mode);
      case harness::Kernel::kPR:
        return fw.pr(ds, req.mode);
      case harness::Kernel::kBC:
        return fw.bc(ds, std::vector<vid_t>{req.source}, req.mode);
      case harness::Kernel::kTC:
        return fw.tc(ds, req.mode);
    }
    throw support::Error(StatusCode::kInvalidInput, "unknown kernel");
}

int
priority_class(Priority priority)
{
    return static_cast<int>(priority);
}

AdmissionOptions
make_admission_options(const ServerOptions& options)
{
    AdmissionOptions out;
    out.total_capacity = options.queue_capacity;
    out.workers = options.workers;
    const bool derive =
        options.class_capacity[0] == 0 && options.class_capacity[1] == 0 &&
        options.class_capacity[2] == 0;
    if (derive) {
        out.class_capacity = {
            options.queue_capacity,
            std::max<std::size_t>(1, options.queue_capacity / 2),
            std::max<std::size_t>(1, options.queue_capacity / 4)};
    } else {
        for (int i = 0; i < kPriorityClasses; ++i)
            out.class_capacity[static_cast<std::size_t>(i)] = std::max<
                std::size_t>(
                1, options.class_capacity[static_cast<std::size_t>(i)]);
    }
    return out;
}

} // namespace

std::size_t
result_bytes(const ResultValue& value)
{
    return plan::value_bytes(value);
}

std::uint64_t
result_fingerprint(const ResultValue& value)
{
    return plan::value_fingerprint(value);
}

Server::Server(harness::DatasetSuite suite,
               std::vector<harness::Framework> frameworks,
               ServerOptions options)
    : suite_(std::move(suite)),
      frameworks_(std::move(frameworks)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : support::Clock::system()),
      cache_(options.cache_capacity_bytes,
             options.cache_ttl_ms * 1'000'000, clock_),
      breaker_(options.breaker, clock_),
      retry_budget_(options.retry_budget_ratio, options.retry_budget_cap),
      admission_(make_admission_options(options)),
      slo_(options.slo)
{
    GM_ASSERT(options_.workers >= 1, "server needs at least one worker");
    GM_ASSERT(options_.queue_capacity >= 1,
              "server needs a non-empty admission queue");
    if (options_.enable_telemetry) {
        telemetry::Registry::global().enable();
        tm_ = std::make_unique<detail::ServeTelemetry>();
        retry_budget_.attach_gauge(tm_->retry_tokens);
    }
    // A random per-server base decorrelates trace ids across servers in
    // one process; the sequence keeps them unique within a server.
    trace_base_ =
        SplitMix64(static_cast<std::uint64_t>(Timer::now_ns()) ^
                   (reinterpret_cast<std::uintptr_t>(this) << 16))
            .next();
    if (options_.metrics_port >= 0) {
        listener_ = std::make_unique<telemetry::MetricsListener>(
            options_.metrics_port, [] {
                return telemetry::render_text(
                    telemetry::Registry::global().snapshot());
            });
        if (!listener_->status().is_ok()) {
            log_warn("serve: metrics listener failed: " +
                              listener_->status().message());
            listener_.reset();
        }
    }
    // Default budget: at least one lane per worker, so width-1 traffic
    // keeps the full workers-way request concurrency the pool provides
    // (as before this scheduler existed), and at least the ThreadPool
    // size so one wide request can use every core.
    lane_budget_ =
        options_.lane_budget >= 1
            ? options_.lane_budget
            : std::max(options_.workers,
                       par::ThreadPool::instance().num_threads());
    lane_gate_ = std::make_shared<detail::LaneGate>();
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
    if (!options_.telemetry_path.empty())
        flusher_ = std::thread([this] { telemetry_flush_loop(); });
}

Server::~Server() { shutdown(); }

void
Server::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (shutdown_)
            return;
        shutdown_ = true;
    }
    queue_cv_.notify_all();
    // Wake any leader blocked on the lane budget so it re-checks its
    // cancel/deadline state promptly.  Draining leaders that are still
    // live keep waiting — budget holders always finish, so the wait
    // terminates and the queue drains as documented.
    lane_gate_->cv.notify_all();
    for (auto& worker : workers_)
        worker.join();
    workers_.clear();
    // Plans drain like queries: drivers and their node threads always
    // finish (lane waits terminate because budget holders finish), so
    // joining them here completes every accepted plan before the
    // telemetry machinery below shuts down.
    reap_plan_runners(/*all=*/true);
    flush_breaker_transitions();
    {
        std::lock_guard<std::mutex> lock(flusher_mu_);
        flusher_stop_ = true;
    }
    flusher_cv_.notify_all();
    if (flusher_.joinable())
        flusher_.join();
    if (!options_.telemetry_path.empty()) {
        // Final snapshot so the stream's last line reflects shutdown
        // state even with a long flush interval.
        write_telemetry_snapshot();
        evaluate_slo(Timer::now_ns());
    }
    if (listener_ != nullptr)
        listener_->stop();
    if (options_.enable_telemetry)
        telemetry::Registry::global().disable();
}

StatusOr<Server::Handle>
Server::submit(Request request)
{
    const harness::Framework* fw =
        find_framework(frameworks_, request.framework);
    if (fw == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown framework: " + request.framework);

    std::shared_ptr<const harness::Dataset> ds;
    for (const auto& candidate : suite_.datasets) {
        if (candidate->name == request.graph) {
            ds = candidate;
            break;
        }
    }
    if (ds == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown graph: " + request.graph);

    if (kernel_uses_source(request.kernel) &&
        (request.source < 0 || request.source >= ds->g().num_vertices()))
        return Status(StatusCode::kInvalidInput,
                      "source " + std::to_string(request.source) +
                          " out of range for graph " + request.graph);

    auto state = std::make_shared<RequestState>();
    state->req = std::move(request);
    // Trace identity: minted here for bare submits; query() mints once
    // per logical request and reuses it across retries.
    if (state->req.trace_id == 0)
        state->req.trace_id = mint_trace_id();
    if (state->req.attempt <= 0)
        state->req.attempt = 1;
    // Width changes latency, never the answer (kernels are
    // order-deterministic), so it is clamped rather than validated and
    // stays out of the cache key.
    state->req.width = std::clamp(state->req.width, 1, lane_budget_);
    state->fw = fw;
    state->ds = ds;
    state->cache_key = make_cache_key(state->req, *fw, *ds);
    state->cell_key = make_cell_key(state->req, *fw);
    state->gate = lane_gate_;
    state->submit_ns = Timer::now_ns();
    if (state->req.deadline_ms > 0)
        state->deadline_ns =
            state->submit_ns +
            static_cast<std::int64_t>(state->req.deadline_ms) * 1'000'000;

    // Serves a refused request from the cache when policy allows, or
    // refuses it for real.  Returns the already-completed handle or the
    // refusal status.
    const auto refuse = [&](Status status,
                            bool fresh_ok) -> StatusOr<Handle> {
        QueryResult result;
        if ((state->req.allow_stale || fresh_ok) &&
            try_cache_fallback(*state, result) &&
            (result.degraded ? state->req.allow_stale : true)) {
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++counters_.submitted;
            }
            if (tm_ != nullptr)
                tm_->submitted->inc();
            write_refusal_record(*state, status, /*served_degraded=*/true);
            complete(state, Status::ok(), std::move(result));
            return Handle(state);
        }
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            if (status.code() == StatusCode::kUnavailable)
                ++counters_.unavailable;
            else
                ++counters_.shed;
        }
        if (tm_ != nullptr) {
            if (status.code() == StatusCode::kUnavailable)
                tm_->unavailable->inc();
            else
                tm_->shed[priority_class(state->req.priority)]->inc();
        }
        write_refusal_record(*state, status, /*served_degraded=*/false);
        // A real refusal is an unanswered request from the SLO's point
        // of view; degraded serves are scored in complete().
        observe_slo(/*answered=*/false, /*fresh=*/false, /*latency_ns=*/0);
        return status;
    };

    // Chaos site: an injected admission fault sheds the request exactly
    // as a full queue would (degraded fallback applies); a delay fault
    // slows the submit path.
    try {
        support::FaultInjector::global().at("serve.admission");
    } catch (const support::FaultInjectedError&) {
        return refuse(Status(StatusCode::kResourceExhausted,
                             "injected fault at serve.admission"),
                      /*fresh_ok=*/false);
    }

    // Circuit breaker: fast-fail a sick cell instead of queueing into
    // it.  A fresh cached result is still served (no execution needed);
    // half-open grants pass through as probes.
    if (options_.enable_breaker) {
        switch (breaker_.admit(state->cell_key)) {
          case CircuitBreaker::Gate::kAllow:
            break;
          case CircuitBreaker::Gate::kProbe:
            state->probe = true;
            break;
          case CircuitBreaker::Gate::kReject:
            return refuse(
                Status(StatusCode::kUnavailable,
                       "circuit breaker open for cell " + state->cell_key),
                /*fresh_ok=*/true);
        }
    }

    AdmissionController::Decision decision;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (shutdown_) {
            breaker_.release(state->cell_key, state->probe);
            return Status(StatusCode::kResourceExhausted,
                          "server is shut down");
        }
        AdmissionController::Ticket ticket;
        ticket.priority = state->req.priority;
        ticket.deadline_ns = state->deadline_ns;
        ticket.payload = state;
        decision = admission_.try_admit(std::move(ticket),
                                        state->submit_ns);
        if (decision == AdmissionController::Decision::kAdmitted) {
            // Counted while still holding queue_mu_: a worker cannot pop
            // (and decrement queue_depth) until the queue lock is
            // released, so no snapshot can see the pop before the push.
            std::lock_guard<std::mutex> stats_lock(stats_mu_);
            ++counters_.submitted;
            ++counters_.queue_depth;
        }
    }
    if (decision == AdmissionController::Decision::kAdmitted &&
        tm_ != nullptr) {
        const int cls = priority_class(state->req.priority);
        tm_->submitted->inc();
        tm_->accepted[cls]->inc();
        tm_->queue_depth[cls]->add(1);
    }
    if (decision != AdmissionController::Decision::kAdmitted) {
        breaker_.release(state->cell_key, state->probe);
        state->probe = false;
        std::string reason;
        switch (decision) {
          case AdmissionController::Decision::kQueueFull:
            reason = "admission queue full (capacity " +
                     std::to_string(options_.queue_capacity) + ")";
            break;
          case AdmissionController::Decision::kClassFull:
            reason = std::string("admission quota for class '") +
                     to_string(state->req.priority) + "' is full";
            break;
          default:
            reason = "deadline of " +
                     std::to_string(state->req.deadline_ms) +
                     " ms is infeasible at the current queue drain rate";
            break;
        }
        if (decision ==
            AdmissionController::Decision::kDeadlineInfeasible) {
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++counters_.infeasible;
            }
            if (tm_ != nullptr)
                tm_->infeasible->inc();
        }
        return refuse(Status(StatusCode::kResourceExhausted, reason),
                      /*fresh_ok=*/false);
    }

    queue_cv_.notify_one();
    if (state->deadline_ns != 0)
        deadlines_.arm(state->deadline_ns, state->token);
    return Handle(state);
}

StatusOr<QueryResult>
Server::query(const Request& request)
{
    return query(request, options_.retry);
}

StatusOr<QueryResult>
Server::query(const Request& request, const RetryPolicy& policy)
{
    retry_budget_.deposit();
    // One trace id per logical query: every attempt (including refused
    // ones) stamps the same id into its JSONL records, with `attempt`
    // disambiguating them.
    Request attempt_req = request;
    if (attempt_req.trace_id == 0)
        attempt_req.trace_id = mint_trace_id();
    int attempt = 1;
    for (;;) {
        Status status;
        attempt_req.attempt = attempt;
        auto handle = submit(attempt_req);
        if (handle.is_ok()) {
            auto result = std::move(handle).value().wait();
            if (result.is_ok())
                return result;
            status = result.status();
        } else {
            status = handle.status();
        }
        if (attempt >= policy.max_attempts ||
            !retryable_status(status.code()))
            return status;
        if (!retry_budget_.withdraw()) {
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++counters_.retry_denied;
            }
            if (tm_ != nullptr)
                tm_->retry_denied->inc();
            return status;
        }
        ++attempt;
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++counters_.retries;
        }
        if (tm_ != nullptr)
            tm_->retries->inc();
        const std::int64_t ms = backoff_ms(policy, attempt);
        if (ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
}

StatusOr<MutationOutcome>
Server::mutate(const std::string& graph, const dyn::MutationBatch& batch)
{
    std::shared_ptr<const harness::Dataset> ds;
    for (const auto& candidate : suite_.datasets) {
        if (candidate->name == graph) {
            ds = candidate;
            break;
        }
    }
    if (ds == nullptr)
        return Status(StatusCode::kInvalidInput,
                      "unknown graph: " + graph);
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (shutdown_)
            return Status(StatusCode::kResourceExhausted,
                          "server is shut down");
    }

    const std::int64_t begin_ns = Timer::now_ns();
    MutationOutcome outcome;
    outcome.requested = batch.size();

    // Exclusive with kernel execution (leaders read the store's base by
    // plain reference) and, via dyn_mu_, with other mutations.
    acquire_all_lanes();
    Status status = Status::ok();
    std::uint64_t generation_peak = 0;
    double overlay_bytes = 0;
    {
        // The maintainers and the compaction fork on the lanes the
        // budget just reserved.
        par::LaneLease lease(lane_budget_);
        std::lock_guard<std::mutex> lock(dyn_mu_);
        // mutate_seconds leaves out the quiesce above: it times only
        // what runs while both are held.
        const std::int64_t work_begin_ns = Timer::now_ns();
        auto it = dyn_.find(graph);
        if (it == dyn_.end())
            it = dyn_.emplace(graph,
                              std::make_unique<detail::DynState>(
                                  ds->store(),
                                  dyn::MaintainerOptions{
                                      options_.dyn_full_threshold}))
                     .first;
        detail::DynState& st = *it->second;
        auto effect_or = st.graph.apply(batch);
        if (!effect_or.is_ok()) {
            status = effect_or.status();
        } else {
            const dyn::BatchEffect& effect = effect_or.value();
            const dyn::GraphView view = st.graph.view();
            outcome.inserted_arcs = effect.inserted_arcs;
            outcome.deleted_arcs = effect.deleted_arcs;
            outcome.dirty = effect.dirty.size();
            outcome.dirty_fraction =
                effect.dirty_fraction(view.num_vertices());
            if (effect.changed()) {
                outcome.cc_incremental = st.cc.update(view, effect);
                outcome.pr_incremental = st.pr.update(view, effect);
            }
            ++st.batches;
            if (options_.dyn_compact_every > 0 &&
                st.batches % static_cast<std::uint64_t>(
                                 options_.dyn_compact_every) ==
                    0 &&
                st.graph.pending_entries() > 0) {
                outcome.generation = st.graph.compact();
                outcome.compacted = true;
            } else {
                outcome.generation = ds->store()->generation();
            }
            dyn_generation_peak_ =
                std::max(dyn_generation_peak_, outcome.generation);
            generation_peak = dyn_generation_peak_;
            overlay_bytes =
                static_cast<double>(st.graph.pending_bytes());
        }
        outcome.mutate_seconds =
            static_cast<double>(Timer::now_ns() - work_begin_ns) * 1e-9;
    }
    release_lanes(lane_budget_);
    if (!status.is_ok())
        return status;

    const bool changed =
        outcome.inserted_arcs > 0 || outcome.deleted_arcs > 0;
    const std::uint64_t incremental =
        changed ? static_cast<std::uint64_t>(outcome.cc_incremental) +
                      static_cast<std::uint64_t>(outcome.pr_incremental)
                : 0;
    const std::uint64_t full = changed ? 2 - incremental : 0;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.mutations;
        counters_.mutation_inserted_arcs +=
            static_cast<std::uint64_t>(outcome.inserted_arcs);
        counters_.mutation_deleted_arcs +=
            static_cast<std::uint64_t>(outcome.deleted_arcs);
        if (outcome.compacted)
            ++counters_.compactions;
        counters_.dyn_incremental += incremental;
        counters_.dyn_full += full;
    }
    if (tm_ != nullptr) {
        tm_->dyn_batches->inc();
        tm_->dyn_batch_edges->record(
            static_cast<std::uint64_t>(outcome.requested));
        tm_->dyn_inserted_arcs->inc(
            static_cast<std::uint64_t>(outcome.inserted_arcs));
        tm_->dyn_deleted_arcs->inc(
            static_cast<std::uint64_t>(outcome.deleted_arcs));
        if (outcome.compacted)
            tm_->dyn_compactions->inc();
        tm_->dyn_incremental->inc(incremental);
        tm_->dyn_full->inc(full);
        tm_->dyn_generation->set(
            static_cast<double>(generation_peak));
        tm_->dyn_dirty_fraction->set(outcome.dirty_fraction);
        tm_->dyn_overlay_bytes->set(overlay_bytes);
        tm_->dyn_mutate_ns->record(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, Timer::now_ns() - begin_ns)));
    }
    write_mutation_record(graph, outcome);
    return outcome;
}

void
Server::worker_loop()
{
    for (;;) {
        std::shared_ptr<RequestState> state;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(
                lock, [this] { return shutdown_ || !admission_.empty(); });
            if (admission_.empty())
                return; // shutdown, queue drained
            state = std::static_pointer_cast<RequestState>(
                admission_.pop());
        }
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            --counters_.queue_depth;
        }
        if (tm_ != nullptr)
            tm_->queue_depth[priority_class(state->req.priority)]->add(-1);
        process(state);
    }
}

Status
Server::classify_cancel(const RequestState& state) const
{
    if (state.deadline_ns != 0 && Timer::now_ns() >= state.deadline_ns &&
        !state.user_cancelled.load(std::memory_order_relaxed))
        return Status(StatusCode::kDeadlineExceeded,
                      "deadline of " +
                          std::to_string(state.req.deadline_ms) +
                          " ms exceeded");
    return Status(StatusCode::kCancelled, "cancelled by caller");
}

void
Server::record_cell_outcome(const RequestState& state,
                            const Status& status, bool executed)
{
    if (!options_.enable_breaker)
        return;
    if (!executed) {
        breaker_.release(state.cell_key, state.probe);
        return;
    }
    switch (status.code()) {
      case StatusCode::kOk:
        breaker_.record_success(state.cell_key, state.probe);
        break;
      case StatusCode::kCancelled:
        // Caller-initiated: says nothing about the cell's health.
        breaker_.release(state.cell_key, state.probe);
        break;
      default:
        // Kernel errors, injected faults, and deadline/timeout expiries
        // mid-execution all count: a slow cell is a sick cell.
        breaker_.record_failure(state.cell_key, state.probe);
        break;
    }
}

void
Server::process(const std::shared_ptr<RequestState>& state)
{
    const std::int64_t dequeue_ns = Timer::now_ns();
    QueryResult result;
    result.queue_seconds =
        static_cast<double>(dequeue_ns - state->submit_ns) * 1e-9;
    if (tm_ != nullptr)
        tm_->queue_wait_ns->record(
            static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, dequeue_ns - state->submit_ns)));

    // Expired or cancelled while still queued: answer without executing.
    if (state->user_cancelled.load(std::memory_order_relaxed) ||
        (state->deadline_ns != 0 && dequeue_ns >= state->deadline_ns)) {
        const Status status = classify_cancel(*state);
        record_cell_outcome(*state, status, /*executed=*/false);
        complete(state, status, std::move(result));
        return;
    }

    obs::TraceSession session;
    session.start_detached();
    Status status;
    {
        obs::SessionBinding binding(session.gen());
        obs::record_span("serve.queue_wait", state->submit_ns, dequeue_ns);

        std::int64_t join_begin = 0;
        const auto observe = [&](detail::ServeStage stage) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            switch (stage) {
              case detail::ServeStage::kHit:
                obs::counter_add("serve.cache_hit", 1);
                ++counters_.cache_hits;
                break;
              case detail::ServeStage::kJoined:
                join_begin = Timer::now_ns();
                ++counters_.single_flight_joins;
                break;
              case detail::ServeStage::kLeading:
                if (tm_ != nullptr)
                    tm_->lanes_requested->inc(
                        static_cast<std::uint64_t>(state->req.width));
                break;
              case detail::ServeStage::kExecuting:
                ++counters_.executions;
                if (tm_ != nullptr)
                    tm_->executions->inc();
                break;
            }
        };
        const auto execute = [&state]() -> StatusOr<ResultValue> {
            return execute_kernel(*state);
        };
        // The lookup generation is whatever the store serves right now.
        // A mutate() landing after this read is harmless — the entry (or
        // execution) reflects a coherent snapshot either way; the next
        // lookup sees the new generation.
        const detail::ServeCall call{state->cache_key,
                                     *state->ds->store(),
                                     state->req.width,
                                     "serve.execute",
                                     *state->token,
                                     state->deadline_ns,
                                     /*generation_cap=*/0,
                                     execute,
                                     observe};
        detail::Served served = serve_keyed(call);
        status = served.stopped ? classify_cancel(*state)
                                : std::move(served.status);
        if (served.role == ResultCache::Role::kFollower)
            obs::record_span("serve.join_wait", join_begin,
                             Timer::now_ns());
        record_cell_outcome(*state, status, served.executed);
        if (status.is_ok()) {
            result.value = std::move(served.value);
            result.fingerprint = served.fingerprint;
            result.generation = served.generation;
            result.cache_hit = served.role == ResultCache::Role::kHit;
            result.shared_execution =
                served.role == ResultCache::Role::kFollower;
        }
        if (served.executed) {
            result.lanes = served.lanes;
            result.execute_seconds =
                static_cast<double>(served.execute_ns) * 1e-9;
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                counters_.lanes_granted +=
                    static_cast<std::uint64_t>(served.lanes);
            }
            if (tm_ != nullptr) {
                tm_->lanes_granted->inc(
                    static_cast<std::uint64_t>(served.lanes));
                tm_->execute_ns->record(static_cast<std::uint64_t>(
                    std::max<std::int64_t>(0, served.execute_ns)));
            }
            // Feed the admission drain estimate: what one queue slot
            // actually cost, success or not.
            std::lock_guard<std::mutex> lock(queue_mu_);
            admission_.record_service(served.execute_ns);
        }
    }
    session.stop();
    if (result.lanes > 1 && result.execute_seconds > 0) {
        // Lane busy time over lanes x wall: 1.0 means every granted lane
        // was busy for the whole execution.  A one-lane execution runs
        // its forks inline and records no busy time, so it has no
        // efficiency to report.
        const obs::TrialMetrics summary = obs::summarize(session);
        result.parallel_efficiency =
            std::min(1.0, summary.busy_seconds /
                              (result.execute_seconds *
                               static_cast<double>(result.lanes)));
        if (tm_ != nullptr)
            tm_->parallel_efficiency_millionths->record(
                static_cast<std::uint64_t>(result.parallel_efficiency *
                                           1e6));
    }
    if (!options_.metrics_path.empty())
        write_metrics_record(*state, session, result);
    complete(state, std::move(status), std::move(result));
    flush_breaker_transitions();
}

detail::Served
Server::serve_keyed(const detail::ServeCall& call)
{
    const auto observe = [&call](detail::ServeStage stage) {
        if (call.observe)
            call.observe(stage);
    };
    detail::Served out;
    ResultCache::Lookup lookup =
        cache_.lookup_or_join(call.key, call.store.generation());
    out.role = lookup.role;
    switch (lookup.role) {
      case ResultCache::Role::kHit:
        observe(detail::ServeStage::kHit);
        out.value = std::move(lookup.value);
        out.fingerprint = lookup.fingerprint;
        out.generation = lookup.generation;
        return out;
      case ResultCache::Role::kFollower:
        observe(detail::ServeStage::kJoined);
        wait_for_leader(call, *lookup.flight, out);
        return out;
      case ResultCache::Role::kLeader:
        break;
    }

    // Leader.  publish() runs on every path out of here — a leader that
    // never publishes would hang its followers.  Hits and followers never
    // touch the lane budget, so they are served even when every lane is
    // busy.
    observe(detail::ServeStage::kLeading);
    if (!acquire_lanes(call)) {
        out.stopped = true;
        // Followers see an abandoned leader and retry cleanly.
        cache_.publish(call.key, lookup.flight,
                       Status(StatusCode::kCancelled,
                              "stopped before execution"),
                       nullptr, 0, 0);
        return out;
    }
    // Pinned while lanes are held: mutate() needs the whole budget, so
    // the generation cannot move under execution.
    const std::uint64_t exec_generation = call.store.generation();
    out.executed = true;
    observe(detail::ServeStage::kExecuting);
    const std::int64_t exec_begin = Timer::now_ns();
    std::shared_ptr<const ResultValue> value;
    std::uint64_t fingerprint = 0;
    try {
        // Multi-lane execution under a LaneLease: the kernel's forks run
        // on the leased lanes only, so concurrent leaders parallelize on
        // disjoint lane sets, and order-deterministic kernels make the
        // payload bit-identical to a serial run at any width.
        support::ScopedCancelToken scope(&call.token);
        par::LaneLease lease(call.width);
        out.lanes = lease.width();
        obs::ScopedSpan span(call.site);
        support::FaultInjector::global().at(call.site);
        support::check_cancelled();
        StatusOr<ResultValue> produced = call.execute();
        if (produced.is_ok()) {
            fingerprint = result_fingerprint(*produced);
            value = std::make_shared<const ResultValue>(
                std::move(produced).value());
        } else {
            out.status = produced.status();
        }
    } catch (...) {
        out.status = support::current_exception_status();
    }
    // Cooperative unwinds surface as the watchdog's kTimeout.
    out.stopped = out.status.code() == StatusCode::kTimeout;
    const std::uint64_t generation =
        call.generation_cap == 0
            ? exec_generation
            : std::min(exec_generation, call.generation_cap);
    cache_.publish(call.key, lookup.flight, out.status, value, fingerprint,
                   generation);
    out.execute_ns = Timer::now_ns() - exec_begin;
    release_lanes(call.width);
    if (out.status.is_ok()) {
        out.value = std::move(value);
        out.fingerprint = fingerprint;
        out.generation = generation;
    }
    return out;
}

bool
Server::acquire_lanes(const detail::ServeCall& call)
{
    detail::LaneGate& gate = *lane_gate_;
    std::unique_lock<std::mutex> lock(gate.mu);
    for (;;) {
        if (call.token.requested())
            return false;
        if (call.deadline_ns != 0 && Timer::now_ns() >= call.deadline_ns)
            return false;
        if (gate.in_use + call.width <= lane_budget_) {
            gate.in_use += call.width;
            if (tm_ != nullptr)
                tm_->lanes_in_use->set(gate.in_use);
            return true;
        }
        // Budget holders are executing leaders, which always finish, so
        // this wait cannot deadlock — including during shutdown's queue
        // drain.  Wakeups are event-driven (release_lanes, both handles'
        // cancel(), and shutdown() all notify); the only timed bound
        // needed is the call's own deadline, so expiry is reported the
        // moment it passes instead of on the next poll tick.
        if (call.deadline_ns == 0) {
            gate.cv.wait(lock);
        } else {
            const std::int64_t remaining_ns =
                call.deadline_ns - Timer::now_ns();
            if (remaining_ns > 0)
                gate.cv.wait_for(lock,
                                 std::chrono::nanoseconds(remaining_ns));
        }
    }
}

void
Server::release_lanes(int width)
{
    detail::LaneGate& gate = *lane_gate_;
    {
        std::lock_guard<std::mutex> lock(gate.mu);
        gate.in_use -= width;
        if (tm_ != nullptr)
            tm_->lanes_in_use->set(gate.in_use);
    }
    gate.cv.notify_all();
}

void
Server::acquire_all_lanes()
{
    // Budget holders are executing leaders, which always finish, so the
    // wait terminates; once the full budget is charged, no leader can
    // start executing until the mutation releases it.  Cache hits and
    // followers never touch the budget and keep being served.
    detail::LaneGate& gate = *lane_gate_;
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.in_use == 0; });
    gate.in_use = lane_budget_;
    if (tm_ != nullptr)
        tm_->lanes_in_use->set(gate.in_use);
}

void
Server::wait_for_leader(const detail::ServeCall& call,
                        ResultCache::Inflight& flight, detail::Served& out)
{
    std::unique_lock<std::mutex> lock(flight.mu);
    while (!flight.done) {
        if (call.token.requested() ||
            (call.deadline_ns != 0 && Timer::now_ns() >= call.deadline_ns)) {
            out.stopped = true;
            return;
        }
        flight.cv.wait_for(lock, std::chrono::milliseconds(2));
    }
    if (flight.status.is_ok()) {
        out.value = flight.value;
        out.fingerprint = flight.fingerprint;
        out.generation = flight.generation;
        return;
    }
    switch (flight.status.code()) {
      case StatusCode::kTimeout:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kCancelled:
        // The leader was abandoned for reasons unrelated to the query
        // itself; this follower's answer was never computed.
        out.status = Status(StatusCode::kCancelled,
                            "single-flight leader abandoned; safe to retry");
        return;
      default:
        // Deterministic failure: retrying the same query would repeat it.
        out.status = flight.status;
        return;
    }
}

bool
Server::try_cache_fallback(const RequestState& state, QueryResult& result)
{
    ResultCache::Peek peek = cache_.peek(
        state.cache_key, state.ds->store()->generation());
    if (peek.value == nullptr)
        return false;
    result.value = std::move(peek.value);
    result.fingerprint = peek.fingerprint;
    result.generation = peek.generation;
    if (peek.fresh) {
        result.cache_hit = true;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.cache_hits;
    } else {
        result.degraded = true;
    }
    return true;
}

void
Server::complete(const std::shared_ptr<RequestState>& state, Status status,
                 QueryResult result)
{
    // Degraded mode: a request that opted in and cannot be served fresh
    // — shed, breaker-open, failed, or expired — is answered from the
    // cache (stale included) rather than refused.  Never masks a bad
    // request or a caller's own cancel.
    if (!status.is_ok() && state->req.allow_stale &&
        status.code() != StatusCode::kInvalidInput &&
        !state->user_cancelled.load(std::memory_order_relaxed) &&
        result.value == nullptr && try_cache_fallback(*state, result)) {
        status = Status::ok();
        obs::counter_add("serve.degraded", result.degraded ? 1 : 0);
    }
    const std::int64_t done_ns = Timer::now_ns();
    const std::int64_t latency_ns =
        std::max<std::int64_t>(0, done_ns - state->submit_ns);
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.completed;
        switch (status.code()) {
          case StatusCode::kOk:
            ++counters_.succeeded;
            if (result.degraded)
                ++counters_.degraded;
            break;
          case StatusCode::kDeadlineExceeded:
            ++counters_.deadline_exceeded;
            break;
          case StatusCode::kCancelled:
            ++counters_.cancelled;
            break;
          default:
            ++counters_.failed;
            break;
        }
    }
    if (tm_ != nullptr) {
        tm_->completed_for(status.code()).inc();
        if (status.is_ok() && result.degraded)
            tm_->degraded->inc();
        const int kernel = static_cast<int>(state->req.kernel);
        if (kernel >= 0 && kernel < detail::ServeTelemetry::kKernels)
            tm_->latency_ns[kernel][priority_class(state->req.priority)]
                ->record(static_cast<std::uint64_t>(latency_ns));
    }
    observe_slo(status.is_ok(), status.is_ok() && !result.degraded,
                latency_ns);
    result.trace_id = state->req.trace_id;
    {
        std::lock_guard<std::mutex> lock(state->mu);
        result.service_seconds = static_cast<double>(latency_ns) * 1e-9;
        state->status = std::move(status);
        state->result = std::move(result);
        state->done = true;
    }
    state->cv.notify_all();
}

void
Server::write_metrics_record(const RequestState& state,
                             const obs::TraceSession& session,
                             const QueryResult& result)
{
    obs::MetricsRecord record;
    record.mode = harness::to_string(state.req.mode);
    record.framework = state.fw->name;
    record.kernel = harness::to_string(state.req.kernel);
    record.graph = state.req.graph;
    record.trial = 0;
    record.attempt = state.req.attempt;
    record.trace_id = state.req.trace_id;
    record.metrics = obs::summarize(session);
    // One notion of width: the granted lease, which a one-lane execution
    // has even though its inline forks never record par.lanes.
    record.metrics.lanes = result.lanes;
    record.metrics.parallel_efficiency = result.parallel_efficiency;
    record.metrics.peak_bytes = state.ds->bytes_resident();
    support::append_jsonl(options_.metrics_path,
                          obs::metrics_record_line(record));
}

void
Server::flush_breaker_transitions()
{
    // Drain unconditionally (bounds memory); write only when streaming.
    const std::vector<CircuitBreaker::Transition> transitions =
        breaker_.drain_transitions();
    if (transitions.empty() || options_.metrics_path.empty())
        return;
    for (const CircuitBreaker::Transition& t : transitions) {
        std::ostringstream line;
        line << "{\"kind\":\"serve.breaker\",\"cell\":\""
             << support::json_escape(t.cell) << "\",\"from\":\""
             << CircuitBreaker::to_string(t.from) << "\",\"to\":\""
             << CircuitBreaker::to_string(t.to) << "\",\"seq\":" << t.seq
             << "}";
        support::append_jsonl(options_.metrics_path, line.str());
    }
}

ServerStats
Server::stats_snapshot() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        out = counters_;
    }
    out.breaker_transitions = breaker_.transition_count();
    out.breaker_open_cells = breaker_.open_cells();
    const ResultCache::Stats cache = cache_.stats();
    out.cache_entries = cache.entries;
    out.cache_bytes = cache.bytes;
    return out;
}

int
Server::metrics_port() const
{
    return listener_ != nullptr ? listener_->port() : -1;
}

telemetry::SloEvaluation
Server::slo_evaluation()
{
    return evaluate_slo(Timer::now_ns());
}

std::uint64_t
Server::mint_trace_id()
{
    const std::uint64_t seq =
        trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t id =
        SplitMix64(trace_base_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
    return id == 0 ? 1 : id; // 0 means "mint for me"
}

void
Server::write_refusal_record(const RequestState& state,
                             const Status& status, bool served_degraded)
{
    if (options_.metrics_path.empty())
        return;
    std::ostringstream line;
    line << "{\"kind\":\"serve.refusal\",\"trace\":\""
         << obs::trace_hex(state.req.trace_id)
         << "\",\"attempt\":" << state.req.attempt << ",\"code\":\""
         << support::to_string(status.code()) << "\",\"cell\":\""
         << support::json_escape(state.cell_key)
         << "\",\"degraded\":" << (served_degraded ? 1 : 0)
         << ",\"t_ns\":" << Timer::now_ns() << "}";
    support::append_jsonl(options_.metrics_path, line.str());
}

void
Server::write_mutation_record(const std::string& graph,
                              const MutationOutcome& outcome)
{
    if (options_.metrics_path.empty())
        return;
    const bool changed =
        outcome.inserted_arcs > 0 || outcome.deleted_arcs > 0;
    const auto decision = [changed](bool incremental) {
        return !changed ? "none" : incremental ? "incremental" : "full";
    };
    std::ostringstream line;
    line << "{\"kind\":\"serve.mutation\",\"graph\":\""
         << support::json_escape(graph)
         << "\",\"requested\":" << outcome.requested
         << ",\"inserted_arcs\":" << outcome.inserted_arcs
         << ",\"deleted_arcs\":" << outcome.deleted_arcs
         << ",\"dirty\":" << outcome.dirty << ",\"dirty_fraction\":"
         << support::json_double(outcome.dirty_fraction) << ",\"cc\":\""
         << decision(outcome.cc_incremental) << "\",\"pr\":\""
         << decision(outcome.pr_incremental)
         << "\",\"compacted\":" << (outcome.compacted ? 1 : 0)
         << ",\"generation\":" << outcome.generation << ",\"mutate_ms\":"
         << support::json_double(outcome.mutate_seconds * 1e3)
         << ",\"t_ns\":" << Timer::now_ns() << "}";
    support::append_jsonl(options_.metrics_path, line.str());
}

void
Server::observe_slo(bool answered, bool fresh, std::int64_t latency_ns)
{
    const std::int64_t now = Timer::now_ns();
    slo_.record(now, answered, fresh,
                static_cast<std::uint64_t>(
                    std::max<std::int64_t>(0, latency_ns)));
    // Evaluate at roughly half-bucket granularity: one caller wins the
    // CAS and pays for the evaluation, everyone else just records.
    const std::int64_t period = std::max<std::int64_t>(
        1, options_.slo.bucket_ns / 2);
    std::int64_t last = last_slo_eval_ns_.load(std::memory_order_relaxed);
    if (now - last < period)
        return;
    if (!last_slo_eval_ns_.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return;
    evaluate_slo(now);
}

telemetry::SloEvaluation
Server::evaluate_slo(std::int64_t now_ns)
{
    const telemetry::SloEvaluation ev = slo_.evaluate(now_ns);
    if (tm_ != nullptr) {
        tm_->slo_availability_short->set(ev.availability_short);
        tm_->slo_availability_long->set(ev.availability_long);
        tm_->slo_fresh_availability_short->set(
            ev.fresh_availability_short);
        tm_->slo_fresh_availability_long->set(ev.fresh_availability_long);
        tm_->slo_burn_short->set(ev.burn_short);
        tm_->slo_burn_long->set(ev.burn_long);
        tm_->slo_firing->set(ev.firing ? 1.0 : 0.0);
        tm_->slo_p99_short_ns->set(
            static_cast<double>(ev.p99_short_ns));
        tm_->slo_availability_lifetime->set(ev.availability_lifetime);
    }
    if (ev.changed)
        write_slo_burn_record(ev);
    return ev;
}

void
Server::write_slo_burn_record(const telemetry::SloEvaluation& ev)
{
    // Burn transitions stream with the per-request records when those
    // are on; otherwise they join the telemetry snapshots.
    const std::string& path = !options_.metrics_path.empty()
                                  ? options_.metrics_path
                                  : options_.telemetry_path;
    if (path.empty())
        return;
    std::ostringstream line;
    line << "{\"kind\":\"serve.slo.burn\",\"state\":\""
         << (ev.firing ? "firing" : "clear")
         << "\",\"t_ns\":" << ev.at_ns
         << ",\"burn_short\":" << support::json_double(ev.burn_short)
         << ",\"burn_long\":" << support::json_double(ev.burn_long)
         << ",\"availability_short\":"
         << support::json_double(ev.availability_short)
         << ",\"fresh_availability_short\":"
         << support::json_double(ev.fresh_availability_short)
         << ",\"p99_short_ns\":" << ev.p99_short_ns
         << ",\"short_total\":" << ev.short_total
         << ",\"long_total\":" << ev.long_total << "}";
    support::append_jsonl(path, line.str());
}

void
Server::write_telemetry_snapshot()
{
    if (options_.telemetry_path.empty())
        return;
    const telemetry::Snapshot snap =
        telemetry::Registry::global().snapshot();
    std::ostringstream line;
    line << "{\"kind\":\"serve.telemetry\",\"seq\":" << telemetry_seq_++
         << ",\"t_ns\":" << Timer::now_ns() << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":" << value;
        first = false;
    }
    line << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":" << support::json_double(value);
        first = false;
    }
    line << "},\"hist\":{";
    first = true;
    for (const auto& [name, hist] : snap.histograms) {
        line << (first ? "" : ",") << "\"" << support::json_escape(name)
             << "\":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
             << ",\"buckets\":{";
        bool first_bucket = true;
        for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
            if (hist.buckets[b] == 0)
                continue;
            line << (first_bucket ? "" : ",") << "\"" << b
                 << "\":" << hist.buckets[b];
            first_bucket = false;
        }
        line << "}}";
        first = false;
    }
    line << "}}";
    support::append_jsonl(options_.telemetry_path, line.str());
}

void
Server::telemetry_flush_loop()
{
    const auto interval = std::chrono::milliseconds(
        std::max(1, options_.telemetry_flush_ms));
    std::unique_lock<std::mutex> lock(flusher_mu_);
    for (;;) {
        flusher_cv_.wait_for(lock, interval,
                             [this] { return flusher_stop_; });
        if (flusher_stop_)
            return;
        lock.unlock();
        write_telemetry_snapshot();
        evaluate_slo(Timer::now_ns());
        lock.lock();
    }
}

StatusOr<QueryResult>
Server::Handle::wait() const
{
    GM_ASSERT(state_ != nullptr, "wait() on an empty serve::Handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

StatusOr<QueryResult>
Server::Handle::wait_for(int timeout_ms) const
{
    GM_ASSERT(state_ != nullptr, "wait_for() on an empty serve::Handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    const bool done = state_->cv.wait_for(
        lock, std::chrono::milliseconds(std::max(0, timeout_ms)),
        [this] { return state_->done; });
    if (!done)
        return Status(StatusCode::kDeadlineExceeded,
                      "wait_for(" + std::to_string(timeout_ms) +
                          " ms) expired; the request is still in "
                          "flight and can be waited on again");
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

void
Server::Handle::cancel() const
{
    GM_ASSERT(state_ != nullptr, "cancel() on an empty serve::Handle");
    state_->user_cancelled.store(true, std::memory_order_relaxed);
    state_->token->request();
    // Wake the request if it is a leader blocked on the lane budget; the
    // gate is shared-ptr-owned by the state, so this is safe even after
    // the server has been destroyed.
    if (state_->gate != nullptr)
        state_->gate->cv.notify_all();
}

} // namespace gm::serve
