/**
 * @file
 * gm::serve::Server — an in-process concurrent graph-query service over a
 * shared DatasetSuite, with defined behavior under overload and faults.
 *
 * Architecture (one paragraph): submit() validates a Request against the
 * suite and framework registry, stamps it, gates it through the cell's
 * circuit breaker, and offers it to the AdmissionController — per
 * priority-class quotas, plus deadline-aware expiry that sheds requests
 * whose deadline cannot be met at the current drain rate.  Admission
 * never blocks: refused work is answered immediately, either degraded
 * from the result cache (allow_stale) or with RESOURCE_EXHAUSTED /
 * UNAVAILABLE.  A fixed pool of worker threads drains the queue
 * strict-priority; each request declares an execution width, and a
 * server-wide lane budget (defaulting to the par::ThreadPool size) gates
 * how many lanes may execute kernels at once — a leader acquires its
 * width from the budget, runs the kernel under a par::LaneLease of that
 * many lanes, and releases them, so concurrent requests execute genuinely
 * in parallel on disjoint lane sets while every result stays
 * bit-identical to a serial run (kernels are order-deterministic; see
 * DESIGN.md section 13).  Requests with deadlines are armed on
 * a shared DeadlineScheduler whose timer raises the request's
 * CancelToken; kernels unwind cooperatively and the worker reports
 * DEADLINE_EXCEEDED (or CANCELLED for caller-initiated cancels) without
 * poisoning the store or later requests.  Identical queries dedupe
 * through the ResultCache's single-flight slots; completed results are
 * served zero-copy from its LRU; execution failures feed the cell's
 * breaker, which fast-fails a sick cell and half-opens with probes.
 * query() layers a jittered-backoff RetryPolicy over submit()+wait(),
 * bounded by a server-wide retry budget so retries never amplify an
 * outage.  Every request records a detached gm::obs trace session
 * summarized to a per-request metrics JSONL record; breaker transitions
 * are appended to the same stream.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/obs/trace.hh"
#include "gm/plan/plan.hh"
#include "gm/serve/admission.hh"
#include "gm/serve/breaker.hh"
#include "gm/serve/cache.hh"
#include "gm/serve/deadline.hh"
#include "gm/serve/request.hh"
#include "gm/serve/retry.hh"
#include "gm/support/clock.hh"
#include "gm/support/status.hh"
#include "gm/telemetry/slo.hh"

namespace gm::telemetry
{
class MetricsListener;
} // namespace gm::telemetry

namespace gm::serve
{

namespace detail
{
struct DynState;
struct LaneGate;
struct PlanState;
struct RequestState;
struct ServeCall;
struct Served;
struct ServeTelemetry;
} // namespace detail

/** Server construction knobs. */
struct ServerOptions
{
    /** Worker threads = maximum concurrently executing requests. */
    int workers = 4;
    /** Total lanes the server may hand to executing kernels at once;
     *  request widths are clamped to it and leaders block until their
     *  width fits.  0 derives max(workers, par::ThreadPool size): width-1
     *  traffic keeps full workers-way concurrency, and one wide request
     *  can use every core (GM_THREADS). */
    int lane_budget = 0;
    /** Total admission-queue bound across all priority classes. */
    std::size_t queue_capacity = 64;
    /** Per-class admission quotas (indexed by Priority).  All-zero (the
     *  default) derives {total, total/2, total/4} from queue_capacity —
     *  interactive may fill the queue, best-effort sheds first. */
    std::array<std::size_t, kPriorityClasses> class_capacity = {0, 0, 0};
    /** Result-cache byte budget; 0 disables caching (single-flight dedup
     *  of concurrent identical queries still applies). */
    std::size_t cache_capacity_bytes = 64ull << 20;
    /** Result-cache TTL in ms; 0 = entries never expire.  Expired
     *  entries stop being hits but remain peek()-able for degraded
     *  (allow_stale) serving until replaced or evicted. */
    std::int64_t cache_ttl_ms = 0;
    /** Per-cell circuit breakers; set enable_breaker = false to run
     *  every request regardless of cell health. */
    bool enable_breaker = true;
    BreakerOptions breaker;
    /** Default RetryPolicy for query(); max_attempts = 1 disables. */
    RetryPolicy retry;
    /** Retry-budget token bucket: tokens deposited per fresh query and
     *  the bucket cap.  Bounds server-wide retry volume to roughly
     *  ratio x offered load during an outage. */
    double retry_budget_ratio = 0.1;
    double retry_budget_cap = 10;
    /** Time source for breaker cooldowns and cache TTLs (request
     *  timestamps and deadlines always use the steady Timer clock).
     *  Null = Clock::system(); tests may inject a ManualClock. */
    support::Clock* clock = nullptr;
    /** Append one MetricsRecord JSONL line per served request (plus one
     *  "serve.breaker" line per breaker transition, one "serve.refusal"
     *  line per refused attempt, and "serve.slo.burn" lines on SLO
     *  monitor transitions); "" = off.  A record that cannot be written
     *  is dropped: serving never fails on its side streams. */
    std::string metrics_path;
    /** Register serve metrics in telemetry::Registry::global() and keep
     *  the registry enabled for the server's lifetime.  Counters are
     *  process-wide and cumulative: two servers in one process share
     *  (and both advance) the same series. */
    bool enable_telemetry = true;
    /** Serve the Prometheus-style text exposition from a blocking TCP
     *  listener on 127.0.0.1:<metrics_port>.  -1 = off; 0 = pick an
     *  ephemeral port (read it back with Server::metrics_port()). */
    int metrics_port = -1;
    /** Append one {"kind":"serve.telemetry"} registry snapshot line
     *  every telemetry_flush_ms (crash-safe JSONL); "" = off. */
    std::string telemetry_path;
    int telemetry_flush_ms = 250;
    /** SLO monitor targets (availability burn rate + optional p99);
     *  always evaluated — gauges and burn records only surface through
     *  telemetry/metrics streams when those are configured. */
    telemetry::SloOptions slo;
    /** Compact the gm::dyn overlay into a fresh CSR generation after
     *  every N applied batches per graph (1 = every mutate() call bumps
     *  the generation; 0 = never compact, deltas accumulate and queries
     *  keep reading the merged view's base generation). */
    int dyn_compact_every = 1;
    /** Dirty-set fraction (|touched vertices| / n) above which the
     *  incremental kernel maintainers fall back to full recompute. */
    double dyn_full_threshold = 0.05;
};

/** Outcome of one Server::mutate() batch, for callers and tests. */
struct MutationOutcome
{
    /** Store generation current after the mutation (bumped iff the batch
     *  changed the graph and this call compacted). */
    std::uint64_t generation = 0;
    std::size_t requested = 0;   ///< mutations submitted in the batch
    eid_t inserted_arcs = 0;     ///< stored arcs that became live
    eid_t deleted_arcs = 0;      ///< stored arcs that died
    std::size_t dirty = 0;       ///< vertices whose adjacency changed
    double dirty_fraction = 0;   ///< dirty / n
    bool compacted = false;      ///< folded into a fresh CSR generation
    /** Incremental-vs-full decisions for the maintained kernels (false =
     *  fell back to full recompute; meaningless when nothing changed). */
    bool cc_incremental = false;
    bool pr_incremental = false;
    double mutate_seconds = 0;   ///< apply + maintain + compact wall time
};

/**
 * One query plan: a gm::plan DAG to execute against a named graph.  The
 * server executes independent DAG nodes concurrently under the same lane
 * budget that gates single-kernel queries, caches every node's value in
 * the ResultCache keyed by (structural sub-plan fingerprint, graph
 * generation), and single-flights identical sub-plans across
 * concurrently submitted plans — a sub-DAG shared by two plans executes
 * its kernels exactly once.
 */
struct PlanRequest
{
    /** Framework display name or lowercase alias ("GAP", "gkc", ...). */
    std::string framework = "GAP";
    /** Dataset name within the server's suite ("Road", "Kron", ...). */
    std::string graph;
    harness::Mode mode = harness::Mode::kBaseline;
    /** The DAG.  Must pass plan::Plan::validate(). */
    plan::Plan plan;
    /** Per-node wall-clock budget measured from the moment the node
     *  starts (queue wait for lanes included); 0 disables.  A node that
     *  overruns fails with DEADLINE_EXCEEDED and fails the plan. */
    int node_deadline_ms = 0;
    /** Execution width per traversal node (kernel/batch); aggregations
     *  always run at width 1.  Clamped to the server's lane budget.
     *  Width never changes any node's payload. */
    int width = 1;
    /** Plan-scoped trace id; 0 = mint at submit.  Stamped on the plan's
     *  JSONL record.  Excluded from every cache key. */
    std::uint64_t trace_id = 0;
};

/** One plan node's outcome. */
struct PlanNodeResult
{
    support::Status status = support::Status::ok();
    /** Immutable payload, shared with the cache (null on failure and for
     *  nodes skipped after the first failure). */
    std::shared_ptr<const ResultValue> value;
    /** result_fingerprint() of *value (0 when value is null). */
    std::uint64_t fingerprint = 0;
    /** Served from a cached sub-plan result without executing. */
    bool cache_hit = false;
    /** Joined an identical in-flight node from another plan. */
    bool shared_execution = false;
    /** Kernel/aggregation execution time; 0 for hits and followers. */
    double execute_seconds = 0;
};

/** A completed plan: per-node outcomes plus plan-wide metadata. */
struct PlanResult
{
    /** Indexed by plan node id. */
    std::vector<PlanNodeResult> nodes;
    std::uint64_t trace_id = 0;
    /** submit_plan()-to-completion wall time. */
    double service_seconds = 0;
    int executed = 0;       ///< nodes this plan ran itself (leaders)
    int cache_hits = 0;     ///< nodes answered from the result cache
    int shared = 0;         ///< nodes joined from another plan's flight
    int fused_sweeps = 0;   ///< bit-parallel multi-source sweeps run
    int sources_fused = 0;  ///< sources covered by those sweeps
    /** Oldest data generation contributing to any node's answer.  When
     *  no mutate() lands mid-plan (the common case) every node shares
     *  it; a node whose inputs predate a concurrent compaction is tagged
     *  with (and propagates) the inputs' generation, so this reports the
     *  staleness bound of the whole answer set. */
    std::uint64_t generation = 0;
};

/**
 * Point-in-time server counters (cache figures folded in).  The snapshot
 * is coherent: it is taken under the same lock every mutation holds, so
 * the invariants hold in any snapshot, mid-flight or not:
 *
 *     completed == succeeded + deadline_exceeded + cancelled + failed
 *     submitted >= completed + queue_depth
 *     degraded  <= succeeded
 */
struct ServerStats
{
    std::uint64_t submitted = 0;  ///< accepted (handle returned), incl.
                                  ///< degraded answers served at submit
    std::uint64_t shed = 0;       ///< refused: queue/class full or
                                  ///< deadline infeasible
    std::uint64_t infeasible = 0; ///< subset of shed: deadline-aware
                                  ///< queued-expiry at submit
    std::uint64_t unavailable = 0; ///< refused: circuit breaker open
    std::uint64_t completed = 0;  ///< finished, any status
    std::uint64_t succeeded = 0;
    std::uint64_t degraded = 0;   ///< subset of succeeded: stale answers
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;     ///< kernel error / injected fault
    std::uint64_t executions = 0; ///< kernels actually run (leaders)
    std::uint64_t lanes_granted = 0; ///< cumulative lanes across
                                     ///< executions (mean = /executions)
    std::uint64_t cache_hits = 0;
    std::uint64_t single_flight_joins = 0;
    std::uint64_t retries = 0;    ///< retry attempts issued by query()
    std::uint64_t retry_denied = 0; ///< retries blocked by the budget
    std::uint64_t mutations = 0;  ///< mutate() batches applied
    std::uint64_t mutation_inserted_arcs = 0;
    std::uint64_t mutation_deleted_arcs = 0;
    std::uint64_t compactions = 0; ///< CSR generations installed
    std::uint64_t dyn_incremental = 0; ///< maintainer repairs in place
    std::uint64_t dyn_full = 0;        ///< maintainer full recomputes
    std::uint64_t plans_submitted = 0; ///< submit_plan() accepted
    std::uint64_t plans_completed = 0; ///< finished, any status
    std::uint64_t plans_failed = 0;    ///< subset: any node failed
    std::uint64_t plan_nodes = 0;      ///< nodes across submitted plans
    std::uint64_t plan_nodes_executed = 0; ///< nodes run as leaders
    std::uint64_t plan_node_cache_hits = 0; ///< nodes served from cache
    std::uint64_t plan_nodes_shared = 0; ///< follower joins across plans
    std::uint64_t plan_fused_sweeps = 0; ///< multi-source sweeps run
    std::uint64_t plan_sources_fused = 0; ///< sources covered by fusion
    std::uint64_t breaker_transitions = 0;
    std::size_t breaker_open_cells = 0;
    std::size_t queue_depth = 0;
    std::size_t cache_entries = 0;
    std::size_t cache_bytes = 0;
};

/**
 * The service.  Owns its workers and deadline timer; the DatasetSuite's
 * stores are shared (copies of the shared_ptrs), so several servers — or
 * a server and a sweep — can serve the same graphs concurrently.
 */
class Server
{
  public:
    /** A submitted request; wait() blocks until it completes. */
    class Handle
    {
      public:
        Handle() = default;

        /** Block until the request finishes; the result or the failure.
         *  Const: it reads the shared request state, not the handle. */
        support::StatusOr<QueryResult> wait() const;

        /**
         * wait() with a bound: DEADLINE_EXCEEDED after @p timeout_ms if
         * the request has not completed.  The request itself is NOT
         * consumed or cancelled — it keeps executing, and a later
         * wait()/wait_for() can still collect it.
         */
        support::StatusOr<QueryResult> wait_for(int timeout_ms) const;

        /** Request cooperative cancellation (wait() then reports
         *  CANCELLED unless the request already finished). */
        void cancel() const;

        bool valid() const { return state_ != nullptr; }

      private:
        friend class Server;
        explicit Handle(std::shared_ptr<detail::RequestState> state)
            : state_(std::move(state))
        {
        }

        std::shared_ptr<detail::RequestState> state_;
    };

    /** A submitted plan; wait() blocks until every node settles. */
    class PlanHandle
    {
      public:
        PlanHandle() = default;

        /** Block until the plan finishes.  A successful plan returns
         *  the PlanResult; a plan whose first failing node has status S
         *  reports S, with the node id and operator folded into the
         *  message. */
        support::StatusOr<PlanResult> wait() const;

        /** Cooperatively cancel every node still queued or executing;
         *  already-settled node values are kept. */
        void cancel() const;

        bool valid() const { return state_ != nullptr; }

      private:
        friend class Server;
        explicit PlanHandle(std::shared_ptr<detail::PlanState> state)
            : state_(std::move(state))
        {
        }

        std::shared_ptr<detail::PlanState> state_;
    };

    Server(harness::DatasetSuite suite,
           std::vector<harness::Framework> frameworks,
           ServerOptions options = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Validate, breaker-gate, and enqueue @p request.  Never blocks:
     * returns kInvalidInput for an unknown framework/graph or
     * out-of-range source, kResourceExhausted when admission refuses
     * (queue/class full, deadline infeasible, or shutting down),
     * kUnavailable when the cell's breaker is open — unless the refused
     * request can be answered from the cache (always for a fresh entry
     * on the breaker path, allow_stale for anything else), in which case
     * the returned Handle is already complete.
     */
    support::StatusOr<Handle> submit(Request request);

    /** submit() + wait() under the server's default RetryPolicy. */
    support::StatusOr<QueryResult> query(const Request& request);

    /** submit() + wait() with explicit retries: transient failures
     *  (shed, breaker-open, abandoned leader) are retried with jittered
     *  exponential backoff, bounded by the server-wide retry budget. */
    support::StatusOr<QueryResult> query(const Request& request,
                                         const RetryPolicy& policy);

    /**
     * Apply one batch of edge mutations to @p graph between queries.
     * Blocks until every executing leader finishes (the mutation
     * quiesces kernel execution by holding the entire lane budget), then
     * applies the batch to the graph's gm::dyn overlay, repairs the
     * maintained kernels (CC and PageRank — incrementally when the dirty
     * set is small and the batch is insert-only for CC, full recompute
     * otherwise), and per dyn_compact_every folds the overlay into a
     * fresh CSR generation installed into the store.  Queries submitted
     * concurrently are unaffected except for waiting: cached answers
     * from older generations stop being fresh hits (they remain
     * allow_stale fodder, served as degraded) and the next fresh query
     * recomputes against the new generation.
     *
     * Returns kInvalidInput for an unknown graph or an out-of-range
     * endpoint (the batch is rejected whole — nothing applied), and
     * kResourceExhausted after shutdown().
     */
    support::StatusOr<MutationOutcome>
    mutate(const std::string& graph, const dyn::MutationBatch& batch);

    /**
     * Validate and launch @p request's plan.  Returns kInvalidInput for
     * an unknown framework/graph, a malformed DAG, or an out-of-range
     * source, and kResourceExhausted after shutdown(); otherwise the
     * plan runs asynchronously on its own driver thread: each wave of
     * ready nodes executes concurrently, traversal nodes acquire their
     * width from the same lane budget single-kernel queries use, and
     * every node value is published to the ResultCache keyed by
     * (structural sub-plan fingerprint, graph generation) — so identical
     * sub-plans across concurrent submissions single-flight and execute
     * exactly once, and mutate()'s generation bump invalidates plan
     * entries exactly like query entries.
     */
    support::StatusOr<PlanHandle> submit_plan(PlanRequest request);

    /** submit_plan() + wait(). */
    support::StatusOr<PlanResult> run_plan(const PlanRequest& request);

    /**
     * Coherent point-in-time counters: the snapshot is assembled under
     * the same stats mutex every mutation holds, so the ServerStats
     * invariants hold in any snapshot, mid-storm included.  This is the
     * one sanctioned way to read server counters.
     */
    ServerStats stats_snapshot() const;

    /** Alias for stats_snapshot(), kept for older call sites. */
    ServerStats
    stats() const
    {
        return stats_snapshot();
    }

    /** Actual metrics-exposition port (resolves metrics_port = 0 to the
     *  ephemeral port chosen at bind); -1 when the listener is off or
     *  failed to bind. */
    int metrics_port() const;

    /** Evaluate the SLO monitor now: rolling availability, multi-window
     *  burn rates, firing state.  Updates gauges and appends a
     *  serve.slo.burn record on a fire/clear transition. */
    telemetry::SloEvaluation slo_evaluation();

    /** The cell breaker registry (read-only observers for tools/tests). */
    CircuitBreaker& breaker() { return breaker_; }

    /** Stop accepting work, drain the queue, join the workers.
     *  Idempotent; the destructor calls it. */
    void shutdown();

  private:
    void worker_loop();
    void process(const std::shared_ptr<detail::RequestState>& state);
    /**
     * The one serve path for requests and plan nodes: look up or join
     * the cache entry for call.key; a follower waits on its leader; a
     * leader charges call.width lanes, pins the store generation,
     * executes under a LaneLease and publishes on every exit, so its
     * followers always wake.
     */
    detail::Served serve_keyed(const detail::ServeCall& call);
    /** Block until call.width lanes fit in the budget and charge them;
     *  false (nothing charged) once call's stop condition fires.
     *  Event-driven: woken by release_lanes(), Handle::cancel(),
     *  PlanHandle::cancel() and shutdown(), with the call's deadline as
     *  the only timed bound. */
    bool acquire_lanes(const detail::ServeCall& call);
    void release_lanes(int width);
    /** Quiesce kernel execution: block until no leader holds lanes, then
     *  charge the entire budget (mutations run exclusively). */
    void acquire_all_lanes();
    /** {"kind":"serve.mutation"} JSONL record for one applied batch. */
    void write_mutation_record(const std::string& graph,
                               const MutationOutcome& outcome);
    /** Follower side of serve_keyed: wait for @p flight or for call's
     *  stop condition; an abandoned leader maps to retryable
     *  kCancelled. */
    void wait_for_leader(const detail::ServeCall& call,
                         ResultCache::Inflight& flight,
                         detail::Served& out);
    support::Status classify_cancel(const detail::RequestState& state) const;
    void complete(const std::shared_ptr<detail::RequestState>& state,
                  support::Status status, QueryResult result);
    /** Fill @p result from any cached entry for the state's key; true if
     *  one existed (degraded when past TTL, cache_hit when fresh). */
    bool try_cache_fallback(const detail::RequestState& state,
                            QueryResult& result);
    /** Breaker bookkeeping for a leader outcome (or non-execution). */
    void record_cell_outcome(const detail::RequestState& state,
                             const support::Status& status, bool executed);
    void write_metrics_record(const detail::RequestState& state,
                              const obs::TraceSession& session,
                              const QueryResult& result);
    /** Append drained breaker transitions to the metrics stream. */
    void flush_breaker_transitions();
    /** Fresh nonzero request-scoped trace id (SplitMix64 over a
     *  per-server sequence). */
    std::uint64_t mint_trace_id();
    /** {"kind":"serve.refusal"} record for a refused attempt (or one
     *  answered degraded at submit), so retried requests leave one
     *  trace-stamped line per attempt even when nothing executed. */
    void write_refusal_record(const detail::RequestState& state,
                              const support::Status& status,
                              bool served_degraded);
    /** Feed one finished request into the SLO monitor and evaluate it
     *  at bucket granularity. */
    void observe_slo(bool answered, bool fresh, std::int64_t latency_ns);
    /** evaluate + gauge updates + burn-record on transition. */
    telemetry::SloEvaluation evaluate_slo(std::int64_t now_ns);
    void write_slo_burn_record(const telemetry::SloEvaluation& ev);
    /** One {"kind":"serve.telemetry"} JSONL snapshot line. */
    void write_telemetry_snapshot();
    void telemetry_flush_loop();

    // Query-plan execution (plan_exec.cc).
    /** Driver body (one thread per submitted plan): runs each wave of
     *  ready nodes concurrently, then settles the PlanResult. */
    void plan_driver(const std::shared_ptr<detail::PlanState>& state);
    /** Serve one plan node through serve_keyed; fills
     *  state.node_results[id]. */
    void plan_run_node(detail::PlanState& state, int id);
    /** {"kind":"serve.plan"} JSONL record for one finished plan. */
    void write_plan_record(detail::PlanState& state);
    /** Join driver threads whose plans have settled (all of them when
     *  @p all — shutdown path; otherwise only finished ones, called on
     *  submit_plan to bound the runner list). */
    void reap_plan_runners(bool all);

    harness::DatasetSuite suite_;
    std::vector<harness::Framework> frameworks_;
    ServerOptions options_;
    support::Clock* clock_;
    ResultCache cache_;
    CircuitBreaker breaker_;
    RetryBudget retry_budget_;
    DeadlineScheduler deadlines_;

    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    AdmissionController admission_;
    bool shutdown_ = false;
    /** Total lanes leaders may hold at once; const after construction.
     *  Invariant: 0 <= lane_gate_->in_use <= lane_budget_. */
    int lane_budget_ = 1;
    /** Core-budget scheduler state (lanes charged to currently executing
     *  leaders) plus the cv lane waiters block on.  shared_ptr-owned by
     *  the server AND by every RequestState, so Handle::cancel() can wake
     *  waiters through it without ever dereferencing the server — a
     *  handle may outlive the Server. */
    std::shared_ptr<detail::LaneGate> lane_gate_;

    /** Per-graph dynamic overlays + kernel maintainers, created lazily on
     *  first mutate().  dyn_mu_ serializes mutations; readers never take
     *  it (they go through the store, quiesced by the lane budget). */
    std::mutex dyn_mu_;
    std::unordered_map<std::string, std::unique_ptr<detail::DynState>>
        dyn_;
    /** Largest generation installed by any graph's compactions — the
     *  monotone gm_dyn_generation gauge value.  Guarded by dyn_mu_. */
    std::uint64_t dyn_generation_peak_ = 0;

    mutable std::mutex stats_mu_; ///< guards counters_ as one snapshot
    /** Every counter behind stats_mu_; the breaker and cache fields stay
     *  zero here and are filled in by stats_snapshot(). */
    ServerStats counters_;

    /** Pre-acquired registry handles (null when telemetry disabled). */
    std::unique_ptr<detail::ServeTelemetry> tm_;
    telemetry::SloMonitor slo_;
    std::atomic<std::int64_t> last_slo_eval_ns_{0};
    std::unique_ptr<telemetry::MetricsListener> listener_;

    /** Trace-id minting: a per-server random base xor a sequence. */
    std::uint64_t trace_base_ = 0;
    std::atomic<std::uint64_t> trace_seq_{0};

    /** Plan driver threads, one per in-flight plan.  Reaped on the next
     *  submit_plan and joined in shutdown(); never detached, so plan
     *  execution cannot outlive the server's datasets. */
    std::mutex plan_mu_;
    struct PlanRunner
    {
        std::thread thread;
        std::shared_ptr<detail::PlanState> state;
    };
    std::vector<PlanRunner> plan_runners_;

    /** Periodic registry -> JSONL snapshot flusher (telemetry_path). */
    std::thread flusher_;
    std::mutex flusher_mu_;
    std::condition_variable flusher_cv_;
    bool flusher_stop_ = false;
    std::uint64_t telemetry_seq_ = 0; ///< snapshot lines written

    std::vector<std::thread> workers_;
};

} // namespace gm::serve
