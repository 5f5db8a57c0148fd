/**
 * @file
 * Server::submit_plan — the serve-side executor for gm::plan DAGs.
 *
 * Each accepted plan gets a driver thread that walks the plan's
 * topological waves; nodes within a wave run concurrently, one thread
 * each.  Every node is served through Server::serve_keyed, the path
 * queries use, keyed by (structural sub-plan fingerprint, graph
 * generation): a node whose sub-plan was computed before is a cache hit,
 * a node whose sub-plan is computing right now — in this plan or any
 * concurrently submitted one — joins that flight as a follower, and
 * otherwise the node leads, charging its width against the server's lane
 * budget before executing.  The net effect is the exactly-once
 * guarantee: a sub-plan shared by two simultaneous plans executes its
 * kernel once, whichever plan gets there first.
 *
 * Plan cache keys live in their own "plan/" namespace: plan BFS nodes
 * answer depths (canonical under multi-source fusion) while query BFS
 * answers parents, so the two must never share an entry even for the
 * same graph and source.
 */
#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "gm/graph/frontier.hh"
#include "gm/obs/metrics.hh"
#include "gm/plan/execute.hh"
#include "gm/serve/server.hh"
#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/log.hh"
#include "gm/support/timer.hh"
#include "gm/support/watchdog.hh"
#include "serve_internal.hh"

namespace gm::serve
{

using support::Status;
using support::StatusCode;
using support::StatusOr;
using detail::PlanState;

namespace
{

/** Traversal nodes parallelize and get the plan's width; aggregations
 *  are cheap serial folds and charge a single lane (still nonzero, so a
 *  concurrent mutate() cannot move the generation under them). */
int
node_width(const plan::Node& node, int plan_width)
{
    return node.op == plan::Op::kKernel || node.op == plan::Op::kBatch
               ? plan_width
               : 1;
}

/** Fused-traversal accounting for one node: bit-parallel sweeps and the
 *  sources they covered.  Only BFS batches fuse (SSSP batches run per
 *  source; see plan::execute). */
void
fusion_stats(const plan::Node& node, int& sweeps, int& sources)
{
    sweeps = 0;
    sources = 0;
    if (node.op != plan::Op::kBatch ||
        node.kernel != harness::Kernel::kBFS)
        return;
    const int n = static_cast<int>(node.sources.size());
    sweeps = (n + graph::kMaxFusedSources - 1) / graph::kMaxFusedSources;
    sources = n;
}

/**
 * Cache identity of one sub-plan result: the graph pinned by stable
 * store identity plus mode and framework (different frameworks may
 * produce different — equally valid — CC labelings), then the
 * structural sub-plan fingerprint.  The "plan/" prefix keeps these
 * entries disjoint from query entries by construction.
 */
std::string
make_plan_node_key(const PlanState& state, std::uint64_t fingerprint)
{
    std::ostringstream key;
    key << "plan/" << harness::to_string(state.req.mode) << "/"
        << state.fw->name << "/" << state.req.graph << "@" << std::hex
        << state.ds->store()->identity() << "/n" << fingerprint;
    return key.str();
}

/** DEADLINE_EXCEEDED vs CANCELLED for a node that stopped early, by the
 *  same rule the query path uses: an expired deadline wins unless the
 *  caller cancelled the plan. */
Status
classify_node_cancel(const PlanState& state, std::int64_t deadline_ns)
{
    if (deadline_ns != 0 && Timer::now_ns() >= deadline_ns &&
        !state.token->requested())
        return Status(StatusCode::kDeadlineExceeded,
                      "plan node deadline of " +
                          std::to_string(state.req.node_deadline_ms) +
                          " ms exceeded");
    return Status(StatusCode::kCancelled, "plan cancelled by caller");
}

} // namespace

StatusOr<Server::PlanHandle>
Server::submit_plan(PlanRequest request)
{
    const harness::Framework* fw =
        detail::find_framework(frameworks_, request.framework);
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
    if (request.plan.empty())
        return Status(StatusCode::kInvalidInput, "empty plan");
    const Status valid = request.plan.validate();
    if (!valid.is_ok())
        return valid;
    // Source bounds depend on the graph, which validate() cannot know;
    // checked here so a bad plan fails at submit, not mid-execution.
    const vid_t n = ds->g().num_vertices();
    for (const plan::Node& node : request.plan.nodes()) {
        for (const vid_t s : node.sources) {
            if (s < 0 || s >= n)
                return Status(StatusCode::kInvalidInput,
                              "plan source " + std::to_string(s) +
                                  " out of range for graph " +
                                  request.graph);
        }
    }

    auto state = std::make_shared<PlanState>();
    state->req = std::move(request);
    if (state->req.trace_id == 0)
        state->req.trace_id = mint_trace_id();
    state->req.width = std::clamp(state->req.width, 1, lane_budget_);
    state->fw = fw;
    state->ds = std::move(ds);
    state->gate = lane_gate_;
    state->submit_ns = Timer::now_ns();
    const int size = state->req.plan.size();
    state->node_tokens.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        state->node_tokens.push_back(
            std::make_shared<support::CancelToken>());
    state->node_results.resize(static_cast<std::size_t>(size));
    state->node_generations.assign(static_cast<std::size_t>(size), 0);

    {
        // plan_mu_ spans the shutdown check AND the runner insertion so
        // shutdown()'s final reap (which also takes plan_mu_) cannot slip
        // between them and orphan a never-joined driver thread.
        std::lock_guard<std::mutex> plan_lock(plan_mu_);
        {
            std::lock_guard<std::mutex> lock(queue_mu_);
            if (shutdown_)
                return Status(StatusCode::kResourceExhausted,
                              "server is shut down");
        }
        // Bound the runner list: settled drivers join instantly.
        for (auto it = plan_runners_.begin();
             it != plan_runners_.end();) {
            bool finished;
            {
                std::lock_guard<std::mutex> lock(it->state->mu);
                finished = it->state->done;
            }
            if (finished) {
                it->thread.join();
                it = plan_runners_.erase(it);
            } else {
                ++it;
            }
        }
        PlanRunner runner;
        runner.state = state;
        runner.thread =
            std::thread([this, state] { plan_driver(state); });
        plan_runners_.push_back(std::move(runner));
    }

    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.plans_submitted;
        counters_.plan_nodes += static_cast<std::uint64_t>(size);
    }
    if (tm_ != nullptr) {
        tm_->plans_submitted->inc();
        tm_->plan_nodes->inc(static_cast<std::uint64_t>(size));
        tm_->plan_inflight->add(1);
    }
    return PlanHandle(state);
}

StatusOr<PlanResult>
Server::run_plan(const PlanRequest& request)
{
    StatusOr<PlanHandle> handle = submit_plan(request);
    if (!handle.is_ok())
        return handle.status();
    return handle.value().wait();
}

void
Server::plan_driver(const std::shared_ptr<PlanState>& state)
{
    const plan::Plan& plan = state->req.plan;
    const std::vector<std::vector<int>> waves = plan.waves();
    Status status;
    for (const std::vector<int>& wave : waves) {
        if (!status.is_ok() || state->token->requested())
            break;
        if (wave.size() == 1) {
            plan_run_node(*state, wave[0]);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(wave.size());
            for (const int id : wave)
                threads.emplace_back(
                    [this, &state, id] { plan_run_node(*state, id); });
            for (std::thread& t : threads)
                t.join();
        }
        for (const int id : wave) {
            const PlanNodeResult& node =
                state->node_results[static_cast<std::size_t>(id)];
            if (!node.status.is_ok() && status.is_ok())
                status = Status(
                    node.status.code(),
                    "plan node " + std::to_string(id) + " (" +
                        plan::to_string(
                            plan.nodes()[static_cast<std::size_t>(id)]
                                .op) +
                        "): " + node.status.message());
        }
    }
    if (status.is_ok() && state->token->requested())
        status =
            Status(StatusCode::kCancelled, "plan cancelled by caller");
    // Nodes never reached (waves after a failure or cancel) are marked
    // explicitly so callers can tell "skipped" from "succeeded": a node
    // that ran always carries a value or a non-ok status.
    for (PlanNodeResult& node : state->node_results) {
        if (node.status.is_ok() && node.value == nullptr)
            node.status = Status(StatusCode::kCancelled,
                                 "not run: plan stopped early");
    }

    PlanResult result;
    result.trace_id = state->req.trace_id;
    for (int id = 0; id < plan.size(); ++id) {
        const PlanNodeResult& node =
            state->node_results[static_cast<std::size_t>(id)];
        // Leaders (and only leaders) accumulate execute time; hits and
        // followers answer without running anything.
        const bool ran = node.execute_seconds > 0;
        result.executed += ran ? 1 : 0;
        result.cache_hits += node.cache_hit ? 1 : 0;
        result.shared += node.shared_execution ? 1 : 0;
        if (node.status.is_ok() && node.value != nullptr) {
            const std::uint64_t gen =
                state->node_generations[static_cast<std::size_t>(id)];
            result.generation = result.generation == 0
                                    ? gen
                                    : std::min(result.generation, gen);
        }
        if (ran && node.status.is_ok()) {
            int sweeps = 0;
            int sources = 0;
            fusion_stats(plan.nodes()[static_cast<std::size_t>(id)],
                         sweeps, sources);
            result.fused_sweeps += sweeps;
            result.sources_fused += sources;
        }
    }
    const std::int64_t done_ns = Timer::now_ns();
    result.service_seconds =
        static_cast<double>(done_ns - state->submit_ns) * 1e-9;
    result.nodes = state->node_results;

    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.plans_completed;
        if (!status.is_ok())
            ++counters_.plans_failed;
        counters_.plan_nodes_executed +=
            static_cast<std::uint64_t>(result.executed);
        counters_.plan_node_cache_hits +=
            static_cast<std::uint64_t>(result.cache_hits);
        counters_.plan_nodes_shared +=
            static_cast<std::uint64_t>(result.shared);
        counters_.plan_fused_sweeps +=
            static_cast<std::uint64_t>(result.fused_sweeps);
        counters_.plan_sources_fused +=
            static_cast<std::uint64_t>(result.sources_fused);
    }
    if (tm_ != nullptr) {
        tm_->plans_completed->inc();
        if (!status.is_ok())
            tm_->plans_failed->inc();
        tm_->plan_nodes_executed->inc(
            static_cast<std::uint64_t>(result.executed));
        tm_->plan_node_cache_hits->inc(
            static_cast<std::uint64_t>(result.cache_hits));
        tm_->plan_nodes_shared->inc(
            static_cast<std::uint64_t>(result.shared));
        tm_->plan_fused_sweeps->inc(
            static_cast<std::uint64_t>(result.fused_sweeps));
        tm_->plan_sources_fused->inc(
            static_cast<std::uint64_t>(result.sources_fused));
        tm_->plan_inflight->add(-1);
        tm_->plan_service_ns->record(static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, done_ns - state->submit_ns)));
    }
    {
        std::lock_guard<std::mutex> lock(state->mu);
        state->status = status;
        state->result = std::move(result);
        state->done = true;
    }
    state->cv.notify_all();
    write_plan_record(*state);
}

void
Server::plan_run_node(PlanState& state, int id)
{
    const plan::Plan& plan = state.req.plan;
    const plan::Node& node = plan.nodes()[static_cast<std::size_t>(id)];
    PlanNodeResult& out =
        state.node_results[static_cast<std::size_t>(id)];
    const support::CancelToken& node_token =
        *state.node_tokens[static_cast<std::size_t>(id)];
    const std::int64_t start_ns = Timer::now_ns();
    const std::int64_t deadline_ns =
        state.req.node_deadline_ms > 0
            ? start_ns +
                  static_cast<std::int64_t>(state.req.node_deadline_ms) *
                      1'000'000
            : 0;
    if (deadline_ns != 0)
        deadlines_.arm(deadline_ns,
                       state.node_tokens[static_cast<std::size_t>(id)]);

    // Inputs come straight from upstream slots: earlier waves settled
    // before this node was scheduled, and ResultValue IS plan::Value, so
    // cached payloads feed the executor without a copy.
    std::vector<const plan::Value*> inputs;
    inputs.reserve(node.inputs.size());
    std::uint64_t input_generation = 0; // 0 = leaf node (no inputs)
    for (const int input : node.inputs) {
        const PlanNodeResult& upstream =
            state.node_results[static_cast<std::size_t>(input)];
        if (!upstream.status.is_ok() || upstream.value == nullptr) {
            out.status = Status(StatusCode::kCancelled,
                                "not run: input node " +
                                    std::to_string(input) + " failed");
            return;
        }
        inputs.push_back(upstream.value.get());
        const std::uint64_t gen =
            state.node_generations[static_cast<std::size_t>(input)];
        input_generation = input_generation == 0
                               ? gen
                               : std::min(input_generation, gen);
    }

    const auto execute = [&]() -> StatusOr<ResultValue> {
        const plan::Context ctx{state.ds.get(), state.fw, state.req.mode};
        return plan::execute_node(plan, id, inputs, ctx);
    };
    const std::string key =
        make_plan_node_key(state, plan.fingerprint(id));
    // The node token carries both stop signals: PlanHandle::cancel()
    // raises every node token, and the node's deadline timer raises its
    // own, so one slow node expires without cancelling its siblings.
    const detail::ServeCall call{key,
                                 *state.ds->store(),
                                 node_width(node, state.req.width),
                                 "serve.plan.node",
                                 node_token,
                                 deadline_ns,
                                 input_generation,
                                 execute,
                                 {}};
    detail::Served served = serve_keyed(call);
    out.status = served.stopped ? classify_node_cancel(state, deadline_ns)
                                : std::move(served.status);
    if (out.status.is_ok()) {
        out.value = std::move(served.value);
        out.fingerprint = served.fingerprint;
        out.cache_hit = served.role == ResultCache::Role::kHit;
        out.shared_execution = served.role == ResultCache::Role::kFollower;
        state.node_generations[static_cast<std::size_t>(id)] =
            served.generation;
    }
    if (served.executed) {
        out.execute_seconds =
            static_cast<double>(
                std::max<std::int64_t>(1, served.execute_ns)) *
            1e-9;
        if (tm_ != nullptr)
            tm_->plan_node_execute_ns->record(static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, served.execute_ns)));
    }
}

void
Server::write_plan_record(detail::PlanState& state)
{
    if (options_.metrics_path.empty())
        return;
    std::ostringstream line;
    {
        std::lock_guard<std::mutex> lock(state.mu);
        const PlanResult& r = state.result;
        line << "{\"kind\":\"serve.plan\",\"trace\":\""
             << obs::trace_hex(r.trace_id) << "\",\"status\":\""
             << support::to_string(state.status.code())
             << "\",\"graph\":\"" << support::json_escape(state.req.graph)
             << "\",\"framework\":\""
             << support::json_escape(state.fw->name)
             << "\",\"nodes\":" << state.req.plan.size()
             << ",\"executed\":" << r.executed
             << ",\"cache_hits\":" << r.cache_hits
             << ",\"shared\":" << r.shared
             << ",\"fused_sweeps\":" << r.fused_sweeps
             << ",\"sources_fused\":" << r.sources_fused
             << ",\"service_ms\":"
             << support::json_double(r.service_seconds * 1e3)
             << ",\"generation\":" << r.generation
             << ",\"t_ns\":" << Timer::now_ns() << "}";
    }
    support::append_jsonl(options_.metrics_path, line.str());
}

void
Server::reap_plan_runners(bool all)
{
    std::lock_guard<std::mutex> plan_lock(plan_mu_);
    for (auto it = plan_runners_.begin(); it != plan_runners_.end();) {
        bool finished = all;
        if (!all) {
            std::lock_guard<std::mutex> lock(it->state->mu);
            finished = it->state->done;
        }
        if (finished) {
            it->thread.join();
            it = plan_runners_.erase(it);
        } else {
            ++it;
        }
    }
}

StatusOr<PlanResult>
Server::PlanHandle::wait() const
{
    GM_ASSERT(state_ != nullptr, "wait() on an empty serve::PlanHandle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    if (!state_->status.is_ok())
        return state_->status;
    return state_->result;
}

void
Server::PlanHandle::cancel() const
{
    GM_ASSERT(state_ != nullptr,
              "cancel() on an empty serve::PlanHandle");
    state_->token->request();
    for (const auto& token : state_->node_tokens)
        token->request();
    if (state_->gate != nullptr)
        state_->gate->cv.notify_all();
}

} // namespace gm::serve
