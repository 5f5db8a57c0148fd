/**
 * Tests for gm::serve: the result cache (LRU + single-flight), the
 * concurrent query server (admission control, deadlines, cancellation,
 * cache interaction), and bit-identical agreement with direct framework
 * execution.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gm/dyn/overlay.hh"
#include "gm/graph/generators.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/obs/metrics.hh"
#include "gm/par/thread_pool.hh"
#include "gm/serve/cache.hh"
#include "gm/serve/server.hh"
#include "gm/support/fault_injector.hh"

namespace gm::serve
{
namespace
{

using harness::Kernel;
using harness::Mode;
using support::StatusCode;

/** Shared scale-8 suite + frameworks: built once for the whole binary. */
const harness::DatasetSuite&
suite()
{
    static const harness::DatasetSuite s = harness::make_gap_suite(8);
    return s;
}

const std::vector<harness::Framework>&
frameworks()
{
    static const std::vector<harness::Framework> f =
        harness::make_frameworks();
    return f;
}

Server
make_server(ServerOptions options)
{
    return Server(suite(), frameworks(), options);
}

/** RAII GM_FAULTS spec: armed for the test, disarmed on exit. */
struct ScopedFaults
{
    explicit ScopedFaults(const std::string& spec)
    {
        EXPECT_TRUE(
            support::FaultInjector::global().configure(spec).is_ok());
    }
    ~ScopedFaults() { support::FaultInjector::global().clear(); }
};

/** Run @p fn serially on this thread, exactly as a serve worker would. */
template <typename Fn>
ResultValue
direct(Fn&& fn)
{
    par::SerialRegion serial;
    return std::forward<Fn>(fn)();
}

/** Spin until @p pred or ~4 s; returns whether it held. */
template <typename Pred>
bool
eventually(Pred&& pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

// ---------------------------------------------------------------- cache

std::shared_ptr<const ResultValue>
int_result(int n, std::int32_t fill)
{
    return std::make_shared<const ResultValue>(
        std::vector<std::int32_t>(static_cast<std::size_t>(n), fill));
}

TEST(ResultCacheTest, LruEvictionIsByteAccounted)
{
    // Each 100-int payload costs 400 bytes + vector header + 1-byte key.
    const std::size_t entry = result_bytes(*int_result(100, 0)) + 1;
    ResultCache cache(2 * entry + entry / 2); // room for two entries only

    auto publish_ok = [&cache](const std::string& key, std::int32_t fill) {
        auto lookup = cache.lookup_or_join(key);
        ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
        auto value = int_result(100, fill);
        cache.publish(key, lookup.flight, support::Status::ok(), value,
                      result_fingerprint(*value));
    };

    publish_ok("a", 1);
    publish_ok("b", 2);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch "a" so "b" is the LRU victim of the next insertion.
    EXPECT_EQ(cache.lookup_or_join("a").role, ResultCache::Role::kHit);
    publish_ok("c", 3);

    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup_or_join("a").role, ResultCache::Role::kHit);
    EXPECT_EQ(cache.lookup_or_join("c").role, ResultCache::Role::kHit);
    EXPECT_EQ(cache.lookup_or_join("b").role, ResultCache::Role::kLeader);
    EXPECT_LE(cache.stats().bytes, 2 * entry + entry / 2);
}

TEST(ResultCacheTest, OversizeResultsAreNotCached)
{
    ResultCache cache(64);
    auto lookup = cache.lookup_or_join("big");
    ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
    auto value = int_result(1000, 9);
    cache.publish("big", lookup.flight, support::Status::ok(), value,
                  result_fingerprint(*value));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.lookup_or_join("big").role, ResultCache::Role::kLeader);
}

TEST(ResultCacheTest, FailedLeaderLeavesNoEntryAndWakesFollowers)
{
    ResultCache cache(1 << 20);
    auto leader = cache.lookup_or_join("k");
    ASSERT_EQ(leader.role, ResultCache::Role::kLeader);
    auto follower = cache.lookup_or_join("k");
    ASSERT_EQ(follower.role, ResultCache::Role::kFollower);
    EXPECT_EQ(follower.flight, leader.flight);

    cache.publish("k", leader.flight,
                  support::Status(StatusCode::kKernelError, "boom"),
                  nullptr, 0);
    {
        std::lock_guard<std::mutex> lock(follower.flight->mu);
        EXPECT_TRUE(follower.flight->done);
        EXPECT_EQ(follower.flight->status.code(),
                  StatusCode::kKernelError);
        EXPECT_EQ(follower.flight->value, nullptr);
    }
    EXPECT_EQ(cache.stats().entries, 0u);
    // The key is executable again, by a fresh leader.
    EXPECT_EQ(cache.lookup_or_join("k").role, ResultCache::Role::kLeader);
}

TEST(ResultValueTest, FingerprintSeparatesAlternativesAndContent)
{
    const ResultValue a = std::vector<std::int32_t>{1, 2, 3};
    const ResultValue b = std::vector<std::int32_t>{1, 2, 4};
    const ResultValue c = std::vector<score_t>{1.0, 2.0};
    const ResultValue d = std::uint64_t{42};
    EXPECT_EQ(result_fingerprint(a), result_fingerprint(a));
    EXPECT_NE(result_fingerprint(a), result_fingerprint(b));
    EXPECT_NE(result_fingerprint(a), result_fingerprint(c));
    EXPECT_NE(result_fingerprint(c), result_fingerprint(d));
    EXPECT_EQ(result_bytes(d), sizeof(std::uint64_t));
    EXPECT_GE(result_bytes(a), 3 * sizeof(std::int32_t));
}

// --------------------------------------------------------------- server

TEST(ServeTest, RejectsInvalidRequests)
{
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);

    Request req;
    req.graph = "Kron";
    req.framework = "no-such-framework";
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);

    req.framework = "GAP";
    req.graph = "NoSuchGraph";
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);

    req.graph = "Kron";
    req.source = -1;
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);
    req.source = suite()[3].g().num_vertices();
    EXPECT_EQ(server.submit(req).status().code(),
              StatusCode::kInvalidInput);
}

TEST(ServeTest, EightConcurrentQueriesMatchDirectExecution)
{
    // Hold every execution in serve.execute for 300 ms so the full worker
    // pool is observably busy at once; 16 distinct queries over two
    // graphs through 8 workers.
    ScopedFaults faults("serve.execute:16x:1:delay=300");
    ServerOptions options;
    options.workers = 8;
    options.queue_capacity = 16;
    Server server = make_server(options);

    const harness::Dataset& kron = suite()[3];
    const harness::Dataset& road = suite()[0];
    ASSERT_EQ(kron.name, "Kron");
    ASSERT_EQ(road.name, "Road");

    std::vector<Server::Handle> handles;
    std::vector<Request> requests;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.framework = "GAP";
        req.kernel = i % 2 == 0 ? Kernel::kBFS : Kernel::kSSSP;
        req.graph = i % 2 == 0 ? "Kron" : "Road";
        req.source = (i % 2 == 0 ? kron : road).sources[i];
        requests.push_back(req);
        req.kernel = i % 2 == 0 ? Kernel::kSSSP : Kernel::kBFS;
        requests.push_back(req);
    }
    for (const Request& req : requests) {
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok()) << handle.status().to_string();
        handles.push_back(*std::move(handle));
    }

    // All 8 workers must be in flight simultaneously at some point.
    int max_in_flight = 0;
    eventually([&] {
        const ServerStats s = server.stats_snapshot();
        max_in_flight = std::max(
            max_in_flight, static_cast<int>(s.executions - s.completed));
        return max_in_flight >= 8;
    });
    EXPECT_GE(max_in_flight, 8);

    for (std::size_t i = 0; i < handles.size(); ++i) {
        auto got = handles[i].wait();
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        const Request& req = requests[i];
        const harness::Dataset& ds = req.graph == "Kron" ? kron : road;
        const ResultValue expected = direct([&] {
            return req.kernel == Kernel::kBFS
                       ? ResultValue(frameworks()[harness::kGapIndex].bfs(
                             ds, req.source, req.mode))
                       : ResultValue(frameworks()[harness::kGapIndex].sssp(
                             ds, req.source, req.mode));
        });
        EXPECT_EQ(got->fingerprint, result_fingerprint(expected)) << i;
        EXPECT_TRUE(*got->value == expected) << i;
        EXPECT_GE(got->queue_seconds, 0.0);
    }
    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.submitted, requests.size());
    EXPECT_EQ(stats.executions, requests.size()); // all distinct
    EXPECT_EQ(stats.succeeded, requests.size());
    EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeTest, WideRequestsMatchSerialResultsBitForBit)
{
    // The core determinism promise of parallel serving: the same query
    // executed at widths 1, 2, 5, and 8 returns byte-identical payloads
    // (width is a latency knob, never an answer knob).  Cache off so
    // every submission actually executes.
    ServerOptions options;
    options.workers = 2;
    options.lane_budget = 8;
    options.cache_capacity_bytes = 0;
    Server server = make_server(options);

    const harness::Dataset& kron = suite()[3];
    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].pr(
            kron, Mode::kBaseline));
    });

    for (const int width : {1, 2, 5, 8}) {
        Request req;
        req.framework = "GAP";
        req.kernel = Kernel::kPR; // float kernel: reassociation-sensitive
        req.graph = "Kron";
        req.width = width;
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok())
            << "width " << width << ": " << got.status().to_string();
        EXPECT_EQ(got->fingerprint, result_fingerprint(expected))
            << "width " << width;
        EXPECT_TRUE(*got->value == expected) << "width " << width;
        // The lease is best-effort, but at least the caller's lane ran.
        EXPECT_GE(got->lanes, 1) << "width " << width;
        EXPECT_LE(got->lanes, width) << "width " << width;
        EXPECT_GE(got->parallel_efficiency, 0.0);
        EXPECT_LE(got->parallel_efficiency, 1.0);
    }

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.executions, 4u);
    EXPECT_GE(stats.lanes_granted, 4u); // >= 1 lane per execution
}

TEST(ServeTest, WidthIsClampedToTheLaneBudget)
{
    ServerOptions options;
    options.workers = 1;
    options.lane_budget = 2;
    options.cache_capacity_bytes = 0;
    Server server = make_server(options);

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kBFS;
    req.graph = "Road";
    req.source = suite()[0].sources[0];
    req.width = 64; // far beyond the budget
    auto got = server.query(req);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_LE(got->lanes, 2);

    req.width = -3; // nonsense widths degrade to serial, not an error
    got = server.query(req);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_GE(got->lanes, 1);
}

TEST(ServeTest, EveryKernelAndAliasServes)
{
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);
    for (Kernel kernel : harness::kAllKernels) {
        Request req;
        req.framework = "gkc"; // lowercase alias
        req.kernel = kernel;
        req.graph = "Urand";
        req.source = suite()[4].sources[0];
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok())
            << harness::to_string(kernel) << ": "
            << got.status().to_string();
        EXPECT_NE(got->fingerprint, 0u);
    }
}

TEST(ServeTest, RepeatedQueryHitsCacheWithSameResult)
{
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);
    Request req;
    req.kernel = Kernel::kPR;
    req.graph = "Web";

    auto first = server.query(req);
    ASSERT_TRUE(first.is_ok());
    EXPECT_FALSE(first->cache_hit);

    // Source is irrelevant to PR: a different one still hits.
    req.source = suite()[2].sources[1];
    auto second = server.query(req);
    ASSERT_TRUE(second.is_ok());
    EXPECT_TRUE(second->cache_hit);
    EXPECT_EQ(second->fingerprint, first->fingerprint);
    EXPECT_EQ(second->value, first->value); // zero-copy: same payload
    EXPECT_EQ(second->execute_seconds, 0.0);

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.executions, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_GT(stats.cache_bytes, 0u);
    EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ServeTest, IdenticalBurstSingleFlightsToOneExecution)
{
    // The leader sleeps 400 ms in serve.execute, so the rest of the burst
    // joins its flight (or hits the cache if it lands after publish).
    ScopedFaults faults("serve.execute:1x:2:delay=400");
    ServerOptions options;
    options.workers = 4;
    options.queue_capacity = 16;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kCC;
    req.graph = "Twitter";

    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    std::vector<Server::Handle> handles;
    for (int i = 0; i < 7; ++i) {
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok());
        handles.push_back(*std::move(handle));
    }

    auto first = leader->wait();
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    for (auto& handle : handles) {
        auto got = handle.wait();
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        EXPECT_EQ(got->fingerprint, first->fingerprint);
        EXPECT_TRUE(got->cache_hit || got->shared_execution);
    }

    const ServerStats stats = server.stats_snapshot();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.executions, 1u); // 8 requests, one kernel run
    EXPECT_EQ(stats.single_flight_joins + stats.cache_hits, 7u);
}

TEST(ServeTest, DeadlineExceededLeavesServerServing)
{
    ScopedFaults faults("serve.execute:1x:3:delay=400");
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kBFS;
    req.graph = "Kron";
    req.source = suite()[3].sources[0];
    req.deadline_ms = 50;

    auto got = server.query(req);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.stats_snapshot().deadline_exceeded, 1u);

    // No partial result was cached, and the server still serves: the same
    // query (without deadline) executes fresh and succeeds.
    EXPECT_EQ(server.stats_snapshot().cache_entries, 0u);
    req.deadline_ms = 0;
    auto retry = server.query(req);
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_FALSE(retry->cache_hit);
    EXPECT_EQ(server.stats_snapshot().executions, 2u);

    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].bfs(
            suite()[3], req.source, req.mode));
    });
    EXPECT_EQ(retry->fingerprint, result_fingerprint(expected));
}

TEST(ServeTest, DeadlineExpiringInQueueSkipsExecution)
{
    ScopedFaults faults("serve.execute:1x:4:delay=300");
    ServerOptions options;
    options.workers = 1;
    Server server = make_server(options);

    Request blocker;
    blocker.kernel = Kernel::kBFS;
    blocker.graph = "Road";
    blocker.source = suite()[0].sources[0];
    auto first = server.submit(blocker);
    ASSERT_TRUE(first.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // Queued behind a 300 ms execution with a 30 ms budget: it must come
    // back DEADLINE_EXCEEDED without ever executing.
    Request doomed = blocker;
    doomed.source = suite()[0].sources[1];
    doomed.deadline_ms = 30;
    auto got = server.query(doomed);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(first->wait().is_ok());
    EXPECT_EQ(server.stats_snapshot().executions, 1u);
}

TEST(ServeTest, FullQueueShedsDeterministically)
{
    ScopedFaults faults("serve.execute:1x:5:delay=400");
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kBFS;
    req.graph = "Urand";

    // Blocker occupies the only worker...
    req.source = suite()[4].sources[0];
    auto blocker = server.submit(req);
    ASSERT_TRUE(blocker.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // ...two distinct queries fill the queue...
    std::vector<Server::Handle> queued;
    for (int i = 1; i <= 2; ++i) {
        req.source = suite()[4].sources[i];
        auto handle = server.submit(req);
        ASSERT_TRUE(handle.is_ok()) << i;
        queued.push_back(*std::move(handle));
    }

    // ...and the next submissions shed, deterministically, without
    // blocking.
    for (int i = 3; i <= 5; ++i) {
        req.source = suite()[4].sources[i];
        auto refused = server.submit(req);
        ASSERT_FALSE(refused.is_ok()) << i;
        EXPECT_EQ(refused.status().code(),
                  StatusCode::kResourceExhausted);
    }
    EXPECT_EQ(server.stats_snapshot().shed, 3u);

    EXPECT_TRUE(blocker->wait().is_ok());
    for (auto& handle : queued)
        EXPECT_TRUE(handle.wait().is_ok());

    // Capacity recovered: the previously shed query is accepted now.
    req.source = suite()[4].sources[3];
    EXPECT_TRUE(server.query(req).is_ok());
}

TEST(ServeTest, CancelledMidKernelLeavesNoCacheEntry)
{
    ScopedFaults faults("serve.execute:1x:6:delay=400");
    ServerOptions options;
    options.workers = 2;
    Server server = make_server(options);

    Request req;
    req.kernel = Kernel::kSSSP;
    req.graph = "Web";
    req.source = suite()[2].sources[0];

    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // An identical concurrent query joins the leader's flight...
    auto follower = server.submit(req);
    ASSERT_TRUE(follower.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().single_flight_joins == 1; }));

    // ...then the leader is cancelled mid-kernel.
    leader->cancel();
    auto leader_result = leader->wait();
    ASSERT_FALSE(leader_result.is_ok());
    EXPECT_EQ(leader_result.status().code(), StatusCode::kCancelled);

    // The follower's answer was never computed: CANCELLED, retryable.
    auto follower_result = follower->wait();
    ASSERT_FALSE(follower_result.is_ok());
    EXPECT_EQ(follower_result.status().code(), StatusCode::kCancelled);

    // No partial result poisoned the cache; a retry executes fresh and
    // matches direct execution.
    EXPECT_EQ(server.stats_snapshot().cache_entries, 0u);
    auto retry = server.query(req);
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_FALSE(retry->cache_hit);
    const ResultValue expected = direct([&] {
        return ResultValue(frameworks()[harness::kGapIndex].sssp(
            suite()[2], req.source, req.mode));
    });
    EXPECT_EQ(retry->fingerprint, result_fingerprint(expected));
    EXPECT_EQ(server.stats_snapshot().cancelled, 2u);
}

TEST(ServeTest, WritesParseableMetricsRecords)
{
    const std::string path =
        testing::TempDir() + "gm_serve_metrics_test.jsonl";
    std::remove(path.c_str());
    std::vector<std::uint64_t> trace_ids;
    {
        ServerOptions options;
        options.workers = 2;
        options.metrics_path = path;
        Server server = make_server(options);
        Request req;
        req.kernel = Kernel::kBFS;
        req.graph = "Kron";
        req.source = suite()[3].sources[0];
        for (int i = 0; i < 2; ++i) { // execution, then cache hit
            auto handle = server.submit(req);
            ASSERT_TRUE(handle.is_ok());
            auto got = handle->wait();
            ASSERT_TRUE(got.is_ok()) << got.status().to_string();
            trace_ids.push_back(got->trace_id);
        }
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int executed = 0;
    int hits = 0;
    int records = 0;
    while (std::getline(in, line)) {
        auto record = obs::parse_metrics_record_line(line);
        ASSERT_TRUE(record.is_ok()) << line;
        // The trace id is the record's own field, not a counter.
        EXPECT_EQ(line.find("serve.trace"), std::string::npos) << line;
        EXPECT_FALSE(record->metrics.maxima.count("serve.trace"));
        EXPECT_FALSE(record->metrics.counters.count("serve.trace"));
        ASSERT_LT(records, static_cast<int>(trace_ids.size()));
        EXPECT_NE(record->trace_id, 0u);
        EXPECT_EQ(record->trace_id,
                  trace_ids[static_cast<std::size_t>(records)]);
        EXPECT_EQ(record->framework, "GAP");
        EXPECT_EQ(record->kernel, "BFS");
        EXPECT_EQ(record->graph, "Kron");
        EXPECT_TRUE(record->metrics.span_seconds.count("serve.queue_wait"))
            << line;
        if (record->metrics.span_seconds.count("serve.execute"))
            ++executed;
        if (record->metrics.counter_or("serve.cache_hit") > 0)
            ++hits;
        ++records;
    }
    EXPECT_EQ(records, 2);
    EXPECT_EQ(executed, 1);
    EXPECT_EQ(hits, 1);
    std::remove(path.c_str());
}

TEST(ServeTest, WidthOneExecutionRecordsOneLane)
{
    // A one-lane execution runs its forks inline and never records
    // par.lanes; its record still reads the granted lease width.
    const std::string path =
        testing::TempDir() + "gm_serve_width_one_test.jsonl";
    std::remove(path.c_str());
    QueryResult executed;
    {
        ServerOptions options;
        options.workers = 1;
        options.metrics_path = path;
        Server server = make_server(options);
        Request req;
        req.kernel = Kernel::kPR;
        req.graph = "Urand";
        req.width = 1;
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        executed = *got;
    }
    EXPECT_EQ(executed.lanes, 1);
    EXPECT_EQ(executed.parallel_efficiency, 0.0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int records = 0;
    while (std::getline(in, line)) {
        auto record = obs::parse_metrics_record_line(line);
        ASSERT_TRUE(record.is_ok()) << line;
        EXPECT_NE(line.find("\"lanes\":1,"), std::string::npos) << line;
        EXPECT_EQ(record->metrics.lanes, 1);
        EXPECT_EQ(record->metrics.parallel_efficiency, 0.0);
        ++records;
    }
    EXPECT_EQ(records, 1);
    std::remove(path.c_str());
}

/** A request that holds the whole lane budget of a two-lane server for
 *  about 400 ms (the first serve.execute fault site delays), plus the
 *  check that the budget is free again afterwards: a full-width request
 *  executes rather than waiting for lanes. */
struct LaneBudgetHolder
{
    static constexpr int kBudget = 2;

    static ServerOptions
    options()
    {
        ServerOptions options;
        options.workers = 3;
        options.lane_budget = kBudget;
        return options;
    }

    static Request
    request(Kernel kernel)
    {
        Request req;
        req.kernel = kernel;
        req.graph = "Kron";
        req.source = suite()[3].sources[0];
        req.width = kBudget;
        return req;
    }

    static void
    expect_budget_free(Server& server)
    {
        const std::uint64_t before = server.stats_snapshot().executions;
        Request req = request(Kernel::kTC);
        req.deadline_ms = 5000; // a leaked budget fails, never hangs
        auto got = server.query(req);
        ASSERT_TRUE(got.is_ok()) << got.status().to_string();
        EXPECT_FALSE(got->cache_hit);
        EXPECT_EQ(server.stats_snapshot().executions, before + 1);
    }
};

TEST(ServeTest, CancelWakesLeaderBlockedOnLaneBudget)
{
    ScopedFaults faults("serve.execute:1x:12:delay=400");
    Server server = make_server(LaneBudgetHolder::options());
    auto holder = server.submit(LaneBudgetHolder::request(Kernel::kCC));
    ASSERT_TRUE(holder.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    // A different query leads its own flight and blocks on the budget.
    auto blocked = server.submit(LaneBudgetHolder::request(Kernel::kBFS));
    ASSERT_TRUE(blocked.is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    blocked->cancel();
    auto got = blocked->wait();
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
    // Woken by the cancel, not by the holder releasing its lanes.
    EXPECT_EQ(holder->wait_for(0).status().code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.stats_snapshot().executions, 1u);

    ASSERT_TRUE(holder->wait().is_ok());
    LaneBudgetHolder::expect_budget_free(server);
}

TEST(ServeTest, FollowerDeadlineExpiresWhileLeaderPublishes)
{
    ScopedFaults faults("serve.execute:1x:13:delay=300");
    Server server = make_server(LaneBudgetHolder::options());
    const Request req = LaneBudgetHolder::request(Kernel::kCC);
    auto leader = server.submit(req);
    ASSERT_TRUE(leader.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    Request impatient = req;
    impatient.deadline_ms = 40;
    auto follower = server.submit(impatient);
    ASSERT_TRUE(follower.is_ok());
    auto got = follower->wait();
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.stats_snapshot().single_flight_joins, 1u);
    EXPECT_EQ(leader->wait_for(0).status().code(),
              StatusCode::kDeadlineExceeded); // still executing

    // The leader is unaffected: it publishes, and the answer is cached.
    auto led = leader->wait();
    ASSERT_TRUE(led.is_ok()) << led.status().to_string();
    EXPECT_EQ(server.stats_snapshot().cache_entries, 1u);
    auto hit = server.query(req);
    ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_EQ(hit->fingerprint, led->fingerprint);
    EXPECT_EQ(server.stats_snapshot().executions, 1u);
    LaneBudgetHolder::expect_budget_free(server);
}

// ----------------------------------------------------------- dyn / mutate

/** A private single-graph suite for mutation tests: mutating the shared
 *  suite() would invalidate other tests' cached expectations. */
harness::DatasetSuite
mutable_suite(std::uint64_t seed = 7)
{
    harness::DatasetSuite s;
    s.datasets.push_back(std::make_shared<harness::Dataset>(
        harness::make_dataset("Mut", graph::make_uniform(8, 4, seed), 4,
                              99)));
    return s;
}

TEST(ResultCacheTest, GenerationMismatchBehavesLikeExpiry)
{
    ResultCache cache(1 << 20);
    auto value = std::make_shared<const ResultValue>(
        std::vector<std::int32_t>{1, 2, 3});

    auto lookup = cache.lookup_or_join("k", /*generation=*/0);
    ASSERT_EQ(lookup.role, ResultCache::Role::kLeader);
    cache.publish("k", lookup.flight, support::Status::ok(), value, 42,
                  /*generation=*/0);

    // Same generation: a plain hit.
    auto hit = cache.lookup_or_join("k", 0);
    EXPECT_EQ(hit.role, ResultCache::Role::kHit);
    EXPECT_EQ(hit.generation, 0u);

    // Newer generation: not a hit — a fresh leader recomputes — but the
    // entry survives for degraded peeks, tagged with its old generation.
    auto stale = cache.lookup_or_join("k", 1);
    ASSERT_EQ(stale.role, ResultCache::Role::kLeader);
    EXPECT_EQ(cache.stats().stale_generation_misses, 1u);
    auto peek = cache.peek("k", 1);
    ASSERT_NE(peek.value, nullptr);
    EXPECT_FALSE(peek.fresh);
    EXPECT_EQ(peek.generation, 0u);
    EXPECT_EQ(peek.fingerprint, 42u);
    EXPECT_TRUE(cache.peek("k", 0).fresh);

    // The new leader's publish replaces the entry in place; generation 1
    // lookups hit again and the old answer is gone.
    auto fresh = std::make_shared<const ResultValue>(
        std::vector<std::int32_t>{4, 5, 6});
    cache.publish("k", stale.flight, support::Status::ok(), fresh, 43, 1);
    auto rehit = cache.lookup_or_join("k", 1);
    EXPECT_EQ(rehit.role, ResultCache::Role::kHit);
    EXPECT_EQ(rehit.generation, 1u);
    EXPECT_EQ(rehit.fingerprint, 43u);
}

TEST(ServeDynTest, MutateInvalidatesCacheAndBumpsGeneration)
{
    ServerOptions options;
    options.workers = 2;
    Server server(mutable_suite(), frameworks(), options);

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kCC;
    req.graph = "Mut";

    auto first = server.query(req);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    EXPECT_EQ(first.value().generation, 0u);
    auto hit = server.query(req);
    ASSERT_TRUE(hit.is_ok());
    EXPECT_TRUE(hit.value().cache_hit);
    EXPECT_EQ(hit.value().generation, 0u);

    // Isolate vertex 0's component changes: attach 0 to a far vertex.
    dyn::MutationBatch batch;
    batch.insert(0, 200);
    batch.insert(1, 150);
    auto outcome = server.mutate("Mut", batch);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    EXPECT_EQ(outcome.value().requested, 2u);
    EXPECT_TRUE(outcome.value().compacted);
    EXPECT_EQ(outcome.value().generation, 1u);
    EXPECT_GT(outcome.value().dirty, 0u);

    // The cached answer is for generation 0: the next query recomputes
    // against the mutated graph and matches direct execution on it.
    const std::uint64_t executions =
        server.stats_snapshot().executions;
    auto fresh = server.query(req);
    ASSERT_TRUE(fresh.is_ok());
    EXPECT_FALSE(fresh.value().cache_hit);
    EXPECT_EQ(fresh.value().generation, 1u);
    EXPECT_EQ(server.stats_snapshot().executions, executions + 1);

    const ServerStats s = server.stats_snapshot();
    EXPECT_EQ(s.mutations, 1u);
    EXPECT_EQ(s.compactions, 1u);
    EXPECT_GT(s.mutation_inserted_arcs, 0u);
    EXPECT_EQ(s.dyn_incremental + s.dyn_full, 2u); // CC + PR decisions

    // And the new generation is a normal cache citizen again.
    auto rehit = server.query(req);
    ASSERT_TRUE(rehit.is_ok());
    EXPECT_TRUE(rehit.value().cache_hit);
    EXPECT_EQ(rehit.value().generation, 1u);
    EXPECT_EQ(rehit.value().fingerprint, fresh.value().fingerprint);
}

TEST(ServeDynTest, MutateRejectsBadInputWhole)
{
    ServerOptions options;
    options.workers = 1;
    Server server(mutable_suite(), frameworks(), options);

    dyn::MutationBatch bad;
    bad.insert(0, 1);
    bad.insert(3, 1 << 20); // out of range: the whole batch is rejected
    auto outcome = server.mutate("Mut", bad);
    ASSERT_FALSE(outcome.is_ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidInput);
    EXPECT_EQ(server.stats_snapshot().mutations, 0u);

    auto unknown = server.mutate("NoSuchGraph", dyn::MutationBatch{});
    ASSERT_FALSE(unknown.is_ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidInput);

    // Nothing was applied: queries still serve generation 0.
    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kCC;
    req.graph = "Mut";
    auto result = server.query(req);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result.value().generation, 0u);
}

TEST(ServeDynTest, StaleGenerationAnswersOnlyAllowStale)
{
    ServerOptions options;
    options.workers = 1;
    options.enable_breaker = false;
    Server server(mutable_suite(), frameworks(), options);

    Request req;
    req.framework = "GAP";
    req.kernel = Kernel::kPR;
    req.graph = "Mut";
    auto fresh = server.query(req);
    ASSERT_TRUE(fresh.is_ok());
    const std::uint64_t fingerprint = fresh.value().fingerprint;

    dyn::MutationBatch batch;
    batch.insert(2, 100);
    ASSERT_TRUE(server.mutate("Mut", batch).is_ok());

    // Fresh path broken: the strict query fails — a pre-mutation answer
    // is NOT silently substituted — but an allow_stale caller gets it,
    // marked degraded and carrying its generation-0 provenance.
    ScopedFaults faults("serve.execute:1:3");
    auto strict = server.query(req);
    ASSERT_FALSE(strict.is_ok());

    req.allow_stale = true;
    auto degraded = server.query(req);
    ASSERT_TRUE(degraded.is_ok());
    EXPECT_TRUE(degraded.value().degraded);
    EXPECT_EQ(degraded.value().generation, 0u);
    EXPECT_EQ(degraded.value().fingerprint, fingerprint);
}

TEST(ServeDynTest, WritesMutationRecords)
{
    const std::string path =
        testing::TempDir() + "gm_serve_mutation_test.jsonl";
    std::remove(path.c_str());
    {
        ServerOptions options;
        options.workers = 1;
        options.metrics_path = path;
        Server server(mutable_suite(), frameworks(), options);
        dyn::MutationBatch batch;
        batch.insert(5, 77);
        batch.erase(5, 200); // absent edge: effective no-op delete
        ASSERT_TRUE(server.mutate("Mut", batch).is_ok());
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int mutation_records = 0;
    while (std::getline(in, line)) {
        if (line.find("\"kind\":\"serve.mutation\"") == std::string::npos)
            continue;
        ++mutation_records;
        EXPECT_NE(line.find("\"graph\":\"Mut\""), std::string::npos);
        EXPECT_NE(line.find("\"requested\":2"), std::string::npos);
        EXPECT_NE(line.find("\"generation\":1"), std::string::npos);
        EXPECT_NE(line.find("\"cc\":\""), std::string::npos);
        EXPECT_NE(line.find("\"dirty_fraction\":"), std::string::npos);
    }
    EXPECT_EQ(mutation_records, 1);
    std::remove(path.c_str());
}

TEST(ServeDynTest, MutateSecondsExcludesTheQuiesce)
{
    // A two-lane request holds the whole budget for 400 ms, so mutate()
    // waits that long to quiesce; mutate_seconds must count only the
    // apply/maintain/compact work after the wait.
    ScopedFaults faults("serve.execute:1x:14:delay=400");
    ServerOptions options;
    options.workers = 2;
    options.lane_budget = 2;
    Server server(mutable_suite(), frameworks(), options);

    using Clock = std::chrono::steady_clock;
    const auto held_from = Clock::now();
    Request req;
    req.kernel = Kernel::kCC;
    req.graph = "Mut";
    req.width = 2;
    auto holder = server.submit(req);
    ASSERT_TRUE(holder.is_ok());
    ASSERT_TRUE(eventually(
        [&] { return server.stats_snapshot().executions == 1; }));

    dyn::MutationBatch batch;
    batch.insert(0, 200);
    const auto mutate_from = Clock::now();
    auto outcome = server.mutate("Mut", batch);
    const auto mutate_to = Clock::now();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();

    const double hold_left =
        0.4 - std::chrono::duration<double>(mutate_from - held_from).count();
    ASSERT_GT(hold_left, 0.2);
    EXPECT_GE(std::chrono::duration<double>(mutate_to - mutate_from).count(),
              hold_left);
    EXPECT_LT(outcome->mutate_seconds, hold_left / 4);
    ASSERT_TRUE(holder->wait().is_ok());
}

} // namespace
} // namespace gm::serve
