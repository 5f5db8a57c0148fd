/** Unit tests for gm::support: bitmap, sliding queue, RNG, env helpers,
 *  content hashing, JSON escaping of untrusted input, and the JSONL
 *  stream (append, read-back with torn lines, record kinds). */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gm/support/bitmap.hh"
#include "gm/support/env.hh"
#include "gm/support/hash.hh"
#include "gm/support/json.hh"
#include "gm/support/jsonl.hh"
#include "gm/support/rng.hh"
#include "gm/support/sliding_queue.hh"
#include "gm/support/timer.hh"

namespace gm
{
namespace
{

TEST(Bitmap, SetAndGet)
{
    Bitmap bm(200);
    bm.reset();
    EXPECT_FALSE(bm.get_bit(0));
    EXPECT_FALSE(bm.get_bit(199));
    bm.set_bit(0);
    bm.set_bit(63);
    bm.set_bit(64);
    bm.set_bit(199);
    EXPECT_TRUE(bm.get_bit(0));
    EXPECT_TRUE(bm.get_bit(63));
    EXPECT_TRUE(bm.get_bit(64));
    EXPECT_TRUE(bm.get_bit(199));
    EXPECT_FALSE(bm.get_bit(1));
    EXPECT_EQ(bm.count(), 4u);
}

TEST(Bitmap, ResetClearsEverything)
{
    Bitmap bm(128);
    bm.reset();
    for (std::size_t i = 0; i < 128; i += 3)
        bm.set_bit(i);
    bm.reset();
    EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, AtomicSetFromManyThreads)
{
    Bitmap bm(10000);
    bm.reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&bm, t] {
            for (std::size_t i = static_cast<std::size_t>(t); i < 10000;
                 i += 4) {
                bm.set_bit_atomic(i);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(bm.count(), 10000u);
}

TEST(Bitmap, SwapExchangesContents)
{
    Bitmap a(64);
    Bitmap b(64);
    a.reset();
    b.reset();
    a.set_bit(1);
    b.set_bit(2);
    a.swap(b);
    EXPECT_TRUE(a.get_bit(2));
    EXPECT_TRUE(b.get_bit(1));
    EXPECT_FALSE(a.get_bit(1));
}

TEST(SlidingQueue, WindowSlides)
{
    SlidingQueue<int> q(16);
    q.push_back(1);
    q.push_back(2);
    EXPECT_TRUE(q.empty());
    q.slide_window();
    EXPECT_EQ(q.size(), 2u);
    q.push_back(3);
    q.slide_window();
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(*q.begin(), 3);
    q.slide_window();
    EXPECT_TRUE(q.empty());
}

TEST(SlidingQueue, BufferedPushesFlushInBulk)
{
    SlidingQueue<int> q(4096);
    {
        QueueBuffer<int> buf_a(q, 8);
        QueueBuffer<int> buf_b(q, 8);
        for (int i = 0; i < 100; ++i) {
            buf_a.push_back(i);
            buf_b.push_back(1000 + i);
        }
    } // destructors flush
    q.slide_window();
    std::multiset<int> got(q.begin(), q.end());
    EXPECT_EQ(got.size(), 200u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(got.count(i), 1u);
        EXPECT_EQ(got.count(1000 + i), 1u);
    }
}

TEST(SlidingQueue, ResetEmptiesQueue)
{
    SlidingQueue<int> q(8);
    q.push_back(5);
    q.slide_window();
    q.reset();
    EXPECT_TRUE(q.empty());
    q.push_back(7);
    q.slide_window();
    EXPECT_EQ(*q.begin(), 7);
}

TEST(Rng, DeterministicForSameSeed)
{
    Xoshiro256 a(42);
    Xoshiro256 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 12);
}

TEST(Rng, BoundedStaysInRange)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next_bounded(37), 37u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RoughlyUniform)
{
    Xoshiro256 rng(3);
    int buckets[10] = {};
    for (int i = 0; i < 100000; ++i)
        ++buckets[rng.next_bounded(10)];
    for (int b : buckets) {
        EXPECT_GT(b, 9000);
        EXPECT_LT(b, 11000);
    }
}

TEST(Env, IntFallbacks)
{
    unsetenv("GM_TEST_INT");
    EXPECT_EQ(env_int("GM_TEST_INT", 5), 5);
    setenv("GM_TEST_INT", "12", 1);
    EXPECT_EQ(env_int("GM_TEST_INT", 5), 12);
    setenv("GM_TEST_INT", "garbage", 1);
    EXPECT_EQ(env_int("GM_TEST_INT", 5), 5);
    unsetenv("GM_TEST_INT");
}

TEST(Env, BoolParsing)
{
    unsetenv("GM_TEST_BOOL");
    EXPECT_TRUE(env_bool("GM_TEST_BOOL", true));
    setenv("GM_TEST_BOOL", "1", 1);
    EXPECT_TRUE(env_bool("GM_TEST_BOOL", false));
    setenv("GM_TEST_BOOL", "off", 1);
    EXPECT_FALSE(env_bool("GM_TEST_BOOL", true));
    unsetenv("GM_TEST_BOOL");
}

TEST(Fnv1a, MatchesKnownVectors)
{
    // Standard FNV-1a 64 test vectors.
    EXPECT_EQ(support::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(support::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(support::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, IncrementalEqualsOneShot)
{
    support::Fnv1a h;
    h.update("foo").update("bar");
    EXPECT_EQ(h.digest(), support::fnv1a("foobar"));
}

TEST(Fnv1a, VectorFoldsLengthAndContent)
{
    const std::vector<int> a{1, 2, 3};
    const std::vector<int> b{1, 2, 3, 0};
    support::Fnv1a ha;
    support::Fnv1a hb;
    ha.update_vector(a);
    hb.update_vector(b);
    EXPECT_NE(ha.digest(), hb.digest());
    // Same content hashes the same regardless of how it's chunked in.
    support::Fnv1a hc;
    hc.update_vector(a);
    EXPECT_EQ(ha.digest(), hc.digest());
}

TEST(JsonEscape, EscapesControlBytesAndQuotes)
{
    const std::string escaped = support::json_escape(
        std::string("a\"b\\c\n\r\t\b\f\x01\x7f") + std::string(1, '\0'));
    EXPECT_EQ(escaped,
              "a\\\"b\\\\c\\n\\r\\t\\b\\f\\u0001\\u007f\\u0000");
}

TEST(JsonEscape, PreservesValidUtf8)
{
    // 2-, 3-, and 4-byte sequences pass through untouched.
    const std::string s = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
    EXPECT_EQ(support::json_escape(s), s);
    EXPECT_EQ(support::json_sanitize_utf8(s), s);
}

TEST(JsonEscape, ReplacesInvalidUtf8)
{
    const std::string replacement = "\xef\xbf\xbd";
    // Stray continuation byte, truncated lead, overlong, surrogate,
    // > U+10FFFF.
    EXPECT_EQ(support::json_escape("\x80"), replacement);
    EXPECT_EQ(support::json_escape("\xc3"), replacement);
    EXPECT_EQ(support::json_escape("\xc0\xaf"), replacement + replacement);
    EXPECT_EQ(support::json_escape("\xed\xa0\x80"),
              replacement + replacement + replacement);
    EXPECT_EQ(support::json_escape("\xf5\x80\x80\x80"),
              replacement + replacement + replacement + replacement);
    // Valid neighbours survive.
    EXPECT_EQ(support::json_escape("a\x80z"), "a" + replacement + "z");
}

TEST(JsonEscape, SanitizeIsIdempotent)
{
    Xoshiro256 rng(2020);
    for (int trial = 0; trial < 200; ++trial) {
        std::string s;
        const std::size_t len = rng.next_bounded(64);
        for (std::size_t i = 0; i < len; ++i)
            s += static_cast<char>(rng.next_bounded(256));
        const std::string once = support::json_sanitize_utf8(s);
        EXPECT_EQ(support::json_sanitize_utf8(once), once);
    }
}

TEST(JsonEscape, FuzzRoundTripThroughParser)
{
    // Arbitrary bytes, escaped into a flat record, must (a) validate as
    // JSON and (b) parse back to the sanitized form of the input — this
    // is the contract serve relies on for untrusted request params.
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 300; ++trial) {
        std::string s;
        const std::size_t len = rng.next_bounded(48);
        for (std::size_t i = 0; i < len; ++i) {
            // Mix of plain ASCII, control bytes, and raw high bytes so
            // both escape paths and the UTF-8 validator get exercised.
            switch (rng.next_bounded(4)) {
              case 0:
                s += static_cast<char>('a' + rng.next_bounded(26));
                break;
              case 1:
                s += static_cast<char>(rng.next_bounded(0x20));
                break;
              default:
                s += static_cast<char>(rng.next_bounded(256));
                break;
            }
        }
        const std::string doc =
            "{\"k\":\"" + support::json_escape(s) + "\"}";
        EXPECT_TRUE(support::json_validate(doc).is_ok()) << doc;
        std::map<std::string, std::string> fields;
        ASSERT_TRUE(support::parse_flat_json(doc, fields).is_ok()) << doc;
        EXPECT_EQ(fields["k"], support::json_sanitize_utf8(s));
    }
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    t.start();
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i;
    t.stop();
    EXPECT_GE(t.seconds(), 0.0);
    EXPECT_EQ(t.millisecs(), t.seconds() * 1e3);
}

// --------------------------------------------------------------- JSONL

/** A fresh stream path under the test temp dir. */
std::string
fresh_stream(const std::string& name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** read_jsonl callback that accepts any flat JSON object. */
support::Status
parse_flat(int, const std::string& line)
{
    std::map<std::string, std::string> fields;
    return support::parse_flat_json(line, fields);
}

TEST(Jsonl, BlankLinesAreSkipped)
{
    const std::string path = fresh_stream("gm_jsonl_blank.jsonl");
    {
        std::ofstream out(path);
        out << "{\"a\":1}\n\n{\"a\":2}\n\n";
    }
    std::vector<std::pair<int, std::string>> seen;
    const auto counts =
        support::read_jsonl(path, [&seen](int line_no, const std::string& line) {
            seen.emplace_back(line_no, line);
            return support::Status::ok();
        });
    ASSERT_TRUE(counts.is_ok()) << counts.status().to_string();
    EXPECT_EQ(counts->readable, 2);
    EXPECT_EQ(counts->skipped, 0);
    const std::vector<std::pair<int, std::string>> expected = {
        {1, "{\"a\":1}"}, {3, "{\"a\":2}"}};
    EXPECT_EQ(seen, expected);
    std::remove(path.c_str());
}

TEST(Jsonl, TornFinalLineIsSkippedWarnedAndCounted)
{
    const std::string path = fresh_stream("gm_jsonl_torn.jsonl");
    ASSERT_TRUE(support::append_jsonl(path, "{\"a\":1}").is_ok());
    ASSERT_TRUE(support::append_jsonl(path, "{\"a\":2}").is_ok());
    {
        // A writer killed mid-record: half a line, no newline.
        std::ofstream out(path, std::ios::app);
        out << "{\"a\":";
    }
    testing::internal::CaptureStderr();
    const auto counts = support::read_jsonl(path, parse_flat);
    const std::string warnings = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(counts.is_ok()) << counts.status().to_string();
    EXPECT_EQ(counts->readable, 2);
    EXPECT_EQ(counts->skipped, 1);
    EXPECT_NE(warnings.find(path + ":3: skipping unreadable record ("),
              std::string::npos)
        << warnings;
    std::remove(path.c_str());
}

TEST(Jsonl, OnlyUnreadableLinesIsAnError)
{
    const std::string path = fresh_stream("gm_jsonl_garbage.jsonl");
    ASSERT_TRUE(support::append_jsonl(path, "not json").is_ok());
    ASSERT_TRUE(support::append_jsonl(path, "{\"a\":").is_ok());
    testing::internal::CaptureStderr();
    const auto counts = support::read_jsonl(path, parse_flat);
    testing::internal::GetCapturedStderr();
    ASSERT_FALSE(counts.is_ok());
    EXPECT_EQ(counts.status().code(), support::StatusCode::kCorruptData);

    const auto missing =
        support::read_jsonl(fresh_stream("gm_jsonl_missing.jsonl"),
                            parse_flat);
    ASSERT_FALSE(missing.is_ok());
    EXPECT_EQ(missing.status().code(), support::StatusCode::kInvalidInput);
    std::remove(path.c_str());
}

TEST(Jsonl, RecordKindReadsNestedTelemetryLines)
{
    const std::string telemetry =
        "{\"kind\":\"serve.telemetry\",\"seq\":3,\"counters\":"
        "{\"gm_requests\":7},\"hist\":{\"lat\":{\"count\":1,"
        "\"buckets\":{\"4\":1}}}}";
    EXPECT_EQ(support::record_kind(telemetry), "serve.telemetry");
    EXPECT_EQ(support::record_kind("{\"v\":1,\"kind\":\"fingerprint\"}"),
              "fingerprint");
    EXPECT_EQ(support::record_kind("{\"mode\":\"Baseline\"}"), "");
    EXPECT_EQ(support::record_kind("{\"kind\":\"serve.sl"), "");
}

TEST(Jsonl, ConcurrentAppendsLeaveWholeLines)
{
    const std::string path = fresh_stream("gm_jsonl_concurrent.jsonl");
    constexpr int kLines = 1000;
    // Longer than the file stream's buffer, so one record takes more
    // than one write(2) and only the appender's lock keeps it whole.
    const std::string pad(9000, 'x');
    const auto writer = [&](int id) {
        for (int i = 0; i < kLines; ++i) {
            const support::Status s = support::append_jsonl(
                path, "{\"writer\":" + std::to_string(id) + ",\"i\":" +
                          std::to_string(i) + ",\"pad\":\"" + pad + "\"}");
            ASSERT_TRUE(s.is_ok()) << s.to_string();
        }
    };
    std::thread a(writer, 0);
    std::thread b(writer, 1);
    a.join();
    b.join();

    std::map<std::string, int> per_writer;
    const auto counts = support::read_jsonl(
        path, [&](int, const std::string& line) -> support::Status {
            std::map<std::string, std::string> fields;
            if (support::Status s = support::parse_flat_json(line, fields);
                !s.is_ok())
                return s;
            if (fields["pad"] != pad)
                return support::Status(support::StatusCode::kCorruptData,
                                       "mangled pad");
            ++per_writer[fields["writer"]];
            return support::Status::ok();
        });
    ASSERT_TRUE(counts.is_ok()) << counts.status().to_string();
    EXPECT_EQ(counts->readable, 2 * kLines);
    EXPECT_EQ(counts->skipped, 0);
    EXPECT_EQ(per_writer["0"], kLines);
    EXPECT_EQ(per_writer["1"], kLines);
    std::remove(path.c_str());
}

} // namespace
} // namespace gm
