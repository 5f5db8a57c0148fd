/** Tests for the GAPBS-style CLI layer: option parsing and the end-to-end
 *  kernel driver. */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gm/cli/argparse.hh"
#include "gm/cli/driver.hh"
#include "gm/cli/options.hh"

namespace gm::cli
{
namespace
{

std::optional<Options>
parse(std::vector<const char*> args)
{
    args.insert(args.begin(), "test");
    return parse_options(static_cast<int>(args.size()),
                         const_cast<char**>(args.data()), "test");
}

bool
run_parser(ArgParser& parser, std::vector<const char*> args)
{
    args.insert(args.begin(), "test");
    return parser.parse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
}

TEST(ArgParse, TypedTargetsAndAliases)
{
    int count = 0;
    double rate = 0;
    std::uint64_t seed = 0;
    std::string path;
    bool verbose = false;
    int hits = 0;
    ArgParser parser("test");
    parser.value({"--count", "-n"}, &count);
    parser.value({"--rate"}, &rate);
    parser.value({"--seed"}, &seed);
    parser.value({"--out"}, &path);
    parser.flag({"--verbose", "-v"}, &verbose);
    parser.flag({"--bump"}, [&hits] { ++hits; });
    EXPECT_TRUE(run_parser(parser, {"-n", "7", "--rate", "0.25", "--seed",
                                    "99", "--out", "x.csv", "-v",
                                    "--bump", "--bump"}));
    EXPECT_EQ(count, 7);
    EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_EQ(seed, 99u);
    EXPECT_EQ(path, "x.csv");
    EXPECT_TRUE(verbose);
    EXPECT_EQ(hits, 2);
}

TEST(ArgParse, ErrorsAndHelp)
{
    ArgParser parser("test");
    int usage_calls = 0;
    parser.usage([&usage_calls] { ++usage_calls; });
    int n = 0;
    parser.value({"-n"}, &n);
    parser.value({"--reject"},
                 [](const std::string&) { return false; });

    EXPECT_FALSE(run_parser(parser, {"--nope"})); // unknown option
    EXPECT_FALSE(parser.help_requested());
    EXPECT_EQ(usage_calls, 1);

    EXPECT_FALSE(run_parser(parser, {"-n"})); // missing value
    EXPECT_FALSE(run_parser(parser, {"--reject", "v"})); // handler said no
    EXPECT_FALSE(run_parser(parser, {"--help"}));
    EXPECT_TRUE(parser.help_requested());
    EXPECT_EQ(usage_calls, 2);

    // help_requested resets on the next parse.
    EXPECT_TRUE(run_parser(parser, {"-n", "3"}));
    EXPECT_FALSE(parser.help_requested());
    EXPECT_EQ(n, 3);
}

TEST(CliOptions, DefaultsAreSane)
{
    const auto opts = parse({});
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->source, GraphSource::kKronecker);
    EXPECT_EQ(opts->scale, 14);
    EXPECT_EQ(opts->trials, 3);
    EXPECT_EQ(opts->framework, "gap");
    EXPECT_FALSE(opts->verify);
    EXPECT_FALSE(opts->optimized);
}

TEST(CliOptions, GeneratorSelection)
{
    EXPECT_EQ(parse({"-g", "12"})->source, GraphSource::kKronecker);
    EXPECT_EQ(parse({"-u", "12"})->source, GraphSource::kUniform);
    EXPECT_EQ(parse({"-T", "12"})->source, GraphSource::kTwitterLike);
    EXPECT_EQ(parse({"-W", "12"})->source, GraphSource::kWebLike);
    EXPECT_EQ(parse({"-r", "12"})->source, GraphSource::kRoadLike);
    EXPECT_EQ(parse({"-g", "12"})->scale, 12);
}

TEST(CliOptions, FileSourceAndFlags)
{
    const auto opts = parse({"-f", "/tmp/x.el", "-s", "-n", "7", "-v",
                             "-F", "gkc", "-O", "-d", "8", "-k", "24",
                             "-S", "99", "-i", "50", "-e", "0.001"});
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->source, GraphSource::kFile);
    EXPECT_EQ(opts->file_path, "/tmp/x.el");
    EXPECT_TRUE(opts->symmetrize);
    EXPECT_EQ(opts->trials, 7);
    EXPECT_TRUE(opts->verify);
    EXPECT_EQ(opts->framework, "gkc");
    EXPECT_TRUE(opts->optimized);
    EXPECT_EQ(opts->delta, 8);
    EXPECT_EQ(opts->degree, 24);
    EXPECT_EQ(opts->seed, 99u);
    EXPECT_EQ(opts->max_iters, 50);
    EXPECT_DOUBLE_EQ(opts->tolerance, 0.001);
}

TEST(CliOptions, RejectsBadInput)
{
    EXPECT_FALSE(parse({"-zz"}).has_value());
    EXPECT_FALSE(parse({"-g"}).has_value());     // missing value
    EXPECT_FALSE(parse({"-n", "0"}).has_value()); // trials must be >= 1
    EXPECT_FALSE(parse({"-h"}).has_value());      // help short-circuits
}

TEST(CliDriver, RunsEveryKernelOnTinyGraph)
{
    Options opts;
    opts.source = GraphSource::kKronecker;
    opts.scale = 8;
    opts.trials = 1;
    opts.verify = true;
    for (harness::Kernel kernel : harness::kAllKernels)
        EXPECT_EQ(run_kernel(kernel, opts), 0)
            << harness::to_string(kernel);
}

TEST(CliDriver, RunsEveryFrameworkAlias)
{
    Options opts;
    opts.source = GraphSource::kUniform;
    opts.scale = 8;
    opts.trials = 1;
    opts.verify = true;
    for (const char* name :
         {"gap", "suitesparse", "galois", "nwgraph", "graphit", "gkc"}) {
        opts.framework = name;
        EXPECT_EQ(run_kernel(harness::Kernel::kBFS, opts), 0) << name;
    }
    opts.framework = "no-such-framework";
    EXPECT_EQ(run_kernel(harness::Kernel::kBFS, opts), kExitInvalidInput);
}

TEST(CliOptions, FaultToleranceFlags)
{
    const auto opts = parse({"--trial-timeout-ms", "250", "--max-attempts",
                             "3"});
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->trial_timeout_ms, 250);
    EXPECT_EQ(opts->max_attempts, 3);
    EXPECT_FALSE(parse({"--trial-timeout-ms", "-5"}).has_value());
    EXPECT_FALSE(parse({"--max-attempts", "0"}).has_value());
    EXPECT_FALSE(parse({"--trial-timeout-ms"}).has_value()); // no value
    // Checkpoint/resume are suite-level flags (tools/suite), not per-kernel.
    EXPECT_FALSE(parse({"--checkpoint", "/tmp/cp.jsonl"}).has_value());
    EXPECT_FALSE(parse({"--resume", "/tmp/cp.jsonl"}).has_value());
}

TEST(CliDriver, ExitCodeMapping)
{
    EXPECT_EQ(exit_code_for(harness::FailureKind::kNone), kExitOk);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kInvalidInput),
              kExitInvalidInput);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kKernelError),
              kExitKernelError);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kUnsupported),
              kExitKernelError);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kTimeout), kExitTimeout);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kWrongResult),
              kExitWrongResult);
    EXPECT_EQ(exit_code_for(harness::FailureKind::kFaultInjected),
              kExitFaultInjected);
}

TEST(CliDriver, MissingFileIsInvalidInput)
{
    Options opts;
    opts.source = GraphSource::kFile;
    opts.file_path = "/tmp/gm_no_such_file.el";
    opts.trials = 1;
    EXPECT_EQ(run_kernel(harness::Kernel::kBFS, opts), kExitInvalidInput);
}

TEST(CliDriver, MalformedEdgeListIsAStatusNotAnAbort)
{
    const std::string path = testing::TempDir() + "gm_malformed.el";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "0 1\n1 two\n";
    }
    Options opts;
    opts.source = GraphSource::kFile;
    opts.file_path = path;
    const auto built = build_input_graph(opts);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), support::StatusCode::kInvalidInput);
    EXPECT_NE(built.status().message().find(path + ":2:"),
              std::string::npos)
        << built.status().message();
    std::remove(path.c_str());
}

TEST(CliDriver, OptimizedModeRuns)
{
    Options opts;
    opts.source = GraphSource::kRoadLike;
    opts.scale = 8;
    opts.trials = 1;
    opts.verify = true;
    opts.optimized = true;
    opts.framework = "galois";
    EXPECT_EQ(run_kernel(harness::Kernel::kSSSP, opts), 0);
}

} // namespace
} // namespace gm::cli
