/**
 * @file
 * Shared driver for the GAPBS-style tools: builds the requested graph,
 * packages it as a harness Dataset, selects the framework, then runs and
 * prints per-trial and average timings in the reference suite's style.
 *
 * Failures are reported through distinct process exit codes so scripts can
 * tell "bad input" from "kernel crashed" from "watchdog fired".
 */
#pragma once

#include "gm/cli/options.hh"
#include "gm/graph/csr.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/support/status.hh"

namespace gm::cli
{

/** Process exit codes emitted by the tools and the suite driver. */
enum ExitCode : int
{
    kExitOk = 0,
    kExitUsage = 1,         ///< bad flags / failed to parse argv
    kExitInvalidInput = 2,  ///< unreadable/corrupt graph, unknown framework
    kExitKernelError = 3,   ///< kernel threw or crashed internally
    kExitTimeout = 4,       ///< watchdog deadline exceeded
    kExitWrongResult = 5,   ///< result failed spec verification
    kExitFaultInjected = 6, ///< GM_FAULTS fault survived all retries
};

/**
 * Build the graph @p opts names: one of the five generators, a .gmg
 * binary, or a text edge list (directed unless -s), validated through
 * graph::try_build_graph.  Never aborts on bad input: a malformed or
 * out-of-range file is a non-ok Status.
 */
support::StatusOr<graph::CSRGraph> build_input_graph(const Options& opts);

/** Map a cell's failure kind onto the exit-code convention. */
int exit_code_for(harness::FailureKind kind);

/**
 * Run one kernel end to end from parsed options.
 *
 * @return Process exit code (see ExitCode).
 */
int run_kernel(harness::Kernel kernel, const Options& opts);

/** Convenience main body: parse argv then run. */
int kernel_main(harness::Kernel kernel, const std::string& name, int argc,
                char** argv);

} // namespace gm::cli
