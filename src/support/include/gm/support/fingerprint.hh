/**
 * @file
 * Environment fingerprint: the provenance record attached to every
 * results artifact (baseline files, results CSVs, metrics JSONL) so an
 * orphaned file can always be traced back to the build and machine that
 * produced it.  Two baselines are only honestly comparable when their
 * fingerprints agree on compiler and host; tools/perf_gate prints the
 * differences when they don't.
 *
 * Collection is cheap and dependency-free: the git SHA and build type
 * are baked in at configure time (GM_GIT_SHA / GM_BUILD_TYPE compile
 * definitions, overridable at runtime via the GM_GIT_SHA environment
 * variable for out-of-tree builds), the compiler comes from predefined
 * macros, and the hostname from gethostname().
 */
#pragma once

#include <string>

#include "gm/support/status.hh"

namespace gm::support
{

/** Provenance of one benchmarking run. */
struct EnvFingerprint
{
    std::string git_sha;    ///< HEAD at configure time ("unknown" outside git)
    std::string compiler;   ///< e.g. "gcc 13.2.0"
    std::string build;      ///< build type + sanitizer, e.g. "Release"
    std::string hostname;   ///< gethostname(), "unknown" when unavailable
    int threads = 0;        ///< lanes of the process-wide pool
    std::string scales;     ///< caller-set workload note, e.g. "scale=16"

    bool
    operator==(const EnvFingerprint& other) const
    {
        return git_sha == other.git_sha && compiler == other.compiler &&
               build == other.build && hostname == other.hostname &&
               threads == other.threads && scales == other.scales;
    }
};

/** Collect the current process's fingerprint (scales left empty). */
EnvFingerprint collect_fingerprint();

/** Flat JSON object, e.g. {"git_sha":"...","compiler":"...",...}. */
std::string fingerprint_json(const EnvFingerprint& fp);

/** Inverse of fingerprint_json; kCorruptData on malformed input.
 *  Unknown keys are ignored so newer fields stay readable. */
StatusOr<EnvFingerprint> parse_fingerprint_json(const std::string& text);

/**
 * The {"kind":"fingerprint",...} JSONL record line (no trailing
 * newline), the leading record of --metrics-out streams.  Readers
 * recognize it by support::record_kind and skip it.
 */
std::string fingerprint_record_line(const EnvFingerprint& fp);

} // namespace gm::support
