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

#include <map>
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
 * Append one {"kind":"fingerprint",...} record to the JSONL stream at
 * @p path, creating the file if needed.  Used as the leading record of
 * --metrics-out streams; readers recognize the "kind" key and skip it.
 */
Status append_fingerprint_record(const std::string& path,
                                 const EnvFingerprint& fp);

/** The JSONL record line itself (no trailing newline). */
std::string fingerprint_record_line(const EnvFingerprint& fp);

/** True when @p fields (a parsed flat JSON object) is a fingerprint
 *  record rather than a data record. */
bool is_fingerprint_record(const std::map<std::string, std::string>& fields);

} // namespace gm::support
