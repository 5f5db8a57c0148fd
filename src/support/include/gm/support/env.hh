/**
 * @file
 * Environment-variable helpers used to parameterize benchmarks without
 * recompiling (thread count, graph scale, trial count, ...).
 */
#pragma once

#include <cstdint>
#include <string>

namespace gm
{

/** Return integer env var @p name, or @p fallback when unset/invalid. */
std::int64_t env_int(const char* name, std::int64_t fallback);

/** Return string env var @p name, or @p fallback when unset. */
std::string env_string(const char* name, const std::string& fallback);

/** Return boolean env var @p name ("1"/"true"/"yes"), or @p fallback. */
bool env_bool(const char* name, bool fallback);

/**
 * Lane count of the process-wide par::ThreadPool: GM_THREADS when
 * positive, otherwise the hardware concurrency (at least 1).  The pool
 * and the environment fingerprint both read it, so they always agree.
 */
int pool_lanes();

} // namespace gm
