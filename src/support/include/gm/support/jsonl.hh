/**
 * @file
 * The one JSONL stream format: one JSON object per line.  Writers append
 * one record at a time, opening and closing the file for each, so a
 * killed process loses at most the line it was writing.  Readers skip
 * blank lines and skip, warn about and count every line they cannot
 * read, which is how the torn final line of a crash is recovered from.
 * Per-trial metrics, sweep checkpoints, perf baselines and every serve
 * side-record stream go through these three functions.
 */
#pragma once

#include <functional>
#include <string>

#include "gm/support/status.hh"

namespace gm::support
{

/**
 * Append @p line and a '\n' to the stream at @p path, creating the file
 * if needed.  One process-wide mutex serializes appends, so lines from
 * concurrent writers never interleave.  kInvalidInput when the file
 * cannot be opened or the write fails.
 */
Status append_jsonl(const std::string& path, const std::string& line);

/** How many lines read_jsonl handed over and how many it skipped. */
struct JsonlCounts
{
    int readable = 0; ///< lines for which fn returned ok
    int skipped = 0;  ///< lines for which fn returned an error
};

/**
 * Call @p fn(line_no, line) for each non-empty line of @p path; line
 * numbers count from 1 and include blank lines.  A line for which fn
 * returns an error is skipped, warned about as
 * "path:line: skipping unreadable record (why)" and counted.
 *
 * @return The counts; kInvalidInput when the file cannot be opened;
 *         kCorruptData when the file holds lines but none is readable.
 */
StatusOr<JsonlCounts>
read_jsonl(const std::string& path,
           const std::function<Status(int line_no, const std::string& line)>&
               fn);

/**
 * The "kind" discriminator of a record line ("fingerprint", "cell",
 * "serve.slo", ...), or "" when the line carries none.  A string search,
 * not a parse: readers dispatch on the kind before (or instead of)
 * parsing the rest, as profile_report does for the nested
 * serve.telemetry snapshots it only counts.
 */
std::string record_kind(const std::string& line);

} // namespace gm::support
