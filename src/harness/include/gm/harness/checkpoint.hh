/**
 * @file
 * Crash-safe sweep checkpointing: every completed benchmark cell is
 * appended to a JSONL stream (support::append_jsonl, one self-contained
 * JSON object per line), so a killed sweep loses at most the cell in
 * flight.  On restart, run_suite(--resume) loads the file and skips every
 * cell already present; a torn final line (the crash signature) is
 * skipped by support::read_jsonl.
 */
#pragma once

#include <string>
#include <vector>

#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/support/status.hh"

namespace gm::harness
{

/** One checkpointed cell: its coordinates plus the full result. */
struct CheckpointRecord
{
    std::string mode;      ///< to_string(Mode)
    std::string framework;
    std::string kernel;    ///< to_string(Kernel)
    std::string graph;
    CellResult cell;
};

/** Serialize @p record as a single JSON line (no trailing newline). */
std::string checkpoint_line(const CheckpointRecord& record);

/**
 * Parse one JSONL line.  Returns kCorruptData for torn/malformed lines so
 * the loader can skip them.
 */
support::StatusOr<CheckpointRecord>
parse_checkpoint_line(const std::string& line);

/**
 * Load all intact records from @p path.  Malformed lines (typically a
 * partially-written final line after a crash) are skipped with a warning;
 * a missing file, or one with no readable record, is an error.
 */
support::StatusOr<std::vector<CheckpointRecord>>
load_checkpoint(const std::string& path);

} // namespace gm::harness
