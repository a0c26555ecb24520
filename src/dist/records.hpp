// Reading the sink formats back: block-level scanners over the CSV/JSONL
// files CsvSink/JsonlSink write. A valid file is a sequence of cell blocks
// (the run records of one grid cell, in JSONL followed by its
// `record:"cell"` summary), possibly ending in the partial tail a killed
// sweep left behind. Scanners collect the complete blocks, remember where
// the valid prefix ends (so resume can truncate the tail away), and refuse
// any record of a schema version other than report::kSchemaVersion — this
// build reads exactly what it writes. Shared by ResumeIndex, mtr_merge and
// mtr_inspect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "report/result_sink.hpp"

namespace mtr::dist {

// Strict integer parsing (mtr::parse_u64 in common/parse.hpp) is shared
// with the CLI flag parsers: "12abc", " 12", "+0x1f" and negatives are all
// rejected instead of silently accepted the way bare std::stoull would.

/// One reconstructed cell block. `run_lines` hold the input lines verbatim
/// (no trailing newline), so consumers that re-emit them preserve the
/// original bytes exactly.
struct CellBlock {
  report::CellCoords coords;
  /// 1-based line number of the block's first run record (error reports).
  std::uint64_t first_line = 0;
  std::vector<std::uint64_t> seeds;    // one per run record, in file order
  std::vector<std::string> run_lines;  // verbatim rows / JSONL run lines
  std::string cell_line;               // JSONL only: the summary line
  /// JSONL only: the decoded run records folded by core::CellStats::add
  /// (`coords` holds the coordinates; its own stay default).
  core::CellStats aggregate;
  /// True when the block provably ended: JSONL blocks close on their cell
  /// record; CSV blocks close when the next block starts (the final CSV
  /// block at EOF stays open — the file alone cannot prove it complete).
  bool closed = false;
  /// File offset just past this block's last line.
  std::uint64_t end_offset = 0;
};

struct FileScan {
  std::vector<CellBlock> blocks;  // in file order; only the last may be open
  /// Offset just past the last closed block (for CSV: at least the header),
  /// i.e. the safe truncation point that drops any partial tail.
  std::uint64_t valid_bytes = 0;
  /// CSV only: offset just past the header row (0 when the file is empty,
  /// and always 0 for JSONL) — the truncation point when no cell survives.
  std::uint64_t header_bytes = 0;
  bool clean = true;        // false: scanning stopped at a malformed tail
  std::string tail_error;   // why, when !clean
};

/// Scans a JsonlSink file, decoding each run record once, positionally
/// against report::for_each_run_field, into its block's aggregate. Throws
/// std::runtime_error when the file cannot be opened or a record carries a
/// schema version other than report::kSchemaVersion (see refuse_schema).
/// A line the JSON reader rejects, or a record with a missing, misplaced
/// or undecodable field, instead stops the scan (clean=false) naming the
/// line and field, so callers can treat the tail as a crash artifact.
FileScan scan_jsonl(const std::string& path);

/// Scans a CsvSink file, decoding only the coordinate and seed columns.
/// Throws on open failure, on a header that is not the run_schema_keys()
/// layout (naming the version of the first row when it has one), and on
/// rows of another schema version.
FileScan scan_csv(const std::string& path);

/// Throws the refusal of a record or metrics file written in another
/// schema generation: "path:line: field 'schema' is vN, but this build
/// reads and writes v<supported> only (byte offset)".
[[noreturn]] void refuse_schema(const std::string& path, std::uint64_t line,
                                std::uint64_t offset, std::uint64_t found,
                                std::uint64_t supported);

/// "cell N [sweep=…, attack=…, scheduler=…, hz=…]" for error reports.
std::string describe_cell(const report::CellCoords& c);

}  // namespace mtr::dist
