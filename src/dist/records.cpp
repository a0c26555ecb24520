#include "dist/records.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "dist/json.hpp"

namespace mtr::dist {
namespace {

std::string where(const std::string& path, std::uint64_t line) {
  return path + ":" + std::to_string(line);
}

/// Uniform "(byte N)" suffix: every scanner diagnostic names the byte
/// offset where the offending data begins, so a failure report can be
/// checked with dd/truncate directly.
std::string at_byte(std::uint64_t offset) {
  return " (byte " + std::to_string(offset) + ")";
}

/// Strict parse of one CSV cell into a record member of type T.
template <class T>
bool parse_csv_field(const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "false") return false;
    out = text == "true";
    return true;
  } else {
    const std::optional<T> v = parse_number<T>(text);
    if (v) out = *v;
    return v.has_value();
  }
}

}  // namespace

void refuse_schema(const std::string& path, std::uint64_t line,
                   std::uint64_t offset, std::uint64_t found,
                   std::uint64_t supported) {
  throw std::runtime_error(where(path, line) + ": field 'schema' is v" +
                           std::to_string(found) +
                           ", but this build reads and writes v" +
                           std::to_string(supported) + " only" +
                           at_byte(offset));
}

std::string describe_cell(const report::CellCoords& c) {
  return "cell " + std::to_string(c.cell_index) + " [sweep=" + c.sweep +
         ", attack=" + c.attack + ", scheduler=" + c.scheduler +
         ", hz=" + std::to_string(c.hz) + "]";
}

std::vector<std::string> cell_stat_keys() {
  std::vector<std::string> k;
  core::CellStats cell;
  cell.for_each_stat(
      [&](const char* name, const RunningStats&, auto) { k.emplace_back(name); });
  return k;
}

const std::vector<std::pair<std::string, std::string>>& cell_sketch_columns() {
  static const std::vector<std::pair<std::string, std::string>> cols = [] {
    std::vector<std::pair<std::string, std::string>> c;
    core::CellStats cell;
    cell.for_each_sketch([&](const char* name, const QuantileSketch&, auto) {
      std::string dist = name;  // "pop_<x>_dist" -> run column "pop_<x>_sketch"
      std::string run = dist.substr(0, dist.size() - 5) + "_sketch";
      c.emplace_back(std::move(dist), std::move(run));
    });
    return c;
  }();
  return cols;
}

FileScan scan_jsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("cannot open " + path);

  FileScan scan;
  CellBlock open;
  bool has_open = false;
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  std::string line;
  // `offset` is the start of the line being examined when stop() fires,
  // which is exactly where the unusable tail begins.
  const auto stop = [&](std::string why) {
    scan.clean = false;
    scan.tail_error = std::move(why) + at_byte(offset);
  };
  // The JSON reader and its getters throw naming the offset or the field.
  // Here that marks a corrupt or torn record, which stops the scan like
  // any other bad tail instead of escaping it.
  const auto read = [&](const char* what, const auto& body) {
    try {
      body();
      return true;
    } catch (const std::runtime_error& e) {
      stop(where(path, line_no) + ": " + what + e.what());
      return false;
    }
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (in.eof()) {
      // The last line had no trailing newline: a mid-write kill.
      stop(where(path, line_no) + ": truncated final line");
      break;
    }
    const std::uint64_t line_end = offset + line.size() + 1;

    json::Value rec;
    std::string record;
    std::uint64_t schema = 0;
    if (!read("unparseable record: ",
              [&] { rec = json::parse_document(line); }) ||
        !read("record ", [&] {
          record = json::get_string(rec, "record");
          schema = json::get_u64(rec, "schema");
        }))
      break;
    if (schema != report::kSchemaVersion)
      refuse_schema(path, line_no, offset, schema, report::kSchemaVersion);

    report::CellCoords c;
    std::uint64_t seed = 0, seed_index = 0, seeds = 0;
    if (!read("record ", [&] {
          report::for_each_coord(
              [&](const char* key, auto& member) {
                member = json::get<std::remove_cvref_t<decltype(member)>>(rec, key);
              },
              c);
          if (record == "run") {
            seed = json::get_u64(rec, "seed");
            seed_index = json::get_u64(rec, "seed_index");
          } else if (record == "cell") {
            seeds = json::get_u64(rec, "seeds");
          }
        }))
      break;

    if (record == "run") {
      if (!has_open) {
        if (seed_index != 0) {
          stop(where(path, line_no) + ": run records of cell " +
               std::to_string(c.cell_index) + " start mid-cell");
          break;
        }
        open = CellBlock{};
        open.coords = c;
        open.first_line = line_no;
        has_open = true;
      } else if (c != open.coords) {
        stop(where(path, line_no) + ": cell " +
             std::to_string(open.coords.cell_index) +
             " has run records but no summary");
        break;
      } else if (seed_index != open.seeds.size()) {
        stop(where(path, line_no) + ": seed_index discontinuity in cell " +
             std::to_string(c.cell_index));
        break;
      }
      open.seeds.push_back(seed);
      open.run_lines.push_back(std::move(line));
    } else if (record == "cell") {
      if (!has_open || c != open.coords) {
        stop(where(path, line_no) + ": cell summary for cell " +
             std::to_string(c.cell_index) + " without its run records");
        break;
      }
      if (seeds != open.seeds.size()) {
        stop(where(path, line_no) + ": cell " + std::to_string(c.cell_index) +
             " summary seed count disagrees with its run records");
        break;
      }
      open.cell_line = std::move(line);
      open.closed = true;
      open.end_offset = line_end;
      scan.valid_bytes = line_end;
      scan.blocks.push_back(std::move(open));
      open = CellBlock{};
      has_open = false;
    } else {
      stop(where(path, line_no) + ": unknown record type '" + record + "'");
      break;
    }
    offset = line_end;
  }

  if (scan.clean && has_open) {
    // The orphan runs begin right after the last complete cell.
    offset = scan.valid_bytes;
    stop(where(path, open.first_line) + ": incomplete cell " +
         std::to_string(open.coords.cell_index) +
         " at end of file (runs without a summary)");
  }
  return scan;
}

FileScan scan_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("cannot open " + path);

  FileScan scan;
  std::string line;
  if (!std::getline(in, line)) return scan;  // empty file: nothing done yet
  if (in.eof()) {
    scan.clean = false;
    scan.tail_error = where(path, 1) + ": truncated header row" + at_byte(0);
    return scan;
  }
  const std::vector<std::string> header = report::split_csv_line(line);
  std::uint64_t offset = line.size() + 1;
  if (header != report::run_schema_keys()) {
    // Another generation's layout: refuse it by the version its first row
    // carries, when there is a row to read.
    const auto schema_col = std::find(header.begin(), header.end(), "schema");
    if (schema_col != header.end() && std::getline(in, line)) {
      const std::vector<std::string> row = report::split_csv_line(line);
      const auto k = static_cast<std::size_t>(schema_col - header.begin());
      const auto found = k < row.size() ? parse_u64(row[k]) : std::nullopt;
      if (found && *found != report::kSchemaVersion)
        refuse_schema(path, 2, offset, *found, report::kSchemaVersion);
    }
    throw std::runtime_error(where(path, 1) +
                             ": CSV header is not the schema v" +
                             std::to_string(report::kSchemaVersion) +
                             " run-record layout" + at_byte(0));
  }
  const auto col = [&](const char* key) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), key) - header.begin());
  };
  const std::size_t c_schema = col("schema"), c_seed = col("seed"),
                    c_seed_i = col("seed_index");
  std::vector<std::size_t> coord_cols;
  report::CellCoords layout;
  report::for_each_coord(
      [&](const char* key, auto&) { coord_cols.push_back(col(key)); }, layout);

  std::uint64_t line_no = 1;
  scan.valid_bytes = offset;
  scan.header_bytes = offset;
  CellBlock open;
  bool has_open = false;
  // As in scan_jsonl: `offset` is the start of the row under examination
  // when stop() fires — the first unusable byte.
  const auto stop = [&](std::string why) {
    scan.clean = false;
    scan.tail_error = std::move(why) + at_byte(offset);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (in.eof()) {
      stop(where(path, line_no) + ": truncated final row");
      break;
    }
    const std::uint64_t line_end = offset + line.size() + 1;
    const std::vector<std::string> row = report::split_csv_line(line);
    if (row.size() != header.size()) {
      stop(where(path, line_no) + ": malformed row (" +
           std::to_string(row.size()) + " of " +
           std::to_string(header.size()) + " columns)");
      break;
    }
    // Strict full-match parsing of every field the scan keys on: a corrupt
    // row must stop the scan at a named field, not round-trip a mangled
    // value into resume/merge decisions.
    std::size_t bad = row.size();  // column of the first unparseable field
    const auto parse = [&](std::size_t i, auto& out) {
      if (bad == row.size() && !parse_csv_field(row[i], out)) bad = i;
    };
    std::uint64_t schema = 0;
    parse(c_schema, schema);
    if (bad == row.size() && schema != report::kSchemaVersion)
      refuse_schema(path, line_no, offset, schema, report::kSchemaVersion);
    report::CellCoords c;
    std::size_t k = 0;
    report::for_each_coord(
        [&](const char*, auto& member) { parse(coord_cols[k++], member); }, c);
    std::uint64_t seed = 0, seed_index = 0;
    parse(c_seed, seed);
    parse(c_seed_i, seed_index);
    if (bad != row.size()) {
      stop(where(path, line_no) + ": field '" + header[bad] +
           "' has invalid value '" + row[bad] + "'");
      break;
    }

    if (has_open && open.coords.cell_index == c.cell_index) {
      if (c != open.coords) {
        stop(where(path, line_no) + ": conflicting coordinates within cell " +
             std::to_string(c.cell_index));
        break;
      }
      if (seed_index != open.seeds.size()) {
        stop(where(path, line_no) + ": seed_index discontinuity in cell " +
             std::to_string(c.cell_index));
        break;
      }
    } else {
      if (has_open) {
        // The next cell starts, which proves the previous one ended.
        open.closed = true;
        scan.valid_bytes = open.end_offset;
        scan.blocks.push_back(std::move(open));
      }
      open = CellBlock{};
      open.coords = c;
      open.first_line = line_no;
      has_open = true;
      if (seed_index != 0) {
        stop(where(path, line_no) + ": rows of cell " +
             std::to_string(c.cell_index) + " start mid-cell");
        has_open = false;
        break;
      }
    }
    open.seeds.push_back(seed);
    open.run_lines.push_back(std::move(line));
    open.end_offset = line_end;
    offset = line_end;
  }

  // EOF cannot prove the final block complete; hand it over open and let
  // the caller decide against its expected seed set. The open block
  // survives an unclean scan too: its rows were all validated before the
  // stop, and a tear that cut into the NEXT cell's first row must not
  // discard the complete rows of the cell before it.
  if (has_open) scan.blocks.push_back(std::move(open));
  return scan;
}

}  // namespace mtr::dist
