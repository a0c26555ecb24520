#include "dist/merge.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "report/result_sink.hpp"

namespace mtr::dist {
namespace {

constexpr const char* kUsage =
    "usage: mtr_merge [--csv OUT.csv] [--jsonl OUT.jsonl]\n"
    "                 [--metrics OUT.json] SHARD_FILE...\n"
    "\n"
    "Merges per-shard mtr_sweep outputs back into one canonical dataset.\n"
    "Inputs are classified by extension: .csv files merge into --csv,\n"
    ".jsonl files into --jsonl, .json files (mtr_sweep --metrics output)\n"
    "fold into --metrics. Every cell is validated (schema version,\n"
    "incomplete shard tails, duplicate/conflicting cells, gaps in the cell\n"
    "index space) and re-emitted in grid order; JSONL cell aggregates are\n"
    "recomputed from the run records and cross-checked against the shard.\n"
    "Inputs must be record schema v4 and metrics.json v2, the formats this\n"
    "build writes; files of any other version are refused (exit 2).\n"
    "The merged files are byte-identical to a single-process run of the\n"
    "same grid. Metrics fold by sweep name: counters sum, gauges max, and\n"
    "the shard count adds up.\n"
    "\n"
    "  --csv OUT.csv      merged CSV destination (parent dirs are created)\n"
    "  --jsonl OUT.jsonl  merged JSONL destination\n"
    "  --metrics OUT.json folded metrics destination\n"
    "  --allow-gaps       merge the cells that are present even when the\n"
    "                     cell-index space has gaps (a failed shard's cells\n"
    "                     are simply absent); the gap list is reported\n"
    "  --help             print this message\n"
    "\n"
    "Exit codes: 0 merged and verified; 1 output write failure; 2 usage\n"
    "error or corrupt/unusable input (torn tail, unreadable file, other\n"
    "schema version, aggregate recomputation mismatch — reports name file,\n"
    "line, and byte offset);\n"
    "3 cell-index gap or duplicate cell (incomplete or overlapping shard\n"
    "set; each file itself may be intact).\n";

[[noreturn]] void bad_usage(const std::string& message) {
  throw std::runtime_error(message + "\n\n" + kUsage);
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Every input's blocks, keyed by cell_index, with the path each came from.
using GatheredBlocks = std::map<std::uint64_t, std::pair<CellBlock, std::string>>;

/// Collects every input's blocks, rejecting unreadable or incomplete
/// shards, empty inputs, duplicates, and gaps. `allow_gaps` turns gaps
/// (and an all-empty input set) into entries in `missing_out` instead of
/// errors — the partial-fleet merge path.
GatheredBlocks gather_blocks(const std::vector<std::string>& inputs,
                             bool jsonl, bool allow_gaps = false,
                             std::vector<std::uint64_t>* missing_out = nullptr) {
  GatheredBlocks cells;
  for (const std::string& path : inputs) {
    FileScan scan;
    try {
      scan = jsonl ? scan_jsonl(path) : scan_csv(path);
    } catch (const std::runtime_error& e) {
      // Unreadable, or written in another schema generation.
      throw MergeError(MergeFault::kCorrupt, e.what());
    }
    if (!scan.clean)
      throw MergeError(
          MergeFault::kCorrupt,
          scan.tail_error +
              " — the shard looks killed mid-write or corrupted; finish it "
              "with --resume (or re-run it) before merging");
    // A blockless file is fine: a shard can own zero cells of a small
    // sweep and still leave its (empty) output behind.
    for (CellBlock& b : scan.blocks) {
      const auto [it, inserted] = cells.emplace(
          b.coords.cell_index, std::make_pair(std::move(b), path));
      if (!inserted) {
        const CellBlock& first = it->second.first;
        throw MergeError(MergeFault::kGapOrDuplicate,
                         "duplicate " + describe_cell(first.coords) + " in " +
                             it->second.second + " and " + path +
                             " — overlapping shards?");
      }
    }
  }
  if (cells.empty()) {
    if (allow_gaps) return cells;  // every surviving shard owned zero cells
    throw MergeError(MergeFault::kCorrupt,
                     "no complete cells to merge in any input");
  }

  // Every cell of one invocation carries the same replicate seed count, so
  // a block with fewer runs — e.g. the unprovable final CSV block of a
  // killed shard — is an incomplete cell, not a merge candidate. Prefer a
  // provably closed block as the reference; failing that (every file's
  // only block is open, possible in CSV-only merges), the largest block —
  // a killed cell can only be smaller than its siblings.
  const CellBlock* reference = nullptr;
  for (const auto& [index, entry] : cells)
    if (entry.first.closed) {
      reference = &entry.first;
      break;
    }
  if (reference == nullptr)
    for (const auto& [index, entry] : cells)
      if (reference == nullptr ||
          entry.first.seeds.size() > reference->seeds.size())
        reference = &entry.first;
  if (reference != nullptr) {
    for (const auto& [index, entry] : cells)
      if (entry.first.seeds.size() != reference->seeds.size())
        throw MergeError(
            MergeFault::kCorrupt,
            entry.second + ": " + describe_cell(entry.first.coords) +
                " has " + std::to_string(entry.first.seeds.size()) +
                " run record(s) but " + describe_cell(reference->coords) +
                " has " +
                std::to_string(reference->seeds.size()) +
                " — incomplete shard output? finish it with --resume before "
                "merging");
  }

  // Contiguity over [min, max]: a missing index means a shard was left out.
  {
    std::vector<std::uint64_t> missing;
    std::uint64_t expect = cells.begin()->first;
    for (const auto& [index, block] : cells) {
      while (expect < index) missing.push_back(expect++);
      expect = index + 1;
    }
    if (!missing.empty()) {
      if (allow_gaps) {
        if (missing_out != nullptr)
          missing_out->insert(missing_out->end(), missing.begin(),
                              missing.end());
      } else {
        std::string list;
        for (std::size_t i = 0; i < missing.size() && i < 10; ++i)
          list += (i ? ", " : "") + std::to_string(missing[i]);
        if (missing.size() > 10) list += ", ...";
        throw MergeError(MergeFault::kGapOrDuplicate,
                         "cell index gap — missing cell(s) " + list +
                             " — was a shard's output left out of the merge?");
      }
    }
  }
  return cells;
}

void write_output(const std::string& path, const std::string& bytes) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    throw std::runtime_error("cannot open output file " + path);
  out << bytes;
  out.flush();
  if (!out.good())
    throw std::runtime_error("write failed for " + path + " (disk full?)");
}

}  // namespace

MergeOptions parse_merge_args(int argc, const char* const* argv) {
  MergeOptions o;
  const auto value = [&](int& i, std::string_view flag) -> std::string {
    if (i + 1 >= argc) bad_usage(std::string(flag) + " requires a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") o.help = true;
    else if (arg == "--allow-gaps") o.allow_gaps = true;
    else if (arg == "--csv") o.csv_out = value(i, arg);
    else if (arg == "--jsonl") o.jsonl_out = value(i, arg);
    else if (arg == "--metrics") o.metrics_out = value(i, arg);
    else if (!arg.empty() && arg.front() == '-') {
      bad_usage("unknown flag: " + std::string(arg));
    } else {
      const std::string path(arg);
      if (has_suffix(path, ".csv")) o.csv_in.push_back(path);
      else if (has_suffix(path, ".jsonl")) o.jsonl_in.push_back(path);
      else if (has_suffix(path, ".json")) o.metrics_in.push_back(path);
      else bad_usage("input " + path + " is not .csv, .jsonl, or .json");
    }
  }
  return o;
}

std::string merge_jsonl(const std::vector<std::string>& inputs,
                        std::vector<std::uint64_t>* cell_indices,
                        bool allow_gaps, std::vector<std::uint64_t>* missing) {
  const GatheredBlocks cells =
      gather_blocks(inputs, /*jsonl=*/true, allow_gaps, missing);
  std::string out;
  for (const auto& [index, entry] : cells) {
    const CellBlock& b = entry.first;
    for (const std::string& line : b.run_lines) {
      out += line;
      out += '\n';
    }
    // The cell line recomputed from the run records the scan decoded and
    // folded; a mismatch against what the shard wrote means the file was
    // corrupted or hand-edited.
    const std::size_t cell_at = out.size();
    report::write_cell_record(out, b.coords, b.aggregate);
    if (std::string_view(out).substr(cell_at) != b.cell_line + '\n')
      throw MergeError(
          MergeFault::kCorrupt,
          entry.second + ": recomputed aggregate for " +
              describe_cell(b.coords) +
              " does not match the recorded summary — corrupt shard output?");
    if (cell_indices) cell_indices->push_back(index);
  }
  return out;
}

std::string merge_csv(const std::vector<std::string>& inputs,
                      std::vector<std::uint64_t>* cell_indices,
                      bool allow_gaps, std::vector<std::uint64_t>* missing) {
  const GatheredBlocks cells =
      gather_blocks(inputs, /*jsonl=*/false, allow_gaps, missing);
  std::string out;
  report::write_csv_header(out);
  for (const auto& [index, entry] : cells) {
    for (const std::string& line : entry.first.run_lines) {
      out += line;
      out += '\n';
    }
    if (cell_indices) cell_indices->push_back(index);
  }
  return out;
}

int run_merge(const MergeOptions& o, std::ostream& out, std::ostream& err) {
  if (o.help) {
    out << kUsage;
    return 0;
  }
  if (o.csv_out.empty() && o.jsonl_out.empty() && o.metrics_out.empty()) {
    err << "mtr_merge: pick at least one output (--csv, --jsonl, and/or "
           "--metrics)\n\n"
        << kUsage;
    return 2;
  }
  const auto usage_error = [&](const std::string& message) {
    err << "mtr_merge: " << message << "\n\n" << kUsage;
    return 2;
  };
  if (!o.csv_out.empty() && o.csv_in.empty())
    return usage_error("--csv needs .csv shard inputs");
  if (o.csv_out.empty() && !o.csv_in.empty())
    return usage_error(".csv inputs given but no --csv output");
  if (!o.jsonl_out.empty() && o.jsonl_in.empty())
    return usage_error("--jsonl needs .jsonl shard inputs");
  if (o.jsonl_out.empty() && !o.jsonl_in.empty())
    return usage_error(".jsonl inputs given but no --jsonl output");
  if (!o.metrics_out.empty() && o.metrics_in.empty())
    return usage_error("--metrics needs .json shard inputs");
  if (o.metrics_out.empty() && !o.metrics_in.empty())
    return usage_error(".json inputs given but no --metrics output");

  try {
    std::vector<std::uint64_t> csv_cells, jsonl_cells;
    std::vector<std::uint64_t> csv_missing, jsonl_missing;
    std::string csv_bytes, jsonl_bytes;
    if (!o.csv_out.empty())
      csv_bytes = merge_csv(o.csv_in, &csv_cells, o.allow_gaps, &csv_missing);
    if (!o.jsonl_out.empty())
      jsonl_bytes =
          merge_jsonl(o.jsonl_in, &jsonl_cells, o.allow_gaps, &jsonl_missing);
    if (!o.csv_out.empty() && !o.jsonl_out.empty() && csv_cells != jsonl_cells)
      throw MergeError(
          MergeFault::kCorrupt,
          "the .csv and .jsonl shard sets cover different cells — are they "
          "from the same sweep invocation?");

    if (!o.csv_out.empty()) {
      write_output(o.csv_out, csv_bytes);
      out << "mtr_merge: " << csv_cells.size() << " cell(s) from "
          << o.csv_in.size() << " shard file(s) -> " << o.csv_out << '\n';
    }
    if (!o.jsonl_out.empty()) {
      write_output(o.jsonl_out, jsonl_bytes);
      out << "mtr_merge: " << jsonl_cells.size() << " cell(s) from "
          << o.jsonl_in.size() << " shard file(s) -> " << o.jsonl_out << '\n';
    }
    const std::vector<std::uint64_t>& missing =
        !o.csv_out.empty() ? csv_missing : jsonl_missing;
    if (!missing.empty()) {
      err << "mtr_merge: " << missing.size()
          << " cell(s) missing (merged with --allow-gaps):";
      for (const std::uint64_t c : missing) err << ' ' << c;
      err << '\n';
    }
    if (!o.metrics_out.empty()) {
      std::vector<MetricsFile> shards;
      shards.reserve(o.metrics_in.size());
      for (const std::string& path : o.metrics_in) {
        try {
          shards.push_back(read_metrics_json(path));
        } catch (const std::exception& e) {
          // A metrics file that fails to parse is corrupt input, same
          // taxonomy slot as a torn record file.
          throw MergeError(MergeFault::kCorrupt, e.what());
        }
      }
      const MetricsFile folded = fold_metrics(shards);
      std::ostringstream ms;
      trace::write_metrics_json(ms, folded.sweeps, folded.shards);
      write_output(o.metrics_out, ms.str());
      out << "mtr_merge: " << folded.sweeps.size() << " sweep metric(s) from "
          << o.metrics_in.size() << " shard file(s) -> " << o.metrics_out
          << '\n';
    }
  } catch (const MergeError& e) {
    err << "mtr_merge: " << e.what() << '\n';
    return static_cast<int>(e.fault);
  } catch (const std::exception& e) {
    err << "mtr_merge: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

int merge_main(int argc, const char* const* argv) {
  try {
    return run_merge(parse_merge_args(argc, argv), std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "mtr_merge: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace mtr::dist
