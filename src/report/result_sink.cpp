#include "report/result_sink.hpp"

#include <cstdio>
#include <fstream>

#include "common/ensure.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "crypto/digest.hpp"
#include "workloads/workloads.hpp"

namespace mtr::report {
namespace {

std::unique_ptr<std::ostream> open_file(const std::string& path, OpenMode mode) {
  auto file = std::make_unique<std::ofstream>(
      path, mode == OpenMode::kAppend ? std::ios::out | std::ios::app
                                      : std::ios::out | std::ios::trunc);
  MTR_ENSURE_MSG(file->is_open(), "cannot open result file " << path);
  return file;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

/// One member as a CSV cell.
template <class T>
void append_csv_field(std::string& out, std::string& scratch, const T& v) {
  if constexpr (kTextToken<T>) {
    scratch.clear();
    append_token(scratch, v);
    append_csv_cell(out, scratch);
  } else {
    append_token(out, v);
  }
}

/// One member as `,"key":value` of a JSON object.
template <class T>
void append_json_field(std::string& out, std::string& scratch, const char* key,
                       const T& v) {
  out += ",\"";
  out += key;
  out += "\":";
  if constexpr (kTextToken<T>) {
    scratch.clear();
    append_token(scratch, v);
    out += '"';
    append_json_escaped(out, scratch);
    out += '"';
  } else {
    append_token(out, v);
  }
}

/// The sinks' view of run `seed_i` of `cell`, walked by for_each_run_field.
struct RunView {
  const CellCoords& coords;
  std::uint64_t seed;
  std::uint64_t seed_index;
  const core::ExperimentResult& result;
};

SinkFlushHook& sink_flush_hook() {
  static SinkFlushHook hook;
  return hook;
}

}  // namespace

void set_sink_flush_hook(SinkFlushHook hook) {
  sink_flush_hook() = std::move(hook);
}

std::vector<std::string> run_schema_keys() {
  std::vector<std::string> keys{"schema"};
  RunRecord layout;
  for_each_run_field([&](const char* key, auto&) { keys.emplace_back(key); },
                     layout);
  return keys;
}

void append_token(std::string& out, bool v) { out += v ? "true" : "false"; }

void append_token(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_token(std::string& out, std::string_view v) { out += v; }

void append_token(std::string& out, workloads::WorkloadKind v) {
  out += workloads::short_name(v);
}

void append_token(std::string& out, const std::vector<std::string>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += "; ";
    out += v[i];
  }
}

void append_token(std::string& out, const crypto::Digest32& v) {
  out += crypto::to_hex(v);
}

void append_token(std::string& out, const QuantileSketch& v) {
  append_token(out, v.count());
  out += ';';
  append_token(out, v.zero_count());
  out += ';';
  append_token(out, v.min());
  out += ';';
  append_token(out, v.max());
  for (const QuantileSketch::Buckets* list : {&v.positive(), &v.negative()}) {
    out += ';';
    bool first = true;
    for (const auto& [index, n] : *list) {
      if (!first) out += ' ';
      first = false;
      append_token(out, index);
      out += ':';
      append_token(out, n);
    }
  }
}

bool parse_token(std::string_view text, bool& out) {
  if (text != "true" && text != "false") return false;
  out = text == "true";
  return true;
}

bool parse_token(std::string_view text, std::string& out) {
  out = text;
  return true;
}

bool parse_token(std::string_view text, workloads::WorkloadKind& out) {
  using workloads::WorkloadKind;
  for (const WorkloadKind k : {WorkloadKind::kOurs, WorkloadKind::kPi,
                               WorkloadKind::kWhetstone, WorkloadKind::kBrute})
    if (text == workloads::short_name(k)) {
      out = k;
      return true;
    }
  return false;
}

bool parse_token(std::string_view text, std::vector<std::string>& out) {
  out.clear();
  if (text.empty()) return true;
  for (;;) {
    const std::size_t sep = text.find("; ");
    const std::string_view item = text.substr(0, sep);
    if (item.empty()) return false;  // the writer never joins an empty entry
    out.emplace_back(item);
    if (sep == std::string_view::npos) return true;
    text.remove_prefix(sep + 2);
  }
}

bool parse_token(std::string_view text, crypto::Digest32& out) {
  try {
    out = crypto::digest_from_hex<32>(text);
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

bool parse_token(std::string_view text, QuantileSketch& out) {
  std::optional<QuantileSketch> s = decode_sketch(text);
  if (s) out = std::move(*s);
  return s.has_value();
}

std::string encode_sketch(const QuantileSketch& s) {
  std::string out;
  append_token(out, s);
  return out;
}

std::optional<QuantileSketch> decode_sketch(std::string_view token) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= token.size(); ++i) {
    if (i == token.size() || token[i] == ';') {
      parts.push_back(token.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 6) return std::nullopt;
  const auto count = parse_number<std::uint64_t>(parts[0]);
  const auto zero = parse_number<std::uint64_t>(parts[1]);
  const auto lo = parse_f64(parts[2]);
  const auto hi = parse_f64(parts[3]);
  if (!count || !zero || !lo || !hi) return std::nullopt;

  QuantileSketch s;
  const auto load_buckets = [&s](std::string_view list, bool negative) {
    if (list.empty()) return true;
    std::size_t from = 0;
    for (std::size_t i = 0; i <= list.size(); ++i) {
      if (i != list.size() && list[i] != ' ') continue;
      const std::string_view pair = list.substr(from, i - from);
      from = i + 1;
      const std::size_t colon = pair.find(':');
      if (colon == std::string_view::npos) return false;
      const auto index = parse_number<std::int32_t>(pair.substr(0, colon));
      const auto n = parse_number<std::uint64_t>(pair.substr(colon + 1));
      if (!index || !n || *n == 0) return false;
      if (*index < QuantileSketch::kMinIndex || *index > QuantileSketch::kMaxIndex)
        return false;
      s.load_bucket(*index, *n, negative);
    }
    return true;
  };
  if (!load_buckets(parts[4], false)) return std::nullopt;
  if (!load_buckets(parts[5], true)) return std::nullopt;
  s.load_zero(*zero);
  s.load_bounds(*lo, *hi);
  if (s.count() != *count) return std::nullopt;  // token-internal mismatch
  return s;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (ch == '"') {
        quoted = false;
      } else {
        cur += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      cells.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  cells.push_back(cur);
  return cells;
}

void write_csv_header(std::string& out) {
  const std::vector<std::string> keys = run_schema_keys();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ',';
    append_csv_cell(out, keys[i]);
  }
  out += '\n';
}

CsvSink::CsvSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {
  // Appending to a non-empty file: the header is already on disk.
  header_written_ = mode == OpenMode::kAppend && os_->tellp() > 0;
}

CsvSink::CsvSink(std::ostream& os) : os_(&os) {}

void CsvSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (sink_flush_hook()) sink_flush_hook()("csv");
  if (buf_.capacity() == 0) buf_.reserve(4096);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  if (!header_written_) write_csv_header(buf_);
  const CellCoords coords = record_coords(sweep, cell.cell_index, cell);
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    const RunView run{coords, cell.seeds.at(seed_i), seed_i, cell.runs[seed_i]};
    append_token(buf_, kSchemaVersion);
    for_each_run_field(
        [&](const char*, const auto& v) {
          buf_ += ',';
          append_csv_field(buf_, token_, v);
        },
        run);
    buf_ += '\n';
  }
  *os_ << buf_;
  os_->flush();
  // ofstream swallows I/O errors into badbit; surface them (ENOSPC etc.)
  // instead of exiting 0 with a truncated artifact.
  MTR_ENSURE_MSG(os_->good(), "CSV sink write failed (disk full or closed?)");
  header_written_ = true;
}

JsonlSink::JsonlSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {}

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

void write_cell_record(std::string& out, const CellCoords& coords,
                       const core::CellStats& cell) {
  std::string scratch;
  out += "{\"record\":\"cell\",\"schema\":";
  append_token(out, kSchemaVersion);
  for_each_coord(
      [&](const char* key, const auto& v) {
        append_json_field(out, scratch, key, v);
      },
      coords);
  out += ",\"workload\":\"";
  if (cell.run_count) append_token(out, cell.workload);
  out += "\",\"seeds\":";
  append_token(out, cell.run_count);
  out += ",\"source_ok\":";
  append_token(out, cell.source_ok);
  const auto number = [&](const char* key, auto v) {
    out += key;
    append_token(out, v);
  };
  cell.for_each_stat([&](const char* key, const RunningStats& st, auto) {
    out += ",\"";
    out += key;
    number("\":{\"n\":", st.count());
    number(",\"mean\":", st.mean());
    number(",\"stddev\":", st.stddev());
    number(",\"min\":", st.min());
    number(",\"max\":", st.max());
    out += '}';
  });
  // Distribution aggregates: quantile summaries of the merged sketches.
  // Derived (not stored) values only — the full sketch lives in the run
  // records, which is what lets mtr_merge recompute this line byte-exactly.
  cell.for_each_sketch([&](const char* key, const QuantileSketch& sk, auto) {
    out += ",\"";
    out += key;
    number("\":{\"n\":", sk.count());
    number(",\"min\":", sk.min());
    number(",\"max\":", sk.max());
    number(",\"p50\":", sk.quantile(0.5));
    number(",\"p90\":", sk.quantile(0.9));
    number(",\"p99\":", sk.quantile(0.99));
    out += '}';
  });
  out += "}\n";
}

void JsonlSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (sink_flush_hook()) sink_flush_hook()("jsonl");
  if (buf_.capacity() == 0) buf_.reserve(8192);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  const CellCoords coords = record_coords(sweep, cell.cell_index, cell);
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    const RunView run{coords, cell.seeds.at(seed_i), seed_i, cell.runs[seed_i]};
    buf_ += "{\"record\":\"run\",\"schema\":";
    append_token(buf_, kSchemaVersion);
    for_each_run_field(
        [&](const char* key, const auto& v) {
          append_json_field(buf_, token_, key, v);
        },
        run);
    buf_ += "}\n";
  }
  // Per-cell aggregate summary — the numbers a figure plots directly.
  // Emitted through the shared write_cell_record so merged shard output
  // stays byte-identical to this line.
  write_cell_record(buf_, coords, cell);
  *os_ << buf_;
  os_->flush();
  MTR_ENSURE_MSG(os_->good(), "JSONL sink write failed (disk full or closed?)");
}

void MultiSink::add(std::unique_ptr<ResultSink> sink) {
  MTR_ENSURE(sink != nullptr);
  sinks_.push_back(std::move(sink));
}

void MultiSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  for (const auto& sink : sinks_) sink->write_cell(sweep, cell);
}

}  // namespace mtr::report
