// Streaming result sinks: the structured-output half of the report layer.
//
// A ResultSink receives every completed BatchRunner cell and persists it
// incrementally — one flat record per replicate run, flushed per cell — so
// long sweeps stream to disk as they go and a killed sweep keeps what it
// finished. CsvSink and JsonlSink walk one run-record table
// (for_each_run_field) through one token codec, so the two formats cannot
// drift apart; MultiSink fans a cell out to several sinks at once.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "core/batch_runner.hpp"

namespace mtr::report {

/// Version stamped into every record (the `schema` column / key). Bump it
/// whenever a field is added, removed, renamed, or reordered. Sinks write
/// it and the dist-layer scanners read it; records of any other version
/// are refused, never converted.
/// v2: added `cell_index` (invocation-global cell ordinal) to run and cell
/// records — the merge key for sharded sweeps.
/// v3: added the scenario-axis coordinates — `cpu_hz`, `ram_frames`,
/// `reclaim_batch`, `ptrace`, `jiffy_timers` — to run and cell records.
/// v4: added the population axes — `population`, `attacker_fraction`,
/// `victim_nice`, `attacker_nice` — plus the per-tenant distribution
/// columns (`pop_*` scalars and encoded QuantileSketch strings) to run
/// records and the `pop_*_dist` quantile summaries to cell records.
inline constexpr std::uint64_t kSchemaVersion = 4;

/// The coordinates of one grid cell in record form: the sweep name, the
/// invocation-global cell index, and every grid axis. Declared once here
/// and walked by key through the visitors below, so the sink writers, the
/// scanners, mtr_merge, resume and the cell gate agree on every name,
/// type and position.
struct CellCoords {
  std::string sweep;
  std::uint64_t cell_index = 0;
  std::string attack;
  std::string scheduler;  // sim::to_string form
  std::uint64_t hz = 0;
  std::uint64_t cpu_hz = 0;
  std::uint64_t ram_frames = 0;
  std::uint64_t reclaim_batch = 0;
  std::string ptrace;  // kernel::to_string form
  bool jiffy_timers = true;
  std::uint64_t population = 1;
  /// Compares exactly: the %.17g record token round-trips bit-exact.
  double attacker_fraction = 0.0;
  std::int64_t victim_nice = 0;
  std::int64_t attacker_nice = 0;

  friend bool operator==(const CellCoords&, const CellCoords&) = default;
};

/// Calls f(key, member...) for the coordinates every record leads with,
/// `sweep` through `jiffy_timers`, in record order. Pass one CellCoords to
/// read or fill it, or two to walk them side by side.
template <class F, class... C>
void for_each_lead_coord(F&& f, C&... c) {
  f("sweep", c.sweep...);
  f("cell_index", c.cell_index...);
  f("attack", c.attack...);
  f("scheduler", c.scheduler...);
  f("hz", c.hz...);
  f("cpu_hz", c.cpu_hz...);
  f("ram_frames", c.ram_frames...);
  f("reclaim_batch", c.reclaim_batch...);
  f("ptrace", c.ptrace...);
  f("jiffy_timers", c.jiffy_timers...);
}

/// The same for the population axes. Run records carry them after
/// `attacker_true_seconds`, cell records straight after `jiffy_timers`.
template <class F, class... C>
void for_each_population_coord(F&& f, C&... c) {
  f("population", c.population...);
  f("attacker_fraction", c.attacker_fraction...);
  f("victim_nice", c.victim_nice...);
  f("attacker_nice", c.attacker_nice...);
}

/// Every coordinate, in cell-record order.
template <class F, class... C>
void for_each_coord(F&& f, C&... c) {
  for_each_lead_coord(f, c...);
  for_each_population_coord(f, c...);
}

/// Record form of a cell's typed coordinates. `Cell` is core::CellStats or
/// core::GridCellCoords, which name their coordinate members alike.
template <class Cell>
CellCoords record_coords(std::string sweep, std::uint64_t cell_index,
                         const Cell& cell) {
  CellCoords c;
  c.sweep = std::move(sweep);
  c.cell_index = cell_index;
  c.attack = cell.attack_label;
  c.scheduler = sim::to_string(cell.scheduler);
  c.hz = cell.hz.v;
  c.cpu_hz = cell.cpu.v;
  c.ram_frames = cell.ram.frames;
  c.reclaim_batch = cell.ram.reclaim_batch;
  c.ptrace = kernel::to_string(cell.ptrace);
  c.jiffy_timers = cell.jiffy_timers;
  c.population = cell.population;
  c.attacker_fraction = cell.attacker_fraction;
  c.victim_nice = cell.nice.victim.v;
  c.attacker_nice = cell.nice.attacker.v;
  return c;
}

/// Compact QuantileSketch serialization for run records:
/// "count;zero;min;max;pos;neg" where pos/neg are space-separated
/// "index:count" bucket lists. No commas, quotes, or braces, so the token
/// embeds in CSV cells and JSON strings without any escaping — which is
/// what keeps v4 shard merges byte-exact: mtr_merge decodes the per-run
/// sketches, merges them (exact, order-free), and re-encodes.
std::string encode_sketch(const QuantileSketch& sketch);
/// Strict inverse of encode_sketch: nullopt on any malformed token.
std::optional<QuantileSketch> decode_sketch(std::string_view token);

/// One run record: its cell's coordinates, the replicate's grid seed and
/// index, and the run's result.
struct RunRecord {
  CellCoords coords;
  std::uint64_t seed = 0;
  std::uint64_t seed_index = 0;
  core::ExperimentResult result;
};

/// Calls f(key, member...) for every field of a run record after its
/// `schema` stamp, in record order: the one declaration of the layout that
/// the sinks write and the scanners decode. Each argument is a RunRecord or
/// any struct with its four members (the sinks pass a view, copying
/// nothing); pass two to walk them side by side.
template <class F, class... R>
void for_each_run_field(F&& f, R&... rec) {
  for_each_lead_coord(f, rec.coords...);
  f("seed", rec.seed...);
  f("seed_index", rec.seed_index...);
  // ExperimentResult, every field, declaration order.
  f("workload", rec.result.kind...);
  f("attack_name", rec.result.attack_name...);
  f("victim_pid", rec.result.victim_pid.v...);
  f("victim_tgid", rec.result.victim_tgid.v...);
  f("victim_exited", rec.result.victim_exited...);
  f("wall_seconds", rec.result.wall_seconds...);
  f("billed_utime_ticks", rec.result.billed_ticks.utime.v...);
  f("billed_stime_ticks", rec.result.billed_ticks.stime.v...);
  f("billed_user_seconds", rec.result.billed_user_seconds...);
  f("billed_system_seconds", rec.result.billed_system_seconds...);
  f("billed_seconds", rec.result.billed_seconds...);
  f("true_user_cycles", rec.result.true_cycles.user.v...);
  f("true_system_cycles", rec.result.true_cycles.system.v...);
  f("true_seconds", rec.result.true_seconds...);
  f("tsc_user_cycles", rec.result.tsc_cycles.user.v...);
  f("tsc_system_cycles", rec.result.tsc_cycles.system.v...);
  f("tsc_seconds", rec.result.tsc_seconds...);
  f("pais_user_cycles", rec.result.pais_cycles.user.v...);
  f("pais_system_cycles", rec.result.pais_cycles.system.v...);
  f("pais_seconds", rec.result.pais_seconds...);
  f("overcharge", rec.result.overcharge...);
  f("source_ok", rec.result.source_verdict.ok...);
  f("source_violations", rec.result.source_verdict.violations...);
  f("witness", rec.result.witness...);
  f("witness_steps", rec.result.witness_steps...);
  f("minor_faults", rec.result.minor_faults...);
  f("major_faults", rec.result.major_faults...);
  f("debug_exceptions", rec.result.debug_exceptions...);
  f("voluntary_switches", rec.result.voluntary_switches...);
  f("involuntary_switches", rec.result.involuntary_switches...);
  f("nic_packets", rec.result.nic_packets...);
  f("has_attacker", rec.result.has_attacker...);
  f("attacker_utime_ticks", rec.result.attacker_ticks.utime.v...);
  f("attacker_stime_ticks", rec.result.attacker_ticks.stime.v...);
  f("attacker_billed_seconds", rec.result.attacker_billed_seconds...);
  f("attacker_true_user_cycles", rec.result.attacker_true_cycles.user.v...);
  f("attacker_true_system_cycles", rec.result.attacker_true_cycles.system.v...);
  f("attacker_true_seconds", rec.result.attacker_true_seconds...);
  // Population metering (schema v4), appended after every older column.
  for_each_population_coord(f, rec.coords...);
  f("pop_tenants", rec.result.pop_tenants...);
  f("pop_attackers", rec.result.pop_attackers...);
  f("pop_flagged_attackers", rec.result.pop_flagged_attackers...);
  f("pop_flagged_honest", rec.result.pop_flagged_honest...);
  f("pop_billing_error_mean", rec.result.pop_billing_error_mean...);
  f("pop_billing_error_p99", rec.result.pop_billing_error_p99...);
  f("pop_attacker_advantage_mean", rec.result.pop_attacker_advantage_mean...);
  f("pop_detection_tpr", rec.result.pop_detection_tpr...);
  f("pop_detection_fpr", rec.result.pop_detection_fpr...);
  f("pop_billing_error_sketch", rec.result.pop_billing_error...);
  f("pop_billed_sketch", rec.result.pop_billed_seconds...);
  f("pop_true_sketch", rec.result.pop_true_seconds...);
  f("pop_advantage_sketch", rec.result.pop_attacker_advantage...);
}

/// The CSV header: `schema`, then the keys of for_each_run_field.
std::vector<std::string> run_schema_keys();

// The token codec: one record member as text, before CSV or JSON quoting.
// Bools are true/false, doubles %.17g (round-trips binary64), a workload
// its short name, violations joined with "; ", a digest hex, a sketch its
// encode_sketch token. parse_token is the strict inverse.

/// Members whose token is text, which JSON quotes and CSV may escape.
template <class T>
inline constexpr bool kTextToken = !std::is_arithmetic_v<T>;

void append_token(std::string& out, bool v);
void append_token(std::string& out, double v);
void append_token(std::string& out, std::string_view v);
void append_token(std::string& out, workloads::WorkloadKind v);
void append_token(std::string& out, const std::vector<std::string>& v);
void append_token(std::string& out, const crypto::Digest32& v);
void append_token(std::string& out, const QuantileSketch& v);
template <std::integral T>
void append_token(std::string& out, T v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

bool parse_token(std::string_view text, bool& out);
bool parse_token(std::string_view text, std::string& out);
bool parse_token(std::string_view text, workloads::WorkloadKind& out);
bool parse_token(std::string_view text, std::vector<std::string>& out);
bool parse_token(std::string_view text, crypto::Digest32& out);
bool parse_token(std::string_view text, QuantileSketch& out);
template <class T>
  requires std::is_arithmetic_v<T>
bool parse_token(std::string_view text, T& out) {
  const std::optional<T> v = parse_number<T>(text);
  if (v) out = *v;
  return v.has_value();
}

/// Inverse of append_csv_cell over one line: splits on unquoted commas,
/// undoing quoting and doubled quotes. Our records never embed newlines,
/// so a line is always a whole row.
std::vector<std::string> split_csv_line(const std::string& line);

/// Appends the canonical CSV header row (run_schema_keys, escaped). Shared
/// by CsvSink and mtr_merge so merged files are byte-identical.
void write_csv_header(std::string& out);

/// Appends the `record:"cell"` JSONL line of the cell at `coords`, reading
/// its run count, workload, source verdict and aggregates from what
/// CellStats::add folded in. The single emitter behind JsonlSink and
/// mtr_merge, so an aggregate recomputed from run records comes out
/// byte-identical to the single-machine line.
void write_cell_record(std::string& out, const CellCoords& coords,
                       const core::CellStats& cell);

/// Streaming consumer of completed sweep cells.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Persists one cell (all its seed replicates) and flushes, so results
  /// hit disk per cell rather than at sweep end.
  virtual void write_cell(const std::string& sweep,
                          const core::CellStats& cell) = 0;
};

/// Discards everything; keeps sweep code free of null checks.
class NullSink final : public ResultSink {
 public:
  void write_cell(const std::string&, const core::CellStats&) override {}
};

enum class OpenMode {
  kTruncate,  // start a fresh file
  kAppend,    // append; the header is only written if the file was empty
};

/// Fault seam: when installed, file sinks invoke the hook (kind = "csv" or
/// "jsonl") at the top of every write_cell, before any byte of the cell is
/// emitted. A throwing hook models a transient flush failure: the cell is
/// lost whole, never half-written. Install/clear happens-before the worker
/// pool that emits cells, so no synchronization is needed on the pointer.
using SinkFlushHook = std::function<void(const char* kind)>;
void set_sink_flush_hook(SinkFlushHook hook);

/// RAII installer for the flush hook — clears it on scope exit so a fault
/// plan armed for one run_sweeps call cannot leak into the next.
class ScopedSinkFlushHook {
 public:
  explicit ScopedSinkFlushHook(SinkFlushHook hook) {
    set_sink_flush_hook(std::move(hook));
  }
  ~ScopedSinkFlushHook() { set_sink_flush_hook(nullptr); }
  ScopedSinkFlushHook(const ScopedSinkFlushHook&) = delete;
  ScopedSinkFlushHook& operator=(const ScopedSinkFlushHook&) = delete;
};

/// One CSV row per run. The header row is written once per file —
/// appending to a non-empty file is safe and yields one concatenated
/// table (the schema column lets readers refuse other versions).
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(const std::string& path, OpenMode mode = OpenMode::kTruncate);
  /// Writes to a caller-owned stream (tests); the header is still emitted
  /// exactly once.
  explicit CsvSink(std::ostream& os);

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  bool header_written_ = false;
  /// Reused per-cell line buffer: rows are assembled here and written with
  /// one stream insertion, so steady-state sweeps stop reallocating.
  std::string buf_;
  std::string token_;  // reused scratch for one text token
};

/// One JSON object per line. Run records carry `"record":"run"` and the
/// flat field list; each cell additionally emits a `"record":"cell"`
/// summary line with the per-cell aggregate statistics (count, mean,
/// stddev, min, max for every CellStats accumulator) — the numbers a
/// figure pipeline plots directly. Lines are self-describing, so append
/// mode needs no header handling at all.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(const std::string& path, OpenMode mode = OpenMode::kTruncate);
  explicit JsonlSink(std::ostream& os);

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  /// Reused per-cell line and token buffers (see CsvSink::buf_).
  std::string buf_;
  std::string token_;
};

/// Fans every cell out to each registered sink, in registration order.
class MultiSink final : public ResultSink {
 public:
  void add(std::unique_ptr<ResultSink> sink);
  bool empty() const { return sinks_.empty(); }
  std::size_t size() const { return sinks_.size(); }

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

}  // namespace mtr::report
