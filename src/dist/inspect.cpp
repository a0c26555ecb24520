#include "dist/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"
#include "common/stats.hpp"
#include "dist/json.hpp"
#include "dist/records.hpp"
#include "dist/status.hpp"
#include "trace/series.hpp"

namespace mtr::dist {
namespace {

constexpr const char* kUsage = R"(usage: mtr_inspect MODE [options]

modes (exactly one):
  --metrics FILE   render a metrics.json report: kernel counters, phase
                   timers, quantile tables (p50/p90/p99/p999) and ASCII
                   sparklines of the telemetry series. A sweep's "pool"
                   line is its share of the invocation's run queue: the
                   worker count, the wall seconds from each grid's first
                   run claimed to its last run finished (summed over its
                   grids), and per worker the busy seconds of the sweep's
                   own runs; sweeps overlap on the queue, so the walls
                   need not add up to the invocation's
  --trace FILE     summarize a Perfetto trace JSON: event census, counter
                   tracks, categories, schema stamp
  --jsonl FILE     rank the cells of a result JSONL by billing gap
                   (mean billed minus true seconds)
  --compare A B    diff two metrics files; prints per-counter deltas plus
                   side-by-side A/B sparklines of every gauge series with
                   a delta row, and exits 1 when any counter-class value
                   differs (timing-class values -- wall clocks, phases,
                   pool, the cell_seconds sketch -- are reported, never
                   fatal)
  --status-file F  render a mtr_sweep --status-file heartbeat: sweep,
                   cells done/total, elapsed, ETA, worker busy fractions,
                   heartbeat age; exits 1 when the heartbeat is stale

options:
  --top N          with --jsonl: how many cells to print (default 10)
  --stale-after S  with --status-file: seconds of heartbeat age that count
                   as stale (default 30, the same threshold the mtr_fleet
                   supervisor kills hung shards on)
  --help           this text
)";

[[noreturn]] void usage_error(const std::string& message) {
  throw std::runtime_error(message + "\n\n" + kUsage);
}

/// Compact %g for report tables; doubles in metrics files are exact
/// %.17g round-trips, but the report is for eyes, not diffing.
std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Exact rendering for --compare: a delta of 1 ulp must be visible.
std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    throw std::runtime_error("cannot read " + path);
  return std::move(buf).str();
}

void flatten_sketch(const char* name, const QuantileSketch& s, bool counter,
                    FlatMetrics& out) {
  auto& dst = counter ? out.counters : out.timings;
  const std::string base = std::string("sketches.") + name + ".";
  dst.emplace_back(base + "count", static_cast<double>(s.count()));
  dst.emplace_back(base + "zero", static_cast<double>(s.zero_count()));
  dst.emplace_back(base + "min", s.min());
  dst.emplace_back(base + "max", s.max());
  dst.emplace_back(base + "p50", s.quantile(0.50));
  dst.emplace_back(base + "p90", s.quantile(0.90));
  dst.emplace_back(base + "p99", s.quantile(0.99));
  dst.emplace_back(base + "p999", s.quantile(0.999));
}

}  // namespace

FlatMetrics flatten_metrics(const trace::SweepMetrics& m) {
  FlatMetrics out;
  out.counters.emplace_back("cells", static_cast<double>(m.cells));
  out.counters.emplace_back("runs", static_cast<double>(m.runs));
  m.kernel.for_each([&](const char* name, std::uint64_t v) {
    out.counters.emplace_back(std::string("kernel.") + name,
                              static_cast<double>(v));
  });
  m.telemetry.for_each_series([&](const char* name, const trace::TimeSeries& s) {
    const std::string base = std::string("series.") + name + ".";
    std::int64_t lo = 0, hi = 0, sum = 0;
    bool any = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const trace::SeriesBucket& b = s.bucket(i);
      if (b.count == 0) continue;
      lo = any ? std::min(lo, b.min) : b.min;
      hi = any ? std::max(hi, b.max) : b.max;
      sum += b.sum;
      any = true;
    }
    out.counters.emplace_back(base + "samples",
                              static_cast<double>(s.samples()));
    out.counters.emplace_back(base + "width", static_cast<double>(s.width()));
    out.counters.emplace_back(base + "min", static_cast<double>(lo));
    out.counters.emplace_back(base + "max", static_cast<double>(hi));
    out.counters.emplace_back(base + "sum", static_cast<double>(sum));
  });
  // cell_seconds holds wall-clock values: timing-class by construction.
  m.telemetry.for_each_sketch([&](const char* name, const QuantileSketch& s) {
    flatten_sketch(name, s, std::string_view(name) != "cell_seconds", out);
  });

  out.timings.emplace_back("cell_wall_seconds", m.cell_wall_seconds);
  out.timings.emplace_back("max_cell_seconds", m.max_cell_seconds);
  for (const trace::MetricEntry& e : m.phases.entries()) {
    out.timings.emplace_back("phases." + e.name + ".count",
                             static_cast<double>(e.count));
    out.timings.emplace_back("phases." + e.name + ".seconds", e.seconds);
  }
  out.timings.emplace_back("pool.threads", static_cast<double>(m.pool.threads));
  out.timings.emplace_back("pool.wall_seconds", m.pool.wall_seconds);
  for (std::size_t i = 0; i < m.pool.busy_seconds.size(); ++i)
    out.timings.emplace_back("pool.busy_seconds." + std::to_string(i),
                             m.pool.busy_seconds[i]);
  return out;
}

std::string render_sparkline(const trace::TimeSeries& s) {
  static constexpr char kRamp[] = " .:-=+*#%@";  // 10 levels, [0] unused
  std::string line;
  if (s.empty()) return line;
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const trace::SeriesBucket& b = s.bucket(i);
    if (b.count == 0) continue;
    const double avg =
        static_cast<double>(b.sum) / static_cast<double>(b.count);
    lo = any ? std::min(lo, avg) : avg;
    hi = any ? std::max(hi, avg) : avg;
    any = true;
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    const trace::SeriesBucket& b = s.bucket(i);
    if (b.count == 0) {
      line += ' ';
      continue;
    }
    if (hi == lo) {
      line += '=';  // flat series: any level is as honest as another
      continue;
    }
    const double avg =
        static_cast<double>(b.sum) / static_cast<double>(b.count);
    const double t = (avg - lo) / (hi - lo);
    const int level = 1 + static_cast<int>(t * 8.0 + 0.5);
    line += kRamp[std::clamp(level, 1, 9)];
  }
  return line;
}

void render_metrics_report(std::ostream& out, const MetricsFile& f) {
  out << "metrics: schema " << f.schema << ", " << f.shards << " shard(s), "
      << f.sweeps.size() << " sweep(s)\n";
  for (const trace::SweepMetrics& m : f.sweeps) {
    out << "\nsweep " << m.sweep << ": cells " << m.cells << ", runs "
        << m.runs << ", cell-wall " << fmt6(m.cell_wall_seconds)
        << "s (max cell " << fmt6(m.max_cell_seconds) << "s)\n";
    out << "  kernel counters:\n";
    m.kernel.for_each([&](const char* name, std::uint64_t v) {
      out << "    " << std::left << std::setw(22) << name << std::right << " "
          << v << "\n";
    });
    if (!m.phases.entries().empty()) {
      out << "  phases:\n";
      for (const trace::MetricEntry& e : m.phases.entries())
        out << "    " << std::left << std::setw(22) << e.name << std::right
            << " n=" << e.count << " " << fmt6(e.seconds) << "s\n";
    }
    if (m.pool.threads > 0) {
      out << "  pool: threads " << m.pool.threads << ", wall "
          << fmt6(m.pool.wall_seconds) << "s, busy";
      for (const double b : m.pool.busy_seconds) out << " " << fmt6(b);
      out << "\n";
    }
    out << "  sketches:\n    " << std::left << std::setw(14) << "name"
        << std::right << std::setw(8) << "count" << std::setw(13) << "min"
        << std::setw(13) << "p50" << std::setw(13) << "p90" << std::setw(13)
        << "p99" << std::setw(13) << "p999" << std::setw(13) << "max" << "\n";
    m.telemetry.for_each_sketch([&](const char* name,
                                    const QuantileSketch& s) {
      out << "    " << std::left << std::setw(14) << name << std::right;
      if (s.empty()) {
        out << std::setw(8) << 0 << "  (empty)\n";
        return;
      }
      out << std::setw(8) << s.count() << std::setw(13) << fmt6(s.min())
          << std::setw(13) << fmt6(s.quantile(0.50)) << std::setw(13)
          << fmt6(s.quantile(0.90)) << std::setw(13) << fmt6(s.quantile(0.99))
          << std::setw(13) << fmt6(s.quantile(0.999)) << std::setw(13)
          << fmt6(s.max()) << "\n";
    });
    out << "  series (bucket width in cycles; sparkline of bucket means):\n";
    m.telemetry.for_each_series([&](const char* name,
                                    const trace::TimeSeries& s) {
      out << "    " << std::left << std::setw(14) << name << std::right;
      if (s.empty()) {
        out << " (empty)\n";
        return;
      }
      std::int64_t lo = 0, hi = 0;
      bool any = false;
      for (std::size_t i = 0; i < s.size(); ++i) {
        const trace::SeriesBucket& b = s.bucket(i);
        if (b.count == 0) continue;
        lo = any ? std::min(lo, b.min) : b.min;
        hi = any ? std::max(hi, b.max) : b.max;
        any = true;
      }
      out << " " << s.samples() << " samples @" << s.width() << "  |"
          << render_sparkline(s) << "|  min " << lo << " max " << hi << "\n";
    });
  }
}

namespace {

// ---------------------------------------------------------------- compare

/// Ordered name -> value view of one flat list; first-file order wins in
/// the report, lookups go through the map.
std::map<std::string, double> by_name(const std::vector<FlatMetric>& v) {
  std::map<std::string, double> m;
  for (const FlatMetric& f : v) m.emplace(f.first, f.second);
  return m;
}

/// Diffs one class of metrics; prints every differing entry (and entries
/// present on only one side) as "label name: A -> B". Returns the number
/// of differences.
std::uint64_t diff_class(std::ostream& out, const char* label,
                         const std::vector<FlatMetric>& a,
                         const std::vector<FlatMetric>& b) {
  const std::map<std::string, double> bm = by_name(b);
  const std::map<std::string, double> am = by_name(a);
  std::uint64_t deltas = 0;
  for (const FlatMetric& fa : a) {
    const auto it = bm.find(fa.first);
    if (it == bm.end()) {
      out << "  " << label << " " << fa.first << ": " << fmt17(fa.second)
          << " -> (missing)\n";
      ++deltas;
    } else if (it->second != fa.second) {
      out << "  " << label << " " << fa.first << ": " << fmt17(fa.second)
          << " -> " << fmt17(it->second) << " (delta "
          << fmt17(it->second - fa.second) << ")\n";
      ++deltas;
    }
  }
  for (const FlatMetric& fb : b) {
    if (am.find(fb.first) != am.end()) continue;
    out << "  " << label << " " << fb.first << ": (missing) -> "
        << fmt17(fb.second) << "\n";
    ++deltas;
  }
  return deltas;
}

const trace::SweepMetrics* find_sweep(const MetricsFile& f,
                                      const std::string& name) {
  for (const trace::SweepMetrics& m : f.sweeps)
    if (m.sweep == name) return &m;
  return nullptr;
}

/// Mean of one series bucket, or nullopt when the bucket holds no samples
/// (or lies past the series' end — the shorter side of a length mismatch).
std::optional<double> bucket_mean(const trace::TimeSeries& s, std::size_t i) {
  if (i >= s.size() || s.bucket(i).count == 0) return std::nullopt;
  const trace::SeriesBucket& b = s.bucket(i);
  return static_cast<double>(b.sum) / static_cast<double>(b.count);
}

/// Side-by-side gauge-series sparklines for the two files, one block per
/// series, with a delta row underneath: ' ' where the bucket means agree,
/// '+' where B runs above A, '-' where it runs below, '!' where only one
/// side has samples. Informational only — the series aggregates already
/// compare in the counter class; this shows WHERE along the timeline two
/// runs diverge, not just that they do.
void render_series_comparison(std::ostream& out, const trace::SweepMetrics& ma,
                              const trace::SweepMetrics& mb) {
  std::vector<std::pair<const char*, const trace::TimeSeries*>> sa, sb;
  ma.telemetry.for_each_series(
      [&](const char* n, const trace::TimeSeries& s) { sa.emplace_back(n, &s); });
  mb.telemetry.for_each_series(
      [&](const char* n, const trace::TimeSeries& s) { sb.emplace_back(n, &s); });
  for (std::size_t k = 0; k < sa.size() && k < sb.size(); ++k) {
    const trace::TimeSeries& a = *sa[k].second;
    const trace::TimeSeries& b = *sb[k].second;
    if (a.empty() && b.empty()) continue;
    out << "  series " << sa[k].first << " (A " << a.samples() << " samples @"
        << a.width() << ", B " << b.samples() << " samples @" << b.width()
        << "):\n";
    out << "    A     |" << render_sparkline(a) << "|\n";
    out << "    B     |" << render_sparkline(b) << "|\n";
    std::string delta;
    std::uint64_t differing = 0;
    double max_gap = 0.0;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const std::optional<double> va = bucket_mean(a, i);
      const std::optional<double> vb = bucket_mean(b, i);
      if (!va && !vb) {
        delta += ' ';
      } else if (!va || !vb) {
        delta += '!';
        ++differing;
      } else if (*va == *vb) {
        delta += ' ';
      } else {
        delta += *vb > *va ? '+' : '-';
        max_gap = std::max(max_gap, std::abs(*vb - *va));
        ++differing;
      }
    }
    out << "    delta |" << delta << "|  ";
    if (differing == 0)
      out << "bucket means identical\n";
    else
      out << differing << " bucket(s) differ, max |mean delta| "
          << fmt6(max_gap) << "\n";
  }
}

// ------------------------------------------------------------ trace mode

int run_trace_summary(const InspectOptions& options, std::ostream& out) {
  const json::Value doc = [&] {
    try {
      return json::parse_document(read_file(options.trace_path));
    } catch (const std::exception& e) {
      throw std::runtime_error(options.trace_path + ": " + e.what());
    }
  }();
  const json::Value& other = json::get_object(doc, "otherData");
  const json::Value& events = json::get_array(doc, "traceEvents");

  std::uint64_t spans = 0, instants = 0, counters = 0, unknown = 0;
  std::map<std::string, std::uint64_t> counter_tracks;
  std::map<std::string, std::uint64_t> categories;
  for (const json::Value& ev : events.items) {
    const std::string ph = json::get_string(ev, "ph");
    if (ph == "X") {
      ++spans;
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
      ++counter_tracks[json::get_string(ev, "name")];
    } else {
      ++unknown;
    }
    if (const json::Value* cat = ev.find("cat"))
      ++categories[cat->kind == json::Value::Kind::kString ? cat->text : ""];
  }

  const std::uint64_t recorded = json::get_u64(other, "recorded");
  const std::uint64_t dropped = json::get_u64(other, "dropped");
  out << "trace " << options.trace_path << ": schema \""
      << json::get_string(other, "schema") << "\", recorded " << recorded
      << ", dropped " << dropped << ", cpu_hz "
      << json::get_u64(other, "cpu_hz") << ", timer_hz "
      << json::get_u64(other, "timer_hz") << "\n";
  out << "  events: " << events.items.size() << " total -- " << spans
      << " spans (X), " << instants << " instants (i), " << counters
      << " counter samples (C)";
  if (unknown > 0) out << ", " << unknown << " other";
  out << "\n";
  // Spans + instants must cover every surviving recorded event plus the
  // terminator instant; counter tracks ride on top of that budget.
  const std::uint64_t expect = recorded - dropped + 1;
  if (spans + instants == expect)
    out << "  event budget: spans + instants == recorded - dropped + 1\n";
  else
    out << "  event budget MISMATCH: spans + instants = " << spans + instants
        << ", recorded - dropped + 1 = " << expect << "\n";
  if (!counter_tracks.empty()) {
    out << "  counter tracks:\n";
    for (const auto& [name, n] : counter_tracks)
      out << "    " << std::left << std::setw(24) << name << std::right << " "
          << n << " sample(s)\n";
  }
  if (!categories.empty()) {
    out << "  categories:\n";
    for (const auto& [name, n] : categories)
      out << "    " << std::left << std::setw(24) << name << std::right << " "
          << n << " event(s)\n";
  }
  return 0;
}

// ------------------------------------------------------------ jsonl mode

struct CellGap {
  report::CellCoords coords;
  double billed = 0.0;
  double true_s = 0.0;
  double overcharge = 0.0;
  double gap = 0.0;
};

int run_top_cells(const InspectOptions& options, std::ostream& out) {
  const FileScan scan = scan_jsonl(options.jsonl_path);
  if (!scan.clean)
    out << "note: " << scan.tail_error << " (partial tail ignored)\n";
  std::vector<CellGap> cells;
  for (const CellBlock& b : scan.blocks) {
    if (!b.closed) continue;
    CellGap c;
    c.coords = b.coords;
    c.billed = b.aggregate.billed_seconds.mean();
    c.true_s = b.aggregate.true_seconds.mean();
    c.overcharge = b.aggregate.overcharge.mean();
    c.gap = c.billed - c.true_s;
    cells.push_back(std::move(c));
  }
  std::sort(cells.begin(), cells.end(), [](const CellGap& a, const CellGap& b) {
    if (a.gap != b.gap) return a.gap > b.gap;
    if (a.coords.sweep != b.coords.sweep) return a.coords.sweep < b.coords.sweep;
    return a.coords.cell_index < b.coords.cell_index;
  });
  const std::size_t n =
      std::min<std::size_t>(cells.size(), static_cast<std::size_t>(options.top));
  out << "top " << n << " of " << cells.size()
      << " cell(s) by billing gap (mean billed - true seconds):\n";
  out << "  " << std::right << std::setw(12) << "gap" << std::setw(12)
      << "billed" << std::setw(12) << "true" << std::setw(12) << "overchg"
      << "  cell\n";
  for (std::size_t i = 0; i < n; ++i) {
    const CellGap& c = cells[i];
    out << "  " << std::setw(12) << fmt6(c.gap) << std::setw(12)
        << fmt6(c.billed) << std::setw(12) << fmt6(c.true_s) << std::setw(12)
        << fmt6(c.overcharge) << "  " << c.coords.sweep << "#"
        << c.coords.cell_index << " attack=" << c.coords.attack
        << " sched=" << c.coords.scheduler << " hz=" << c.coords.hz << "\n";
  }
  return 0;
}

int run_status_report(const InspectOptions& options, std::ostream& out) {
  // A shard that died before its first heartbeat (or whose status file was
  // cleaned up) looks exactly like a stale one to a monitor: report STALE
  // and exit 1 rather than erroring, so polling scripts need one code path.
  if (!std::filesystem::exists(options.status_path)) {
    out << "heartbeat: " << options.status_path
        << " does not exist -- STALE\n";
    return 1;
  }
  const StatusSnapshot s = read_status_file(options.status_path);
  out << "status: sweep " << s.sweep << ", cell " << s.cells_done << "/"
      << s.cells_total << ", elapsed " << fmt6(s.elapsed_seconds) << "s";
  if (s.eta_seconds) out << ", eta " << fmt6(*s.eta_seconds) << "s";
  out << "\n";
  if (!s.worker_busy_fraction.empty()) {
    out << "workers:";
    for (const double f : s.worker_busy_fraction)
      out << " " << fmt6(f * 100.0) << "%";
    out << "\n";
  }
  const double threshold =
      options.stale_after > 0.0 ? options.stale_after : kDefaultStaleAfterSeconds;
  const std::optional<double> age = status_file_age_seconds(options.status_path);
  if (!age) {
    // read_status_file succeeded moments ago, so only a racing delete
    // lands here; treat it like a stale heartbeat.
    out << "heartbeat: file vanished -- STALE\n";
    return 1;
  }
  const bool stale = heartbeat_stale(*age, threshold);
  out << "heartbeat: " << fmt6(*age) << "s old (stale after "
      << fmt6(threshold) << "s) -- " << (stale ? "STALE" : "alive") << "\n";
  return stale ? 1 : 0;
}

}  // namespace

int compare_metrics(std::ostream& out, const std::string& name_a,
                    const MetricsFile& a, const std::string& name_b,
                    const MetricsFile& b) {
  out << "comparing " << name_a << " (schema " << a.schema << ", "
      << a.shards << " shard(s)) vs " << name_b << " (schema " << b.schema
      << ", " << b.shards << " shard(s)); shard counts are not compared\n";
  std::uint64_t counter_deltas = 0, timing_deltas = 0, compared = 0;

  std::vector<const trace::SweepMetrics*> order;
  for (const trace::SweepMetrics& m : a.sweeps) order.push_back(&m);
  for (const trace::SweepMetrics& m : b.sweeps)
    if (find_sweep(a, m.sweep) == nullptr) order.push_back(&m);

  for (const trace::SweepMetrics* m : order) {
    const trace::SweepMetrics* ma = find_sweep(a, m->sweep);
    const trace::SweepMetrics* mb = find_sweep(b, m->sweep);
    out << "sweep " << m->sweep << ":\n";
    if (ma == nullptr || mb == nullptr) {
      out << "  only in " << (ma != nullptr ? name_a : name_b) << "\n";
      ++counter_deltas;
      continue;
    }
    const FlatMetrics fa = flatten_metrics(*ma);
    const FlatMetrics fb = flatten_metrics(*mb);
    compared += fa.counters.size();
    const std::uint64_t c = diff_class(out, "counter", fa.counters, fb.counters);
    if (c == 0)
      out << "  counters: identical (" << fa.counters.size() << " compared)\n";
    counter_deltas += c;
    timing_deltas += diff_class(out, "timing", fa.timings, fb.timings);
    render_series_comparison(out, *ma, *mb);
  }
  out << "summary: " << counter_deltas << " counter delta(s), "
      << timing_deltas << " timing delta(s) across " << order.size()
      << " sweep(s)";
  if (counter_deltas == 0) out << " -- counters identical";
  out << "\n";
  return counter_deltas == 0 ? 0 : 1;
}

InspectOptions parse_inspect_args(int argc, const char* const* argv) {
  InspectOptions o;
  const auto value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    return argv[++i];
  };
  bool top_set = false;
  bool stale_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") o.help = true;
    else if (arg == "--metrics") o.metrics_path = value(i, arg);
    else if (arg == "--trace") o.trace_path = value(i, arg);
    else if (arg == "--jsonl") o.jsonl_path = value(i, arg);
    else if (arg == "--status-file") o.status_path = value(i, arg);
    else if (arg == "--compare") {
      o.compare.push_back(value(i, arg));
      o.compare.push_back(value(i, arg));
    } else if (arg == "--top") {
      const std::string v = value(i, arg);
      const std::optional<std::uint64_t> n = parse_u64(v);
      if (!n || *n == 0) usage_error("--top expects a positive integer, got '" + v + "'");
      o.top = *n;
      top_set = true;
    } else if (arg == "--stale-after") {
      const std::string v = value(i, arg);
      const std::optional<double> s = parse_f64(v);
      if (!s || *s <= 0.0)
        usage_error("--stale-after expects a positive number of seconds, "
                    "got '" + v + "'");
      o.stale_after = *s;
      stale_set = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (o.help) return o;
  const int modes = (o.metrics_path.empty() ? 0 : 1) +
                    (o.trace_path.empty() ? 0 : 1) +
                    (o.jsonl_path.empty() ? 0 : 1) + (o.compare.empty() ? 0 : 1) +
                    (o.status_path.empty() ? 0 : 1);
  if (modes != 1)
    usage_error(modes == 0 ? "no mode selected"
                           : "more than one mode selected");
  if (top_set && o.jsonl_path.empty())
    usage_error("--top only applies to --jsonl");
  if (stale_set && o.status_path.empty())
    usage_error("--stale-after only applies to --status-file");
  return o;
}

int run_inspect(const InspectOptions& options, std::ostream& out) {
  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (!options.metrics_path.empty()) {
    render_metrics_report(out, read_metrics_json(options.metrics_path));
    return 0;
  }
  if (!options.trace_path.empty()) return run_trace_summary(options, out);
  if (!options.jsonl_path.empty()) return run_top_cells(options, out);
  if (!options.status_path.empty()) return run_status_report(options, out);
  return compare_metrics(out, options.compare[0],
                         read_metrics_json(options.compare[0]),
                         options.compare[1],
                         read_metrics_json(options.compare[1]));
}

int inspect_main(int argc, const char* const* argv) {
  try {
    return run_inspect(parse_inspect_args(argc, argv), std::cout);
  } catch (const std::exception& e) {
    std::cerr << "mtr_inspect: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace mtr::dist
