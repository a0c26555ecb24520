#include "dist/driver.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/resume.hpp"
#include "dist/status.hpp"
#include "trace/metrics.hpp"

namespace mtr::dist {
namespace {

/// Swallows everything; backs SweepContext::out under --quiet/--dry-run.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
};

std::ostream& null_stream() {
  static NullBuffer buffer;
  static std::ostream os(&buffer);
  return os;
}

constexpr const char* kUsage =
    "usage: mtr_sweep [options] [sweep...]\n"
    "\n"
    "  --list             list registered sweeps and exit\n"
    "  --all              run every registered sweep\n"
    "  --csv PATH         append run records to one shared CSV file\n"
    "  --jsonl PATH       append run + cell records to one shared JSONL file\n"
    "  --out-dir DIR      write fresh <sweep>.csv and <sweep>.jsonl per sweep\n"
    "  --trace-dir DIR    record kernel event traces and write one\n"
    "                     Chrome/Perfetto trace-event JSON per cell (first\n"
    "                     replicate) into DIR; CSV/JSONL stay byte-identical\n"
    "  --metrics PATH     write sweep metrics (kernel counters, phase\n"
    "                     timers, pool utilization, telemetry series and\n"
    "                     quantile sketches) as schema-versioned JSON;\n"
    "                     shard files fold with mtr_merge --metrics. The\n"
    "                     file is republished (atomic rename) after every\n"
    "                     cell, one cell behind the records; --resume\n"
    "                     trusts only cells that snapshot covers and\n"
    "                     reruns the rest, so folded counters stay exact\n"
    "                     across crashes\n"
    "  --status-file PATH rewrite PATH (atomic rename) after every cell\n"
    "                     with a JSON heartbeat: cells done/total, elapsed,\n"
    "                     ETA, per-worker busy fractions\n"
    "  --threads N        worker threads of the run queue all selected\n"
    "                     sweeps share (default MTR_BENCH_THREADS)\n"
    "  --seeds N          replicate seeds per cell (default MTR_BENCH_SEEDS)\n"
    "  --first-seed S     first replicate seed (default 42)\n"
    "  --scale X          workload scale (default MTR_BENCH_SCALE)\n"
    "  --engine E         kernel step loop: 'event' (calendar queue) or\n"
    "                     'slice' (reference loop); default: the kernel's\n"
    "                     own setting. Either engine yields byte-identical\n"
    "                     CSV/JSONL artifacts — CI diffs the two\n"
    "  --shard I/N        run only the cells with global index % N == I\n"
    "                     (0-based); point each shard at its own output and\n"
    "                     stitch them with mtr_merge\n"
    "  --resume           scan the existing output, drop any partial tail a\n"
    "                     killed run left, and skip cells already complete\n"
    "  --dry-run          print the selected sweeps, cell counts, and shard\n"
    "                     ownership, then exit without running anything\n"
    "  --fault-inject S   arm a deterministic fault schedule (chaos tests):\n"
    "                     crash-after-cell=K,torn-tail=B,sigkill-after-ms=T,\n"
    "                     fail-flush-at=J — any subset. Overrides the\n"
    "                     MTR_FAULT_INJECT environment variable, which\n"
    "                     mtr_fleet uses to target one shard subprocess\n"
    "  --quiet            suppress the ASCII figure rendering and the\n"
    "                     per-cell progress lines (begin/finish summaries\n"
    "                     still print; --no-progress silences those too)\n"
    "  --no-progress      suppress the stderr progress/ETA lines\n"
    "  --help             print this message\n"
    "\n"
    "Sharded and resumed runs skip the ASCII rendering (their cell set is\n"
    "partial); the CSV/JSONL sinks plus mtr_merge are the output.\n"
    "\n"
    "env defaults: MTR_BENCH_SCALE, MTR_BENCH_SEEDS, MTR_BENCH_THREADS,\n"
    "MTR_BENCH_PROGRESS=0 disables progress.\n";

std::vector<std::uint64_t> consecutive_seeds(std::size_t n, std::uint64_t first) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = first + i;
  return seeds;
}

[[noreturn]] void bad_usage(const std::string& message) {
  throw std::runtime_error(message + "\n\n" + kUsage);
}

/// Strict full-match parse ("2x" is an error, unlike atof's silent 2.0);
/// the same mtr::parse_* helpers the record scanners use.
double parse_double_flag(std::string_view flag, const std::string& v) {
  const std::optional<double> x = parse_f64(v);
  if (!x) bad_usage(std::string(flag) + ": invalid number '" + v + "'");
  return *x;
}

long parse_long_flag(std::string_view flag, const std::string& v) {
  const std::optional<long> x = parse_number<long>(v);
  if (!x) bad_usage(std::string(flag) + ": invalid integer '" + v + "'");
  return *x;
}

void create_parent_dirs(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
}

/// Publishes a metrics document the same way the status heartbeat is
/// published: temp file + atomic rename, so a reader (or a resume after a
/// kill) sees a complete document or nothing — never a torn prefix.
void publish_metrics_file(const std::string& path,
                          const std::vector<trace::SweepMetrics>& sweeps) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open metrics file: " + tmp);
    trace::write_metrics_json(out, sweeps, /*shards=*/1);
    out.flush();
    if (!out) throw std::runtime_error("cannot write metrics file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("cannot publish metrics file " + path + ": " +
                             ec.message());
}

}  // namespace

SweepOptions default_sweep_options() {
  SweepOptions o;
  // Empty counts as unset; garbage is rejected with the same strictness as
  // the flags — a typo'd env var in a cluster launch script must not
  // silently run the wrong grid.
  const auto env = [](const char* name) -> const char* {
    const char* s = std::getenv(name);
    return s != nullptr && *s != '\0' ? s : nullptr;
  };
  if (const char* s = env("MTR_BENCH_SCALE")) {
    const double v = parse_double_flag("MTR_BENCH_SCALE", s);
    if (v <= 0.0) bad_usage("MTR_BENCH_SCALE must be > 0");
    o.scale = v;
  }
  std::size_t n_seeds = 3;
  if (const char* s = env("MTR_BENCH_SEEDS")) {
    const long v = parse_long_flag("MTR_BENCH_SEEDS", s);
    if (v <= 0) bad_usage("MTR_BENCH_SEEDS must be >= 1");
    n_seeds = static_cast<std::size_t>(v);
  }
  o.seeds = consecutive_seeds(n_seeds, 42);
  if (const char* s = env("MTR_BENCH_THREADS")) {
    const long v = parse_long_flag("MTR_BENCH_THREADS", s);
    if (v <= 0) bad_usage("MTR_BENCH_THREADS must be >= 1");
    o.threads = static_cast<unsigned>(v);
  }
  if (const char* s = env("MTR_BENCH_PROGRESS"))
    o.progress = std::string_view(s) != "0";
  if (const char* s = env("MTR_FAULT_INJECT")) o.fault = parse_fault_plan(s);
  return o;
}

SweepOptions parse_sweep_args(int argc, const char* const* argv) {
  SweepOptions o = default_sweep_options();
  std::size_t n_seeds = o.seeds.size();
  std::uint64_t first_seed = o.seeds.empty() ? 42 : o.seeds.front();

  const auto value = [&](int& i, std::string_view flag) -> std::string {
    if (i + 1 >= argc) bad_usage(std::string(flag) + " requires a value");
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") o.help = true;
    else if (arg == "--list") o.list = true;
    else if (arg == "--all") o.all = true;
    else if (arg == "--quiet") o.quiet = true;
    else if (arg == "--no-progress") o.progress = false;
    else if (arg == "--dry-run") o.dry_run = true;
    else if (arg == "--resume") o.resume = true;
    else if (arg == "--shard") {
      o.shard = parse_shard_spec(value(i, arg));
    } else if (arg == "--csv") o.csv_path = value(i, arg);
    else if (arg == "--jsonl") o.jsonl_path = value(i, arg);
    else if (arg == "--out-dir") o.out_dir = value(i, arg);
    else if (arg == "--trace-dir") o.trace_dir = value(i, arg);
    else if (arg == "--metrics") o.metrics_path = value(i, arg);
    else if (arg == "--status-file") o.status_file = value(i, arg);
    else if (arg == "--scale") {
      const double v = parse_double_flag(arg, value(i, arg));
      if (v <= 0.0) bad_usage("--scale must be > 0");
      o.scale = v;
    } else if (arg == "--fault-inject") {
      o.fault = parse_fault_plan(value(i, arg));
    } else if (arg == "--engine") {
      const std::string v = value(i, arg);
      if (v == "event") o.event_driven = true;
      else if (v == "slice") o.event_driven = false;
      else bad_usage("--engine must be 'event' or 'slice', got '" + v + "'");
    } else if (arg == "--seeds") {
      const long v = parse_long_flag(arg, value(i, arg));
      if (v <= 0) bad_usage("--seeds must be >= 1");
      n_seeds = static_cast<std::size_t>(v);
    } else if (arg == "--first-seed") {
      // strtoull would accept (and negate) a leading '-'; require digits.
      const std::optional<std::uint64_t> v = parse_u64(value(i, arg));
      if (!v) bad_usage("--first-seed must be a non-negative integer");
      first_seed = *v;
    } else if (arg == "--threads") {
      const long v = parse_long_flag(arg, value(i, arg));
      if (v <= 0) bad_usage("--threads must be >= 1");
      o.threads = static_cast<unsigned>(v);
    } else if (!arg.empty() && arg.front() == '-') {
      bad_usage("unknown flag: " + std::string(arg));
    } else {
      o.sweeps.emplace_back(arg);
    }
  }
  o.seeds = consecutive_seeds(n_seeds, first_seed);
  return o;
}

int run_sweeps(const report::SweepRegistry& registry, const SweepOptions& options,
               std::ostream& out, std::ostream& err) {
  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (options.list) {
    for (const report::SweepSpec& s : registry.specs())
      out << s.name << "  " << s.title << '\n';
    return 0;
  }

  std::vector<const report::SweepSpec*> selected;
  if (options.all && !options.sweeps.empty()) {
    err << "mtr_sweep: --all conflicts with naming sweeps — pick one\n";
    return 2;
  }
  if (options.all) {
    for (const report::SweepSpec& s : registry.specs()) selected.push_back(&s);
  } else {
    for (const std::string& name : options.sweeps) {
      const report::SweepSpec* spec = registry.find(name);
      if (spec == nullptr) {
        err << "mtr_sweep: unknown sweep '" << name << "' (try --list)\n";
        return 2;
      }
      selected.push_back(spec);
    }
  }
  if (selected.empty()) {
    err << "mtr_sweep: nothing selected — name sweeps, or pass --all / --list\n";
    return 2;
  }

  const bool shared_sinks = !options.csv_path.empty() || !options.jsonl_path.empty();
  if (options.resume && !shared_sinks && options.out_dir.empty()) {
    err << "mtr_sweep: --resume needs output to resume from — pass --csv, "
           "--jsonl, or --out-dir\n";
    return 2;
  }
  if (options.resume && shared_sinks && !options.out_dir.empty()) {
    err << "mtr_sweep: --resume supports either --csv/--jsonl or --out-dir, "
           "not both at once\n";
    return 2;
  }

  if (!options.dry_run) {
    if (!options.out_dir.empty())
      std::filesystem::create_directories(options.out_dir);
    if (!options.csv_path.empty()) create_parent_dirs(options.csv_path);
    if (!options.jsonl_path.empty()) create_parent_dirs(options.jsonl_path);
    if (!options.trace_dir.empty())
      std::filesystem::create_directories(options.trace_dir);
    if (!options.metrics_path.empty()) create_parent_dirs(options.metrics_path);
    if (!options.status_file.empty()) create_parent_dirs(options.status_file);
  }

  const bool want_metrics = !options.metrics_path.empty() && !options.dry_run;

  // The armed fault schedule (inert when --fault-inject/MTR_FAULT_INJECT is
  // absent, and under --dry-run, which opens no sinks to tear).
  FaultInjector injector(options.dry_run ? FaultPlan{} : options.fault);
  injector.arm_sigkill();
  std::optional<report::ScopedSinkFlushHook> flush_hook;
  if (injector.has_flush_fault())
    flush_hook.emplace(
        [&injector](const char* kind) { injector.on_sink_flush(kind); });

  // Crash-consistent metrics resume: the per-cell snapshot published below
  // is the source of truth for which cells' counters are already folded.
  // Completed record cells beyond its coverage roll back and rerun (the
  // records come out byte-identical either way; the counters fold once).
  MetricsFile metrics_base;
  bool have_metrics_base = false;
  if (want_metrics && options.resume &&
      std::filesystem::exists(options.metrics_path)) {
    metrics_base = read_metrics_json(options.metrics_path);
    have_metrics_base = true;
  }
  const auto base_for =
      [&](const std::string& name) -> const trace::SweepMetrics* {
    if (!have_metrics_base) return nullptr;
    for (const trace::SweepMetrics& m : metrics_base.sweeps)
      if (m.sweep == name) return &m;
    return nullptr;
  };

  // One resume index for shared files (they span every selected sweep);
  // out-dir files are per sweep and get their own index inside the loop.
  ResumeIndex shared_resume;
  if (options.resume && shared_sinks) {
    std::optional<std::uint64_t> cap;
    if (want_metrics) {
      std::uint64_t covered = 0;
      for (const trace::SweepMetrics& m : metrics_base.sweeps)
        covered += m.cells;
      cap = covered;
    }
    shared_resume = ResumeIndex::scan(options.csv_path, options.jsonl_path,
                                      options.seeds, cap);
    if (shared_resume.metrics_overrun()) {
      err << "mtr_sweep: resume: metrics snapshot is ahead of the records — "
             "rerunning everything against a fresh fold\n";
      have_metrics_base = false;
      metrics_base = MetricsFile{};
    }
    if (!options.dry_run) shared_resume.truncate_files();
    err << "mtr_sweep: resume: " << shared_resume.size()
        << " cell(s) already complete\n";
  }

  // The invocation-global cell counter every grid claims its index range
  // from — the ordinal that makes shard outputs mergeable.
  std::size_t cell_cursor = 0;
  std::size_t owned_cursor = 0;
  const bool partial =
      options.dry_run || options.shard.sharded() || options.resume;

  report::NullSink null_sink;
  report::ProgressReporter progress(err, options.progress && !options.dry_run);
  // --quiet keeps the begin/finish summary lines (and the resume notes
  // above, which print directly to `err`) but drops the line-per-cell
  // stream.
  if (options.quiet) progress.set_per_cell(false);

  // What the plan pass learns about each sweep and the replay uses. Sized
  // once: the gates point into it.
  struct SweepState {
    std::string dir_csv, dir_jsonl;  // --out-dir files
    ResumeIndex own_resume;          // --out-dir resume index
    const ResumeIndex* resume = nullptr;
    trace::SweepMetrics metrics;
  };
  std::vector<SweepState> states(selected.size());

  // One run queue for the whole invocation. The plan pass walks every body
  // once, the way --dry-run does, and submits each admitted grid, so the
  // workers start at once and run straight across grid and sweep
  // boundaries; the replay pass below drains the grids in plan order and
  // writes every output exactly as a grid-at-a-time run would. --dry-run
  // plans only and starts no worker.
  std::optional<report::GridPlan> queue;
  if (!options.dry_run) queue.emplace(options.threads);

  // Plan pass. A failure here is deferred to the replay, which writes
  // every sweep before the failing one and rethrows at the same point.
  std::size_t planned = 0;  // sweeps planned in full
  bool failed_in_body = false;
  for (; planned < selected.size(); ++planned) {
    const report::SweepSpec* spec = selected[planned];
    SweepState& st = states[planned];
    try {
      const std::filesystem::path dir(options.out_dir);
      if (!options.out_dir.empty()) {
        st.dir_csv = (dir / (spec->name + ".csv")).string();
        st.dir_jsonl = (dir / (spec->name + ".jsonl")).string();
      }
      if (options.resume && shared_sinks) {
        st.resume = &shared_resume;
      } else if (options.resume) {
        std::optional<std::uint64_t> cap;
        if (want_metrics) {
          const trace::SweepMetrics* base = base_for(spec->name);
          cap = base != nullptr ? base->cells : 0;
        }
        st.own_resume =
            ResumeIndex::scan(st.dir_csv, st.dir_jsonl, options.seeds, cap);
        if (st.own_resume.metrics_overrun())
          err << "mtr_sweep: resume: " << spec->name
              << ": metrics snapshot is ahead of the records — rerunning "
                 "against a fresh fold\n";
        if (!options.dry_run) st.own_resume.truncate_files();
        if (st.own_resume.size() > 0)
          err << "mtr_sweep: resume: " << spec->name << ": "
              << st.own_resume.size() << " cell(s) already complete\n";
        st.resume = &st.own_resume;
      }

      report::SweepContext ctx;
      ctx.scale = options.scale;
      ctx.seeds = options.seeds;
      ctx.event_driven = options.event_driven;
      ctx.sink = &null_sink;
      ctx.out = &null_stream();
      ctx.cell_cursor = &cell_cursor;
      ctx.owned_cursor = &owned_cursor;
      ctx.dry_run = options.dry_run;
      ctx.partial = true;  // a plan renders nothing
      ctx.plan = options.dry_run ? &out : nullptr;
      ctx.trace_dir = options.dry_run ? std::string() : options.trace_dir;
      // Only read for "collect kernel counters"; the replay folds into it.
      ctx.metrics = want_metrics ? &st.metrics : nullptr;
      ctx.queue = queue ? &*queue : nullptr;
      if (options.shard.sharded() || st.resume != nullptr) {
        const ShardSpec shard = options.shard;
        ctx.gate = [shard, resume = st.resume](const report::GridCellInfo& cell) {
          if (!shard.owns(cell.cell_index)) return false;
          if (resume != nullptr && resume->completed(cell)) return false;
          return true;
        };
      }
      failed_in_body = true;
      spec->run(ctx);
      failed_in_body = false;
    } catch (...) {
      if (!queue) throw;
      queue->plan_error = std::current_exception();
      break;
    }
  }

  std::vector<trace::SweepMetrics> all_metrics;
  if (queue) {
    queue->replaying = true;
    cell_cursor = 0;  // the replay claims the same ranges again
  }
  const std::size_t n_replay =
      !queue ? 0 : std::min(selected.size(), planned + 1);
  for (std::size_t i = 0; i < n_replay; ++i) {
    const report::SweepSpec* spec = selected[i];
    SweepState& st = states[i];
    const bool plan_failed_here = i == planned;
    if (plan_failed_here && !failed_in_body)
      std::rethrow_exception(queue->plan_error);

    // The shared --csv/--jsonl files are opened in append mode per sweep:
    // the first writer lays down the CSV header, later ones just extend
    // the table. --out-dir files are per sweep and start fresh — except
    // under --resume, where the kept prefix is appended to.
    report::MultiSink multi;
    if (!options.csv_path.empty())
      multi.add(std::make_unique<report::CsvSink>(options.csv_path,
                                                  report::OpenMode::kAppend));
    if (!options.jsonl_path.empty())
      multi.add(std::make_unique<report::JsonlSink>(options.jsonl_path,
                                                    report::OpenMode::kAppend));
    if (!options.out_dir.empty()) {
      const report::OpenMode mode = options.resume ? report::OpenMode::kAppend
                                                   : report::OpenMode::kTruncate;
      multi.add(std::make_unique<report::CsvSink>(st.dir_csv, mode));
      multi.add(std::make_unique<report::JsonlSink>(st.dir_jsonl, mode));
    }
    if (injector.active()) {
      std::vector<std::string> fault_files;
      if (!options.csv_path.empty()) fault_files.push_back(options.csv_path);
      if (!options.jsonl_path.empty()) fault_files.push_back(options.jsonl_path);
      if (!st.dir_csv.empty()) fault_files.push_back(st.dir_csv);
      if (!st.dir_jsonl.empty()) fault_files.push_back(st.dir_jsonl);
      injector.set_active_files(std::move(fault_files));
      // crash-after-cell=0 tears down right here, leaving the freshly
      // opened (possibly zero-byte) sink files for resume to classify.
      if (i == 0) injector.on_sinks_open();
    }

    // The grids were configured and gated when planned; the replay only
    // drains and writes them.
    report::SweepContext ctx;
    ctx.scale = options.scale;
    ctx.seeds = options.seeds;
    ctx.sink = multi.empty() ? static_cast<report::ResultSink*>(&null_sink) : &multi;
    ctx.progress = &progress;
    ctx.out = options.quiet ? &null_stream() : &out;
    ctx.cell_cursor = &cell_cursor;
    ctx.partial = partial;
    ctx.queue = &*queue;
    trace::SweepMetrics& sweep_metrics = st.metrics;
    sweep_metrics.sweep = spec->name;
    if (want_metrics && st.resume != nullptr && !st.resume->metrics_overrun()) {
      // Seed the fold with the counters the snapshot already covers; the
      // gate skipped exactly those cells, so each cell folds exactly once.
      if (const trace::SweepMetrics* base = base_for(spec->name))
        sweep_metrics = *base;
    }
    ctx.metrics = want_metrics ? &sweep_metrics : nullptr;

    // The crash-consistent metrics republish. Deliberately one cell
    // behind: it snapshots the fold as it stood BEFORE the cell that
    // triggered the observer, and publishes before the status heartbeat
    // and before any injected crash fires. A kill at any instant
    // therefore leaves on-disk coverage ≤ the clean record prefix, which
    // is exactly what ResumeIndex::scan's metrics_cells cap assumes.
    std::function<void(const core::CellEvent&)> metrics_observer;
    if (want_metrics) {
      auto published = std::make_shared<trace::SweepMetrics>(sweep_metrics);
      metrics_observer = [path = options.metrics_path, &all_metrics, published,
                          current = &sweep_metrics](const core::CellEvent&) {
        std::vector<trace::SweepMetrics> snapshot = all_metrics;
        if (published->cells > 0) snapshot.push_back(*published);
        publish_metrics_file(path, snapshot);
        *published = *current;
      };
    }

    std::function<void(const core::CellEvent&)> status_observer;
    if (!options.status_file.empty()) {
      // The observer runs after the progress fold, so done() already
      // counts the cell that triggered it.
      status_observer = [path = options.status_file, prog = &progress,
                         sweep = spec->name](const core::CellEvent& ev) {
        StatusSnapshot s;
        s.sweep = sweep;
        s.cells_done = prog->done();
        s.cells_total = prog->total();
        s.elapsed_seconds = prog->elapsed_seconds();
        s.eta_seconds = report::eta_seconds(
            s.elapsed_seconds, s.cells_done,
            s.cells_total > s.cells_done ? s.cells_total - s.cells_done : 0);
        if (ev.worker_busy != nullptr && ev.pool_elapsed_seconds > 0.0) {
          s.worker_busy_fraction.reserve(ev.worker_busy->size());
          for (const double b : *ev.worker_busy)
            s.worker_busy_fraction.push_back(b / ev.pool_elapsed_seconds);
        }
        write_status_file(path, s);
      };
    }
    if (metrics_observer || status_observer || injector.active()) {
      // Order is the crash-consistency contract: metrics snapshot first,
      // heartbeat second, injected crash last — a real kill can land
      // between any two and resume still reconstructs exactly.
      ctx.observer = [metrics_observer, status_observer,
                      inj = &injector](const core::CellEvent& ev) {
        if (metrics_observer) metrics_observer(ev);
        if (status_observer) status_observer(ev);
        inj->on_cell_complete();
      };
    }
    if (want_metrics) {
      const trace::ScopeTimer timer(sweep_metrics.phases, "sweep");
      spec->run(ctx);
    } else {
      spec->run(ctx);
    }
    // The body stopped short of the grid whose planning failed.
    if (plan_failed_here) std::rethrow_exception(queue->plan_error);
    progress.finish();
    if (want_metrics) all_metrics.push_back(std::move(sweep_metrics));
  }

  if (want_metrics) {
    try {
      publish_metrics_file(options.metrics_path, all_metrics);
    } catch (const std::exception& e) {
      err << "mtr_sweep: " << e.what() << '\n';
      return 1;
    }
  }

  if (options.dry_run) {
    out << "dry run: " << selected.size() << " sweep(s), " << cell_cursor
        << " cell(s)";
    if (options.shard.sharded())
      out << "; shard " << to_string(options.shard) << " runs " << owned_cursor;
    else if (options.resume)
      out << "; " << owned_cursor << " left to run";
    out << '\n';
  }
  return 0;
}

int sweep_main(const report::SweepRegistry& registry, int argc,
               const char* const* argv) {
  try {
    return run_sweeps(registry, parse_sweep_args(argc, argv), std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "mtr_sweep: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace mtr::dist
