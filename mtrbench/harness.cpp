// mtr_bench_harness — the benchmark's traced run.
//
// Runs the same sweeps `mtr_sweep --out-dir` runs, in-process, and records a
// span around every call it makes into a layer: the SweepRegistry spec body,
// SweepContext::run_grid (opened by a timing gate, closed by a timing
// observer), every CsvSink/JsonlSink write, direct probes of
// workloads::generate_population, sim::Simulation construction,
// mm::MemoryManager and crypto::Sha256, and the dist scan, merge, metrics
// fold and resume-scan entry points. The sweep outputs are byte-identical to
// mtr_sweep's (run.py checks that). Spans stay in memory and are written at
// exit as Chrome trace-event JSON; the raw layer numbers go to stdout as one
// JSON object. No span lives inside the program itself.
//
//   mtr_bench_harness --out-dir D --merge-dir M --trace-json T.json
//       --run-id roster/42 --scale 0.05 --seeds 2 --first-seed 42
//       --threads 4 [--shard-dir S]... (--all | SWEEP...)
//
// Without --shard-dir the dist phase reads the harness's own output in D as a
// single shard.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/sweeps.hpp"
#include "common/parse.hpp"
#include "core/experiment.hpp"
#include "core/trusted_metering.hpp"
#include "crypto/sha256.hpp"
#include "dist/merge.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/resume.hpp"
#include "mm/memory_manager.hpp"
#include "report/result_sink.hpp"
#include "report/sweep.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics.hpp"
#include "workloads/population.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mtr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span store. Worker threads record sink writes into it, so every
/// access is under one mutex; spans are few enough (one per sink write) that
/// the lock is not what the trace measures.
class Spans {
 public:
  explicit Spans(std::string run_id) : run_id_(std::move(run_id)) {}

  std::uint64_t open(std::string name, std::string cat, std::uint64_t parent) {
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), std::move(cat), now, -1, parent, tid()});
    return spans_.size();  // ids are 1-based; 0 means "no parent"
  }

  void close(std::uint64_t id) {
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end_ns = now;
  }

  /// Chrome trace-event JSON (loads in ui.perfetto.dev and chrome://tracing).
  void write_chrome_json(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << std::fixed << std::setprecision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
         << s.cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
         << ",\"ts\":" << s.start_ns / 1e3 << ",\"dur\":" << (end - s.start_ns) / 1e3
         << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
         << ",\"run\":\"" << run_id_ << "\"}}";
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("short write to " + path);
  }

 private:
  struct Span {
    std::string name, cat;
    std::int64_t start_ns, end_ns;
    std::uint64_t parent;
    int tid;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  static int tid() {
    static std::atomic<int> next{1};
    thread_local const int mine = next++;
    return mine;
  }

  const Clock::time_point origin_ = Clock::now();
  const std::string run_id_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::string cat, std::uint64_t parent)
      : spans_(spans), id_(spans.open(std::move(name), std::move(cat), parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint64_t id_;
};

/// Times every write_cell of the sink it wraps and records it as a span under
/// the grid that produced the cell. Calls arrive under the runner's emission
/// lock, so the counters need no lock of their own.
class TimedSink final : public report::ResultSink {
 public:
  TimedSink(std::unique_ptr<report::ResultSink> inner, std::string span_name,
            Spans& spans, const std::uint64_t& parent, double& seconds)
      : inner_(std::move(inner)), name_(std::move(span_name)), spans_(spans),
        parent_(parent), seconds_(seconds) {}

  void write_cell(const std::string& sweep, const core::CellStats& cell) override {
    const Clock::time_point t0 = Clock::now();
    {
      const Scope span(spans_, name_, "report", parent_);
      inner_->write_cell(sweep, cell);
    }
    seconds_ += seconds_since(t0);
  }

 private:
  std::unique_ptr<report::ResultSink> inner_;
  std::string name_;
  Spans& spans_;
  const std::uint64_t& parent_;
  double& seconds_;
};

struct Options {
  std::string out_dir, merge_dir, trace_json, run_id = "run";
  double scale = 0.25;
  std::size_t n_seeds = 1;
  std::uint64_t first_seed = 42;
  unsigned threads = 1;
  bool all = false;
  std::vector<std::string> sweeps, shard_dirs;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " requires a value");
      return argv[++i];
    };
    const auto number = [&]() -> std::uint64_t {
      const std::string v = value();
      const std::optional<std::uint64_t> n = parse_u64(v);
      if (!n) throw std::runtime_error(arg + ": invalid integer '" + v + "'");
      return *n;
    };
    if (arg == "--out-dir") o.out_dir = value();
    else if (arg == "--merge-dir") o.merge_dir = value();
    else if (arg == "--trace-json") o.trace_json = value();
    else if (arg == "--run-id") o.run_id = value();
    else if (arg == "--shard-dir") o.shard_dirs.push_back(value());
    else if (arg == "--scale") o.scale = std::stod(value());
    else if (arg == "--seeds") o.n_seeds = number();
    else if (arg == "--first-seed") o.first_seed = number();
    else if (arg == "--threads") o.threads = static_cast<unsigned>(number());
    else if (arg == "--all") o.all = true;
    else if (!arg.empty() && arg[0] == '-') throw std::runtime_error("unknown flag " + arg);
    else o.sweeps.push_back(arg);
  }
  if (o.out_dir.empty() || o.merge_dir.empty() || o.trace_json.empty())
    throw std::runtime_error("--out-dir, --merge-dir and --trace-json are required");
  if (o.all == !o.sweeps.empty()) throw std::runtime_error("pass --all or sweep names");
  if (o.n_seeds == 0 || o.threads == 0 || !(o.scale > 0.0))
    throw std::runtime_error("--seeds, --threads and --scale must be positive");
  return o;
}

class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
};

/// What the observer learns from every completed cell.
struct CellLog {
  std::vector<double> cell_seconds;
  std::uint64_t runs = 0, witness_steps = 0, minor_faults = 0, major_faults = 0;
  double sim_seconds = 0.0;
  std::map<std::uint32_t, std::uint64_t> ram_frames;  // frames -> cells
  /// (population spec, grid seed) of every population run.
  std::vector<std::pair<workloads::PopulationSpec, std::uint64_t>> populations;
};

// ---- layer probes: direct calls into one layer's public functions ----------

/// SHA-256 throughput over a deterministic buffer, in MB/s.
double probe_sha256(Spans& spans, std::uint64_t parent) {
  std::vector<std::uint8_t> buf(4u << 20);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  constexpr int kPasses = 8;
  const Scope span(spans, "crypto.sha256", "crypto", parent);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPasses; ++i) {
    crypto::Sha256 h;
    h.update(buf.data(), buf.size());
    buf[0] ^= h.finish().bytes[0];  // each pass hashes different bytes
  }
  return kPasses * (buf.size() / 1e6) / seconds_since(t0);
}

/// One fork-storm child's address-space lifetime — create, touch a handful of
/// pages, destroy — beside a resident parent, at `frames` of RAM. Returns
/// microseconds per child.
double probe_destroy_space(Spans& spans, std::uint64_t parent, std::uint32_t frames) {
  mm::MemoryManager mm(frames, 256);
  const Tgid owner{1};
  mm.create_space(owner);
  for (std::uint64_t p = 0; p < std::min<std::uint32_t>(frames / 4, 2048); ++p)
    mm.touch(owner, PageId{p});
  constexpr int kChildren = 2000;
  const Scope span(spans, "mm.destroy_space", "mm", parent);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kChildren; ++i) {
    const Tgid child{1000 + i};
    mm.create_space(child);
    for (std::uint64_t p = 0; p < 4; ++p) mm.touch(child, PageId{p});
    mm.destroy_space(child);
  }
  return seconds_since(t0) * 1e6 / kChildren;
}

/// The fault and reclaim path at abl_ramsize's RAM sizes: one space cycling
/// through 1.5x RAM (Fig. 11's hog), two passes. Returns ns per touch.
double probe_touch_fault(Spans& spans, std::uint64_t parent) {
  const Scope span(spans, "mm.touch_fault", "mm", parent);
  std::uint64_t touches = 0;
  double seconds = 0.0;
  for (const auto& [frames, batch] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {4 * 1024, 64}, {8 * 1024, 128}, {16 * 1024, 256}}) {
    mm::MemoryManager mm(frames, batch);
    const Tgid owner{1};
    mm.create_space(owner);
    const std::uint64_t pages = frames + frames / 2;
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < 2; ++pass)
      for (std::uint64_t p = 0; p < pages; ++p) mm.touch(owner, PageId{p});
    seconds += seconds_since(t0);
    touches += 2 * pages;
  }
  return seconds * 1e9 / static_cast<double>(touches);
}

/// Simulation construction plus metering-service attach, as run_experiment
/// does it before every run. Returns microseconds per construction.
double probe_construct(Spans& spans, std::uint64_t parent) {
  constexpr int kBuilds = 200;
  const Scope span(spans, "sim.construct", "sim", parent);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kBuilds; ++i) {
    const sim::SimConfig config;
    sim::Simulation sim(config);
    core::TrustedMeteringService service(core::Tariff{}, config.kernel.cpu,
                                         config.kernel.hz);
    for (auto& tag : core::expected_code_tags(workloads::WorkloadKind::kWhetstone))
      service.allow_code(std::move(tag));
    service.attach(sim.kernel());
  }
  return seconds_since(t0) * 1e6 / kBuilds;
}

struct PopulationProbe {
  double seconds = 0.0;
  std::uint64_t tenants = 0;
};

/// Regenerates the population of every population run the sweeps made. A
/// workload without population cells generates pop_billing_gap's largest
/// shape per run instead, so the generator is always measured.
PopulationProbe probe_population(Spans& spans, std::uint64_t parent,
                                 const CellLog& log) {
  std::vector<std::pair<workloads::PopulationSpec, std::uint64_t>> todo =
      log.populations;
  if (todo.empty()) {
    workloads::PopulationSpec spec;
    spec.size = 32;
    spec.attacker_fraction = 0.25;
    for (std::uint64_t i = 0; i < std::max<std::uint64_t>(log.runs, 1); ++i)
      todo.emplace_back(spec, i);
  }
  // One pass is microseconds on small workloads; repeat it until the clock
  // can resolve it and report the time of one pass.
  PopulationProbe out;
  const Scope span(spans, "workloads.generate_population", "workloads", parent);
  const Clock::time_point t0 = Clock::now();
  std::uint64_t passes = 0;
  do {
    out.tenants = 0;
    for (const auto& [spec, seed] : todo)
      out.tenants += workloads::generate_population(spec, seed).size();
    ++passes;
  } while (seconds_since(t0) < 0.02);
  out.seconds = seconds_since(t0) / static_cast<double>(passes);
  return out;
}

// ---- dist phase ------------------------------------------------------------

struct DistTotals {
  double scan_s = 0.0, merge_s = 0.0, fold_s = 0.0, resume_s = 0.0;
  std::uint64_t scan_bytes = 0, records = 0;
};

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os << bytes;
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

void dist_phase(const Options& o, const std::vector<std::string>& sweeps,
                const std::vector<std::uint64_t>& seeds,
                const std::vector<trace::SweepMetrics>& own, Spans& spans,
                std::uint64_t parent, DistTotals& t) {
  const std::vector<std::string> shards =
      o.shard_dirs.empty() ? std::vector<std::string>{o.out_dir} : o.shard_dirs;
  fs::create_directories(o.merge_dir);
  for (const std::string& sweep : sweeps) {
    std::vector<std::string> csvs, jsonls;
    for (const std::string& dir : shards) {
      csvs.push_back((fs::path(dir) / (sweep + ".csv")).string());
      jsonls.push_back((fs::path(dir) / (sweep + ".jsonl")).string());
    }
    std::vector<std::size_t> shard_cells;
    {
      const Scope span(spans, "dist.scan", "dist", parent);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const dist::FileScan c = dist::scan_csv(csvs[i]);
        const dist::FileScan j = dist::scan_jsonl(jsonls[i]);
        if (!c.clean || !j.clean)
          throw std::runtime_error("scan: malformed tail in " + shards[i] + "/" + sweep);
        for (const dist::CellBlock& b : c.blocks) t.records += b.run_lines.size();
        for (const dist::CellBlock& b : j.blocks) t.records += b.run_lines.size();
        shard_cells.push_back(j.blocks.size());
        t.scan_bytes += fs::file_size(csvs[i]) + fs::file_size(jsonls[i]);
      }
      t.scan_s += seconds_since(t0);
    }
    std::string csv, jsonl;
    {
      const Scope span(spans, "dist.merge", "dist", parent);
      const Clock::time_point t0 = Clock::now();
      csv = dist::merge_csv(csvs);
      jsonl = dist::merge_jsonl(jsonls);
      t.merge_s += seconds_since(t0);
    }
    write_file(fs::path(o.merge_dir) / (sweep + ".csv"), csv);
    write_file(fs::path(o.merge_dir) / (sweep + ".jsonl"), jsonl);
    {
      const Scope span(spans, "dist.resume_scan", "dist", parent);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const dist::ResumeIndex index = dist::ResumeIndex::scan(csvs[i], jsonls[i], seeds);
        if (index.size() != shard_cells[i])
          throw std::runtime_error("resume: " + shards[i] + "/" + sweep + " reads " +
                                   std::to_string(index.size()) + " of " +
                                   std::to_string(shard_cells[i]) + " cells complete");
      }
      t.resume_s += seconds_since(t0);
    }
  }

  dist::MetricsFile folded;
  {
    const Scope span(spans, "dist.metrics_fold", "dist", parent);
    const Clock::time_point t0 = Clock::now();
    std::vector<dist::MetricsFile> files;
    for (const std::string& dir : shards)
      files.push_back(dist::read_metrics_json((fs::path(dir) / "metrics.json").string()));
    folded = dist::fold_metrics(files);
    t.fold_s += seconds_since(t0);
  }
  // Kernel counters are exact: the shard fold must equal this process's own.
  for (const trace::SweepMetrics& mine : own) {
    const auto it = std::find_if(folded.sweeps.begin(), folded.sweeps.end(),
                                 [&](const auto& m) { return m.sweep == mine.sweep; });
    if (it == folded.sweeps.end())
      throw std::runtime_error("metrics fold lacks sweep " + mine.sweep);
    mine.kernel.for_each([&](const char* name, std::uint64_t v) {
      std::uint64_t theirs = 0;
      it->kernel.for_each([&](const char* n, std::uint64_t w) {
        if (std::string(n) == name) theirs = w;
      });
      if (theirs != v && std::string(name) != "max_event_queue_depth")
        throw std::runtime_error("metrics fold: " + mine.sweep + " kernel." + name +
                                 " folds to " + std::to_string(theirs) + ", traced run has " +
                                 std::to_string(v));
    });
  }
}

// ---- main ------------------------------------------------------------------

int run(const Options& o) {
  report::SweepRegistry registry;
  bench::register_all_sweeps(registry);
  std::vector<const report::SweepSpec*> selected;
  if (o.all) {
    for (const report::SweepSpec& s : registry.specs()) selected.push_back(&s);
  } else {
    for (const std::string& name : o.sweeps) {
      const report::SweepSpec* spec = registry.find(name);
      if (spec == nullptr) throw std::runtime_error("unknown sweep " + name);
      selected.push_back(spec);
    }
  }
  std::vector<std::uint64_t> seeds(o.n_seeds);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = o.first_seed + i;

  Spans spans(o.run_id);
  const std::uint64_t root = spans.open("workload", "bench", 0);
  fs::create_directories(o.out_dir);

  NullBuffer null_buffer;
  std::ostream null_out(&null_buffer);
  std::size_t cell_cursor = 0, owned_cursor = 0;
  CellLog log;
  std::vector<trace::SweepMetrics> all_metrics;
  std::vector<std::string> names;
  double csv_s = 0.0, jsonl_s = 0.0;

  // Grid span bookkeeping: the gate opens a span at a grid's first cell and
  // counts its cells; the observer closes it when the last one is emitted.
  std::uint64_t grid_span = 0, gated = 0, observed = 0;

  const Clock::time_point sweeps_t0 = Clock::now();
  for (const report::SweepSpec* spec : selected) {
    names.push_back(spec->name);
    const Scope sweep_span(spans, "sweep:" + spec->name, "bench", root);
    const fs::path dir(o.out_dir);
    report::MultiSink multi;
    multi.add(std::make_unique<TimedSink>(
        std::make_unique<report::CsvSink>((dir / (spec->name + ".csv")).string()),
        "report.csv_write", spans, grid_span, csv_s));
    multi.add(std::make_unique<TimedSink>(
        std::make_unique<report::JsonlSink>((dir / (spec->name + ".jsonl")).string()),
        "report.jsonl_write", spans, grid_span, jsonl_s));

    trace::SweepMetrics metrics;
    metrics.sweep = spec->name;
    report::SweepContext ctx;
    ctx.scale = o.scale;
    ctx.seeds = seeds;
    ctx.threads = o.threads;
    ctx.sink = &multi;
    ctx.out = &null_out;
    ctx.cell_cursor = &cell_cursor;
    ctx.owned_cursor = &owned_cursor;
    ctx.metrics = &metrics;
    ctx.gate = [&](const report::GridCellInfo&) {
      if (grid_span == 0) {
        grid_span = spans.open("grid:" + spec->name, "core", sweep_span.id());
        gated = observed = 0;
      }
      ++gated;
      return true;
    };
    ctx.observer = [&](const core::CellEvent& ev) {
      log.cell_seconds.push_back(ev.wall_seconds);
      ++log.ram_frames[ev.cell.ram.frames];
      for (std::size_t i = 0; i < ev.cell.runs.size(); ++i) {
        const core::ExperimentResult& r = ev.cell.runs[i];
        ++log.runs;
        log.witness_steps += r.witness_steps;
        log.minor_faults += r.minor_faults;
        log.major_faults += r.major_faults;
        log.sim_seconds += r.wall_seconds;
        if (ev.cell.population > 1) {
          workloads::PopulationSpec pop;
          pop.size = ev.cell.population;
          pop.attacker_fraction = ev.cell.attacker_fraction;
          log.populations.emplace_back(pop, ev.cell.seeds[i]);
        }
      }
      if (++observed == gated && grid_span != 0) {
        spans.close(grid_span);
        grid_span = 0;
      }
    };
    {
      const trace::ScopeTimer timer(metrics.phases, "sweep");
      spec->run(ctx);
    }
    if (grid_span != 0) {  // a grid whose cells did not all report
      spans.close(grid_span);
      grid_span = 0;
    }
    all_metrics.push_back(std::move(metrics));
  }
  const double sweeps_s = seconds_since(sweeps_t0);

  {
    std::ofstream os(fs::path(o.out_dir) / "metrics.json");
    trace::write_metrics_json(os, all_metrics);
    if (!os) throw std::runtime_error("cannot write " + o.out_dir + "/metrics.json");
  }

  const std::uint32_t frames =
      log.ram_frames.empty()
          ? 16 * 1024
          : std::max_element(log.ram_frames.begin(), log.ram_frames.end(),
                             [](const auto& a, const auto& b) { return a.second < b.second; })
                ->first;
  const double sha256_mbps = probe_sha256(spans, root);
  const double destroy_us = probe_destroy_space(spans, root, frames);
  const double touch_ns = probe_touch_fault(spans, root);
  const double construct_us = probe_construct(spans, root);
  const PopulationProbe pop = probe_population(spans, root, log);

  DistTotals dist;
  dist_phase(o, names, seeds, all_metrics, spans, root, dist);

  trace::KernelStats kernel;
  trace::PoolMetrics pool;
  std::uint64_t cells = 0;
  for (const trace::SweepMetrics& m : all_metrics) {
    kernel.merge(m.kernel);
    pool.merge(m.pool);
    cells += m.cells;
  }
  double busy = 0.0;
  for (const double b : pool.busy_seconds) busy += b;

  std::uint64_t report_bytes = 0;
  for (const std::string& n : names)
    report_bytes += fs::file_size(fs::path(o.out_dir) / (n + ".csv")) +
                    fs::file_size(fs::path(o.out_dir) / (n + ".jsonl"));

  std::ostringstream js;
  js.precision(17);
  js << "{\"sweeps_s\":" << sweeps_s << ",\"cells\":" << cells << ",\"runs\":" << log.runs
     << ",\"threads\":" << o.threads << ",\"pool_wall_s\":" << pool.wall_seconds
     << ",\"busy_s\":" << busy << ",\"cell_seconds\":[";
  for (std::size_t i = 0; i < log.cell_seconds.size(); ++i)
    js << (i ? "," : "") << log.cell_seconds[i];
  js << "],\"kernel\":{";
  bool first = true;
  kernel.for_each([&](const char* name, std::uint64_t v) {
    js << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  });
  js << "},\"witness_steps\":" << log.witness_steps
     << ",\"minor_faults\":" << log.minor_faults << ",\"major_faults\":" << log.major_faults
     << ",\"sim_seconds\":" << log.sim_seconds << ",\"csv_write_s\":" << csv_s
     << ",\"jsonl_write_s\":" << jsonl_s << ",\"report_bytes\":" << report_bytes
     << ",\"sha256_MBps\":" << sha256_mbps << ",\"destroy_space_us\":" << destroy_us
     << ",\"probe_ram_frames\":" << frames << ",\"touch_fault_ns\":" << touch_ns
     << ",\"construct_us\":" << construct_us << ",\"population_s\":" << pop.seconds
     << ",\"tenants\":" << pop.tenants << ",\"dist\":{\"scan_s\":" << dist.scan_s
     << ",\"scan_bytes\":" << dist.scan_bytes << ",\"merge_s\":" << dist.merge_s
     << ",\"metrics_fold_s\":" << dist.fold_s << ",\"resume_scan_s\":" << dist.resume_s
     << ",\"records\":" << dist.records << "}}";
  spans.close(root);
  spans.write_chrome_json(o.trace_json);
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "mtr_bench_harness: " << e.what() << '\n';
    return 1;
  }
}
