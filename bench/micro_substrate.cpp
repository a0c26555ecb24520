// google-benchmark microbenches for the substrate itself: crypto
// throughput, the witness-chain step, simulator event rate, scheduler pick
// cost, meter hook overhead, PCB and mm fork-child lifetimes, end-to-end
// sweep-cell rates, and the record layer: sink encode, scan and merge.
// These are engineering benchmarks (how fast is the simulator), not paper
// reproductions.
//
// The BM_SweepCell_* family is the tracked perf baseline: each iteration
// runs one BatchRunner-equivalent cell (one run_experiment) of the
// fig07/fig08 scheduling-attack sweeps at a fixed scale, so successive
// commits can be compared via bench/perf_baseline.py and BENCH_sim.json.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <ostream>
#include <streambuf>

#include "attacks/scheduling_attack.hpp"
#include "bench/attack_roster.hpp"
#include "core/experiment.hpp"
#include "core/integrity.hpp"
#include "core/meters.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "dist/merge.hpp"
#include "dist/records.hpp"
#include "kernel/cfs_scheduler.hpp"
#include "exec/program_base.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"
#include "mm/memory_manager.hpp"
#include "report/result_sink.hpp"
#include "sim/simulation.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mtr;

void BM_Md5Throughput(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::md5(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256Throughput(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 55 bytes is the longest message that pads into one block: the shape of a
// witness-chain step (32-byte chain, kind, separator, tag) whose kind and
// tag total 22 bytes or less.
BENCHMARK(BM_Sha256Throughput)->Arg(55)->Arg(64)->Arg(16384);

/// One execution-integrity step: extend a thread's witness hash chain, as
/// the kernel does at every compute step, over rotating pids. The 16-char
/// tag makes the hashed message 56 bytes, so its padding takes a second
/// block.
void BM_WitnessStep(benchmark::State& state) {
  core::ExecutionIntegrityMonitor monitor;
  constexpr std::int32_t kThreads = 64;
  std::int32_t i = 0;
  for (auto _ : state) {
    const std::int32_t id = 1 + i++ % kThreads;
    monitor.on_step_begin(Cycles{0}, Pid{id}, Tgid{id}, "compute", "whetstone.kernel");
  }
  benchmark::DoNotOptimize(monitor.witness(Tgid{1}));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WitnessStep);

/// Virtual seconds simulated per real second: boot a machine, run one
/// Whetstone through the shell, measure wall cost per simulated run.
void BM_SimulateWhetstone(benchmark::State& state) {
  const double scale = 0.01;
  for (auto _ : state) {
    sim::Simulation s;
    const auto info = workloads::make_workload(workloads::WorkloadKind::kWhetstone,
                                               {scale});
    const Pid pid = s.launch(info.image);
    s.run_until_exit(pid);
    benchmark::DoNotOptimize(s.usage_of(pid).ticks.total().v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateWhetstone);

/// Same run with the full meter stack attached: the hook overhead.
void BM_SimulateWhetstoneWithMeters(benchmark::State& state) {
  const double scale = 0.01;
  for (auto _ : state) {
    sim::Simulation s;
    core::TickMeter tick;
    core::TscMeter tsc;
    core::PaisMeter pais;
    core::SourceIntegrityMonitor source;
    core::ExecutionIntegrityMonitor execution;
    s.kernel().add_hook(&tick);
    s.kernel().add_hook(&tsc);
    s.kernel().add_hook(&pais);
    s.kernel().add_hook(&source);
    s.kernel().add_hook(&execution);
    const auto info = workloads::make_workload(workloads::WorkloadKind::kWhetstone,
                                               {scale});
    const Pid pid = s.launch(info.image);
    s.run_until_exit(pid);
    benchmark::DoNotOptimize(tsc.usage(s.kernel().process(pid).tgid).total().v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateWhetstoneWithMeters);

/// Scheduler pick-next cost under load.
template <typename SchedulerT, typename... Args>
void scheduler_pick_bench(benchmark::State& state, Args... args) {
  SchedulerT sched(args...);
  std::vector<std::unique_ptr<kernel::Process>> procs;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(std::make_unique<kernel::Process>(
        Pid{i + 1}, Tgid{i + 1}, Pid{}, "p",
        exec::make_step_list("p", {})(), Nice{static_cast<std::int8_t>(i % 40 - 20)},
        i));
    procs.back()->state = kernel::ProcState::kReady;
    sched.enqueue(*procs.back(), Cycles{0});
  }
  for (auto _ : state) {
    kernel::Process* p = sched.pick_next(Cycles{0});
    benchmark::DoNotOptimize(p);
    p->state = kernel::ProcState::kReady;
    sched.enqueue(*p, Cycles{0});
  }
}

void BM_O1PickNext(benchmark::State& state) {
  scheduler_pick_bench<kernel::O1PriorityScheduler>(state, TimerHz{});
}
BENCHMARK(BM_O1PickNext);

void BM_CfsPickNext(benchmark::State& state) {
  scheduler_pick_bench<kernel::CfsScheduler>(state, CpuHz{});
}
BENCHMARK(BM_CfsPickNext);

/// A fork child's PCB from birth to destruction: construct it as the
/// scheduler benches do, queue and drain one piece of kernel work.
void BM_ProcessLifecycle(benchmark::State& state) {
  std::int32_t next = 1;
  for (auto _ : state) {
    auto p = std::make_unique<kernel::Process>(
        Pid{next}, Tgid{next}, Pid{}, "p", exec::make_step_list("p", {})(), Nice{0},
        static_cast<std::uint64_t>(next));
    ++next;
    p->kwork.push_back(kernel::KernelWork{Cycles{100}, 0, 0, Pid{}});
    benchmark::DoNotOptimize(p->kwork.front().remaining);
    p->kwork.pop_front();
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessLifecycle);

/// mm teardown under a fork storm: one iteration is one fork child's life
/// in the memory manager (create its space, fault in 4 pages, destroy it)
/// beside a resident parent. The cost must not grow with `ram_frames`.
void BM_MmDestroySpace(benchmark::State& state) {
  mm::MemoryManager mm(static_cast<std::uint32_t>(state.range(0)));
  const Tgid parent{1};
  mm.create_space(parent);
  for (std::uint64_t p = 0; p < 64; ++p) mm.touch(parent, PageId{p});
  std::int32_t next = 2;
  for (auto _ : state) {
    const Tgid child{next++};
    mm.create_space(child);
    for (std::uint64_t p = 0; p < 4; ++p)
      benchmark::DoNotOptimize(mm.touch(child, PageId{p}));
    mm.destroy_space(child);
  }
  benchmark::DoNotOptimize(mm.frames_used());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmDestroySpace)->Arg(4096)->Arg(16384)->Arg(65536);

// ---------------------------------------------------------------------------
// End-to-end sweep-cell benches — the tracked perf baseline.
// ---------------------------------------------------------------------------

/// Scale is fixed (not MTR_BENCH_SCALE) so BENCH_sim.json numbers stay
/// comparable across machines and commits.
constexpr double kSweepCellScale = 0.05;

/// One iteration = one sweep cell: a full run_experiment with the trusted
/// metering service attached, as BatchRunner executes it for fig07/fig08.
/// `attack` null runs the unattacked baseline cell. Reports simulated
/// virtual megacycles per wall second — the simulator's event rate.
void sweep_cell_bench(benchmark::State& state, workloads::WorkloadKind kind,
                      sim::SchedulerKind sched, bool attacked) {
  double virt_mcycles = 0.0;
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.workload.scale = kSweepCellScale;
    cfg.sim.scheduler = sched;
    std::unique_ptr<attacks::Attack> attack;
    if (attacked) {
      attack = std::make_unique<attacks::SchedulingAttack>(
          mtr::bench::fork_params(kSweepCellScale, -20));
    }
    const core::ExperimentResult r = core::run_experiment(cfg, attack.get());
    benchmark::DoNotOptimize(r.billed_seconds);
    virt_mcycles += r.wall_seconds *
                    static_cast<double>(cfg.sim.kernel.cpu.v) / 1e6;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virt_mcycles_per_sec"] =
      benchmark::Counter(virt_mcycles, benchmark::Counter::kIsRate);
}

void BM_SweepCell_fig07_sched_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kO1, true);
}
BENCHMARK(BM_SweepCell_fig07_sched_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig07_sched_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kCfs, true);
}
BENCHMARK(BM_SweepCell_fig07_sched_cfs)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig08_sched_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kO1, true);
}
BENCHMARK(BM_SweepCell_fig08_sched_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig08_sched_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kCfs, true);
}
BENCHMARK(BM_SweepCell_fig08_sched_cfs)->Unit(benchmark::kMillisecond);

void BM_SweepCell_baseline_whetstone_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kO1, false);
}
BENCHMARK(BM_SweepCell_baseline_whetstone_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_baseline_brute_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kCfs, false);
}
BENCHMARK(BM_SweepCell_baseline_brute_cfs)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Engine benches — event-driven calendar queue vs slice-stepped reference
// loop on the workload classes where the queue pays off: mostly-idle and
// I/O-bound cells, where the slice loop burns one iteration (and one hook
// round) per jiffy while the event loop leaps whole sleep/transfer windows
// in O(1). The BM_EngineCell_* pairs are tracked in BENCH_sim.json, and CI
// gates the slice/event wall-time ratio (hardware-independent) via
// perf_baseline.py --ratio-floor.
// ---------------------------------------------------------------------------

/// A periodic daemon: a sliver of compute, then a 150-jiffy nap (~0.6 s at
/// HZ=250) — cron-style housekeeping, the canonical mostly-idle cell.
std::vector<exec::Step> idle_daemon_steps() {
  const kernel::KernelConfig cfg;
  const Cycles tick = tick_length(cfg.cpu, cfg.hz);
  std::vector<exec::Step> steps;
  for (int i = 0; i < 200; ++i) {
    steps.push_back(exec::compute(Cycles{tick.v / 10}));
    steps.push_back(exec::syscall(kernel::SysNanosleep{Cycles{tick.v * 150}}));
  }
  return steps;
}

/// A bulk-transfer job against a slow device: short request setup, then a
/// blocking disk I/O spanning many jiffies.
std::vector<exec::Step> io_heavy_steps() {
  std::vector<exec::Step> steps;
  for (int i = 0; i < 150; ++i) {
    steps.push_back(exec::compute(Cycles{500'000}));
    steps.push_back(exec::syscall(kernel::SysDiskIo{}));
  }
  return steps;
}

void engine_cell_bench(benchmark::State& state, bool event_driven, bool io) {
  double virt_mcycles = 0.0;
  for (auto _ : state) {
    kernel::KernelConfig cfg;
    cfg.seed = 1234;
    cfg.event_driven = event_driven;
    // The I/O cell models a saturated cold-storage device (~400 ms per
    // request at the default 2.53 GHz) so each transfer spans ~99 jiffies.
    if (io) cfg.costs.disk_latency = Cycles{1'000'000'000};
    kernel::Kernel k(cfg,
                     std::make_unique<kernel::O1PriorityScheduler>(cfg.hz));
    core::TickMeter tick;
    core::TscMeter tsc;
    core::PaisMeter pais;
    k.add_hook(&tick);
    k.add_hook(&tsc);
    k.add_hook(&pais);
    k.spawn({io ? "bulk-reader" : "idle-daemon",
             exec::make_step_list(io ? "bulk-reader" : "idle-daemon",
                                  io ? io_heavy_steps() : idle_daemon_steps()),
             Nice{0}, true});
    k.run();
    benchmark::DoNotOptimize(tsc.grand_total().v);
    virt_mcycles += static_cast<double>(k.now().v) / 1e6;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virt_mcycles_per_sec"] =
      benchmark::Counter(virt_mcycles, benchmark::Counter::kIsRate);
}

void BM_EngineCell_idle_daemon_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, /*io=*/false);
}
BENCHMARK(BM_EngineCell_idle_daemon_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_idle_daemon_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, /*io=*/false);
}
BENCHMARK(BM_EngineCell_idle_daemon_slice)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, /*io=*/true);
}
BENCHMARK(BM_EngineCell_io_heavy_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, /*io=*/true);
}
BENCHMARK(BM_EngineCell_io_heavy_slice)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Report and dist layer benches: encoding one cell through the sinks, and
// scanning and merging a shard set, all in bytes per second. They run the
// record table and its token codec end to end, without simulating.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kRecordSeeds = 600;

/// One 600-seed cell built from a real baseline run. Each replicate is
/// nudged so its doubles print at full %.17g length, and carries per-tenant
/// sketches as a population cell's runs do.
core::CellStats record_cell(std::uint64_t cell_index) {
  static const core::ExperimentResult base = [] {
    core::ExperimentConfig cfg;
    cfg.kind = workloads::WorkloadKind::kWhetstone;
    cfg.workload.scale = kSweepCellScale;
    return core::run_experiment(cfg);
  }();
  core::CellStats cell;
  cell.attack_label = "baseline";
  cell.cell_index = cell_index;
  for (std::uint64_t i = 0; i < kRecordSeeds; ++i) {
    core::ExperimentResult r = base;
    const double nudge = 1.0 / static_cast<double>(i + 3);
    r.wall_seconds += nudge;
    r.billed_seconds += nudge;
    r.true_seconds += nudge / 7.0;
    r.overcharge = r.billed_seconds / r.true_seconds;
    for (int t = 1; t <= 16; ++t) {
      const double v = nudge * t;
      r.pop_billing_error.add(t % 2 ? v : -v);
      r.pop_billed_seconds.add(1.0 + v);
      r.pop_true_seconds.add(1.0);
    }
    cell.seeds.push_back(42 + i);
    cell.runs.push_back(std::move(r));
    cell.add(cell.runs.back());
  }
  return cell;
}

/// Counts the bytes written through it and keeps none.
class CountingBuf final : public std::streambuf {
 public:
  std::int64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += n;
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
};

/// Arg 0 encodes through CsvSink, arg 1 through JsonlSink.
void BM_SinkEncode(benchmark::State& state) {
  const core::CellStats cell = record_cell(0);
  CountingBuf buf;
  std::ostream os(&buf);
  const bool jsonl = state.range(0) == 1;
  std::unique_ptr<report::ResultSink> sink;
  if (jsonl) sink = std::make_unique<report::JsonlSink>(os);
  else sink = std::make_unique<report::CsvSink>(os);
  for (auto _ : state) sink->write_cell("bench", cell);
  state.SetBytesProcessed(buf.bytes);
  state.SetLabel(jsonl ? "jsonl" : "csv");
}
BENCHMARK(BM_SinkEncode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A 4-shard JSONL set written once per process through JsonlSink: 8 cells
/// of 600 seeds, cell i in shard i % 4. Removed at exit.
struct ShardSet {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("micro_substrate." + std::to_string(::getpid()));
  std::vector<std::string> paths;
  std::int64_t bytes = 0;

  ShardSet() {
    std::filesystem::create_directories(dir);
    std::vector<std::unique_ptr<report::JsonlSink>> sinks;
    for (int s = 0; s < 4; ++s) {
      const std::string name = "shard" + std::to_string(s) + ".jsonl";
      paths.push_back((dir / name).string());
      sinks.push_back(std::make_unique<report::JsonlSink>(paths.back()));
    }
    for (std::uint64_t c = 0; c < 8; ++c)
      sinks[c % 4]->write_cell("bench", record_cell(c));
    sinks.clear();  // flush and close before the sizes are read
    for (const std::string& p : paths)
      bytes += static_cast<std::int64_t>(std::filesystem::file_size(p));
  }
  ~ShardSet() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
};

const ShardSet& shard_set() {
  static const ShardSet set;
  return set;
}

void BM_ScanJsonl(benchmark::State& state) {
  const ShardSet& set = shard_set();
  for (auto _ : state)
    for (const std::string& p : set.paths)
      benchmark::DoNotOptimize(dist::scan_jsonl(p).blocks.size());
  state.SetBytesProcessed(set.bytes * state.iterations());
}
BENCHMARK(BM_ScanJsonl)->Unit(benchmark::kMillisecond);

void BM_MergeJsonl(benchmark::State& state) {
  const ShardSet& set = shard_set();
  for (auto _ : state)
    benchmark::DoNotOptimize(dist::merge_jsonl(set.paths).size());
  state.SetBytesProcessed(set.bytes * state.iterations());
}
BENCHMARK(BM_MergeJsonl)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
