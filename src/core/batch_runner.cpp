#include "core/batch_runner.hpp"

#include <algorithm>
#include <exception>

// Sanitizer runtimes replace malloc; glibc's arenas then hold nothing, and
// its malloc_trim may walk one that was never set up.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MTR_SANITIZER_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MTR_SANITIZER_MALLOC 1
#endif
#endif
#if defined(__GLIBC__) && !defined(MTR_SANITIZER_MALLOC)
#include <malloc.h>
#define MTR_TRIM_AFTER_RUN 1
#endif

#include "common/ensure.hpp"

namespace mtr::core {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The value a (possibly empty) axis takes at index `i`: normalization in
/// one place, shared by grid_cell_coords and the runner (which sees axes
/// pre-filled by normalized_grid, making this the identity).
template <typename T>
const T& axis_value(const std::vector<T>& axis, std::size_t i, const T& base) {
  return axis.empty() ? base : axis[i];
}

bool axis_value(const std::vector<bool>& axis, std::size_t i, bool base) {
  return axis.empty() ? base : axis[i];
}

/// `threads` == 0 picks std::thread::hardware_concurrency() (1 if unknown).
unsigned pool_width(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  return threads == 0 ? 1 : threads;
}

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

BatchGrid normalized_grid(const BatchGrid& grid) {
  BatchGrid g = grid;
  const kernel::KernelConfig& k = g.base.sim.kernel;
  if (g.attacks.empty()) g.attacks.push_back({"baseline", nullptr});
  if (g.schedulers.empty()) g.schedulers.push_back(g.base.sim.scheduler);
  if (g.ticks.empty()) g.ticks.push_back(k.hz);
  if (g.cpu_freqs.empty()) g.cpu_freqs.push_back(k.cpu);
  if (g.ram.empty()) g.ram.push_back({k.ram_frames, k.reclaim_batch});
  if (g.ptrace_policies.empty()) g.ptrace_policies.push_back(k.ptrace_policy);
  if (g.jiffy_timers.empty()) g.jiffy_timers.push_back(k.jiffy_resolution_timers);
  if (g.population_sizes.empty()) g.population_sizes.push_back(g.base.population.size);
  if (g.attacker_fractions.empty())
    g.attacker_fractions.push_back(g.base.population.attacker_fraction);
  if (g.nice_levels.empty()) g.nice_levels.push_back(g.base.nice);
  if (g.seeds.empty()) g.seeds.push_back(k.seed);
  return g;
}

GridCellIndices GridGeometry::coords(std::size_t cell) const {
  GridCellIndices ix;
  ix.nice = cell % nices;
  cell /= nices;
  ix.fraction = cell % fractions;
  cell /= fractions;
  ix.population = cell % populations;
  cell /= populations;
  ix.jiffy = cell % jiffies;
  cell /= jiffies;
  ix.ptrace = cell % ptraces;
  cell /= ptraces;
  ix.ram = cell % rams;
  cell /= rams;
  ix.cpu = cell % cpus;
  cell /= cpus;
  ix.tick = cell % ticks;
  cell /= ticks;
  ix.scheduler = cell % schedulers;
  ix.attack = cell / schedulers;
  return ix;
}

GridGeometry grid_geometry(const BatchGrid& grid) {
  const auto extent = [](std::size_t n) { return n > 0 ? n : std::size_t{1}; };
  GridGeometry g;
  g.attacks = extent(grid.attacks.size());
  g.schedulers = extent(grid.schedulers.size());
  g.ticks = extent(grid.ticks.size());
  g.cpus = extent(grid.cpu_freqs.size());
  g.rams = extent(grid.ram.size());
  g.ptraces = extent(grid.ptrace_policies.size());
  g.jiffies = extent(grid.jiffy_timers.size());
  g.populations = extent(grid.population_sizes.size());
  g.fractions = extent(grid.attacker_fractions.size());
  g.nices = extent(grid.nice_levels.size());
  return g;
}

std::size_t grid_cell_count(const BatchGrid& grid) {
  return grid_geometry(grid).cell_count();
}

GridCellCoords grid_cell_coords(const BatchGrid& grid, std::size_t cell) {
  const GridCellIndices ix = grid_geometry(grid).coords(cell);
  const kernel::KernelConfig& k = grid.base.sim.kernel;
  GridCellCoords c;
  c.attack_label =
      grid.attacks.empty() ? "baseline" : grid.attacks[ix.attack].label;
  c.scheduler = axis_value(grid.schedulers, ix.scheduler, grid.base.sim.scheduler);
  c.hz = axis_value(grid.ticks, ix.tick, k.hz);
  c.cpu = axis_value(grid.cpu_freqs, ix.cpu, k.cpu);
  c.ram = axis_value(grid.ram, ix.ram, RamSpec{k.ram_frames, k.reclaim_batch});
  c.ptrace = axis_value(grid.ptrace_policies, ix.ptrace, k.ptrace_policy);
  c.jiffy_timers = axis_value(grid.jiffy_timers, ix.jiffy, k.jiffy_resolution_timers);
  c.population =
      axis_value(grid.population_sizes, ix.population, grid.base.population.size);
  c.attacker_fraction = axis_value(grid.attacker_fractions, ix.fraction,
                                   grid.base.population.attacker_fraction);
  c.nice = axis_value(grid.nice_levels, ix.nice, grid.base.nice);
  return c;
}

void CellStats::add(const ExperimentResult& r) {
  if (run_count++ == 0) workload = r.kind;
  source_ok = source_ok && r.source_verdict.ok;
  for_each_stat(
      [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
  for_each_sketch([&](const char*, QuantileSketch& sketch, auto get) {
    sketch.merge(get(r));
  });
  kstats.merge(r.kstats);
  telemetry.merge(r.telemetry);
}

std::uint64_t cell_seed(std::uint64_t grid_seed, std::size_t attack_i,
                        std::size_t scheduler_i, std::size_t tick_i,
                        std::size_t cpu_i, std::size_t ram_i,
                        std::size_t ptrace_i, std::size_t jiffy_i,
                        std::size_t population_i, std::size_t fraction_i,
                        std::size_t nice_i) {
  std::uint64_t h = splitmix64(grid_seed);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(attack_i) + 1));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(scheduler_i) + 1) << 20));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(tick_i) + 1) << 40));
  // Scenario axes mix in only off their base index so unused axes leave
  // the seed stream exactly as it was before the axis existed. Distinct
  // odd multipliers keep the axes decorrelated from one another.
  if (cpu_i) h = splitmix64(h ^ (cpu_i * 0xA24BAED4963EE407ull));
  if (ram_i) h = splitmix64(h ^ (ram_i * 0x9FB21C651E98DF25ull));
  if (ptrace_i) h = splitmix64(h ^ (ptrace_i * 0xD6E8FEB86659FD93ull));
  if (jiffy_i) h = splitmix64(h ^ (jiffy_i * 0xCA5A826395121157ull));
  if (population_i) h = splitmix64(h ^ (population_i * 0xE7037ED1A0B428DBull));
  if (fraction_i) h = splitmix64(h ^ (fraction_i * 0x8EBC6AF09C88C6E3ull));
  if (nice_i) h = splitmix64(h ^ (nice_i * 0x589965CC75374CC3ull));
  return h;
}

std::uint64_t cell_seed(std::uint64_t grid_seed, const GridCellIndices& ix) {
  return cell_seed(grid_seed, ix.attack, ix.scheduler, ix.tick, ix.cpu, ix.ram,
                   ix.ptrace, ix.jiffy, ix.population, ix.fraction, ix.nice);
}

/// One submitted grid. The grid, its geometry and the admitted cells are
/// fixed at submit and read by workers without the lock; everything a
/// worker updates after a run is guarded by RunQueue::mutex_, except the
/// run's own result slot, which only that worker writes and which the
/// drainer reads only after the cell's completion count says it is done.
struct RunQueue::Job {
  BatchGrid grid;  // normalized
  GridGeometry geom;
  // Grid-order indices of the cells that actually run. Filtering changes
  // nothing about a surviving cell: coordinates, per-cell seeds, and
  // cell_index are all derived from the full grid. Everything below is
  // indexed by *active position*, not grid cell index.
  std::vector<std::size_t> active;
  std::size_t n_seeds = 0;
  std::size_t n_runs = 0;

  std::size_t next_run = 0;  // claim cursor
  std::vector<ExperimentResult> results;  // one slot per run
  std::vector<std::size_t> runs_done;
  std::vector<double> cell_wall;
  std::vector<char> cell_failed;
  std::size_t error_index = 0;  // == n_runs while nothing failed
  bool error_from_callback = false;
  std::exception_ptr error;
  std::vector<double> busy;  // per worker, this grid's runs only
  bool claimed = false;
  std::chrono::steady_clock::time_point first_claim, last_finish;

  ExperimentResult execute(std::size_t run) const;
  void aggregate(std::size_t pos, CellStats& s);
  void record_failure(std::size_t run, bool from_callback, std::exception_ptr e);
  [[noreturn]] void rethrow() const;
};

ExperimentResult RunQueue::Job::execute(std::size_t run) const {
  const BatchGrid& g = grid;
  const std::size_t cell = active[run / n_seeds];
  const std::size_t seed_i = run % n_seeds;
  const GridCellIndices ix = geom.coords(cell);
  ExperimentConfig cfg = g.base;
  cfg.sim.scheduler = g.schedulers[ix.scheduler];
  cfg.sim.kernel.hz = g.ticks[ix.tick];
  cfg.sim.kernel.cpu = g.cpu_freqs[ix.cpu];
  cfg.sim.kernel.ram_frames = g.ram[ix.ram].frames;
  cfg.sim.kernel.reclaim_batch = g.ram[ix.ram].reclaim_batch;
  cfg.sim.kernel.ptrace_policy = g.ptrace_policies[ix.ptrace];
  cfg.sim.kernel.jiffy_resolution_timers = g.jiffy_timers[ix.jiffy];
  cfg.population.size = g.population_sizes[ix.population];
  cfg.population.attacker_fraction = g.attacker_fractions[ix.fraction];
  cfg.nice = g.nice_levels[ix.nice];
  cfg.sim.kernel.seed = cell_seed(g.seeds[seed_i], ix);
  cfg.trace.collect_stats = cfg.trace.collect_stats || g.collect_kernel_stats;
  if (g.trace_path) cfg.trace.path = g.trace_path(cell, seed_i);
  const AttackFactory& make = g.attacks[ix.attack].make;
  const std::unique_ptr<attacks::Attack> attack = make ? make() : nullptr;
  return run_experiment(cfg, attack.get());
}

void RunQueue::Job::aggregate(std::size_t pos, CellStats& s) {
  const BatchGrid& g = grid;
  const GridCellIndices ix = geom.coords(active[pos]);
  s.attack_label = g.attacks[ix.attack].label;
  s.scheduler = g.schedulers[ix.scheduler];
  s.hz = g.ticks[ix.tick];
  s.cpu = g.cpu_freqs[ix.cpu];
  s.ram = g.ram[ix.ram];
  s.ptrace = g.ptrace_policies[ix.ptrace];
  s.jiffy_timers = g.jiffy_timers[ix.jiffy];
  s.population = g.population_sizes[ix.population];
  s.attacker_fraction = g.attacker_fractions[ix.fraction];
  s.nice = g.nice_levels[ix.nice];
  s.cell_index = g.cell_index_base + active[pos];
  s.seeds = g.seeds;
  s.runs.reserve(n_seeds);
  for (std::size_t seed_i = 0; seed_i < n_seeds; ++seed_i) {
    // The per-run slot is dead after aggregation: move it instead of
    // deep-copying its strings/violation vectors into the cell.
    s.runs.push_back(std::move(results[pos * n_seeds + seed_i]));
    s.add(s.runs.back());
  }
}

void RunQueue::Job::record_failure(std::size_t run, bool from_callback,
                                   std::exception_ptr e) {
  // Keep the first failure in work order for a deterministic report: by
  // the time a cell's callback runs, every run before it has finished.
  if (run >= error_index) return;
  error_index = run;
  error_from_callback = from_callback;
  error = std::move(e);
}

void RunQueue::Job::rethrow() const {
  const BatchGrid& g = grid;
  const GridCellIndices ix = geom.coords(active[error_index / n_seeds]);
  const std::size_t seed_i = error_index % n_seeds;
  // A callback failure happened after every run of the cell succeeded, so
  // name the cell but not a (blameless) seed. Scenario axes are named
  // only when actually swept — default-axis grids keep the short form.
  std::string where =
      std::string("BatchRunner cell [attack=") + g.attacks[ix.attack].label +
      ", scheduler=" + sim::to_string(g.schedulers[ix.scheduler]) +
      ", hz=" + std::to_string(g.ticks[ix.tick].v);
  if (geom.cpus > 1) where += ", cpu_hz=" + std::to_string(g.cpu_freqs[ix.cpu].v);
  if (geom.rams > 1)
    where += ", ram_frames=" + std::to_string(g.ram[ix.ram].frames) +
             ", reclaim_batch=" + std::to_string(g.ram[ix.ram].reclaim_batch);
  if (geom.ptraces > 1)
    where += std::string(", ptrace=") + kernel::to_string(g.ptrace_policies[ix.ptrace]);
  if (geom.jiffies > 1)
    where += std::string(", jiffy_timers=") + (g.jiffy_timers[ix.jiffy] ? "on" : "off");
  if (geom.populations > 1)
    where += ", population=" + std::to_string(g.population_sizes[ix.population]);
  if (geom.fractions > 1)
    where += ", attacker_fraction=" +
             std::to_string(g.attacker_fractions[ix.fraction]);
  if (geom.nices > 1)
    where += ", victim_nice=" +
             std::to_string(static_cast<int>(g.nice_levels[ix.nice].victim.v)) +
             ", attacker_nice=" +
             std::to_string(static_cast<int>(g.nice_levels[ix.nice].attacker.v));
  if (!error_from_callback) where += ", seed=" + std::to_string(g.seeds[seed_i]);
  where += error_from_callback ? "] per-cell callback" : "]";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    throw std::runtime_error(where + " failed: " + e.what());
  } catch (...) {
    throw std::runtime_error(where + " failed with a non-std exception");
  }
}

RunQueue::RunQueue(unsigned threads)
    : threads_(pool_width(threads)), created_(std::chrono::steady_clock::now()) {}

RunQueue::~RunQueue() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

RunQueue::Ticket RunQueue::submit(const BatchGrid& grid) {
  auto job = std::make_unique<Job>();
  job->grid = normalized_grid(grid);
  job->geom = grid_geometry(job->grid);
  const std::size_t n_cells = job->geom.cell_count();
  job->active.reserve(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell)
    if (!job->grid.cell_filter || job->grid.cell_filter(cell))
      job->active.push_back(cell);
  const std::size_t n_active = job->active.size();
  job->n_seeds = job->grid.seeds.size();
  job->n_runs = n_active * job->n_seeds;
  job->error_index = job->n_runs;
  job->results.resize(job->n_runs);
  job->runs_done.assign(n_active, 0);
  job->cell_wall.assign(n_active, 0.0);
  job->cell_failed.assign(n_active, 0);
  job->busy.assign(threads_, 0.0);
  const std::size_t n_runs = job->n_runs;

  const std::lock_guard<std::mutex> lock(mutex_);
  const Ticket ticket = jobs_.size();
  jobs_.push_back(std::move(job));
  runs_submitted_ += n_runs;
  const std::size_t want = std::min<std::size_t>(threads_, runs_submitted_);
  while (workers_.size() < want) {
    busy_.push_back(0.0);
    try {
      workers_.emplace_back(&RunQueue::work, this,
                            static_cast<unsigned>(workers_.size()));
    } catch (...) {
      // Thread creation failed: a smaller pool still drains every job,
      // but with no worker at all this grid could never finish.
      busy_.pop_back();
      if (workers_.empty()) {
        jobs_.pop_back();
        runs_submitted_ -= n_runs;
        throw;
      }
      break;
    }
  }
  work_ready_.notify_all();
  return ticket;
}

void RunQueue::work(unsigned worker) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    while (claim_ < jobs_.size() &&
           (jobs_[claim_] == nullptr ||
            jobs_[claim_]->next_run == jobs_[claim_]->n_runs))
      ++claim_;
    if (stopping_) return;
    if (claim_ == jobs_.size()) {
      work_ready_.wait(lock);
      continue;
    }
    // The Job lives on the heap until drained, and it cannot be drained
    // before this run is counted below, so the reference stays valid
    // across the unlocked run.
    Job& job = *jobs_[claim_];
    const std::size_t run = job.next_run++;
    const auto t0 = std::chrono::steady_clock::now();
    if (!job.claimed) {
      job.claimed = true;
      job.first_claim = t0;
    }
    lock.unlock();

    std::exception_ptr error;
    try {
      job.results[run] = job.execute(run);
    } catch (...) {
      error = std::current_exception();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double dt = seconds_between(t0, t1);
#if defined(MTR_TRIM_AFTER_RUN)
    // A run frees its whole simulation on return, but glibc keeps those
    // chunks in this thread's arena. A persistent worker would then hold
    // the free heap of the largest run it ever executed, and the process
    // peak would become the sum of every worker's largest run rather than
    // the runs actually in flight (`mtr_sweep --all --scale 0.05` at 4
    // threads on a 4-vCPU VM: 62 MB peak RSS without this, 38-49 MB with
    // it). Hand the freed memory back after every run.
    malloc_trim(0);
#endif

    lock.lock();
    const std::size_t pos = run / job.n_seeds;
    busy_[worker] += dt;
    job.busy[worker] += dt;
    if (t1 > job.last_finish) job.last_finish = t1;
    job.cell_wall[pos] += dt;
    if (error) {
      job.cell_failed[pos] = 1;
      job.record_failure(run, /*from_callback=*/false, std::move(error));
    }
    if (++job.runs_done[pos] == job.n_seeds) run_done_.notify_all();
  }
}

std::vector<CellStats> RunQueue::drain(Ticket ticket, const CellCallback& on_cell,
                                       trace::PoolMetrics* pool) {
  std::unique_lock<std::mutex> lock(mutex_);
  MTR_ENSURE_MSG(ticket < jobs_.size() && jobs_[ticket] != nullptr,
                 "RunQueue::drain: ticket " << ticket
                                            << " is unknown or already drained");
  Job& job = *jobs_[ticket];
  const std::size_t n_active = job.active.size();
  const std::size_t n_cells = job.geom.cell_count();
  std::vector<CellStats> cells(n_active);
  std::vector<double> busy;  // the snapshot each event points at

  // Emit in grid order as cells complete. Failed cells are skipped (the
  // grid rethrows once every run is done) but still advance the cursor.
  // Aggregation and the callback run unlocked, so workers keep claiming
  // and finishing runs while a cell is written out.
  for (std::size_t pos = 0; pos < n_active; ++pos) {
    run_done_.wait(lock, [&] { return job.runs_done[pos] == job.n_seeds; });
    if (job.cell_failed[pos]) continue;
    busy = busy_;
    const double elapsed =
        seconds_between(created_, std::chrono::steady_clock::now());
    const double cell_wall = job.cell_wall[pos];
    lock.unlock();
    job.aggregate(pos, cells[pos]);
    std::exception_ptr callback_error;
    if (on_cell) {
      try {
        on_cell({job.active[pos], n_cells, cell_wall, job.geom, cells[pos],
                 &busy, elapsed});
      } catch (...) {
        callback_error = std::current_exception();
      }
    }
    lock.lock();
    if (callback_error)
      job.record_failure(pos * job.n_seeds, /*from_callback=*/true,
                         std::move(callback_error));
  }

  // Every run of the grid has finished: retire the job.
  const std::unique_ptr<Job> done = std::move(jobs_[ticket]);
  const std::size_t width = workers_.size();
  lock.unlock();

  if (pool != nullptr) {
    trace::PoolMetrics pm;
    pm.threads = width;
    pm.wall_seconds =
        done->claimed ? seconds_between(done->first_claim, done->last_finish) : 0.0;
    pm.busy_seconds.assign(done->busy.begin(),
                           done->busy.begin() + static_cast<std::ptrdiff_t>(width));
    pool->merge(pm);
  }
  if (done->error) done->rethrow();
  return cells;
}

BatchRunner::BatchRunner(unsigned threads) : threads_(pool_width(threads)) {}

std::vector<CellStats> BatchRunner::run(const BatchGrid& grid,
                                        const CellCallback& on_cell,
                                        trace::PoolMetrics* pool) const {
  RunQueue queue(threads_);
  return queue.drain(queue.submit(grid), on_cell, pool);
}

}  // namespace mtr::core
