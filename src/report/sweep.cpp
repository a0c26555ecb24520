#include "report/sweep.hpp"

#include "common/ensure.hpp"
#include "sim/simulation.hpp"

namespace mtr::report {

core::CellCallback SweepContext::stream(std::string sweep_name) const {
  MTR_ENSURE(sink != nullptr);
  // Cells are emitted one at a time on the draining thread, so folding
  // into the shared metrics accumulator needs no synchronization.
  return [sink = sink, progress = progress, metrics = metrics,
          observer = observer,
          name = std::move(sweep_name)](const core::CellEvent& ev) {
    sink->write_cell(name, ev.cell);
    if (metrics != nullptr) {
      ++metrics->cells;
      metrics->runs += ev.cell.runs.size();
      metrics->cell_wall_seconds += ev.wall_seconds;
      if (ev.wall_seconds > metrics->max_cell_seconds)
        metrics->max_cell_seconds = ev.wall_seconds;
      metrics->kernel.merge(ev.cell.kstats);
      metrics->telemetry.merge(ev.cell.telemetry);
      metrics->telemetry.cell_seconds.add(ev.wall_seconds);
    }
    if (progress) progress->on_cell(ev);
    if (observer) observer(ev);
  };
}

void SweepContext::begin_progress(const std::string& label,
                                  std::size_t total_cells) const {
  if (progress) progress->begin(label, total_cells);
}

std::vector<core::CellStats> SweepContext::run_grid(
    const std::string& sweep_name, core::BatchGrid grid) const {
  MTR_ENSURE_MSG(cell_cursor != nullptr,
                 "SweepContext::run_grid needs a driver-owned cell counter");
  const std::size_t n_cells = core::grid_cell_count(grid);
  const std::size_t base = *cell_cursor;
  *cell_cursor += n_cells;

  // Replay: the grid was gated and submitted when planned; take it back.
  const GridPlan::Grid* planned = nullptr;
  if (queue != nullptr && queue->replaying) {
    if (queue->replayed == queue->grids.size() && queue->plan_error)
      std::rethrow_exception(queue->plan_error);
    MTR_ENSURE_MSG(queue->replayed < queue->grids.size(),
                   "replay of " << sweep_name << " asks for more grids than "
                                << "were planned");
    planned = &queue->grids[queue->replayed++];
    MTR_ENSURE_MSG(planned->sweep == sweep_name && planned->base == base &&
                       planned->cells == n_cells,
                   "replayed grid " << sweep_name << " cells [" << base << ","
                                    << base + n_cells << ") differs from the "
                                    << "planned grid " << planned->sweep
                                    << " cells [" << planned->base << ","
                                    << planned->base + planned->cells << ")");
  }

  // The gate sees every cell in grid order, so shard ownership and resume
  // skipping are decided against the same global numbering a
  // single-machine run would assign.
  std::vector<char> owned(n_cells, 1);
  std::size_t n_owned = planned != nullptr ? planned->owned : n_cells;
  if (gate && planned == nullptr) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      const GridCellInfo info =
          record_coords(sweep_name, base + i, core::grid_cell_coords(grid, i));
      if (!gate(info)) {
        owned[i] = 0;
        --n_owned;
      }
    }
  }
  if (owned_cursor) *owned_cursor += n_owned;

  if (dry_run) {
    std::ostream& p = plan ? *plan : os();
    p << sweep_name << ": cells [" << base << "," << base + n_cells << ")";
    if (n_owned == n_cells) {
      p << " — runs all " << n_cells;
    } else {
      p << " — runs " << n_owned << "/" << n_cells << ":";
      for (std::size_t i = 0; i < n_cells; ++i)
        if (owned[i]) p << ' ' << base + i;
    }
    // Grids that open a scenario axis get their shape spelled out, so a
    // planned ablation shows which axes multiply the cell count.
    const core::GridGeometry geom = core::grid_geometry(grid);
    if (geom.cpus > 1 || geom.rams > 1 || geom.ptraces > 1 ||
        geom.jiffies > 1 || geom.populations > 1 || geom.fractions > 1 ||
        geom.nices > 1)
      p << " (axes: attack=" << geom.attacks << " scheduler=" << geom.schedulers
        << " hz=" << geom.ticks << " cpu=" << geom.cpus << " ram=" << geom.rams
        << " ptrace=" << geom.ptraces << " jiffy=" << geom.jiffies
        << " population=" << geom.populations << " fraction=" << geom.fractions
        << " nice=" << geom.nices << ")";
    p << '\n';
    return {};
  }

  if (planned == nullptr) {
    if (event_driven) grid.base.sim.kernel.event_driven = *event_driven;
    grid.cell_index_base = base;
    if (n_owned < n_cells)
      grid.cell_filter = [owned = std::move(owned)](std::size_t i) {
        return owned[i] != 0;
      };
    grid.collect_kernel_stats = metrics != nullptr;
    if (!trace_dir.empty()) {
      // One trace per admitted cell, first replicate only: replicate 0 is
      // the canonical seed, and one ring per cell keeps the disk cost
      // linear in cells rather than runs.
      grid.trace_path = [dir = trace_dir, sweep = sweep_name,
                         base](std::size_t cell, std::size_t seed_i) {
        if (seed_i != 0) return std::string();
        return dir + "/" + sweep + "-cell" + std::to_string(base + cell) +
               ".json";
      };
    }
    if (queue != nullptr) {  // plan pass: the workers start on it now
      queue->grids.push_back(
          {sweep_name, base, n_cells, n_owned, queue->runs.submit(grid)});
      return {};
    }
  }

  if (progress && n_owned < n_cells) progress->shrink_total(n_cells - n_owned);
  std::optional<trace::ScopeTimer> timer;
  if (metrics != nullptr) timer.emplace(metrics->phases, "grid");
  trace::PoolMetrics* pool = metrics != nullptr ? &metrics->pool : nullptr;
  if (planned != nullptr)
    return queue->runs.drain(planned->ticket, stream(sweep_name), pool);
  return core::BatchRunner(threads).run(grid, stream(sweep_name), pool);
}

void SweepRegistry::add(SweepSpec spec) {
  MTR_ENSURE_MSG(!spec.name.empty(), "sweep name must not be empty");
  MTR_ENSURE_MSG(spec.run != nullptr, "sweep " << spec.name << " has no body");
  MTR_ENSURE_MSG(find(spec.name) == nullptr,
                 "duplicate sweep registration: " << spec.name);
  specs_.push_back(std::move(spec));
}

const SweepSpec* SweepRegistry::find(std::string_view name) const {
  for (const SweepSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace mtr::report
