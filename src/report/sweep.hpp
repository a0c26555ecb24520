// The sweep substrate: a name -> sweep registry and the SweepContext every
// sweep body runs against (parameters, sinks, progress, and the run_grid
// entry point that applies cell gating for sharded/resumed sweeps). The
// bench layer registers its figure/table sweeps here; the CLI driver that
// builds contexts and owns flag parsing lives in src/dist (dist::sweep_main),
// so sweep definitions contain experiment logic only.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_runner.hpp"
#include "report/progress.hpp"
#include "report/result_sink.hpp"

namespace mtr::report {

/// Identity of one grid cell as a gate sees it, before anything runs: the
/// coordinates its records will carry.
using GridCellInfo = CellCoords;

/// Decides, in grid order, whether a cell executes. The driver composes
/// shard ownership and resume skipping into one gate; a gate may throw to
/// abort the sweep (e.g. resume output that contradicts the grid).
using CellGate = std::function<bool(const GridCellInfo&)>;

/// One invocation-wide run queue and the grids planned onto it. The driver
/// walks every selected sweep body twice against it:
///   - plan: each run_grid call claims its cell range, applies the gate,
///     and submits the admitted cells to `runs`, so the workers start at
///     once and never wait at a grid boundary;
///   - replay: the bodies run again, in order, and the i-th run_grid call
///     drains the i-th planned grid, emitting its cells to the sinks,
///     metrics, progress and observer on the calling thread — so every
///     output is written in exactly the order a grid-at-a-time run writes
///     it.
struct GridPlan {
  explicit GridPlan(unsigned threads) : runs(threads) {}

  struct Grid {
    std::string sweep;
    std::size_t base = 0;   // global index of the grid's first cell
    std::size_t cells = 0;  // cells in the grid
    std::size_t owned = 0;  // cells the gate admitted
    core::RunQueue::Ticket ticket = 0;
  };

  core::RunQueue runs;
  std::vector<Grid> grids;  // in plan order
  bool replaying = false;
  std::size_t replayed = 0;  // grids drained so far
  /// A failure that stopped the plan pass. The replay rethrows it when a
  /// body asks for the grid after the last planned one — the point where
  /// the failure struck — so every grid planned before it is still
  /// written, as it would be without the queue.
  std::exception_ptr plan_error;
};

/// Everything a sweep body needs: the sweep parameters, where results
/// stream, and where human-readable rendering goes.
struct SweepContext {
  double scale = 0.25;                 // workload scale (MTR_BENCH_SCALE)
  std::vector<std::uint64_t> seeds;    // replicate grid seeds per cell
  unsigned threads = 0;                // worker threads; 0 = hardware
  /// --engine override: forces every grid's kernel onto the event-driven
  /// or the slice-stepped loop. Engine choice is not a grid axis — cell
  /// indices, seeds, and record columns are untouched, so two runs that
  /// differ only here must produce byte-identical sink artifacts (the CI
  /// equivalence job diffs exactly that). Unset keeps each grid's own
  /// KernelConfig default.
  std::optional<bool> event_driven;
  ResultSink* sink = nullptr;          // never null (NullSink when unused)
  ProgressReporter* progress = nullptr;  // may be null
  std::ostream* out = nullptr;         // never null; may be a null stream

  /// Invocation-global cell counter, owned by the driver. run_grid claims
  /// a contiguous index range per grid — across every grid of every
  /// selected sweep — so records carry a stable merge ordinal.
  std::size_t* cell_cursor = nullptr;
  /// Cells the gate admitted so far (driver-owned; may be null).
  std::size_t* owned_cursor = nullptr;
  /// Sharding/resume gate; null admits every cell.
  CellGate gate;
  /// --dry-run: run_grid prints the cell plan to `plan` and executes
  /// nothing.
  bool dry_run = false;
  /// True when this invocation cannot see the full result set (dry run,
  /// shard of a larger grid, or resume): sweep bodies skip their ASCII
  /// figure/table rendering — the sinks plus mtr_merge are the output.
  bool partial = false;
  /// Dry-run plan destination; falls back to `out` when null.
  std::ostream* plan = nullptr;

  /// --trace-dir: when non-empty, run_grid writes one Perfetto trace-event
  /// JSON per admitted cell (first replicate only) into this directory.
  std::string trace_dir;
  /// --metrics: when non-null, run_grid folds per-cell wall time, kernel
  /// counters, phase timers, pool utilization, and run telemetry into this
  /// accumulator.
  trace::SweepMetrics* metrics = nullptr;
  /// Per-cell completion observer, invoked after the sink/metrics fold on
  /// the thread that drains the grid. The driver hangs its --status-file
  /// heartbeat here. May be null.
  std::function<void(const core::CellEvent&)> observer;
  /// The invocation-wide run queue (driver-owned). Null runs each grid on
  /// its own BatchRunner of `threads` workers, start to finish, inside
  /// run_grid.
  GridPlan* queue = nullptr;

  std::ostream& os() const { return *out; }

  /// Runs one grid on behalf of `sweep_name`: claims the grid's global
  /// cell-index range, applies the gate (sharding/resume), shrinks the
  /// progress total by the skipped cells, and streams admitted cells
  /// through the sink. Returns the executed cells in grid order — a subset
  /// of the grid when gated, empty under --dry-run and in a plan pass.
  std::vector<core::CellStats> run_grid(const std::string& sweep_name,
                                        core::BatchGrid grid) const;

  /// Bundles the sink, metrics fold, progress reporter and observer into
  /// a per-cell callback; `sweep_name` tags every emitted record.
  core::CellCallback stream(std::string sweep_name) const;

  /// Starts a labelled progress span (no-op without a reporter).
  void begin_progress(const std::string& label, std::size_t total_cells) const;
};

struct SweepSpec {
  std::string name;   // CLI key, e.g. "fig04"
  std::string title;  // one-line description for --list
  std::function<void(const SweepContext&)> run;
};

class SweepRegistry {
 public:
  /// Registration order is the --list / --all execution order. Duplicate
  /// names are rejected.
  void add(SweepSpec spec);

  const SweepSpec* find(std::string_view name) const;
  const std::vector<SweepSpec>& specs() const { return specs_; }

 private:
  std::vector<SweepSpec> specs_;
};

}  // namespace mtr::report
