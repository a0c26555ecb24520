// Live progress for long sweeps: cells done / total, elapsed wall time,
// per-cell compute time, and an ETA extrapolated from the mean cell rate.
// Wired into the per-cell callback of each grid; prints to stderr by
// default so the figure rendering and the data sinks stay clean.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <ostream>
#include <string>

#include "core/batch_runner.hpp"

namespace mtr::report {

/// "43s", "2m06s", "1h02m" — compact duration for progress lines.
std::string fmt_duration(double seconds);

/// Mean-rate ETA: elapsed / done * remaining. Returns nullopt when there is
/// no defensible estimate — nothing done yet (division by zero), nothing
/// remaining, or a zero/negative/NaN elapsed (sub-resolution clocks would
/// extrapolate a zero ETA for hours of remaining work).
std::optional<double> eta_seconds(double elapsed_seconds, std::size_t done,
                                  std::size_t remaining);

class ProgressReporter {
 public:
  /// A disabled reporter swallows everything (one object, no branching at
  /// the call sites).
  explicit ProgressReporter(std::ostream& os, bool enabled = true);

  /// Starts a labelled span of `total_cells` cells (one sweep, possibly
  /// spanning several BatchRunner grids) and resets the ETA baseline.
  void begin(const std::string& label, std::size_t total_cells);

  /// BatchRunner per-cell hook; counts spans-so-far, not ev.index, so one
  /// reporter can span several consecutive grids.
  void on_cell(const core::CellEvent& ev);

  /// Toggles the per-cell progress lines (--quiet keeps the begin/finish
  /// summaries but drops the line-per-cell stream). Cell counting still
  /// runs, so finish() reports the true total either way.
  void set_per_cell(bool per_cell) { per_cell_ = per_cell; }

  /// Removes `n` cells from the span's total — cells a shard doesn't own
  /// or a resumed sweep skips — so counts and the ETA track what actually
  /// runs. No-op outside an active span.
  void shrink_total(std::size_t n);

  /// Closes the span with a summary line. No-op if begin was never called.
  void finish();

  // Span state, for consumers composing their own reporting (the driver's
  // --status-file heartbeat reads these alongside its own counters).
  std::size_t done() const { return done_; }
  std::size_t total() const { return total_; }
  double elapsed_seconds() const {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    return active_ ? dt.count() : 0.0;
  }

 private:
  std::ostream& os_;
  bool enabled_;
  bool per_cell_ = true;
  bool active_ = false;
  std::string label_;
  std::size_t done_ = 0;
  std::size_t total_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mtr::report
