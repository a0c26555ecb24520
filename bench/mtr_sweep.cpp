// mtr_sweep — the sweep-driver CLI. One binary runs any registered
// figure/table sweep on one run queue shared by every grid, streams per-cell
// results to CSV/JSONL sinks, and reports progress/ETA on stderr. Grids
// can be split across machines (--shard I/N), killed runs continued
// (--resume), and the per-shard outputs stitched back with mtr_merge.
//
//   mtr_sweep --list
//   mtr_sweep fig04 --out-dir results/
//   mtr_sweep --all --csv all.csv --jsonl all.jsonl --seeds 5 --threads 8
//   mtr_sweep --all --shard 1/3 --out-dir shard1/ --quiet
//   mtr_sweep --all --shard 1/3 --out-dir shard1/ --resume   # after a kill
#include "bench/sweeps.hpp"
#include "dist/driver.hpp"

int main(int argc, char** argv) {
  mtr::report::SweepRegistry registry;
  mtr::bench::register_all_sweeps(registry);
  return mtr::dist::sweep_main(registry, argc, argv);
}
