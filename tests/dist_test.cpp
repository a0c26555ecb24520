// Distributed-sweep coverage: shard spec parsing and partition laws, the
// driver CLI (strict flag parsing, selection errors, sink plumbing,
// dry-run planning), resume edge cases (partial cell re-run, seed and
// coordinate mismatches), refusal of old-schema records and metrics and
// of run records with any field that does not decode,
// mtr_merge (duplicate/conflicting cells, gaps, missing and incomplete
// shards, the exit-code taxonomy, byte-identity of shard+resume runs
// against a single-process run), fault injection (plan parsing, crash and
// flush faults, the SIGKILL watchdog), crash consistency (every torn byte
// boundary of the final record recovers the complete prefix), status
// heartbeats and their shared staleness rule, and the mtr_fleet
// supervisor (deterministic backoff, chaos-proven byte-identical merges,
// partial merges with gap manifests, hung-shard kills), plus the
// whole-roster smoke digests pinned in mtrbench/digests.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "common/table.hpp"
#include "crypto/sha256.hpp"
#include "dist/driver.hpp"
#include "dist/fault.hpp"
#include "dist/fleet.hpp"
#include "dist/inspect.hpp"
#include "dist/json.hpp"
#include "dist/merge.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/resume.hpp"
#include "dist/shard.hpp"
#include "dist/status.hpp"
#include "helpers.hpp"
#include "report/result_sink.hpp"
#include "trace/series.hpp"

namespace mtr::dist {
namespace {

/// Every dist_test process works in its own directory, removed at exit, so
/// two runs at once (a Release and a sanitizer build, say) never share a
/// file. A threadsafe-style death-test child re-executes this binary; it
/// finds its parent's directory in the environment it inherits.
struct TempRoot {
  static constexpr const char* kVariable = "MTR_DIST_TEST_TMPDIR";
  const bool owner = std::getenv(kVariable) == nullptr;
  const std::filesystem::path path =
      owner ? std::filesystem::path(::testing::TempDir()) /
                  ("dist_test." + std::to_string(::getpid()))
            : std::filesystem::path(std::getenv(kVariable));
  TempRoot() {
    if (!owner) return;
    std::filesystem::create_directories(path);
    ::setenv(kVariable, path.c_str(), 1);
  }
  ~TempRoot() {
    std::error_code ignored;
    if (owner) std::filesystem::remove_all(path, ignored);
  }
};

std::string temp_path(const std::string& name) {
  static const TempRoot root;
  return (root.path / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Rewrites `path` to its first `n` lines (newline-terminated) — the shape
/// a kill between cell flushes leaves behind.
void keep_lines(const std::string& path, std::size_t n) {
  const auto lines = lines_of(read_file(path));
  ASSERT_GE(lines.size(), n);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += lines[i];
    out += '\n';
  }
  write_file(path, out);
}

/// Chops `bytes` off the end of `path` — the torn tail a kill mid-write
/// leaves behind, at an exact byte boundary of the test's choosing.
void chop_bytes(const std::string& path, std::uint64_t bytes) {
  const std::string text = read_file(path);
  ASSERT_GE(text.size(), bytes);
  write_file(path, text.substr(0, text.size() - bytes));
}

/// A registry with one real-experiment sweep: a 4-attack x 1 x 1 grid over
/// the context seeds. Every experiment bumps `runs` via its attack
/// factory, so tests can count exactly what executed (the factories return
/// nullptr — the runs stay baseline-cheap).
report::SweepRegistry counting_registry(std::atomic<int>* runs) {
  report::SweepRegistry registry;
  registry.add(
      {"grid", "counting 4-cell grid", [runs](const report::SweepContext& ctx) {
         core::BatchGrid grid;
         grid.base = test::quick_experiment(workloads::WorkloadKind::kOurs,
                                            ctx.scale);
         grid.seeds = ctx.seeds;
         for (int a = 0; a < 4; ++a) {
           // Append, not `"a" + ...`: GCC 12 -Wrestrict false-positives on
           // the operator+ chain.
           std::string label = "a";
           label += std::to_string(a);
           grid.attacks.push_back(
               {std::move(label),
                [runs]() -> std::unique_ptr<attacks::Attack> {
                  ++*runs;
                  return nullptr;
                }});
         }
         ctx.begin_progress("grid", 4);
         ctx.run_grid("grid", std::move(grid));
       }});
  return registry;
}

/// A registry with one real population sweep: 2 population sizes x 2
/// attacker fractions, real tenants spawned and metered per cell. Used by
/// the shard/resume byte-identity tests to prove populations regenerate
/// bit-identically from the cell seed alone.
report::SweepRegistry population_registry() {
  report::SweepRegistry registry;
  registry.add(
      {"pop", "population 4-cell grid", [](const report::SweepContext& ctx) {
         core::BatchGrid grid;
         grid.base = test::quick_experiment(workloads::WorkloadKind::kOurs,
                                            ctx.scale);
         grid.seeds = ctx.seeds;
         grid.attacks.push_back(
             {"baseline", []() -> std::unique_ptr<attacks::Attack> {
                return nullptr;
              }});
         grid.population_sizes = {1, 6};
         grid.attacker_fractions = {0.0, 0.4};
         ctx.begin_progress("pop", 4);
         ctx.run_grid("pop", std::move(grid));
       }});
  return registry;
}

/// Three sweeps of two grids each (2 cells apiece), the shape of the fig*
/// sweeps, for the invocation-wide run queue. `broken` names a sweep whose
/// second grid holds a cell whose attack factory throws; `throws` names a
/// sweep whose body itself throws after its first grid.
report::SweepRegistry multi_sweep_registry(const std::string& broken = "",
                                           const std::string& throws = "") {
  report::SweepRegistry registry;
  for (const char* sweep : {"first", "second", "third"}) {
    const std::string name = sweep;
    const bool breaks = name == broken;
    const bool body_throws = name == throws;
    registry.add({name, "two-grid sweep", [name, breaks, body_throws](
                                              const report::SweepContext& ctx) {
                    ctx.begin_progress(name, 4);
                    for (int k = 0; k < 2; ++k) {
                      core::BatchGrid grid;
                      grid.base = test::quick_experiment(
                          k == 0 ? workloads::WorkloadKind::kOurs
                                 : workloads::WorkloadKind::kPi,
                          ctx.scale);
                      grid.seeds = ctx.seeds;
                      grid.attacks.push_back({"baseline", nullptr});
                      if (breaks && k == 1) {
                        grid.attacks.push_back(
                            {"broken", []() -> std::unique_ptr<attacks::Attack> {
                               throw std::runtime_error("factory exploded");
                             }});
                      } else {
                        grid.schedulers = {sim::SchedulerKind::kO1,
                                           sim::SchedulerKind::kCfs};
                      }
                      ctx.run_grid(name, std::move(grid));
                      if (body_throws) throw std::runtime_error("body failed");
                    }
                  }});
  }
  return registry;
}

SweepOptions grid_options(const std::string& out_dir) {
  SweepOptions o;
  o.sweeps = {"grid"};
  o.out_dir = out_dir;
  o.scale = 0.02;
  o.seeds = {7, 8};
  o.threads = 2;
  o.progress = false;
  o.quiet = true;
  return o;
}

/// A synthetic cell (no simulation) for sink-level shard/resume fixtures.
core::CellStats synth_cell(std::uint64_t index,
                           const std::vector<std::uint64_t>& seeds) {
  core::CellStats cell;
  cell.attack_label = "a" + std::to_string(index);
  cell.scheduler = sim::SchedulerKind::kO1;
  cell.hz = TimerHz{250};
  cell.cell_index = index;
  cell.seeds = seeds;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    core::ExperimentResult r;
    r.wall_seconds = 1.0 + static_cast<double>(index) + 0.125 * static_cast<double>(i);
    r.overcharge = 1.0 / (3.0 + static_cast<double>(index + i));
    r.billed_seconds = 2.5 + static_cast<double>(i);
    r.true_seconds = 2.375;
    cell.runs.push_back(r);
    cell.add(r);
  }
  return cell;
}

/// Writes cells (by index) into one JSONL file via the real sink.
void write_shard_jsonl(const std::string& path,
                       const std::vector<std::uint64_t>& cell_indices) {
  report::JsonlSink sink(path);
  for (const std::uint64_t i : cell_indices)
    sink.write_cell("grid", synth_cell(i, {7, 8}));
}


TEST(ShardSpecTest, ParsesAndPartitionsDeterministically) {
  const ShardSpec s = parse_shard_spec("1/3");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_TRUE(s.sharded());
  EXPECT_EQ(to_string(s), "1/3");
  EXPECT_FALSE(ShardSpec{}.sharded());

  // Every cell belongs to exactly one shard.
  const ShardSpec shards[3] = {parse_shard_spec("0/3"), parse_shard_spec("1/3"),
                               parse_shard_spec("2/3")};
  for (std::uint64_t cell = 0; cell < 50; ++cell) {
    int owners = 0;
    for (const ShardSpec& shard : shards) owners += shard.owns(cell) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "cell " << cell;
  }

  for (const char* bad : {"3/3", "4/3", "x/3", "1/x", "1/0", "1", "/3", "1/",
                          "-1/3", "1/3x", ""})
    EXPECT_THROW(parse_shard_spec(bad), std::runtime_error) << bad;
}

TEST(SweepArgsTest, ParsesFlagsOverEnvDefaults) {
  const char* argv[] = {"mtr_sweep", "fig04",         "tab_countermeasures",
                        "--scale",   "0.5",           "--seeds",
                        "4",         "--first-seed",  "100",
                        "--threads", "3",             "--quiet",
                        "--no-progress", "--out-dir", "/tmp/x",
                        "--shard",   "1/4",           "--resume",
                        "--dry-run"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.sweeps, (std::vector<std::string>{"fig04", "tab_countermeasures"}));
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
  EXPECT_EQ(o.seeds, (std::vector<std::uint64_t>{100, 101, 102, 103}));
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.quiet);
  EXPECT_FALSE(o.progress);
  EXPECT_EQ(o.out_dir, "/tmp/x");
  EXPECT_EQ(o.shard.index, 1u);
  EXPECT_EQ(o.shard.count, 4u);
  EXPECT_TRUE(o.resume);
  EXPECT_TRUE(o.dry_run);
  EXPECT_FALSE(o.list);
  EXPECT_FALSE(o.event_driven.has_value());  // default: kernel's own choice

  const char* bad[] = {"mtr_sweep", "--bogus"};
  EXPECT_THROW(parse_sweep_args(2, bad), std::runtime_error);
}

TEST(SweepArgsTest, EngineSelectsTheKernelStepLoop) {
  const char* ev[] = {"mtr_sweep", "--engine", "event"};
  EXPECT_EQ(parse_sweep_args(3, ev).event_driven, std::optional<bool>{true});
  const char* sl[] = {"mtr_sweep", "--engine", "slice"};
  EXPECT_EQ(parse_sweep_args(3, sl).event_driven, std::optional<bool>{false});
  const char* bad[] = {"mtr_sweep", "--engine", "warp"};
  EXPECT_THROW(parse_sweep_args(3, bad), std::runtime_error);
}

TEST(SweepArgsTest, RejectsTrailingGarbageInNumericFlags) {
  const auto throws = [](std::vector<const char*> args) {
    args.insert(args.begin(), "mtr_sweep");
    EXPECT_THROW(
        parse_sweep_args(static_cast<int>(args.size()), args.data()),
        std::runtime_error)
        << args[1] << " " << args[2];
  };
  throws({"--scale", "2x"});
  throws({"--scale", "nan(2)x"});
  throws({"--threads", "8q"});
  throws({"--seeds", "3.5"});
  throws({"--shard", "1of3"});

  // The plain forms still parse.
  const char* ok[] = {"mtr_sweep", "--scale", "2.5", "--threads", "8",
                      "--seeds", "3"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(ok)), ok);
  EXPECT_DOUBLE_EQ(o.scale, 2.5);
  EXPECT_EQ(o.threads, 8u);
  EXPECT_EQ(o.seeds.size(), 3u);
}

TEST(SweepDriverTest, ListAndUnknownSelection) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  SweepOptions list_opts;
  list_opts.list = true;
  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, list_opts, out, err), 0);
  EXPECT_NE(out.str().find("grid  counting 4-cell grid"), std::string::npos);

  SweepOptions unknown;
  unknown.sweeps = {"fig99"};
  EXPECT_EQ(run_sweeps(registry, unknown, out, err), 2);
  EXPECT_NE(err.str().find("fig99"), std::string::npos);

  SweepOptions nothing;
  EXPECT_EQ(run_sweeps(registry, nothing, out, err), 2);

  SweepOptions conflicting;
  conflicting.all = true;
  conflicting.sweeps = {"grid"};
  EXPECT_EQ(run_sweeps(registry, conflicting, out, err), 2);
  EXPECT_NE(err.str().find("--all conflicts"), std::string::npos);

  SweepOptions resume_without_output;
  resume_without_output.sweeps = {"grid"};
  resume_without_output.resume = true;
  EXPECT_EQ(run_sweeps(registry, resume_without_output, out, err), 2);
  EXPECT_NE(err.str().find("--resume needs output"), std::string::npos);
  EXPECT_EQ(runs.load(), 0);
}

TEST(SweepDriverTest, RunsGridAndCreatesSinkParentDirs) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  const std::string root = temp_path("dist_driver_parents");
  std::filesystem::remove_all(root);
  SweepOptions opts = grid_options("");
  opts.csv_path = root + "/deep/nested/all.csv";
  opts.jsonl_path = root + "/deep/nested/all.jsonl";

  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_EQ(runs.load(), 8);  // 4 cells x 2 seeds
  EXPECT_TRUE(std::filesystem::exists(opts.csv_path));
  EXPECT_TRUE(std::filesystem::exists(opts.jsonl_path));
  EXPECT_EQ(lines_of(read_file(opts.csv_path)).size(), 1u + 8u);
  EXPECT_EQ(lines_of(read_file(opts.jsonl_path)).size(), 8u + 4u);
  std::filesystem::remove_all(root);
}

TEST(SweepDriverTest, DryRunPlansWithoutExecuting) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  const std::string dir = temp_path("dist_dry_run_out");
  std::filesystem::remove_all(dir);
  SweepOptions opts = grid_options(dir);
  opts.dry_run = true;

  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir));  // no sinks under --dry-run
  EXPECT_NE(out.str().find("grid: cells [0,4) — runs all 4"), std::string::npos);
  EXPECT_NE(out.str().find("dry run: 1 sweep(s), 4 cell(s)"), std::string::npos);

  // Sharded plan lists the owned global indices.
  opts.shard = parse_shard_spec("1/2");
  std::ostringstream out2;
  EXPECT_EQ(run_sweeps(registry, opts, out2, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_NE(out2.str().find("grid: cells [0,4) — runs 2/4: 1 3"),
            std::string::npos);
  EXPECT_NE(out2.str().find("shard 1/2 runs 2"), std::string::npos);
}

SweepOptions all_options(const std::string& root, unsigned threads) {
  SweepOptions o;
  o.all = true;
  o.csv_path = root + "/all.csv";
  o.jsonl_path = root + "/all.jsonl";
  o.out_dir = root + "/dir";
  o.metrics_path = root + "/metrics.json";
  o.scale = 0.02;
  o.seeds = {7, 8};
  o.threads = threads;
  o.progress = false;
  o.quiet = true;
  return o;
}

TEST(SweepDriverTest, AllSweepsAreByteIdenticalAcrossThreadCounts) {
  const report::SweepRegistry registry = multi_sweep_registry();
  const std::string root = temp_path("dist_all_threads");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, all_options(root + "/t1", 1), out, err), 0)
      << err.str();
  ASSERT_EQ(run_sweeps(registry, all_options(root + "/t4", 4), out, err), 0)
      << err.str();

  // The shared files interleave every sweep, so they pin the emission
  // order across grid and sweep boundaries, not just within a grid.
  for (const char* file : {"all.csv", "all.jsonl", "dir/first.csv",
                           "dir/first.jsonl", "dir/second.csv",
                           "dir/second.jsonl", "dir/third.csv",
                           "dir/third.jsonl"}) {
    const std::string one = read_file(root + "/t1/" + file);
    EXPECT_FALSE(one.empty()) << file;
    EXPECT_EQ(one, read_file(root + "/t4/" + file)) << file;
  }
  // Cells land in global index order, sweep after sweep.
  std::vector<std::uint64_t> indices;
  std::vector<std::string> sweeps;
  for (const std::string& line : lines_of(read_file(root + "/t1/all.jsonl"))) {
    const json::Value record = json::parse_document(line);
    if (json::get_string(record, "record") != "cell") continue;
    indices.push_back(json::get_u64(record, "cell_index"));
    sweeps.push_back(json::get_string(record, "sweep"));
  }
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8,
                                                 9, 10, 11}));
  EXPECT_EQ(sweeps.front(), "first");
  EXPECT_EQ(sweeps.back(), "third");

  // Counter-class metrics agree too; only timings may differ.
  std::ostringstream cmp;
  EXPECT_EQ(compare_metrics(cmp, "t1", read_metrics_json(root + "/t1/metrics.json"),
                            "t4", read_metrics_json(root + "/t4/metrics.json")),
            0)
      << cmp.str();
  std::filesystem::remove_all(root);
}

/// Threads of this process (Linux: one /proc/self/task entry each); 0 when
/// that directory is not there to count.
std::size_t live_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return n;
}

/// Runs the CLI entry point on the three-sweep registry and returns
/// {exit code, stderr}.
std::pair<int, std::string> sweep_cli(const report::SweepRegistry& registry,
                                      const std::string& out_dir) {
  const char* argv[] = {"mtr_sweep", "--all",        "--out-dir",  out_dir.c_str(),
                        "--scale",   "0.02",         "--seeds",    "2",
                        "--first-seed", "7",         "--threads",  "4",
                        "--quiet",   "--no-progress"};
  ::testing::internal::CaptureStderr();
  const int code =
      sweep_main(registry, static_cast<int>(std::size(argv)), argv);
  return {code, ::testing::internal::GetCapturedStderr()};
}

TEST(SweepDriverTest, FailingSweepExitsOneAfterWritingEveryEarlierSweep) {
  const std::string root = temp_path("dist_all_failing");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;

  // References: the healthy roster, and the diagnostic the failing sweep
  // gives when it runs alone.
  ASSERT_EQ(run_sweeps(multi_sweep_registry(), all_options(root + "/ok", 2), out, err),
            0);
  const report::SweepRegistry broken = multi_sweep_registry("second");
  SweepOptions alone = all_options(root + "/alone", 2);
  alone.all = false;
  alone.sweeps = {"second"};
  std::string diagnostic;
  try {
    run_sweeps(broken, alone, out, err);
  } catch (const std::exception& e) {
    diagnostic = e.what();
  }
  EXPECT_NE(diagnostic.find("BatchRunner cell [attack=broken"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("seed=7] failed: factory exploded"), std::string::npos)
      << diagnostic;

  const std::size_t threads_before = live_threads();
  const auto [code, stderr_text] = sweep_cli(broken, root + "/run");
  // No worker outlives the failed invocation.
  EXPECT_EQ(live_threads(), threads_before);
  EXPECT_EQ(code, 1);
  EXPECT_EQ(stderr_text, "mtr_sweep: " + diagnostic + "\n");
  // The sweep before the failure is complete and byte-identical; the
  // failing sweep kept what a grid-at-a-time run writes (its first grid
  // and the healthy cell of the second: 3 cells x 2 seeds); the sweep
  // after it never opened its files.
  EXPECT_EQ(read_file(root + "/run/first.csv"), read_file(root + "/ok/dir/first.csv"));
  EXPECT_EQ(read_file(root + "/run/first.jsonl"),
            read_file(root + "/ok/dir/first.jsonl"));
  EXPECT_EQ(lines_of(read_file(root + "/run/second.csv")).size(), 1u + 3 * 2);
  EXPECT_FALSE(std::filesystem::exists(root + "/run/third.csv"));

  // A body that throws is deferred the same way: the plan pass stops
  // there, and the replay writes everything before it, then fails.
  const auto [code2, stderr2] =
      sweep_cli(multi_sweep_registry("", "second"), root + "/body");
  EXPECT_EQ(live_threads(), threads_before);
  EXPECT_EQ(code2, 1);
  EXPECT_EQ(stderr2, "mtr_sweep: body failed\n");
  EXPECT_EQ(read_file(root + "/body/first.csv"), read_file(root + "/ok/dir/first.csv"));
  EXPECT_EQ(lines_of(read_file(root + "/body/second.csv")).size(), 1u + 2 * 2);
  EXPECT_FALSE(std::filesystem::exists(root + "/body/third.csv"));
  std::filesystem::remove_all(root);
}

TEST(ShardMergeTest, MergedShardsAreByteIdenticalToSingleRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_shard_merge");
  std::filesystem::remove_all(root);

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);
  EXPECT_EQ(runs.load(), 8);

  // 4 cells round-robin over 3 shards: {0,3}, {1}, {2}.
  MergeOptions merge;
  merge.csv_out = root + "/merged/grid.csv";
  merge.jsonl_out = root + "/merged/grid.jsonl";
  runs = 0;
  for (int shard = 0; shard < 3; ++shard) {
    SweepOptions opts = grid_options(root + "/shard" + std::to_string(shard));
    opts.shard = parse_shard_spec(std::to_string(shard) + "/3");
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0);
    merge.csv_in.push_back(opts.out_dir + "/grid.csv");
    merge.jsonl_in.push_back(opts.out_dir + "/grid.jsonl");
  }
  EXPECT_EQ(runs.load(), 8);  // every cell ran on exactly one shard

  std::ostringstream merge_out, merge_err;
  ASSERT_EQ(run_merge(merge, merge_out, merge_err), 0) << merge_err.str();
  EXPECT_EQ(read_file(merge.csv_out), read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(merge.jsonl_out), read_file(root + "/ref/grid.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(ResumeTest, PartialCellIsRerunAndBytesMatchUninterruptedRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string dir = temp_path("dist_resume_out");
  std::filesystem::remove_all(dir);

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(dir), out, err), 0);
  EXPECT_EQ(runs.load(), 8);
  const std::string ref_csv = read_file(dir + "/grid.csv");
  const std::string ref_jsonl = read_file(dir + "/grid.jsonl");

  // Simulate a kill inside cell 1: the JSONL keeps cell 0's block (3
  // lines) plus one orphan run line; the CSV keeps the header, cell 0's
  // two rows, and one row of cell 1.
  keep_lines(dir + "/grid.jsonl", 4);
  keep_lines(dir + "/grid.csv", 4);

  runs = 0;
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0);
  // Cell 0 is skipped; the partially-written cell 1 reruns in full.
  EXPECT_EQ(runs.load(), 6);
  EXPECT_NE(err2.str().find("1 cell(s) already complete"), std::string::npos);
  EXPECT_EQ(read_file(dir + "/grid.csv"), ref_csv);
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), ref_jsonl);

  // Resuming a finished sweep runs nothing and changes nothing.
  runs = 0;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(read_file(dir + "/grid.csv"), ref_csv);
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), ref_jsonl);
  std::filesystem::remove_all(dir);
}

TEST(PopulationSweepTest, ThreadsShardsAndResumePreservePopulationBytes) {
  // Populations are regenerated from the cell seed alone, so a populated
  // grid must be byte-identical however the work is split: worker thread
  // count, shard partition, or a mid-cell kill healed by --resume.
  const std::string root = temp_path("dist_pop_identity");
  std::filesystem::remove_all(root);
  const report::SweepRegistry registry = population_registry();
  std::ostringstream out, err;

  SweepOptions ref = grid_options(root + "/ref");
  ref.sweeps = {"pop"};
  ref.threads = 1;
  ASSERT_EQ(run_sweeps(registry, ref, out, err), 0) << err.str();
  const std::string ref_csv = read_file(root + "/ref/pop.csv");
  const std::string ref_jsonl = read_file(root + "/ref/pop.jsonl");
  // The populated cells really metered their tenants.
  EXPECT_NE(ref_jsonl.find("\"population\":6"), std::string::npos);
  EXPECT_NE(ref_jsonl.find("\"pop_tenants\":6"), std::string::npos);

  SweepOptions threaded = ref;
  threaded.out_dir = root + "/threads";
  threaded.threads = 4;
  ASSERT_EQ(run_sweeps(registry, threaded, out, err), 0) << err.str();
  EXPECT_EQ(read_file(threaded.out_dir + "/pop.csv"), ref_csv);
  EXPECT_EQ(read_file(threaded.out_dir + "/pop.jsonl"), ref_jsonl);

  MergeOptions merge;
  merge.csv_out = root + "/merged/pop.csv";
  merge.jsonl_out = root + "/merged/pop.jsonl";
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions opts = ref;
    opts.out_dir = root + "/shard" + std::to_string(shard);
    opts.shard = parse_shard_spec(std::to_string(shard) + "/2");
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    merge.csv_in.push_back(opts.out_dir + "/pop.csv");
    merge.jsonl_in.push_back(opts.out_dir + "/pop.jsonl");
  }
  std::ostringstream merge_out, merge_err;
  ASSERT_EQ(run_merge(merge, merge_out, merge_err), 0) << merge_err.str();
  EXPECT_EQ(read_file(merge.csv_out), ref_csv);
  EXPECT_EQ(read_file(merge.jsonl_out), ref_jsonl);

  // Kill inside the first populated cell (cell 2): its partial block and
  // orphan run must be rolled back and regenerated bit-identically.
  SweepOptions resumed = ref;
  resumed.out_dir = root + "/resumed";
  ASSERT_EQ(run_sweeps(registry, resumed, out, err), 0) << err.str();
  keep_lines(resumed.out_dir + "/pop.jsonl", 7);  // 2 cell blocks + 1 orphan
  keep_lines(resumed.out_dir + "/pop.csv", 6);    // header + 4 rows + 1
  resumed.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resumed, out, err2), 0) << err2.str();
  EXPECT_NE(err2.str().find("2 cell(s) already complete"), std::string::npos);
  EXPECT_EQ(read_file(resumed.out_dir + "/pop.csv"), ref_csv);
  EXPECT_EQ(read_file(resumed.out_dir + "/pop.jsonl"), ref_jsonl);
  std::filesystem::remove_all(root);
}

TEST(ResumeTest, SeedMismatchIsRejected) {
  const std::string path = temp_path("dist_resume_seeds.jsonl");
  write_shard_jsonl(path, {0});
  EXPECT_THROW(ResumeIndex::scan("", path, {7, 8, 9}), std::runtime_error);
  EXPECT_THROW(ResumeIndex::scan("", path, {8, 9}), std::runtime_error);
  EXPECT_NO_THROW(ResumeIndex::scan("", path, {7, 8}));
  std::filesystem::remove(path);
}

TEST(ResumeTest, CoordinateMismatchIsRejected) {
  const std::string path = temp_path("dist_resume_coords.jsonl");
  write_shard_jsonl(path, {0});
  const ResumeIndex index = ResumeIndex::scan("", path, {7, 8});
  ASSERT_EQ(index.size(), 1u);

  report::GridCellInfo match;
  match.cell_index = 0;
  match.sweep = "grid";
  match.attack = "a0";
  match.scheduler = "o1";
  match.hz = 250;
  match.cpu_hz = 2'530'000'000;  // synth_cell's CellStats defaults
  match.ram_frames = 16 * 1024;
  match.reclaim_batch = 256;
  match.ptrace = "allow_all";
  match.jiffy_timers = true;
  EXPECT_TRUE(index.completed(match));

  report::GridCellInfo absent = match;
  absent.cell_index = 7;
  EXPECT_FALSE(index.completed(absent));

  // Same index, different grid: resuming into foreign output must abort,
  // not silently skip — and the error names the differing field.
  report::GridCellInfo conflicting = match;
  conflicting.attack = "something else";
  try {
    index.completed(conflicting);
    FAIL() << "expected a coordinate-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("field 'attack'"), std::string::npos) << what;
    EXPECT_NE(what.find(path + ":1"), std::string::npos) << what;
  }

  // A scenario-axis contradiction is caught the same way: the recorded
  // output came from a different machine configuration.
  report::GridCellInfo wrong_axis = match;
  wrong_axis.jiffy_timers = false;
  try {
    index.completed(wrong_axis);
    FAIL() << "expected a coordinate-mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("field 'jiffy_timers'"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(ResumeTest, MissingCounterpartFileIsRejected) {
  const std::string jsonl = temp_path("dist_resume_missing.jsonl");
  const std::string csv = temp_path("dist_resume_missing.csv");
  std::filesystem::remove(csv);
  write_shard_jsonl(jsonl, {0});
  // Skipping cells recorded only in the JSONL would leave the (fresh) CSV
  // without them — refuse rather than emit a silently incomplete file.
  EXPECT_THROW(ResumeIndex::scan(csv, jsonl, {7, 8}), std::runtime_error);
  // With nothing complete anywhere, a missing counterpart is just a fresh
  // start.
  write_file(jsonl, "");
  EXPECT_EQ(ResumeIndex::scan(csv, jsonl, {7, 8}).size(), 0u);
  std::filesystem::remove(jsonl);
}

TEST(ResumeTest, CorruptJsonlRollsTheCsvBackToo) {
  const std::string csv = temp_path("dist_resume_corrupt.csv");
  const std::string jsonl = temp_path("dist_resume_corrupt.jsonl");
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
    sink.write_cell("grid", synth_cell(1, {7, 8}));
  }
  write_file(jsonl, "garbage, not a record\n");

  // The files agree on zero complete cells, so nothing is skippable and
  // the CSV must roll back to its header — otherwise the re-run cells
  // would append duplicate rows.
  const ResumeIndex index = ResumeIndex::scan(csv, jsonl, {7, 8});
  EXPECT_EQ(index.size(), 0u);
  index.truncate_files();
  const auto lines = lines_of(read_file(csv));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(report::split_csv_line(lines[0]), report::run_schema_keys());
  EXPECT_EQ(read_file(jsonl), "");
  std::filesystem::remove(csv);
  std::filesystem::remove(jsonl);
}

TEST(SweepArgsTest, EnvDefaultsAreStrictToo) {
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "2x", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "4", 1), 0);
  EXPECT_EQ(default_sweep_options().seeds.size(), 4u);
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "", 1), 0);  // empty = unset
  EXPECT_EQ(default_sweep_options().seeds.size(), 3u);
  ASSERT_EQ(unsetenv("MTR_BENCH_SEEDS"), 0);

  ASSERT_EQ(setenv("MTR_BENCH_SCALE", "abc", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(unsetenv("MTR_BENCH_SCALE"), 0);

  ASSERT_EQ(setenv("MTR_BENCH_THREADS", "8q", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(unsetenv("MTR_BENCH_THREADS"), 0);
}

TEST(RecordsTest, ScanRecoversCompletePrefixFromKilledFile) {
  const std::string path = temp_path("dist_tail.jsonl");
  write_shard_jsonl(path, {0, 1});
  const std::string full = read_file(path);

  // Drop the final cell-summary line: cell 1 becomes a dangling tail.
  keep_lines(path, 5);
  FileScan scan = scan_jsonl(path);
  EXPECT_FALSE(scan.clean);
  ASSERT_EQ(scan.blocks.size(), 1u);
  EXPECT_EQ(scan.blocks[0].coords.cell_index, 0u);
  EXPECT_TRUE(scan.blocks[0].closed);
  // The valid prefix ends exactly where cell 0's block ends.
  const auto lines = lines_of(full);
  std::size_t block0_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) block0_bytes += lines[i].size() + 1;
  EXPECT_EQ(scan.valid_bytes, block0_bytes);

  // A truncated final line (kill mid-write) is tail garbage, not data.
  write_file(path, full.substr(0, full.size() - 10));
  scan = scan_jsonl(path);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.blocks.size(), 1u);
  std::filesystem::remove(path);
}

TEST(MergeTest, SyntheticShardsMergeByteIdentically) {
  const std::string root = temp_path("dist_merge_synth");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/all.jsonl", {0, 1, 2, 3});
  write_shard_jsonl(root + "/s0.jsonl", {0, 2});
  write_shard_jsonl(root + "/s1.jsonl", {1, 3});

  // Input order must not matter: cells come back in cell_index order.
  const std::string merged =
      merge_jsonl({root + "/s1.jsonl", root + "/s0.jsonl"});
  EXPECT_EQ(merged, read_file(root + "/all.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(MergeTest, DuplicateCellsAreReportedWithCoordinates) {
  const std::string root = temp_path("dist_merge_dup");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0, 1});
  write_shard_jsonl(root + "/s1.jsonl", {1, 2});
  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s1.jsonl"});
    FAIL() << "expected duplicate-cell error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate cell 1"), std::string::npos) << what;
    EXPECT_NE(what.find("attack=a1"), std::string::npos) << what;
    EXPECT_NE(what.find("s0.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("s1.jsonl"), std::string::npos) << what;
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, GapsMissingEmptyAndIncompleteInputsFail) {
  const std::string root = temp_path("dist_merge_bad");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Gap: shards 0 and 2 of 3 merged without shard 1's output.
  write_shard_jsonl(root + "/s0.jsonl", {0, 3});
  write_shard_jsonl(root + "/s2.jsonl", {2});
  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s2.jsonl"});
    FAIL() << "expected gap error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing cell(s) 1"),
              std::string::npos)
        << e.what();
  }

  // Missing files fail; merging nothing but empty files fails.
  EXPECT_THROW(merge_jsonl({root + "/nope.jsonl"}), std::runtime_error);
  write_file(root + "/empty.jsonl", "");
  try {
    merge_jsonl({root + "/empty.jsonl"});
    FAIL() << "expected empty-input error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no complete cells"), std::string::npos)
        << e.what();
  }

  // But an empty file next to real shards is fine: a shard can own zero
  // cells of a small sweep.
  write_shard_jsonl(root + "/full.jsonl", {0, 1});
  EXPECT_EQ(merge_jsonl({root + "/full.jsonl", root + "/empty.jsonl"}),
            read_file(root + "/full.jsonl"));

  // A killed shard (runs without their summary) must be resumed, not
  // merged.
  write_shard_jsonl(root + "/killed.jsonl", {0, 1});
  keep_lines(root + "/killed.jsonl", 5);
  try {
    merge_jsonl({root + "/killed.jsonl"});
    FAIL() << "expected incomplete-shard error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, CsvOnlyMergeRejectsShortFinalBlock) {
  // Every file's only block is open (EOF cannot prove a CSV cell done), so
  // the merge falls back to the largest block as the seed-count reference
  // — a killed single-cell shard must still be rejected.
  const std::string root = temp_path("dist_merge_csv_short");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  {
    report::CsvSink full(root + "/s0.csv");
    full.write_cell("grid", synth_cell(0, {7, 8}));
    report::CsvSink killed(root + "/s1.csv");
    killed.write_cell("grid", synth_cell(1, {7}));  // 1 of 2 seed rows
  }
  try {
    merge_csv({root + "/s0.csv", root + "/s1.csv"});
    FAIL() << "expected incomplete-cell error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(root);
}

TEST(ResumeTest, CsvOnlyResumeDistinguishesPartialTailFromSeedMismatch) {
  const std::string path = temp_path("dist_resume_csv.csv");
  {
    report::CsvSink sink(path);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
  }
  // A strict prefix of the expected seed run is a kill artifact: re-run it.
  EXPECT_EQ(ResumeIndex::scan(path, "", {7, 8, 9}).size(), 0u);
  // A complete or contradictory seed set is not — it must throw, not be
  // silently truncated away.
  EXPECT_THROW(ResumeIndex::scan(path, "", {8, 9}), std::runtime_error);
  EXPECT_THROW(ResumeIndex::scan(path, "", {9, 10, 11}), std::runtime_error);
  EXPECT_EQ(ResumeIndex::scan(path, "", {7, 8}).size(), 1u);
  std::filesystem::remove(path);
}

TEST(MergeTest, CorruptAggregateIsDetected) {
  const std::string root = temp_path("dist_merge_corrupt");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s.jsonl", {0});

  // Tamper with a stat inside a run record: the recomputed cell aggregate
  // no longer matches the recorded summary.
  std::string bytes = read_file(root + "/s.jsonl");
  const std::size_t at = bytes.find("\"wall_seconds\":1");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 16, "\"wall_seconds\":9");
  write_file(root + "/s.jsonl", bytes);
  try {
    merge_jsonl({root + "/s.jsonl"});
    FAIL() << "expected aggregate-mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recomputed aggregate"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(root);
}

TEST(RecordsTest, StrictParseRejectsGarbageIntegers) {
  EXPECT_EQ(parse_u64("0"), std::uint64_t{0});
  EXPECT_EQ(parse_u64("12"), std::uint64_t{12});
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  // Everything bare std::stoull would have let through: trailing garbage,
  // leading whitespace, explicit signs, hex, wrapped negatives, overflow.
  for (const char* bad : {"", " 12", "12 ", "12abc", "+12", "+0x1f", "-3",
                          "0x1f", "1e3", "18446744073709551616",
                          "99999999999999999999"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  // The double parser backing --scale is full-match strict too.
  EXPECT_TRUE(parse_f64("2.5").has_value());
  EXPECT_FALSE(parse_f64("2x").has_value());
  EXPECT_FALSE(parse_f64(" 2").has_value());
}

TEST(RecordsTest, ScanErrorsNameFileLineAndField) {
  // JSONL: mangle the second run record's cell_index into "+0" — strict
  // parsing must stop the scan naming the file, the 1-based line, and the
  // field, and keep the (empty) valid prefix.
  const std::string jsonl = temp_path("dist_err_field.jsonl");
  write_shard_jsonl(jsonl, {0});
  {
    auto lines = lines_of(read_file(jsonl));
    ASSERT_EQ(lines.size(), 3u);
    const std::size_t at = lines[1].find("\"cell_index\":0");
    ASSERT_NE(at, std::string::npos);
    lines[1].replace(at, 14, "\"cell_index\":+0");
    write_file(jsonl, lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  }
  FileScan scan = scan_jsonl(jsonl);
  EXPECT_FALSE(scan.clean);
  EXPECT_NE(scan.tail_error.find(jsonl + ":2"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'cell_index'"), std::string::npos)
      << scan.tail_error;

  // CSV: same corruption in the second data row (file line 3).
  const std::string csv = temp_path("dist_err_field.csv");
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
    auto lines = lines_of(read_file(csv));
    ASSERT_EQ(lines.size(), 3u);
    ASSERT_EQ(lines[2].rfind("4,grid,0,", 0), 0u) << lines[2];
    lines[2].replace(0, 9, "4,grid,0x0,");
    write_file(csv, lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  }
  scan = scan_csv(csv);
  EXPECT_FALSE(scan.clean);
  EXPECT_NE(scan.tail_error.find(csv + ":3"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'cell_index'"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'0x0'"), std::string::npos)
      << scan.tail_error;

  // JSONL lines the reader rejects stop the scan at the first byte of the
  // line, keeping the complete cell before it: a bad literal, a string
  // that never closes, a stray '}', and nesting too deep to recurse into.
  write_shard_jsonl(jsonl, {0, 1});
  const auto lines = lines_of(read_file(jsonl));
  ASSERT_EQ(lines.size(), 6u);  // two runs and a summary per cell
  const std::uint64_t cell0_bytes =
      lines[0].size() + lines[1].size() + lines[2].size() + 3;
  const std::string cell0_end = "(byte " + std::to_string(cell0_bytes) + ")";
  const auto scan_with_line4 = [&](const std::string& replacement) {
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i)
      text += (i == 3 ? replacement : lines[i]) + "\n";
    write_file(jsonl, text);
    return scan_jsonl(jsonl);
  };
  std::string bad_literal = lines[3];
  const std::size_t jiffy = bad_literal.find("\"jiffy_timers\":true");
  ASSERT_NE(jiffy, std::string::npos);
  bad_literal.replace(jiffy, 19, "\"jiffy_timers\":tru");
  const std::string unterminated =
      lines[3].substr(0, lines[3].find("\"attack\":\"") + 12);
  for (const std::string& bad : {bad_literal, unterminated, lines[3] + "}",
                                 std::string(100000, '[')}) {
    const FileScan s = scan_with_line4(bad);
    EXPECT_FALSE(s.clean) << bad.substr(0, 80);
    EXPECT_EQ(s.blocks.size(), 1u) << s.tail_error;
    EXPECT_EQ(s.valid_bytes, cell0_bytes) << s.tail_error;
    EXPECT_NE(s.tail_error.find(jsonl + ":4: unparseable record"),
              std::string::npos)
        << s.tail_error;
    EXPECT_NE(s.tail_error.find(cell0_end), std::string::npos)
        << s.tail_error;
  }

  // A record missing any coordinate names it; the names come from the
  // coordinate table, so none can be left out. In CSV every coordinate
  // that is not free text is parsed strictly and named the same way.
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
    sink.write_cell("grid", synth_cell(1, {7, 8}));
  }
  const auto csv_lines = lines_of(read_file(csv));
  ASSERT_EQ(csv_lines.size(), 5u);
  const std::vector<std::string> header = report::split_csv_line(csv_lines[0]);
  const std::string csv_row3_end =
      "(byte " +
      std::to_string(csv_lines[0].size() + csv_lines[1].size() +
                     csv_lines[2].size() + 3) +
      ")";
  report::CellCoords layout;
  report::for_each_coord(
      [&](const char* key, auto& member) {
        const std::string tag = std::string("\"") + key + "\":";
        std::string renamed = lines[3];
        const std::size_t at = renamed.find(tag);
        ASSERT_NE(at, std::string::npos) << key;
        renamed.replace(at, tag.size(), "\"renamed\":");
        const FileScan s = scan_with_line4(renamed);
        EXPECT_EQ(s.valid_bytes, cell0_bytes) << key;
        EXPECT_NE(s.tail_error.find(jsonl + ":4"), std::string::npos)
            << s.tail_error;
        EXPECT_NE(s.tail_error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << s.tail_error;
        EXPECT_NE(s.tail_error.find(cell0_end), std::string::npos)
            << s.tail_error;

        using T = std::remove_cvref_t<decltype(member)>;
        if constexpr (!std::is_same_v<T, std::string>) {
          const std::size_t column = static_cast<std::size_t>(
              std::find(header.begin(), header.end(), key) - header.begin());
          ASSERT_LT(column, header.size()) << key;
          std::vector<std::string> row = report::split_csv_line(csv_lines[3]);
          row[column] = "x1";
          std::string text;
          for (std::size_t i = 0; i < csv_lines.size(); ++i) {
            if (i == 3) {
              for (std::size_t c = 0; c < row.size(); ++c) {
                if (c) text += ',';
                append_csv_cell(text, row[c]);
              }
            } else {
              text += csv_lines[i];
            }
            text += '\n';
          }
          write_file(csv, text);
          const FileScan c = scan_csv(csv);
          EXPECT_FALSE(c.clean) << key;
          EXPECT_NE(c.tail_error.find(csv + ":4: field '" + key +
                                      "' has invalid value 'x1'"),
                    std::string::npos)
              << c.tail_error;
          EXPECT_NE(c.tail_error.find(csv_row3_end), std::string::npos)
              << c.tail_error;
        }
      },
      layout);
  std::filesystem::remove(jsonl);
  std::filesystem::remove(csv);
}

/// A JSON value that a run-record member of type T cannot decode: the
/// wrong JSON kind, an out-of-range number, or text the token codec rejects.
template <class T>
std::string undecodable() {
  if constexpr (std::is_same_v<T, bool>) return "1";
  else if constexpr (std::is_same_v<T, double>) return "1e999";
  else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
    return "9223372036854775808";
  else if constexpr (std::is_integral_v<T>) return "-1";
  else if constexpr (std::is_same_v<T, std::string>) return "7";
  else if constexpr (std::is_same_v<T, workloads::WorkloadKind>) return "\"Z\"";
  else if constexpr (std::is_same_v<T, crypto::Digest32>)
    return "\"z" + std::string(63, '0') + "\"";
  else if constexpr (std::is_same_v<T, QuantileSketch>) return "\"1;2\"";
  else {
    static_assert(std::is_same_v<T, std::vector<std::string>>);
    return "\"; \"";
  }
}

TEST(RecordsTest, EveryRunFieldThatDoesNotDecodeStopsScanResumeAndMerge) {
  // For every key of the run-record table, an undecodable value in the
  // second cell's first run line stops the scan there, naming the line,
  // the key and the byte where the line starts; resume keeps exactly
  // cell 0, and mtr_merge refuses the shard as corrupt.
  const std::string jsonl = temp_path("dist_field_corrupt.jsonl");
  write_shard_jsonl(jsonl, {0, 1});
  const auto lines = lines_of(read_file(jsonl));
  ASSERT_EQ(lines.size(), 6u);  // two runs and a summary per cell
  const std::uint64_t cell0_bytes =
      lines[0].size() + lines[1].size() + lines[2].size() + 3;
  const std::string cell0_end = "(byte " + std::to_string(cell0_bytes) + ")";
  std::size_t keys = 0;
  report::RunRecord layout;
  report::for_each_run_field(
      [&](const char* key, auto& member) {
        ++keys;
        const std::string tag = std::string("\"") + key + "\":";
        std::string bad = lines[3];
        const std::size_t from = bad.find(tag) + tag.size();
        ASSERT_GT(from, tag.size()) << key;
        const std::size_t end = bad[from] == '"'
                                    ? bad.find('"', from + 1) + 1
                                    : bad.find_first_of(",}", from);
        bad.replace(from, end - from,
                    undecodable<std::remove_cvref_t<decltype(member)>>());
        std::string text;
        for (std::size_t i = 0; i < lines.size(); ++i)
          text += (i == 3 ? bad : lines[i]) + "\n";
        write_file(jsonl, text);

        const FileScan scan = scan_jsonl(jsonl);
        EXPECT_FALSE(scan.clean) << key;
        ASSERT_EQ(scan.blocks.size(), 1u) << key << ": " << scan.tail_error;
        EXPECT_EQ(scan.blocks[0].coords.cell_index, 0u) << key;
        EXPECT_EQ(scan.valid_bytes, cell0_bytes) << key;
        EXPECT_NE(scan.tail_error.find(jsonl + ":4: field '" + key + "'"),
                  std::string::npos)
            << scan.tail_error;
        EXPECT_NE(scan.tail_error.find(cell0_end), std::string::npos)
            << scan.tail_error;

        try {
          merge_jsonl({jsonl});
          ADD_FAILURE() << "merge accepted a bad '" << key << "'";
        } catch (const MergeError& e) {
          EXPECT_EQ(e.fault, MergeFault::kCorrupt) << key;
          EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                    std::string::npos)
              << e.what();
        }

        const ResumeIndex index = ResumeIndex::scan("", jsonl, {7, 8});
        EXPECT_EQ(index.size(), 1u) << key;
        index.truncate_files();
        EXPECT_EQ(read_file(jsonl), text.substr(0, cell0_bytes)) << key;
      },
      layout);
  EXPECT_EQ(keys + 1, report::run_schema_keys().size());
  std::filesystem::remove(jsonl);
}

TEST(RecordsTest, OldSchemaInputIsRefusedNamingFileLineFieldVersionAndByte) {
  // Only the current schema is read back: the checked-in fig04 outputs of
  // schema v2 and v3 and a metrics.json v1 are refused, never converted,
  // by every reader — scanners, resume, and mtr_merge (exit 2, kCorrupt).
  const auto expect_refusal = [](const std::string& what,
                                 const std::string& path, std::uint64_t line,
                                 std::uint64_t version, std::uint64_t byte) {
    EXPECT_NE(what.find(path + ":" + std::to_string(line) +
                        ": field 'schema' is v" + std::to_string(version) +
                        ", but this build reads and writes v"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("(byte " + std::to_string(byte) + ")"),
              std::string::npos)
        << what;
  };
  const std::string out_dir = temp_path("dist_old_schema");
  std::filesystem::remove_all(out_dir);
  const std::string golden = MTR_GOLDEN_DIR;
  for (const auto& [name, version] :
       {std::pair<std::string, std::uint64_t>{"fig04_pr4_schema_v2", 2},
        std::pair<std::string, std::uint64_t>{"fig04_pr9_schema_v3", 3}}) {
    const std::string jsonl = golden + "/" + name + ".jsonl";
    const std::string csv = golden + "/" + name + ".csv";
    // The CSV header is an old layout; the refusal names the version of
    // the first row, which starts right after it.
    const std::uint64_t row1 = lines_of(read_file(csv)).at(0).size() + 1;

    try {
      scan_jsonl(jsonl);
      ADD_FAILURE() << "scan_jsonl accepted " << jsonl;
    } catch (const std::runtime_error& e) {
      expect_refusal(e.what(), jsonl, 1, version, 0);
    }
    try {
      scan_csv(csv);
      ADD_FAILURE() << "scan_csv accepted " << csv;
    } catch (const std::runtime_error& e) {
      expect_refusal(e.what(), csv, 2, version, row1);
    }
    try {
      ResumeIndex::scan(csv, jsonl, {42, 43});
      ADD_FAILURE() << "resume accepted " << jsonl;
    } catch (const std::runtime_error& e) {
      expect_refusal(e.what(), jsonl, 1, version, 0);
    }

    MergeOptions o;
    o.csv_out = out_dir + "/" + name + ".csv";
    o.jsonl_out = out_dir + "/" + name + ".jsonl";
    o.csv_in = {csv};
    o.jsonl_in = {jsonl};
    std::ostringstream out, err;
    EXPECT_EQ(run_merge(o, out, err), static_cast<int>(MergeFault::kCorrupt));
    expect_refusal(err.str(), csv, 2, version, row1);
    EXPECT_FALSE(std::filesystem::exists(o.csv_out));
    o.csv_out.clear();
    o.csv_in.clear();
    err.str("");
    EXPECT_EQ(run_merge(o, out, err), static_cast<int>(MergeFault::kCorrupt));
    expect_refusal(err.str(), jsonl, 1, version, 0);
    EXPECT_FALSE(std::filesystem::exists(o.jsonl_out));
  }

  // A CSV header of no known layout and no row to name a version: refused
  // at the header.
  const std::string foreign = temp_path("dist_foreign_header.csv");
  write_file(foreign, "schema,sweep,attack\n");
  try {
    scan_csv(foreign);
    ADD_FAILURE() << "scan_csv accepted " << foreign;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  foreign + ":1: CSV header is not the schema v4 run-record "
                            "layout (byte 0)"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(foreign);

  // A pre-telemetry metrics.json v1; the schema value sits on line 3.
  const std::string v1 = temp_path("legacy-v1-metrics.json");
  const std::string doc =
      "{\n \"record\": \"metrics\",\n \"schema\": 1, \"shards\": 1, "
      "\"sweeps\": []}\n";
  write_file(v1, doc);
  const std::uint64_t schema_at = doc.find("1, \"shards\"");
  try {
    read_metrics_json(v1);
    ADD_FAILURE() << "read_metrics_json accepted " << v1;
  } catch (const std::runtime_error& e) {
    expect_refusal(e.what(), v1, 3, 1, schema_at);
  }
  MergeOptions m;
  m.metrics_out = out_dir + "/metrics.json";
  m.metrics_in = {v1};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(m, out, err), static_cast<int>(MergeFault::kCorrupt));
  expect_refusal(err.str(), v1, 3, 1, schema_at);
  EXPECT_FALSE(std::filesystem::exists(m.metrics_out));
  std::filesystem::remove(v1);
  std::filesystem::remove_all(out_dir);
}

TEST(SweepDriverTest, DryRunPlanNamesOpenScenarioAxes) {
  report::SweepRegistry registry;
  registry.add({"abl", "jiffy ablation", [](const report::SweepContext& ctx) {
                  core::BatchGrid grid;
                  grid.base = test::quick_experiment(
                      workloads::WorkloadKind::kOurs, ctx.scale);
                  grid.seeds = ctx.seeds;
                  grid.jiffy_timers = {true, false};
                  ctx.begin_progress("abl", 2);
                  ctx.run_grid("abl", std::move(grid));
                }});
  SweepOptions opts = grid_options("");
  opts.sweeps = {"abl"};
  opts.dry_run = true;
  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_NE(out.str().find("abl: cells [0,2) — runs all 2 (axes: attack=1 "
                           "scheduler=1 hz=1 cpu=1 ram=1 ptrace=1 jiffy=2 "
                           "population=1 fraction=1 nice=1)"),
            std::string::npos)
      << out.str();
}

TEST(MergeArgsTest, ClassifiesInputsAndValidatesCombinations) {
  const char* argv[] = {"mtr_merge", "--csv",  "out.csv", "--jsonl",
                        "out.jsonl", "a.csv",  "b.jsonl", "c.csv"};
  const MergeOptions o = parse_merge_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.csv_out, "out.csv");
  EXPECT_EQ(o.jsonl_out, "out.jsonl");
  EXPECT_EQ(o.csv_in, (std::vector<std::string>{"a.csv", "c.csv"}));
  EXPECT_EQ(o.jsonl_in, (std::vector<std::string>{"b.jsonl"}));

  const char* bad_ext[] = {"mtr_merge", "--csv", "out.csv", "a.parquet"};
  EXPECT_THROW(parse_merge_args(4, bad_ext), std::runtime_error);

  std::ostringstream out, err;
  MergeOptions no_output;
  no_output.csv_in = {"a.csv"};
  EXPECT_EQ(run_merge(no_output, out, err), 2);

  MergeOptions no_inputs;
  no_inputs.csv_out = "out.csv";
  EXPECT_EQ(run_merge(no_inputs, out, err), 2);

  MergeOptions orphan_inputs;
  orphan_inputs.jsonl_out = "out.jsonl";
  orphan_inputs.jsonl_in = {"a.jsonl"};
  orphan_inputs.csv_in = {"a.csv"};  // .csv inputs but no --csv
  EXPECT_EQ(run_merge(orphan_inputs, out, err), 2);

  MergeOptions help;
  help.help = true;
  EXPECT_EQ(run_merge(help, out, err), 0);
  EXPECT_NE(out.str().find("usage: mtr_merge"), std::string::npos);
}

// --- observability flags and metrics folding --------------------------------------

TEST(SweepArgsTest, ParsesTraceDirAndMetricsFlags) {
  const char* argv[] = {"mtr_sweep",   "fig04",
                        "--trace-dir", "traces/fig04",
                        "--metrics",   "out/metrics.json"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.trace_dir, "traces/fig04");
  EXPECT_EQ(o.metrics_path, "out/metrics.json");

  // Both default off: plain invocations never pay for observability.
  const char* plain[] = {"mtr_sweep", "fig04"};
  const SweepOptions p = parse_sweep_args(2, plain);
  EXPECT_TRUE(p.trace_dir.empty());
  EXPECT_TRUE(p.metrics_path.empty());

  const char* missing[] = {"mtr_sweep", "--trace-dir"};
  EXPECT_THROW(parse_sweep_args(2, missing), std::runtime_error);
}

TEST(MergeArgsTest, ClassifiesMetricsJsonInputsAndValidatesPairing) {
  const char* argv[] = {"mtr_merge", "--metrics", "merged.json",
                        "s0/metrics.json", "s1/metrics.json"};
  const MergeOptions o = parse_merge_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.metrics_out, "merged.json");
  EXPECT_EQ(o.metrics_in,
            (std::vector<std::string>{"s0/metrics.json", "s1/metrics.json"}));
  // .jsonl must keep classifying as shard result files, not metrics.
  const char* mixed[] = {"mtr_merge", "--jsonl", "o.jsonl", "a.jsonl"};
  const MergeOptions m = parse_merge_args(4, mixed);
  EXPECT_EQ(m.jsonl_in, (std::vector<std::string>{"a.jsonl"}));
  EXPECT_TRUE(m.metrics_in.empty());

  std::ostringstream out, err;
  MergeOptions orphan_out;  // --metrics without .json shard inputs
  orphan_out.metrics_out = "merged.json";
  EXPECT_EQ(run_merge(orphan_out, out, err), 2);

  MergeOptions orphan_in;  // .json inputs without --metrics
  orphan_in.csv_out = "out.csv";
  orphan_in.csv_in = {"a.csv"};
  orphan_in.metrics_in = {"s0/metrics.json"};
  EXPECT_EQ(run_merge(orphan_in, out, err), 2);
}

namespace {

trace::SweepMetrics sample_metrics(const std::string& sweep, std::uint64_t cells) {
  trace::SweepMetrics s;
  s.sweep = sweep;
  s.cells = cells;
  s.runs = cells * 3;
  s.cell_wall_seconds = 0.5 * static_cast<double>(cells);
  s.max_cell_seconds = 0.25;
  s.kernel.events_popped = 100 * cells;
  s.kernel.timer_ticks = 40 * cells;
  s.kernel.ticks_coalesced = 10 * cells;
  s.kernel.charge_flushes = 7 * cells;
  s.kernel.max_event_queue_depth = 5 + cells;
  s.phases.add("grid", 1, 0.125);
  s.pool.threads = 2;
  s.pool.wall_seconds = 0.5;
  s.pool.busy_seconds = {0.25, 0.125};
  return s;
}

std::string write_metrics_file(const std::string& name,
                               const std::vector<trace::SweepMetrics>& sweeps,
                               std::uint64_t shards = 1) {
  std::ostringstream os;
  trace::write_metrics_json(os, sweeps, shards);
  const std::string path = temp_path(name);
  write_file(path, os.str());
  return path;
}

}  // namespace

TEST(MetricsFoldTest, ReadBackIsExactAndReEmitIsByteStable) {
  const auto path = write_metrics_file(
      "roundtrip-metrics.json", {sample_metrics("fig04", 2)}, /*shards=*/1);
  const MetricsFile f = read_metrics_json(path);
  EXPECT_EQ(f.schema, trace::kMetricsSchemaVersion);
  EXPECT_EQ(f.shards, 1u);
  ASSERT_EQ(f.sweeps.size(), 1u);
  const trace::SweepMetrics& s = f.sweeps[0];
  EXPECT_EQ(s.sweep, "fig04");
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.runs, 6u);
  EXPECT_EQ(s.kernel.events_popped, 200u);
  EXPECT_EQ(s.kernel.max_event_queue_depth, 7u);
  ASSERT_EQ(s.phases.entries().size(), 1u);
  EXPECT_EQ(s.phases.entries()[0].name, "grid");
  ASSERT_EQ(s.pool.busy_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(s.pool.busy_seconds[1], 0.125);

  // parse -> re-emit reproduces the file byte-for-byte (%.17g doubles).
  std::ostringstream reemit;
  trace::write_metrics_json(reemit, f.sweeps, f.shards);
  EXPECT_EQ(reemit.str(), read_file(path));
}

TEST(MetricsFoldTest, FoldSumsCountersAcrossShardsBySweepName) {
  const auto p0 = write_metrics_file(
      "fold-shard0.json",
      {sample_metrics("fig04", 2), sample_metrics("fig05", 1)});
  const auto p1 = write_metrics_file("fold-shard1.json",
                                     {sample_metrics("fig04", 3)});
  const MetricsFile folded =
      fold_metrics({read_metrics_json(p0), read_metrics_json(p1)});
  EXPECT_EQ(folded.shards, 2u);
  ASSERT_EQ(folded.sweeps.size(), 2u);  // first-seen sweep order
  EXPECT_EQ(folded.sweeps[0].sweep, "fig04");
  EXPECT_EQ(folded.sweeps[0].cells, 5u);
  EXPECT_EQ(folded.sweeps[0].runs, 15u);
  EXPECT_EQ(folded.sweeps[0].kernel.timer_ticks, 200u);
  EXPECT_EQ(folded.sweeps[0].kernel.max_event_queue_depth, 8u);  // gauge max
  EXPECT_EQ(folded.sweeps[0].pool.threads, 2u);
  EXPECT_DOUBLE_EQ(folded.sweeps[0].pool.wall_seconds, 1.0);
  EXPECT_EQ(folded.sweeps[1].sweep, "fig05");
  EXPECT_EQ(folded.sweeps[1].cells, 1u);
}

TEST(MetricsFoldTest, RejectsMissingMalformedAndWrongSchemaFiles) {
  EXPECT_THROW(read_metrics_json(temp_path("does-not-exist.json")),
               std::runtime_error);

  const auto garbage = temp_path("garbage-metrics.json");
  write_file(garbage, "{\"schema\": 1, \"record\": \"metrics\"");  // truncated
  EXPECT_THROW(read_metrics_json(garbage), std::runtime_error);

  const auto wrong_tag = temp_path("wrong-tag-metrics.json");
  write_file(wrong_tag,
             "{\"schema\": 1, \"record\": \"cells\", \"shards\": 1, "
             "\"sweeps\": []}");
  EXPECT_THROW(read_metrics_json(wrong_tag), std::runtime_error);

  const auto future = temp_path("future-metrics.json");
  write_file(future,
             "{\"schema\": 99, \"record\": \"metrics\", \"shards\": 1, "
             "\"sweeps\": []}");
  try {
    read_metrics_json(future);
    FAIL() << "schema 99 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("future-metrics.json"),
              std::string::npos);  // errors name the offending file
  }
}

TEST(MetricsFoldTest, RunMergeWritesFoldedMetricsOutput) {
  const auto p0 =
      write_metrics_file("merge-shard0.json", {sample_metrics("fig04", 2)});
  const auto p1 =
      write_metrics_file("merge-shard1.json", {sample_metrics("fig04", 1)});
  MergeOptions options;
  options.metrics_out = temp_path("merge-folded.json");
  options.metrics_in = {p0, p1};
  std::ostringstream out, err;
  ASSERT_EQ(run_merge(options, out, err), 0) << err.str();
  const MetricsFile folded = read_metrics_json(options.metrics_out);
  EXPECT_EQ(folded.shards, 2u);
  ASSERT_EQ(folded.sweeps.size(), 1u);
  EXPECT_EQ(folded.sweeps[0].cells, 3u);
  EXPECT_NE(out.str().find("1 sweep metric(s)"), std::string::npos) << out.str();
}

// --- telemetry round trips ----------------------------------------------------------

namespace {

/// sample_metrics plus telemetry data, exercising the v2 sections.
trace::SweepMetrics telemetry_metrics(const std::string& sweep) {
  trace::SweepMetrics s = sample_metrics(sweep, 2);
  s.telemetry.run_queue.sample(0, 1);
  s.telemetry.run_queue.sample(trace::TimeSeries::kBaseWidth, 4);
  s.telemetry.free_frames.sample(0, 1000);
  s.telemetry.victim_gap.sample(0, -12345);
  s.telemetry.billing_error.add(0.0625);
  s.telemetry.billing_error.add(-0.03125);
  s.telemetry.billing_error.add(0.0);
  s.telemetry.charge_batch.add(16.0, 3);
  s.telemetry.cell_seconds.add(0.5);
  return s;
}

}  // namespace

TEST(MetricsFoldTest, TelemetrySectionsRoundTripByteStably) {
  const auto path = write_metrics_file("telemetry-roundtrip.json",
                                       {telemetry_metrics("fig04")});
  const MetricsFile f = read_metrics_json(path);
  EXPECT_EQ(f.schema, trace::kMetricsSchemaVersion);
  ASSERT_EQ(f.sweeps.size(), 1u);
  const trace::Telemetry& t = f.sweeps[0].telemetry;
  EXPECT_EQ(t.run_queue.samples(), 2u);
  EXPECT_EQ(t.run_queue.bucket(1).sum, 4);
  EXPECT_EQ(t.victim_gap.bucket(0).min, -12345);
  EXPECT_EQ(t.billing_error.count(), 3u);
  EXPECT_EQ(t.billing_error.zero_count(), 1u);
  EXPECT_DOUBLE_EQ(t.billing_error.min(), -0.03125);
  EXPECT_EQ(t.charge_batch.count(), 3u);
  EXPECT_EQ(t.cell_seconds.count(), 1u);

  // The parsed structures equal the originals exactly...
  const trace::SweepMetrics orig_m = telemetry_metrics("fig04");
  const trace::Telemetry& orig = orig_m.telemetry;
  EXPECT_EQ(t.run_queue, orig.run_queue);
  EXPECT_EQ(t.billing_error, orig.billing_error);
  EXPECT_EQ(t.charge_batch, orig.charge_batch);
  // ...so re-emitting reproduces the file byte-for-byte.
  std::ostringstream reemit;
  trace::write_metrics_json(reemit, f.sweeps, f.shards);
  EXPECT_EQ(reemit.str(), read_file(path));
}

TEST(MetricsFoldTest, MalformedTelemetrySectionsAreRejectedWithContext) {
  // A sketch whose bucket counts disagree with its "count" field.
  const auto bad = temp_path("bad-sketch-metrics.json");
  std::string text = read_file(
      write_metrics_file("bad-sketch-src.json", {telemetry_metrics("fig04")}));
  const std::string needle = "\"billing_error\": {\"count\": 3";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"billing_error\": {\"count\": 9");
  write_file(bad, text);
  try {
    read_metrics_json(bad);
    FAIL() << "inconsistent sketch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("billing_error"), std::string::npos)
        << e.what();
  }
}

// --- status heartbeat -------------------------------------------------------------

TEST(StatusFileTest, RendersAndPublishesAtomically) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 4;
  s.elapsed_seconds = 1.5;
  s.eta_seconds = 0.5;
  s.worker_busy_fraction = {0.75, 0.5};
  const std::string rendered = render_status_json(s);
  const json::Value v = json::parse_document(rendered);
  EXPECT_EQ(json::get_string(v, "record"), "status");
  EXPECT_EQ(json::get_u64(v, "cells_done"), 3u);
  EXPECT_EQ(json::get_u64(v, "cells_total"), 4u);
  EXPECT_DOUBLE_EQ(json::get_f64(v, "eta_seconds"), 0.5);
  EXPECT_EQ(json::get_array(v, "workers").items.size(), 2u);

  s.eta_seconds.reset();
  EXPECT_NE(render_status_json(s).find("\"eta_seconds\": null"),
            std::string::npos);

  const std::string path = temp_path("status-heartbeat.json");
  write_status_file(path, s);
  write_status_file(path, s);  // republishing over an existing file works
  EXPECT_EQ(read_file(path), render_status_json(s));
  // The temp stage never survives a successful publish.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SweepDriverTest, ObservabilityPathsCreateParentDirsAndStatusTracksSweep) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_observability_parents");
  std::filesystem::remove_all(root);

  // Like --csv/--jsonl, the observability outputs create missing parent
  // directories instead of failing on first write.
  SweepOptions opts = grid_options(root + "/out");
  opts.metrics_path = root + "/deep/metrics/metrics.json";
  opts.trace_dir = root + "/deep/traces";
  opts.status_file = root + "/deep/status/heartbeat.json";

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
  EXPECT_TRUE(std::filesystem::exists(opts.metrics_path));
  EXPECT_TRUE(std::filesystem::exists(root + "/deep/traces/grid-cell0.json"));
  EXPECT_TRUE(std::filesystem::exists(opts.status_file));
  EXPECT_FALSE(std::filesystem::exists(opts.status_file + ".tmp"));

  // The final heartbeat: every cell done, per-worker busy fractions from
  // the pool that ran the grid.
  const json::Value status =
      json::parse_document(read_file(opts.status_file));
  EXPECT_EQ(json::get_string(status, "sweep"), "grid");
  EXPECT_EQ(json::get_u64(status, "cells_done"), 4u);
  EXPECT_EQ(json::get_u64(status, "cells_total"), 4u);
  EXPECT_GE(json::get_f64(status, "elapsed_seconds"), 0.0);
  const json::Value& workers = json::get_array(status, "workers");
  EXPECT_EQ(workers.items.size(), 2u);  // grid_options runs 2 threads
  for (const json::Value& w : workers.items) {
    const double f = json::as_f64(w, "worker fraction");
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-9);
  }

  // The metrics file carries the run telemetry.
  const MetricsFile metrics = read_metrics_json(opts.metrics_path);
  ASSERT_EQ(metrics.sweeps.size(), 1u);
  EXPECT_FALSE(metrics.sweeps[0].telemetry.empty());
  EXPECT_GT(metrics.sweeps[0].telemetry.billing_error.count(), 0u);
  EXPECT_EQ(metrics.sweeps[0].telemetry.cell_seconds.count(), 4u);
  std::filesystem::remove_all(root);
}

// --- mtr_inspect ------------------------------------------------------------------

TEST(InspectArgsTest, RequiresExactlyOneModeAndStrictTop) {
  const char* metrics[] = {"mtr_inspect", "--metrics", "m.json"};
  EXPECT_EQ(parse_inspect_args(3, metrics).metrics_path, "m.json");

  const char* compare[] = {"mtr_inspect", "--compare", "a.json", "b.json"};
  const InspectOptions c = parse_inspect_args(4, compare);
  EXPECT_EQ(c.compare, (std::vector<std::string>{"a.json", "b.json"}));

  const char* top[] = {"mtr_inspect", "--jsonl", "x.jsonl", "--top", "3"};
  EXPECT_EQ(parse_inspect_args(5, top).top, 3u);

  const char* none[] = {"mtr_inspect"};
  EXPECT_THROW(parse_inspect_args(1, none), std::runtime_error);
  const char* both[] = {"mtr_inspect", "--metrics", "m.json", "--trace", "t"};
  EXPECT_THROW(parse_inspect_args(5, both), std::runtime_error);
  const char* bad_top[] = {"mtr_inspect", "--jsonl", "x", "--top", "3x"};
  EXPECT_THROW(parse_inspect_args(5, bad_top), std::runtime_error);
  const char* orphan_top[] = {"mtr_inspect", "--metrics", "m", "--top", "3"};
  EXPECT_THROW(parse_inspect_args(5, orphan_top), std::runtime_error);
  const char* unknown[] = {"mtr_inspect", "--bogus"};
  EXPECT_THROW(parse_inspect_args(2, unknown), std::runtime_error);
}

TEST(InspectTest, MetricsReportRendersTablesAndSparklines) {
  const auto path = write_metrics_file("inspect-report.json",
                                       {telemetry_metrics("fig04")});
  InspectOptions o;
  o.metrics_path = path;
  std::ostringstream out;
  EXPECT_EQ(run_inspect(o, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("sweep fig04"), std::string::npos) << text;
  EXPECT_NE(text.find("timer_ticks"), std::string::npos);
  EXPECT_NE(text.find("billing_error"), std::string::npos);
  EXPECT_NE(text.find("p999"), std::string::npos);
  EXPECT_NE(text.find("run_queue"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);  // sparkline frame
  EXPECT_NE(text.find("(empty)"), std::string::npos);  // event_depth unused
}

TEST(InspectTest, SparklineMapsBucketMeansOntoTheRamp) {
  trace::TimeSeries s;
  s.sample(0, 0);
  s.sample(2 * trace::TimeSeries::kBaseWidth, 100);
  const std::string line = render_sparkline(s);
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], '.');  // lowest level
  EXPECT_EQ(line[1], ' ');  // empty bucket
  EXPECT_EQ(line[2], '@');  // highest level
  EXPECT_TRUE(render_sparkline(trace::TimeSeries{}).empty());
}

TEST(InspectTest, TopCellsRanksByBillingGap) {
  const std::string path = temp_path("inspect-top.jsonl");
  write_shard_jsonl(path, {0, 1, 2});
  InspectOptions o;
  o.jsonl_path = path;
  o.top = 2;
  std::ostringstream out;
  EXPECT_EQ(run_inspect(o, out), 0);
  const std::string text = out.str();
  // synth_cell gives every cell the same gap (0.625); ties break by cell
  // index, so cells 0 and 1 list in order and cell 2 is cut by --top.
  EXPECT_NE(text.find("top 2 of 3 cell(s)"), std::string::npos) << text;
  const std::size_t c0 = text.find("grid#0");
  const std::size_t c1 = text.find("grid#1");
  EXPECT_NE(c0, std::string::npos);
  EXPECT_NE(c1, std::string::npos);
  EXPECT_LT(c0, c1);
  EXPECT_EQ(text.find("grid#2"), std::string::npos);
  EXPECT_NE(text.find("0.625"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(InspectTest, CompareIsCleanOnIdenticalAndFailsOnCounterDeltas) {
  const auto a = write_metrics_file("inspect-cmp-a.json",
                                    {telemetry_metrics("fig04")});
  std::ostringstream same;
  EXPECT_EQ(compare_metrics(same, a, read_metrics_json(a), a,
                            read_metrics_json(a)),
            0);
  EXPECT_NE(same.str().find("counters identical"), std::string::npos);

  // A counter difference (cells) fails; the delta is named and printed.
  trace::SweepMetrics more = telemetry_metrics("fig04");
  more.cells += 1;
  const auto b = write_metrics_file("inspect-cmp-b.json", {more});
  std::ostringstream diff;
  EXPECT_EQ(compare_metrics(diff, a, read_metrics_json(a), b,
                            read_metrics_json(b)),
            1);
  EXPECT_NE(diff.str().find("counter cells: 2 -> 3 (delta 1)"),
            std::string::npos)
      << diff.str();

  // A timing-only difference is reported but does not fail the compare.
  trace::SweepMetrics slower = telemetry_metrics("fig04");
  slower.cell_wall_seconds += 10.0;
  const auto c = write_metrics_file("inspect-cmp-c.json", {slower});
  std::ostringstream timing;
  EXPECT_EQ(compare_metrics(timing, a, read_metrics_json(a), c,
                            read_metrics_json(c)),
            0);
  EXPECT_NE(timing.str().find("timing cell_wall_seconds"), std::string::npos);

  // A sweep present on only one side is a counter-class failure.
  const auto d = write_metrics_file(
      "inspect-cmp-d.json", {telemetry_metrics("fig04"), sample_metrics("fig05", 1)});
  std::ostringstream missing;
  EXPECT_EQ(compare_metrics(missing, a, read_metrics_json(a), d,
                            read_metrics_json(d)),
            1);
  EXPECT_NE(missing.str().find("only in"), std::string::npos);
}

TEST(InspectTest, ShardFoldedMetricsCompareCleanAgainstSingleRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_inspect_fold");
  std::filesystem::remove_all(root);

  SweepOptions single = grid_options(root + "/single");
  single.metrics_path = root + "/single/metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, single, out, err), 0) << err.str();

  std::vector<MetricsFile> shard_files;
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions opts = grid_options(root + "/shard" + std::to_string(shard));
    opts.shard = parse_shard_spec(std::to_string(shard) + "/2");
    opts.metrics_path = opts.out_dir + "/metrics.json";
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    shard_files.push_back(read_metrics_json(opts.metrics_path));
  }

  // Every counter-class value — kernel counters, series buckets, sketch
  // quantiles — folds to exactly the single-process run's. Timing-class
  // values may differ; compare_metrics excludes them from the verdict.
  std::ostringstream cmp;
  const int rc = compare_metrics(cmp, "folded", fold_metrics(shard_files),
                                 "single", read_metrics_json(single.metrics_path));
  EXPECT_EQ(rc, 0) << cmp.str();
  EXPECT_NE(cmp.str().find("counters identical"), std::string::npos);
  std::filesystem::remove_all(root);
}

TEST(InspectTest, TraceSummaryReadsAnExportedTrace) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_inspect_trace");
  std::filesystem::remove_all(root);
  SweepOptions opts = grid_options(root + "/out");
  opts.trace_dir = root + "/traces";
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();

  InspectOptions o;
  o.trace_path = root + "/traces/grid-cell0.json";
  std::ostringstream report;
  EXPECT_EQ(run_inspect(o, report), 0);
  const std::string text = report.str();
  EXPECT_NE(text.find("schema \"mtr-trace-1\""), std::string::npos) << text;
  EXPECT_NE(text.find("spans (X)"), std::string::npos);
  EXPECT_NE(
      text.find("event budget: spans + instants == recorded - dropped + 1"),
      std::string::npos)
      << text;
  // counting_registry's factories return nullptr, so every run is a
  // baseline run and the category census says so.
  EXPECT_NE(text.find("categories:"), std::string::npos);
  EXPECT_NE(text.find("baseline"), std::string::npos);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Fault injection: the deterministic crash schedule behind the chaos tests.

TEST(FaultPlanTest, ParsesComposesAndRoundTrips) {
  const FaultPlan p = parse_fault_plan(
      "crash-after-cell=2,torn-tail=9,sigkill-after-ms=500,fail-flush-at=3");
  ASSERT_TRUE(p.crash_after_cell.has_value());
  EXPECT_EQ(*p.crash_after_cell, 2u);
  EXPECT_EQ(p.torn_tail_bytes, 9u);
  ASSERT_TRUE(p.sigkill_after_ms.has_value());
  EXPECT_EQ(*p.sigkill_after_ms, 500u);
  ASSERT_TRUE(p.fail_flush_at.has_value());
  EXPECT_EQ(*p.fail_flush_at, 3u);
  EXPECT_TRUE(p.active());

  // to_string is the canonical spec: parsing it back yields the same plan
  // (it's what mtr_fleet exports as MTR_FAULT_INJECT).
  const FaultPlan again = parse_fault_plan(to_string(p));
  EXPECT_EQ(again.crash_after_cell, p.crash_after_cell);
  EXPECT_EQ(again.torn_tail_bytes, p.torn_tail_bytes);
  EXPECT_EQ(again.sigkill_after_ms, p.sigkill_after_ms);
  EXPECT_EQ(again.fail_flush_at, p.fail_flush_at);

  const FaultPlan none = parse_fault_plan("");
  EXPECT_FALSE(none.active());
  EXPECT_EQ(to_string(none), "");
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("bogus=1"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=x"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=1,,"), std::runtime_error);
  // The J-th flush is 1-based; a zeroth flush can never fire.
  EXPECT_THROW(parse_fault_plan("fail-flush-at=0"), std::runtime_error);
  // A torn tail needs a crash point to tear at.
  EXPECT_THROW(parse_fault_plan("torn-tail=4"), std::runtime_error);
  // The error names the grammar so a bad CLI flag is self-documenting.
  try {
    parse_fault_plan("nope=1");
    FAIL() << "spec accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("grammar"), std::string::npos);
  }
}

TEST(FaultInjectorTest, FlushFaultFiresOnTheConfiguredFlushExactlyOnce) {
  FaultInjector injector(parse_fault_plan("fail-flush-at=2"));
  EXPECT_TRUE(injector.active());
  EXPECT_TRUE(injector.has_flush_fault());
  EXPECT_NO_THROW(injector.on_sink_flush("csv"));
  EXPECT_THROW(injector.on_sink_flush("jsonl"), std::runtime_error);
  // One-shot: the retry after the transient failure goes through.
  EXPECT_NO_THROW(injector.on_sink_flush("csv"));
  EXPECT_NO_THROW(injector.on_sink_flush("jsonl"));
}

TEST(FaultInjectorTest, FailFlushAbortsTheSweepAndResumeHeals) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_flush");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);

  // The transient flush failure unwinds as an exception (mtr_sweep's main
  // maps it to exit 1 — what the fleet supervisor observes). Cells flush
  // in grid order, two flushes per cell (CSV then JSONL), so failing the
  // 7th flush kills cell 3's first write and leaves a clean 3-cell prefix.
  SweepOptions opts = grid_options(root + "/run");
  opts.fault = parse_fault_plan("fail-flush-at=7");
  try {
    run_sweeps(registry, opts, out, err);
    FAIL() << "flush fault did not surface";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("fault injection"),
              std::string::npos)
        << e.what();
  }

  // The transient failure unwound cleanly; a clean --resume reruns only
  // the failed cell and lands byte-identical to the uninterrupted
  // reference.
  runs = 0;
  opts.fault = FaultPlan{};
  opts.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
  EXPECT_EQ(runs.load(), 2);  // one cell x two seeds
  EXPECT_EQ(read_file(root + "/run/grid.csv"),
            read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(root + "/run/grid.jsonl"),
            read_file(root + "/ref/grid.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(SweepArgsTest, FaultInjectEnvSeedsTheDefaultAndTheFlagOverridesIt) {
  ::setenv("MTR_FAULT_INJECT", "crash-after-cell=3,torn-tail=5", 1);
  const SweepOptions from_env = default_sweep_options();
  ASSERT_TRUE(from_env.fault.crash_after_cell.has_value());
  EXPECT_EQ(*from_env.fault.crash_after_cell, 3u);
  EXPECT_EQ(from_env.fault.torn_tail_bytes, 5u);

  const char* argv[] = {"mtr_sweep", "--fault-inject", "sigkill-after-ms=9",
                        "grid"};
  const SweepOptions from_flag =
      parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_FALSE(from_flag.fault.crash_after_cell.has_value());
  ASSERT_TRUE(from_flag.fault.sigkill_after_ms.has_value());
  EXPECT_EQ(*from_flag.fault.sigkill_after_ms, 9u);
  ::unsetenv("MTR_FAULT_INJECT");

  const char* bad[] = {"mtr_sweep", "--fault-inject", "torn-tail=1", "grid"};
  EXPECT_THROW(parse_sweep_args(4, bad), std::runtime_error);
}

#if GTEST_HAS_DEATH_TEST
TEST(FaultInjectorDeathTest, CrashAfterCellTearsTheTailAndResumeHeals) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_crash");
  // This setup re-runs inside the death-test child, so it must converge
  // to the same state both times.
  std::filesystem::remove_all(root);
  SweepOptions ref = grid_options(root + "/ref");
  ref.metrics_path = root + "/ref/metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, ref, out, err), 0);

  SweepOptions crash = grid_options(root + "/run");
  crash.metrics_path = root + "/run/metrics.json";
  crash.fault = parse_fault_plan("crash-after-cell=2,torn-tail=7");
  EXPECT_EXIT(run_sweeps(registry, crash, out, err),
              ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // The crash left a provably torn tail, and the scanner names the byte.
  const FileScan torn = scan_jsonl(root + "/run/grid.jsonl");
  EXPECT_FALSE(torn.clean);
  EXPECT_NE(torn.tail_error.find("(byte "), std::string::npos)
      << torn.tail_error;

  // --resume truncates the tear, reruns what the crash-consistent metrics
  // snapshot does not cover, and lands byte-identical to the reference —
  // counters included.
  runs = 0;
  SweepOptions resume = grid_options(root + "/run");
  resume.metrics_path = root + "/run/metrics.json";
  resume.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resume, out, err2), 0) << err2.str();
  // The lag-one snapshot covers cell 0 only at the crash point, so cells
  // 1-3 rerun: 3 cells x 2 seeds = 6 factory bumps.
  EXPECT_EQ(runs.load(), 6);
  EXPECT_EQ(read_file(root + "/run/grid.csv"),
            read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(root + "/run/grid.jsonl"),
            read_file(root + "/ref/grid.jsonl"));
  std::ostringstream cmp;
  EXPECT_EQ(compare_metrics(cmp, "resumed",
                            read_metrics_json(root + "/run/metrics.json"),
                            "single",
                            read_metrics_json(root + "/ref/metrics.json")),
            0)
      << cmp.str();
  std::filesystem::remove_all(root);
}

TEST(FaultInjectorDeathTest, CrashAtSinksOpenLeavesNoCellsAndResumeReruns) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_crash0");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);

  SweepOptions crash = grid_options(root + "/run");
  crash.fault = parse_fault_plan("crash-after-cell=0");
  EXPECT_EXIT(run_sweeps(registry, crash, out, err),
              ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // Whatever the crash left (zero-byte files, at most a CSV header) means
  // "no completed cells" — never an error.
  const ResumeIndex idx = ResumeIndex::scan(
      root + "/run/grid.csv", root + "/run/grid.jsonl", {7, 8});
  EXPECT_EQ(idx.size(), 0u);

  runs = 0;
  SweepOptions resume = grid_options(root + "/run");
  resume.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resume, out, err2), 0) << err2.str();
  EXPECT_EQ(runs.load(), 8);  // everything reruns
  EXPECT_EQ(read_file(root + "/run/grid.csv"),
            read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(root + "/run/grid.jsonl"),
            read_file(root + "/ref/grid.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(FaultInjectorDeathTest, SigkillWatchdogDeliversTheSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        FaultInjector injector(parse_fault_plan("sigkill-after-ms=1"));
        injector.arm_sigkill();
        std::this_thread::sleep_for(std::chrono::seconds(30));
        std::_Exit(1);  // unreachable: the watchdog wins
      },
      ::testing::KilledBySignal(SIGKILL), "");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------------------
// Resume edge cases the supervisor depends on.

TEST(ResumeTest, ZeroByteAndHeaderOnlyOutputsMeanNoCompletedCells) {
  const std::string dir = temp_path("dist_resume_zero");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string csv = dir + "/grid.csv";
  const std::string jsonl = dir + "/grid.jsonl";

  // Zero-byte pair: the files a kill right after open leaves.
  write_file(csv, "");
  write_file(jsonl, "");
  ResumeIndex empty = ResumeIndex::scan(csv, jsonl, {7, 8});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_NO_THROW(empty.truncate_files());

  // Header-only CSV next to a zero-byte JSONL: still zero cells, and
  // truncation keeps the header.
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
  }
  keep_lines(csv, 1);
  const std::string header = read_file(csv);
  ResumeIndex header_only = ResumeIndex::scan(csv, jsonl, {7, 8});
  EXPECT_EQ(header_only.size(), 0u);
  header_only.truncate_files();
  EXPECT_EQ(read_file(csv), header);

  // A zero-byte CSV next to a complete JSONL: cells count only when both
  // files have them, so the JSONL rolls back to zero too.
  write_file(csv, "");
  write_shard_jsonl(jsonl, {0});
  ResumeIndex mixed = ResumeIndex::scan(csv, jsonl, {7, 8});
  EXPECT_EQ(mixed.size(), 0u);
  mixed.truncate_files();
  EXPECT_EQ(std::filesystem::file_size(jsonl), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash consistency: every byte boundary of the final record is a safe
// truncation point — the scanners recover exactly the complete prefix no
// matter where the tear lands.

TEST(CrashConsistencyTest, EveryTornByteOfTheFinalRecordRecoversThePrefix) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_torn_sweep");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);
  const std::string ref_csv = read_file(root + "/ref/grid.csv");
  const std::string ref_jsonl = read_file(root + "/ref/grid.jsonl");

  // The canonical 3-cell prefix: tear one byte, scan, truncate.
  const std::string dir = root + "/cut";
  std::filesystem::create_directories(dir);
  const std::string cut_csv = dir + "/grid.csv";
  const std::string cut_jsonl = dir + "/grid.jsonl";
  write_file(cut_csv, ref_csv);
  write_file(cut_jsonl, ref_jsonl);
  chop_bytes(cut_csv, 1);
  chop_bytes(cut_jsonl, 1);
  ResumeIndex probe = ResumeIndex::scan(cut_csv, cut_jsonl, {7, 8});
  ASSERT_EQ(probe.size(), 3u);
  probe.truncate_files();
  const std::string prefix_csv = read_file(cut_csv);
  const std::string prefix_jsonl = read_file(cut_jsonl);
  ASSERT_LT(prefix_csv.size(), ref_csv.size());
  ASSERT_LT(prefix_jsonl.size(), ref_jsonl.size());
  const std::uint64_t csv_block = ref_csv.size() - prefix_csv.size();
  const std::uint64_t jsonl_block = ref_jsonl.size() - prefix_jsonl.size();

  // Tear the JSONL at every byte of its final cell block (CSV intact).
  for (std::uint64_t b = 1; b <= jsonl_block; ++b) {
    write_file(cut_csv, ref_csv);
    write_file(cut_jsonl, ref_jsonl);
    chop_bytes(cut_jsonl, b);
    ResumeIndex idx = ResumeIndex::scan(cut_csv, cut_jsonl, {7, 8});
    ASSERT_EQ(idx.size(), 3u) << "jsonl cut " << b;
    idx.truncate_files();
    ASSERT_EQ(read_file(cut_jsonl), prefix_jsonl) << "jsonl cut " << b;
    ASSERT_EQ(read_file(cut_csv), prefix_csv) << "jsonl cut " << b;
  }
  // And the CSV at every byte of its final cell block (JSONL intact).
  for (std::uint64_t b = 1; b <= csv_block; ++b) {
    write_file(cut_csv, ref_csv);
    write_file(cut_jsonl, ref_jsonl);
    chop_bytes(cut_csv, b);
    ResumeIndex idx = ResumeIndex::scan(cut_csv, cut_jsonl, {7, 8});
    ASSERT_EQ(idx.size(), 3u) << "csv cut " << b;
    idx.truncate_files();
    ASSERT_EQ(read_file(cut_csv), prefix_csv) << "csv cut " << b;
    ASSERT_EQ(read_file(cut_jsonl), prefix_jsonl) << "csv cut " << b;
  }

  // End to end: tear both mid-record, resume, land byte-identical.
  write_file(cut_csv, ref_csv);
  write_file(cut_jsonl, ref_jsonl);
  chop_bytes(cut_csv, csv_block / 2);
  chop_bytes(cut_jsonl, jsonl_block / 2);
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
  EXPECT_EQ(read_file(cut_csv), ref_csv);
  EXPECT_EQ(read_file(cut_jsonl), ref_jsonl);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Merge failure taxonomy: exit 2 = corrupt bytes, exit 3 = wrong shard set.

TEST(MergeTaxonomyTest, CorruptInputExitsTwoAndNamesFileLineAndByte) {
  const std::string root = temp_path("dist_merge_tax2");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  chop_bytes(root + "/s0.jsonl", 3);

  MergeOptions o;
  o.jsonl_out = root + "/m.jsonl";
  o.jsonl_in = {root + "/s0.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err), 2);
  EXPECT_NE(err.str().find(root + "/s0.jsonl:"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("(byte "), std::string::npos) << err.str();

  try {
    merge_jsonl({root + "/s0.jsonl"});
    FAIL() << "torn shard accepted";
  } catch (const MergeError& e) {
    EXPECT_EQ(e.fault, MergeFault::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("(byte "), std::string::npos);
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTaxonomyTest, GapAndDuplicateExitThree) {
  const std::string root = temp_path("dist_merge_tax3");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  write_shard_jsonl(root + "/s2.jsonl", {2});

  MergeOptions gap;
  gap.jsonl_out = root + "/m.jsonl";
  gap.jsonl_in = {root + "/s0.jsonl", root + "/s2.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(gap, out, err), 3);
  EXPECT_NE(err.str().find("missing"), std::string::npos) << err.str();

  write_shard_jsonl(root + "/dup.jsonl", {0});
  MergeOptions dup;
  dup.jsonl_out = root + "/m.jsonl";
  dup.jsonl_in = {root + "/s0.jsonl", root + "/dup.jsonl"};
  std::ostringstream err2;
  EXPECT_EQ(run_merge(dup, out, err2), 3);
  EXPECT_NE(err2.str().find("duplicate"), std::string::npos) << err2.str();

  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s2.jsonl"});
    FAIL() << "gap accepted";
  } catch (const MergeError& e) {
    EXPECT_EQ(e.fault, MergeFault::kGapOrDuplicate);
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTaxonomyTest, AllowGapsMergesSurvivorsAndReportsTheMissing) {
  const std::string root = temp_path("dist_merge_gaps");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  write_shard_jsonl(root + "/s2.jsonl", {2, 3});

  std::vector<std::uint64_t> indices, missing;
  const std::string text = merge_jsonl(
      {root + "/s0.jsonl", root + "/s2.jsonl"}, &indices, true, &missing);
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(missing, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(text,
            read_file(root + "/s0.jsonl") + read_file(root + "/s2.jsonl"));

  MergeOptions o;
  o.allow_gaps = true;
  o.jsonl_out = root + "/m.jsonl";
  o.jsonl_in = {root + "/s0.jsonl", root + "/s2.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err), 0) << err.str();
  EXPECT_NE(err.str().find("missing"), std::string::npos) << err.str();
  EXPECT_EQ(read_file(root + "/m.jsonl"), text);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Status heartbeats: one staleness definition for every consumer.

TEST(StatusTest, RoundTripsAndSharesTheStalenessDefinition) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 8;
  s.elapsed_seconds = 1.5;
  s.eta_seconds = 2.5;
  s.worker_busy_fraction = {0.5, 0.25};
  const std::string path = temp_path("dist_status_rt.json");
  write_status_file(path, s);
  const StatusSnapshot r = read_status_file(path);
  EXPECT_EQ(r.sweep, "grid");
  EXPECT_EQ(r.cells_done, 3u);
  EXPECT_EQ(r.cells_total, 8u);
  EXPECT_DOUBLE_EQ(r.elapsed_seconds, 1.5);
  ASSERT_TRUE(r.eta_seconds.has_value());
  EXPECT_DOUBLE_EQ(*r.eta_seconds, 2.5);
  EXPECT_EQ(r.worker_busy_fraction, (std::vector<double>{0.5, 0.25}));

  // A null ETA (cells_done == 0) round-trips as "no estimate".
  s.eta_seconds.reset();
  write_status_file(path, s);
  EXPECT_FALSE(read_status_file(path).eta_seconds.has_value());

  // The shared staleness rule the supervisor and the inspector both use.
  EXPECT_DOUBLE_EQ(kDefaultStaleAfterSeconds, 30.0);
  EXPECT_FALSE(heartbeat_stale(29.0, 30.0));
  EXPECT_TRUE(heartbeat_stale(30.5, 30.0));
  EXPECT_FALSE(heartbeat_stale(1e9, 0.0));  // non-positive threshold = off

  EXPECT_FALSE(
      status_file_age_seconds(temp_path("dist_status_absent.json")).has_value());
  std::optional<double> age = status_file_age_seconds(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 0.0);
  EXPECT_LT(*age, 60.0);
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::minutes(2));
  age = status_file_age_seconds(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 100.0);
  std::filesystem::remove(path);
}

TEST(InspectTest, StatusFileReportsFreshAndStaleHeartbeats) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 8;
  s.elapsed_seconds = 1.5;
  s.worker_busy_fraction = {1.0};
  const std::string path = temp_path("dist_status_inspect.json");
  write_status_file(path, s);

  InspectOptions o;
  o.status_path = path;
  std::ostringstream fresh;
  EXPECT_EQ(run_inspect(o, fresh), 0);
  EXPECT_NE(fresh.str().find("grid"), std::string::npos) << fresh.str();
  EXPECT_NE(fresh.str().find("3/8"), std::string::npos) << fresh.str();
  EXPECT_NE(fresh.str().find("alive"), std::string::npos) << fresh.str();

  // Age the heartbeat past the shared default threshold: stale, exit 1.
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::minutes(2));
  std::ostringstream stale;
  EXPECT_EQ(run_inspect(o, stale), 1);
  EXPECT_NE(stale.str().find("STALE"), std::string::npos) << stale.str();

  // A custom window rescues it; a sub-age window condemns it.
  o.stale_after = 3600.0;
  std::ostringstream wide;
  EXPECT_EQ(run_inspect(o, wide), 0);
  o.stale_after = 0.001;
  std::ostringstream tight;
  EXPECT_EQ(run_inspect(o, tight), 1);

  // A vanished file is a dead shard, not a crash.
  o.stale_after = 0.0;
  o.status_path = temp_path("dist_status_gone.json");
  std::ostringstream gone;
  EXPECT_EQ(run_inspect(o, gone), 1);
  EXPECT_NE(gone.str().find("STALE"), std::string::npos) << gone.str();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Fleet supervisor: deterministic backoff, argv parsing, and (when the
// bench binaries are built) the live self-healing end-to-end paths.

TEST(FleetBackoffTest, DeterministicCappedExponentialWithJitter) {
  // Pure function: same inputs, same delay.
  const std::uint64_t first = backoff_delay_ms(250, 1, 42, 0);
  EXPECT_EQ(first, backoff_delay_ms(250, 1, 42, 0));
  // Exponential floor with jitter bounded at half the deterministic delay.
  EXPECT_GE(first, 250u);
  EXPECT_LE(first, 375u);
  const std::uint64_t second = backoff_delay_ms(250, 2, 42, 0);
  EXPECT_GE(second, 500u);
  EXPECT_LE(second, 750u);
  // The cap holds no matter how many attempts have piled up.
  const std::uint64_t capped = backoff_delay_ms(250, 60, 42, 0);
  EXPECT_GE(capped, 30000u);
  EXPECT_LE(capped, 45000u);
  // Jitter decorrelates shards deterministically.
  EXPECT_NE(backoff_delay_ms(250, 1, 42, 0), backoff_delay_ms(250, 1, 42, 1));
  EXPECT_NE(backoff_delay_ms(250, 1, 42, 0), backoff_delay_ms(250, 1, 43, 0));
  // A zero base floors to 1ms — a restart loop must never go hot.
  EXPECT_EQ(backoff_delay_ms(0, 1, 7, 3), 1u);
}

TEST(FleetArgsTest, ParsesFlagsAndRejectsBadFaultSpecs) {
  const char* argv[] = {
      "mtr_fleet",     "fig04",          "--shards",       "8",
      "--out-dir",     "/tmp/fleet",     "--max-retries",  "5",
      "--backoff-base", "10",            "--heartbeat-timeout", "2.5",
      "--fleet-seed",  "9",              "--allow-partial",
      "--fault-inject", "3:crash-after-cell=1,torn-tail=4",
      "--scale",       "0.5",            "--seeds",        "3"};
  const FleetOptions o =
      parse_fleet_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.sweeps, (std::vector<std::string>{"fig04"}));
  EXPECT_EQ(o.shards, 8u);
  EXPECT_EQ(o.out_dir, "/tmp/fleet");
  EXPECT_EQ(o.max_retries, 5u);
  EXPECT_EQ(o.backoff_base_ms, 10u);
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout, 2.5);
  EXPECT_EQ(o.fleet_seed, 9u);
  EXPECT_TRUE(o.allow_partial);
  ASSERT_EQ(o.faults.size(), 1u);
  EXPECT_EQ(o.faults[0].first, 3u);
  EXPECT_EQ(o.faults[0].second, "crash-after-cell=1,torn-tail=4");
  ASSERT_TRUE(o.scale.has_value());
  EXPECT_DOUBLE_EQ(*o.scale, 0.5);
  ASSERT_TRUE(o.seeds.has_value());
  EXPECT_EQ(*o.seeds, 3u);

  const char* no_colon[] = {"mtr_fleet", "--fault-inject", "crash-after-cell=1"};
  EXPECT_THROW(parse_fleet_args(3, no_colon), std::runtime_error);
  const char* bad_spec[] = {"mtr_fleet", "--fault-inject", "0:bogus=1"};
  EXPECT_THROW(parse_fleet_args(3, bad_spec), std::runtime_error);
  const char* dup[] = {"mtr_fleet", "--fault-inject", "0:crash-after-cell=1",
                       "--fault-inject", "0:sigkill-after-ms=5"};
  EXPECT_THROW(parse_fleet_args(5, dup), std::runtime_error);
  const char* bad_shard[] = {"mtr_fleet", "--fault-inject",
                             "x:crash-after-cell=1"};
  EXPECT_THROW(parse_fleet_args(3, bad_shard), std::runtime_error);
}

#ifdef MTR_SWEEP_BIN

/// Fleet options sized for the test registry's cheapest real sweep.
FleetOptions quick_fleet(const std::string& out_dir) {
  FleetOptions o = default_fleet_options();
  o.sweep_bin = MTR_SWEEP_BIN;
  o.out_dir = out_dir;
  o.shards = 4;
  o.sweeps = {"fig04"};
  o.scale = 0.02;
  o.seeds = 2;
  o.threads = 2;
  o.quiet = true;
  o.poll_ms = 10;
  o.backoff_base_ms = 1;
  o.fleet_seed = 42;
  return o;
}

TEST(FleetTest, ChaosFleetMergesByteIdenticalToASingleProcessRun) {
  const std::string root = temp_path("dist_fleet_chaos");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // The clean single-process reference, produced by the real binary with
  // the same workload shape the shards get.
  const std::string ref = root + "/ref";
  const std::string cmd = std::string(MTR_SWEEP_BIN) +
      " fig04 --scale 0.02 --seeds 2 --threads 2 --quiet --no-progress"
      " --metrics " + ref + "/metrics.json --out-dir " + ref +
      " > " + root + "/ref.log 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  // The fleet, under an adversarial schedule: shard 0 crashes after its
  // first cell and tears 9 bytes off every sink; shard 1 takes a SIGKILL
  // almost immediately.
  FleetOptions o = quick_fleet(root + "/fleet");
  o.faults = {{0u, "crash-after-cell=1,torn-tail=9"},
              {1u, "sigkill-after-ms=1"}};
  std::ostringstream out, err;
  FleetReport report;
  ASSERT_EQ(run_fleet(o, out, err, &report), 0) << err.str();
  EXPECT_EQ(report.total_cells, 8u);
  EXPECT_TRUE(report.merged);
  ASSERT_EQ(report.shards.size(), 4u);
  for (const ShardOutcome& s : report.shards) EXPECT_TRUE(s.succeeded);
  EXPECT_EQ(report.shards[0].attempts, 2u);  // the injected crash cost one
  // The supervisor saw the injected deaths and healed them.
  EXPECT_NE(err.str().find("exited with code 70"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("killed by signal 9"), std::string::npos)
      << err.str();

  // The headline guarantee: byte-identical merged outputs, exact counters.
  EXPECT_EQ(read_file(root + "/fleet/merged/fig04.csv"),
            read_file(ref + "/fig04.csv"));
  EXPECT_EQ(read_file(root + "/fleet/merged/fig04.jsonl"),
            read_file(ref + "/fig04.jsonl"));
  std::ostringstream cmp;
  EXPECT_EQ(
      compare_metrics(cmp, "fleet",
                      read_metrics_json(root + "/fleet/merged/metrics.json"),
                      "single", read_metrics_json(ref + "/metrics.json")),
      0)
      << cmp.str();
  std::filesystem::remove_all(root);
}

TEST(FleetTest, AllowPartialMergesSurvivorsAndWritesTheGapManifest) {
  const std::string root = temp_path("dist_fleet_partial");
  std::filesystem::remove_all(root);
  FleetOptions o = quick_fleet(root);
  o.faults = {{2u, "fail-flush-at=1"}};
  o.max_retries = 0;  // the fault would heal on retry; forbid it
  o.allow_partial = true;
  std::ostringstream out, err;
  FleetReport report;
  ASSERT_EQ(run_fleet(o, out, err, &report), 0) << err.str();
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_FALSE(report.shards[2].succeeded);
  EXPECT_TRUE(report.merged);
  // 8 cells round-robined over 4 shards: shard 2 owned cells 2 and 6.
  EXPECT_EQ(report.missing_cells, (std::vector<std::uint64_t>{2, 6}));
  EXPECT_NE(err.str().find("FAILED"), std::string::npos) << err.str();

  const std::string manifest = read_file(root + "/merged/gaps.json");
  EXPECT_NE(manifest.find("\"record\": \"gap_manifest\""), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"shard\": 2"), std::string::npos);
  EXPECT_NE(manifest.find("\"missing_cells\": [2, 6]"), std::string::npos);

  // The merged JSONL holds exactly the surviving cells, in index order.
  const FileScan merged = scan_jsonl(root + "/merged/fig04.jsonl");
  EXPECT_TRUE(merged.clean);
  std::vector<std::uint64_t> cells;
  for (const CellBlock& b : merged.blocks) cells.push_back(b.coords.cell_index);
  EXPECT_EQ(cells, (std::vector<std::uint64_t>{0, 1, 3, 4, 5, 7}));
  std::filesystem::remove_all(root);
}

TEST(FleetTest, ExhaustedRetriesFailTheFleetWithAPerShardReport) {
  const std::string root = temp_path("dist_fleet_fail");
  std::filesystem::remove_all(root);
  FleetOptions o = quick_fleet(root);
  o.faults = {{0u, "crash-after-cell=0"}};
  o.max_retries = 0;
  std::ostringstream out, err;
  FleetReport report;
  EXPECT_EQ(run_fleet(o, out, err, &report), 1);
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_FALSE(report.shards[0].succeeded);
  EXPECT_EQ(report.shards[0].attempts, 1u);
  EXPECT_EQ(report.shards[0].exit_code, kFaultCrashExitCode);
  EXPECT_FALSE(report.merged);
  EXPECT_NE(err.str().find("retries exhausted"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("FAILED after 1 attempt(s)"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("exit code 70"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("log: "), std::string::npos) << err.str();
  EXPECT_TRUE(std::filesystem::exists(report.shards[0].log_path));
  std::filesystem::remove_all(root);
}

TEST(FleetTest, StaleHeartbeatGetsTheShardKilledAndReportedAsHung) {
  const std::string root = temp_path("dist_fleet_hang");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  // A stand-in shard that answers the preflight then hangs forever
  // without ever writing a heartbeat.
  const std::string script = root + "/hang.sh";
  write_file(script,
             "#!/bin/sh\n"
             "case \"$*\" in\n"
             "  *--dry-run*) echo 'dry run: 1 sweep(s), 8 cell(s)'; exit 0;;\n"
             "esac\n"
             "exec sleep 30\n");
  std::filesystem::permissions(script, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);

  FleetOptions o = quick_fleet(root + "/fleet");
  o.sweep_bin = script;
  o.shards = 1;
  o.max_retries = 0;
  o.heartbeat_timeout = 0.3;
  std::ostringstream out, err;
  FleetReport report;
  EXPECT_EQ(run_fleet(o, out, err, &report), 1);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_FALSE(report.shards[0].succeeded);
  EXPECT_TRUE(report.shards[0].hung);
  EXPECT_EQ(report.shards[0].term_signal, SIGKILL);
  EXPECT_GE(report.shards[0].last_heartbeat_age, 0.3);
  EXPECT_NE(err.str().find("heartbeat stale"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("hung (last heartbeat"), std::string::npos)
      << err.str();
  std::filesystem::remove_all(root);
}

/// The whole registered roster at smoke scale, pinned byte for byte.
/// Engine equivalence cannot see a change in the mm, the meters or the
/// sinks (both engines share them); these digests can. The pins are the
/// `roster` workload of the end-to-end benchmark (mtrbench/digests.json:
/// `mtr_sweep --all --scale 0.05 --seeds 2 --first-seed <seed>`), read
/// here rather than copied, so one file holds them. After an intended
/// output change regenerate them with
/// `python3 mtrbench/run.py --workload roster --record-digests` and say why
/// in CHANGES.md. Registered as its own ctest entry (roster_golden_test).
TEST(RosterGoldenTest, EverySweepMatchesItsPinnedDigest) {
  const json::Value pins = json::parse_document(read_file(MTR_BENCH_DIGESTS));
  const json::Value& roster =
      json::get_object(json::get_object(pins, "workloads"), "roster");
  std::map<std::string, std::string> pinned;
  for (const auto& field : roster.fields)
    pinned[field.first] = json::get_string(roster, field.first);
  ASSERT_FALSE(pinned.empty());

  const std::string out = temp_path("dist_roster_smoke");
  std::filesystem::remove_all(out);
  const std::string cmd = std::string(MTR_SWEEP_BIN) +
      " --all --scale 0.05 --seeds 2 --first-seed " +
      std::to_string(json::get_u64(pins, "seed")) +
      " --quiet --no-progress --out-dir " + out + " > " + out + ".log 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << read_file(out + ".log");

  std::map<std::string, std::string> actual;
  for (const auto& e : std::filesystem::directory_iterator(out)) {
    const std::string ext = e.path().extension().string();
    if (ext != ".csv" && ext != ".jsonl") continue;
    const std::string bytes = read_file(e.path().string());
    actual[e.path().filename().string()] = crypto::to_hex(crypto::sha256(bytes));
  }
  EXPECT_EQ(actual, pinned);
  std::filesystem::remove_all(out);
  std::filesystem::remove(out + ".log");
}

#ifdef MTR_FLEET_BIN
TEST(FleetTest, CliHelpAndUsageExitCodes) {
  EXPECT_EQ(
      WEXITSTATUS(std::system(MTR_FLEET_BIN " --help >/dev/null 2>&1")), 0);
  // No --out-dir: a usage error, exit 2 (distinct from shard failures).
  EXPECT_EQ(
      WEXITSTATUS(std::system(MTR_FLEET_BIN " fig04 >/dev/null 2>&1")), 2);
}
#endif  // MTR_FLEET_BIN

#else  // !MTR_SWEEP_BIN

TEST(FleetTest, EndToEndSuiteNeedsTheBenchBinaries) {
  GTEST_SKIP() << "bench binaries not built (MTR_BUILD_BENCH=OFF) — the "
                  "fleet end-to-end suite needs mtr_sweep/mtr_fleet";
}

TEST(RosterGoldenTest, EverySweepMatchesItsPinnedDigest) {
  GTEST_SKIP() << "bench binaries not built (MTR_BUILD_BENCH=OFF) — the "
                  "roster digests need mtr_sweep";
}

#endif  // MTR_SWEEP_BIN

}  // namespace
}  // namespace mtr::dist
