// Report-layer coverage: sink round-trips (every ExperimentResult field
// survives CSV and JSONL serialization), append safety, MultiSink fan-out,
// the shared cell-record emitter, the sweep registry, and the progress
// reporter. The CLI driver moved to src/dist and is covered by dist_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/ensure.hpp"
#include "report/progress.hpp"
#include "report/result_sink.hpp"
#include "report/sweep.hpp"

namespace mtr::report {
namespace {

/// A fully populated cell with two replicate runs of distinctive values —
/// no simulation needed, so the round-trip checks stay instant.
core::CellStats sample_cell() {
  core::CellStats cell;
  cell.attack_label = "shell, \"quoted\"";  // exercises CSV/JSON escaping
  cell.scheduler = sim::SchedulerKind::kCfs;
  cell.hz = TimerHz{1000};
  cell.cpu = CpuHz{1'600'000'000};
  cell.ram = {4 * 1024, 64};
  cell.ptrace = kernel::PtracePolicy::kPrivilegedOnly;
  cell.jiffy_timers = false;
  cell.cell_index = 5;
  cell.seeds = {7, 8};
  for (std::uint64_t i = 0; i < 2; ++i) {
    core::ExperimentResult r;
    r.kind = workloads::WorkloadKind::kWhetstone;
    r.attack_name = "shell";
    r.victim_pid = Pid{4};
    r.victim_tgid = Tgid{4};
    r.victim_exited = true;
    r.wall_seconds = 12.5 + static_cast<double>(i);
    r.billed_ticks = {Ticks{3000 + i}, Ticks{41 + i}};
    r.billed_user_seconds = 3.0 + 0.125 * static_cast<double>(i);
    r.billed_system_seconds = 0.041;
    r.billed_seconds = r.billed_user_seconds + r.billed_system_seconds;
    r.true_cycles = {Cycles{7'590'000'000 + i}, Cycles{103'730'000}};
    r.true_seconds = 3.0410001;
    r.tsc_cycles = {Cycles{7'600'000'000}, Cycles{104'000'000}};
    r.tsc_seconds = 3.0451;
    r.pais_cycles = {Cycles{7'590'000'001}, Cycles{103'730'001}};
    r.pais_seconds = 3.0410002;
    r.overcharge = 1.0 / 3.0;  // forces a long %.17g representation
    r.source_verdict.ok = false;
    r.source_verdict.violations = {"bash (deadbeef)", "libm (cafe, 2)"};
    r.witness.bytes[0] = 0xab;
    r.witness.bytes[31] = 0x01;
    r.witness_steps = 123'456'789;
    r.minor_faults = 12;
    r.major_faults = 3;
    r.debug_exceptions = 99;
    r.voluntary_switches = 7;
    r.involuntary_switches = 11;
    r.nic_packets = 1'000'000;
    r.has_attacker = true;
    r.attacker_ticks = {Ticks{17}, Ticks{19}};
    r.attacker_billed_seconds = 0.144;
    r.attacker_true_cycles = {Cycles{100}, Cycles{200}};
    r.attacker_true_seconds = 0.000000118577;
    r.pop_tenants = 4;
    r.pop_attackers = 1;
    r.pop_billing_error_mean = 0.1 * static_cast<double>(i + 1);
    r.pop_detection_tpr = 1.0;
    r.pop_billing_error.add(-0.25);
    r.pop_billing_error.add(0.0);
    r.pop_billing_error.add(1.0 / 7.0 + static_cast<double>(i));
    r.pop_billed_seconds.add(3.0);
    r.pop_true_seconds.add(2.875);
    r.pop_attacker_advantage.add(0.5);
    cell.runs.push_back(r);
    cell.add(r);
  }
  return cell;
}

/// The source record of run `seed_i` of `cell`, as the sinks write it.
RunRecord source_record(const std::string& sweep, const core::CellStats& cell,
                        std::size_t seed_i) {
  return {record_coords(sweep, cell.cell_index, cell), cell.seeds[seed_i],
          seed_i, cell.runs[seed_i]};
}

/// Compares two records member by member through the table.
void expect_same_record(const RunRecord& got, const RunRecord& want) {
  for_each_run_field(
      [](const char* key, const auto& g, const auto& w) {
        EXPECT_TRUE(g == w) << key;
      },
      got, want);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// The value of `"key":<raw json>` in a JSONL line (first occurrence).
std::string json_raw_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "<missing>";
  std::size_t i = at + needle.size();
  if (line[i] == '"') {  // string: scan to the closing unescaped quote
    std::string out;
    for (++i; i < line.size(); ++i) {
      if (line[i] == '\\') {
        out += line[i + 1] == 'n' ? '\n' : line[i + 1];
        ++i;
      } else if (line[i] == '"') {
        break;
      } else {
        out += line[i];
      }
    }
    return out;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(ResultSinkSchema, KeysAreUniqueAndVersioned) {
  const auto keys = run_schema_keys();
  EXPECT_GT(keys.size(), 40u);  // every ExperimentResult field + coordinates
  EXPECT_EQ(keys.front(), "schema");
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "duplicate column " << keys[i];
}

TEST(ResultSinkSchema, CoordinateColumnsFollowTheCellCoordsTable) {
  const auto keys = run_schema_keys();
  CellCoords coords;
  std::vector<std::string> lead, population;
  for_each_lead_coord([&](const char* key, auto&) { lead.emplace_back(key); },
                      coords);
  for_each_population_coord(
      [&](const char* key, auto&) { population.emplace_back(key); }, coords);
  ASSERT_EQ(lead.size() + population.size(), 14u);
  // Run records lead with the schema stamp and the lead coordinates, then
  // the seed; the population axes follow attacker_true_seconds. The
  // pinned digests hold both positions fixed.
  const auto slice = [&](std::size_t from, std::size_t n) {
    return std::vector<std::string>(keys.begin() + from,
                                    keys.begin() + from + n);
  };
  EXPECT_EQ(slice(1, lead.size()), lead);
  EXPECT_EQ(keys.at(1 + lead.size()), "seed");
  const std::size_t after = static_cast<std::size_t>(
      std::find(keys.begin(), keys.end(), "attacker_true_seconds") -
      keys.begin()) + 1;
  ASSERT_LT(after, keys.size());
  EXPECT_EQ(slice(after, population.size()), population);
}

TEST(SketchCodecTest, EncodeDecodeRoundTripsExactly) {
  QuantileSketch s;
  s.add(0.0);
  s.add(0.0);
  s.add(1.0 / 3.0);            // long %.17g bucket bounds
  s.add(-2.5e-7);              // negative store
  s.add(1.0e9);                // far positive bucket
  for (int i = 0; i < 100; ++i) s.add(0.001 * i);
  const std::optional<QuantileSketch> back = decode_sketch(encode_sketch(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == s);
  // Re-encoding the decoded sketch is byte-stable — what makes mtr_merge's
  // recomputed cell lines byte-identical to the original writer's.
  EXPECT_EQ(encode_sketch(*back), encode_sketch(s));

  const std::optional<QuantileSketch> empty = decode_sketch(encode_sketch({}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(SketchCodecTest, MalformedTokensAreRejected) {
  for (const char* bad :
       {"", "1;2", "x;0;0;0;;", "2;0;0;1;0:1 1:x;", "2;0;0;1;0:1;0:1;extra"}) {
    EXPECT_FALSE(decode_sketch(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ResultSinkGrowth, CellRecordsStayBoundedAtTenThousandTenants) {
  // The population refactor's growth guard: sink output is per-run and
  // per-cell, never per-tenant. A 10^4-tenant cell must emit the same
  // number of rows as a 1-tenant cell, and its record bytes must stay
  // bounded by the sketch bucket structure, not the tenant count.
  const auto populated_cell = [](std::uint32_t tenants) {
    core::CellStats cell = sample_cell();
    cell.population = tenants;
    cell.attacker_fraction = 0.25;
    for (core::ExperimentResult& r : cell.runs) {
      r.pop_tenants = tenants;
      for (std::uint32_t i = 0; i < tenants; ++i) {
        // Spread over several decades so the sketches actually fill.
        const double v = 1e-6 * static_cast<double>(i + 1);
        r.pop_billing_error.add(i % 2 ? v : -v);
        r.pop_billed_seconds.add(3.0 + v);
        r.pop_true_seconds.add(3.0);
        r.pop_attacker_advantage.add(v);
      }
    }
    cell.for_each_sketch([&](const char*, QuantileSketch& sketch, auto get) {
      for (const core::ExperimentResult& r : cell.runs) sketch.merge(get(r));
    });
    return cell;
  };

  const auto emitted = [](const core::CellStats& cell) {
    std::ostringstream csv_os, jsonl_os;
    CsvSink csv(csv_os);
    JsonlSink jsonl(jsonl_os);
    csv.write_cell("pop", cell);
    jsonl.write_cell("pop", cell);
    return std::pair{csv_os.str(), jsonl_os.str()};
  };

  const auto [csv_small, jsonl_small] = emitted(populated_cell(100));
  const auto [csv_big, jsonl_big] = emitted(populated_cell(10'000));

  // Row counts are a function of seeds, not tenants.
  EXPECT_EQ(lines_of(csv_big).size(), 1u + 2u);     // header + one row/seed
  EXPECT_EQ(lines_of(jsonl_big).size(), 2u + 1u);   // runs + cell summary
  EXPECT_EQ(lines_of(csv_big).size(), lines_of(csv_small).size());
  EXPECT_EQ(lines_of(jsonl_big).size(), lines_of(jsonl_small).size());

  // 100x the tenants must not cost anywhere near 100x the bytes: the only
  // growth is sketch buckets, log-bounded by the value range.
  EXPECT_LT(csv_big.size(), 4 * csv_small.size());
  EXPECT_LT(jsonl_big.size(), 4 * jsonl_small.size());
  EXPECT_LT(csv_big.size(), 64u * 1024u);
  EXPECT_LT(jsonl_big.size(), 64u * 1024u);
}

TEST(CsvSinkTest, RoundTripsEveryField) {
  const core::CellStats cell = sample_cell();
  std::ostringstream os;
  CsvSink sink(os);
  sink.write_cell("fig04", cell);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);  // header + 2 runs
  const auto header = split_csv_line(lines[0]);
  ASSERT_EQ(header, run_schema_keys());

  // Every row decodes through the table and the token codec back into the
  // exact source record (doubles render as %.17g, which round-trips
  // binary64; the violation list, witness and sketches are text tokens).
  for (std::size_t seed_i = 0; seed_i < 2; ++seed_i) {
    const auto row = split_csv_line(lines[1 + seed_i]);
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(row[0], std::to_string(kSchemaVersion));
    RunRecord decoded;
    std::size_t c = 1;
    for_each_run_field(
        [&](const char* key, auto& member) {
          EXPECT_TRUE(parse_token(row[c], member)) << key << "=" << row[c];
          ++c;
        },
        decoded);
    EXPECT_EQ(c, row.size());
    expect_same_record(decoded, source_record("fig04", cell, seed_i));
  }

  // Spot-check load-bearing cells against the source struct directly.
  const auto row0 = split_csv_line(lines[1]);
  const auto col = [&](const std::string& key) {
    for (std::size_t c = 0; c < header.size(); ++c)
      if (header[c] == key) return row0[c];
    return std::string("<missing>");
  };
  EXPECT_EQ(col("sweep"), "fig04");
  EXPECT_EQ(col("attack"), "shell, \"quoted\"");
  EXPECT_EQ(col("scheduler"), "cfs");
  EXPECT_EQ(col("hz"), "1000");
  EXPECT_EQ(col("cpu_hz"), "1600000000");
  EXPECT_EQ(col("ram_frames"), "4096");
  EXPECT_EQ(col("reclaim_batch"), "64");
  EXPECT_EQ(col("ptrace"), "privileged_only");
  EXPECT_EQ(col("jiffy_timers"), "false");
  EXPECT_EQ(col("seed"), "7");
  EXPECT_EQ(col("workload"), "W");
  EXPECT_EQ(col("billed_utime_ticks"), "3000");
  EXPECT_EQ(col("source_ok"), "false");
  EXPECT_EQ(col("source_violations"), "bash (deadbeef); libm (cafe, 2)");
  EXPECT_EQ(std::strtod(col("overcharge").c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(col("witness").substr(0, 2), "ab");
}

TEST(JsonlSinkTest, RoundTripsRunsAndCellSummary) {
  const core::CellStats cell = sample_cell();
  std::ostringstream os;
  JsonlSink sink(os);
  sink.write_cell("fig07", cell);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);  // 2 run records + 1 cell record
  EXPECT_EQ(json_raw_value(lines[0], "record"), "run");
  EXPECT_EQ(json_raw_value(lines[1], "record"), "run");
  EXPECT_EQ(json_raw_value(lines[2], "record"), "cell");

  // Every run line carries the table's keys in table order, and its values
  // decode through the token codec back into the exact source record.
  for (std::size_t seed_i = 0; seed_i < 2; ++seed_i) {
    const std::string& line = lines[seed_i];
    EXPECT_EQ(line.rfind("{\"record\":\"run\",\"schema\":4,\"sweep\":", 0), 0u)
        << line;
    RunRecord decoded;
    std::size_t last_at = 0;
    for_each_run_field(
        [&](const char* key, auto& member) {
          const std::size_t at = line.find(std::string("\"") + key + "\":");
          EXPECT_GT(at, last_at) << key;
          last_at = at;
          const std::string raw = json_raw_value(line, key);
          EXPECT_TRUE(parse_token(raw, member)) << key << "=" << raw;
        },
        decoded);
    expect_same_record(decoded, source_record("fig07", cell, seed_i));
  }

  // The cell summary carries the aggregates a figure plots, plus (since
  // schema v3) the scenario-axis coordinates.
  const std::string& summary = lines[2];
  EXPECT_EQ(json_raw_value(summary, "sweep"), "fig07");
  EXPECT_EQ(json_raw_value(summary, "workload"), "W");
  EXPECT_EQ(json_raw_value(summary, "seeds"), "2");
  EXPECT_EQ(json_raw_value(summary, "source_ok"), "false");
  EXPECT_EQ(json_raw_value(summary, "cpu_hz"), "1600000000");
  EXPECT_EQ(json_raw_value(summary, "ram_frames"), "4096");
  EXPECT_EQ(json_raw_value(summary, "reclaim_batch"), "64");
  EXPECT_EQ(json_raw_value(summary, "ptrace"), "privileged_only");
  EXPECT_EQ(json_raw_value(summary, "jiffy_timers"), "false");
  EXPECT_NE(summary.find("\"overcharge\":{\"n\":2,"), std::string::npos);
  EXPECT_NE(summary.find("\"attacker_true_seconds\":{"), std::string::npos);
}

TEST(CellRecordTest, PopulationAxesFollowJiffyTimers) {
  const core::CellStats cell = sample_cell();
  std::string line;
  write_cell_record(line, record_coords("fig07", cell.cell_index, cell), cell);
  EXPECT_EQ(line.rfind("{\"record\":\"cell\",\"schema\":4,\"sweep\":\"fig07\",", 0),
            0u)
      << line;
  EXPECT_NE(line.find("\"jiffy_timers\":false,\"population\":"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(",\"attacker_nice\":0,\"workload\":"), std::string::npos)
      << line;
}

TEST(CsvSinkTest, AppendModeWritesHeaderExactlyOnce) {
  const std::string path = temp_path("report_test_append.csv");
  std::filesystem::remove(path);
  const core::CellStats cell = sample_cell();
  {
    CsvSink sink(path, OpenMode::kAppend);  // fresh file: header + 2 rows
    sink.write_cell("s1", cell);
  }
  {
    CsvSink sink(path, OpenMode::kAppend);  // reopened: rows only
    sink.write_cell("s2", cell);
    sink.write_cell("s3", cell);
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const auto lines = lines_of(content.str());
  EXPECT_EQ(lines.size(), 1u + 3 * 2);
  EXPECT_EQ(split_csv_line(lines[0]), run_schema_keys());
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_NE(split_csv_line(lines[i])[0], "schema") << "duplicated header";
  std::filesystem::remove(path);
}

TEST(CsvSinkTest, TruncateModeStartsFresh) {
  const std::string path = temp_path("report_test_trunc.csv");
  const core::CellStats cell = sample_cell();
  for (int round = 0; round < 2; ++round) {
    CsvSink sink(path, OpenMode::kTruncate);
    sink.write_cell("s", cell);
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(lines_of(content.str()).size(), 1u + 2);  // not doubled
  std::filesystem::remove(path);
}

TEST(MultiSinkTest, FansOutToEveryChildInOrder) {
  auto csv_a = std::make_unique<std::ostringstream>();
  auto csv_b = std::make_unique<std::ostringstream>();
  std::ostringstream ref;

  MultiSink multi;
  EXPECT_TRUE(multi.empty());
  multi.add(std::make_unique<CsvSink>(*csv_a));
  multi.add(std::make_unique<CsvSink>(*csv_b));
  EXPECT_EQ(multi.size(), 2u);

  const core::CellStats cell = sample_cell();
  multi.write_cell("fig04", cell);
  CsvSink(ref).write_cell("fig04", cell);
  EXPECT_EQ(csv_a->str(), ref.str());
  EXPECT_EQ(csv_b->str(), ref.str());
}

TEST(SweepRegistryTest, AddFindAndRejectDuplicates) {
  SweepRegistry registry;
  registry.add({"fig04", "t1", [](const SweepContext&) {}});
  registry.add({"fig05", "t2", [](const SweepContext&) {}});
  ASSERT_NE(registry.find("fig04"), nullptr);
  EXPECT_EQ(registry.find("fig04")->title, "t1");
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.specs().size(), 2u);
  EXPECT_THROW((registry.add({"fig04", "dup", [](const SweepContext&) {}})),
               InvariantError);
}

TEST(CellRecordTest, SummaryMatchesJsonlSinkOutput) {
  // write_cell_record over the cell's aggregate must reproduce exactly the
  // cell line JsonlSink emits — mtr_merge leans on this emitter for
  // byte-identical merged aggregates.
  const core::CellStats cell = sample_cell();
  std::ostringstream sink_os;
  JsonlSink(sink_os).write_cell("fig07", cell);
  const auto lines = lines_of(sink_os.str());
  ASSERT_EQ(lines.size(), 3u);

  std::string record;
  write_cell_record(record, record_coords("fig07", cell.cell_index, cell),
                    cell);
  EXPECT_EQ(record, lines[2] + "\n");
  EXPECT_EQ(json_raw_value(lines[2], "cell_index"), "5");
}

TEST(ProgressReporterTest, ReportsCountsElapsedAndEta) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("fig04", 2);
  progress.on_cell({0, 2, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 1/2]"), std::string::npos);
  EXPECT_NE(os.str().find("attack=attacked"), std::string::npos);
  EXPECT_NE(os.str().find("eta="), std::string::npos);
  progress.on_cell({1, 2, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 2/2]"), std::string::npos);
  progress.finish();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos);

  std::ostringstream silent;
  ProgressReporter disabled(silent, /*enabled=*/false);
  disabled.begin("fig04", 2);
  disabled.on_cell({0, 2, 0.5, {}, cell});
  disabled.finish();
  EXPECT_EQ(silent.str(), "");
}

TEST(ProgressReporterTest, CellLineShowsSweptScenarioAxes) {
  core::CellStats cell;
  cell.attack_label = "scheduling";
  cell.hz = TimerHz{250};
  cell.cpu = CpuHz{2'530'000'000};  // the stock default — still printed,
  cell.ram = {4096, 64};            // because the axis is swept
  cell.ptrace = kernel::PtracePolicy::kPrivilegedOnly;
  cell.jiffy_timers = false;
  core::GridGeometry swept;
  swept.cpus = 3;
  swept.rams = 2;
  swept.ptraces = 2;
  swept.jiffies = 2;

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("abl", 1);
  progress.on_cell({0, 1, 0.5, swept, cell});
  EXPECT_NE(os.str().find("cpu_hz=2530000000"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("ram=4096f/64"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("ptrace=privileged_only"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("jiffy_timers=off"), std::string::npos) << os.str();

  // Non-swept axes keep the short line, whatever their value.
  std::ostringstream quiet;
  ProgressReporter stock(quiet, /*enabled=*/true);
  stock.begin("fig", 1);
  stock.on_cell({0, 1, 0.5, core::GridGeometry{}, cell});
  EXPECT_EQ(quiet.str().find("cpu_hz="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("ram="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("ptrace="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("jiffy_timers="), std::string::npos) << quiet.str();
}

TEST(ProgressReporterTest, ShrinkTotalTracksSkippedCells) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("fig04", 8);
  progress.shrink_total(6);  // a shard that owns 2 of 8 cells
  progress.on_cell({0, 8, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 1/2]"), std::string::npos);
  progress.on_cell({4, 8, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 2/2]"), std::string::npos);
  // Shrinking below what's already done clamps instead of underflowing.
  progress.shrink_total(100);
  progress.finish();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos);
}

TEST(ProgressReporterTest, FormatsDurations) {
  EXPECT_EQ(fmt_duration(0.0), "0.0s");
  EXPECT_EQ(fmt_duration(-3.0), "0.0s");
  EXPECT_EQ(fmt_duration(43.21), "43.2s");
  EXPECT_EQ(fmt_duration(126.0), "2m06s");
  EXPECT_EQ(fmt_duration(3726.0), "1h02m");
}

TEST(ProgressReporterTest, DurationUnitBoundariesCarryInsteadOfOverflowing) {
  // 59.95–59.99 s used to render as "60.0s": %.1f rounded up after the
  // <60 bucket was already chosen. Rounding happens first now.
  EXPECT_EQ(fmt_duration(59.94), "59.9s");
  EXPECT_EQ(fmt_duration(59.95), "1m00s");
  EXPECT_EQ(fmt_duration(59.99), "1m00s");
  EXPECT_EQ(fmt_duration(60.0), "1m00s");
  EXPECT_EQ(fmt_duration(60.4), "1m00s");
  EXPECT_EQ(fmt_duration(89.6), "1m30s");
  // The same carry at the hour boundary: 3599.6 s is 1h00m, not 60m00s.
  EXPECT_EQ(fmt_duration(3599.4), "59m59s");
  EXPECT_EQ(fmt_duration(3599.6), "1h00m");
  EXPECT_EQ(fmt_duration(3629.0), "1h00m");
  EXPECT_EQ(fmt_duration(3689.9), "1h01m");
  EXPECT_EQ(fmt_duration(3690.0), "1h02m");
}

TEST(ProgressReporterTest, EtaGuardsDivisionByZeroAndDegenerateInputs) {
  // The ETA is elapsed/done * remaining — done==0 used to divide by zero.
  EXPECT_FALSE(eta_seconds(10.0, 0, 5).has_value());
  // Nothing left: no ETA line rather than "eta=0.0s".
  EXPECT_FALSE(eta_seconds(10.0, 3, 0).has_value());
  // A zero (or negative, or NaN) clock yields no estimate, not zero.
  EXPECT_FALSE(eta_seconds(0.0, 3, 5).has_value());
  EXPECT_FALSE(eta_seconds(-1.0, 3, 5).has_value());
  EXPECT_FALSE(
      eta_seconds(std::numeric_limits<double>::quiet_NaN(), 3, 5).has_value());

  const auto eta = eta_seconds(10.0, 4, 6);
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 15.0);  // 2.5 s per cell, 6 cells left
}

TEST(ProgressReporterTest, PerCellOffKeepsBeginAndFinishLines) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.set_per_cell(false);  // mtr_sweep --quiet
  progress.begin("fig04", 2);
  progress.on_cell({0, 2, 0.5, {}, cell});
  progress.on_cell({1, 2, 0.5, {}, cell});
  progress.finish();
  EXPECT_EQ(os.str().find("[fig04 1/2]"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("attack="), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("[fig04] 2 cell(s) queued"), std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace mtr::report
