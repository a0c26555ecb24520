// Unit tests for mtr_common: strong types, the dense id table and the FIFO,
// RNG determinism and distributions, statistics, table/chart rendering,
// formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "common/ensure.hpp"
#include "common/fifo.hpp"
#include "common/format.hpp"
#include "common/id_table.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

// --- counting allocator hook -------------------------------------------------------
//
// TU-local replacement of the global allocation functions so the suite can
// assert that a Fifo allocates nothing on construction and that its storage
// stops growing. The counter only ever
// increases; tests snapshot it around the code under scrutiny.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  ++g_alloc_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mtr {
namespace {

// --- types -------------------------------------------------------------------

TEST(Types, CycleArithmetic) {
  Cycles a{100};
  Cycles b{40};
  EXPECT_EQ((a + b).v, 140u);
  EXPECT_EQ((a - b).v, 60u);
  EXPECT_EQ((a * 3).v, 300u);
  EXPECT_EQ(a / b, 2u);
  EXPECT_EQ((a % b).v, 20u);
  a += b;
  EXPECT_EQ(a.v, 140u);
  EXPECT_LT(b, a);
}

TEST(Types, TickLengthMatchesHz) {
  const CpuHz cpu{2'530'000'000};
  const TimerHz hz{250};
  EXPECT_EQ(tick_length(cpu, hz).v, 10'120'000u);
  EXPECT_DOUBLE_EQ(ticks_to_seconds(Ticks{250}, hz), 1.0);
}

TEST(Types, SecondsCyclesRoundTrip) {
  const CpuHz cpu{1'000'000'000};
  EXPECT_EQ(seconds_to_cycles(2.5, cpu).v, 2'500'000'000u);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(Cycles{500'000'000}, cpu), 0.5);
}

TEST(Types, PageMapping) {
  EXPECT_EQ(page_of(VAddr{0}).v, 0u);
  EXPECT_EQ(page_of(VAddr{4095}).v, 0u);
  EXPECT_EQ(page_of(VAddr{4096}).v, 1u);
  EXPECT_EQ(page_base(PageId{3}).v, 3u * 4096u);
}

TEST(Types, PidValidity) {
  EXPECT_FALSE(Pid{}.valid());
  EXPECT_TRUE(Pid{0}.valid());
  EXPECT_TRUE(Pid{7}.valid());
  EXPECT_EQ(kIdlePid, Pid{0});
}

TEST(Types, UsageAccumulation) {
  CpuUsageCycles a{Cycles{10}, Cycles{5}};
  const CpuUsageCycles b{Cycles{1}, Cycles{2}};
  a += b;
  EXPECT_EQ(a.user.v, 11u);
  EXPECT_EQ(a.system.v, 7u);
  EXPECT_EQ(a.total().v, 18u);
}

// --- ensure --------------------------------------------------------------------

TEST(Ensure, ThrowsWithContext) {
  try {
    MTR_ENSURE_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Ensure, PassesSilently) {
  MTR_ENSURE(2 + 2 == 4);  // must not throw
}

// --- id table -----------------------------------------------------------------

TEST(IdTable, AbsentAndOutOfRangeIdsReadAsDefault) {
  IdTable<Tgid, CpuUsageTicks> usage;
  EXPECT_EQ(usage.get(Tgid{0}).total().v, 0u);  // empty table
  usage[Tgid{3}].utime += Ticks{7};
  EXPECT_EQ(usage.get(Tgid{3}).utime.v, 7u);
  EXPECT_EQ(usage.get(Tgid{1}).total().v, 0u);     // absent, below the top id
  EXPECT_EQ(usage.get(Tgid{1000}).total().v, 0u);  // beyond the table
  EXPECT_EQ(usage.slots().size(), 4u);             // reads never grow it

  IdTable<Pid, Tgid> group_of;
  EXPECT_FALSE(group_of.get(Pid{5}).valid());  // T{} is the invalid id
  group_of[Pid{5}] = Tgid{2};
  EXPECT_EQ(group_of.get(Pid{5}), Tgid{2});
  EXPECT_THROW(group_of.get(Pid{}), InvariantError);
  EXPECT_THROW(group_of[Pid{-3}], InvariantError);
}

// --- fifo ---------------------------------------------------------------------

TEST(Fifo, OrderUnderInterleavedPushAndPopAndAfterClear) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  std::vector<int> out;
  int next = 0;
  // Push 3, pop 2, repeatedly: the queue never drains, so the consumed
  // prefix is dropped mid-stream as well as when it empties.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(next++);
    for (int i = 0; i < 2; ++i) {
      out.push_back(q.front());
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), 50u);
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  ASSERT_EQ(out.size(), 150u);
  for (int i = 0; i < 150; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);

  q.push_back(7);
  q.push_back(8);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(9);
  q.push_back(10);
  EXPECT_EQ(q.front(), 9);
  q.front() = 11;  // front() is a mutable reference
  EXPECT_EQ(q.front(), 11);
  q.pop_front();
  EXPECT_EQ(q.front(), 10);
  q.pop_front();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop_front(), InvariantError);
  EXPECT_THROW((void)q.front(), InvariantError);
}

TEST(Fifo, ConstructionAllocatesNothing) {
  struct Work {
    std::uint64_t remaining;
    int action;
  };
  const std::uint64_t before = g_alloc_calls.load();
  {
    Fifo<Work> a;
    Fifo<int> b;
    Fifo<Pid> c;
    EXPECT_TRUE(a.empty() && b.empty() && c.empty());
  }
  EXPECT_EQ(g_alloc_calls.load(), before) << "a Fifo allocated before its first push";
}

TEST(Fifo, StorageStaysBoundedWithOneEntryAlwaysLive) {
  // The queue never drains, so only dropping the consumed prefix keeps the
  // storage from growing; growth would show as reallocations.
  Fifo<std::uint64_t> q;
  q.push_back(0);
  const std::uint64_t before = g_alloc_calls.load();
  for (std::uint64_t i = 1; i <= 100'000; ++i) {
    q.push_back(i);
    ASSERT_EQ(q.front(), i - 1);
    q.pop_front();
    ASSERT_EQ(q.size(), 1u);
  }
  EXPECT_EQ(q.front(), 100'000u);
  EXPECT_LE(g_alloc_calls.load() - before, 2u) << "the consumed prefix was never dropped";
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedDrawsInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 r(9);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Xoshiro256 r(11);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256 r(13);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

// --- stats -----------------------------------------------------------------------

TEST(Stats, RunningMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), InvariantError);
}

TEST(Stats, HistogramBucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-3.0);   // clamps to first bucket
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(5), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Stats, SingleSamplePercentilesCollapse) {
  Samples s;
  s.add(3.25);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.25);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.25);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.25);
  EXPECT_DOUBLE_EQ(s.mean(), 3.25);
}

TEST(Stats, AllEqualSamplesHaveZeroSpread) {
  RunningStats r;
  Samples s;
  for (int i = 0; i < 16; ++i) {
    r.add(7.0);
    s.add(7.0);
  }
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
  EXPECT_DOUBLE_EQ(r.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(Stats, EmptyHistogramRendersAndCountsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t i = 0; i < h.buckets(); ++i)
    EXPECT_EQ(h.bucket_count(i), 0u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Stats, HistogramEdgeValuesClampInsteadOfDropping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);   // inclusive low edge lands in bucket 0
  h.add(10.0);  // the exclusive high edge clamps into the last bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

// --- quantile sketch --------------------------------------------------------------

TEST(QuantileSketchTest, EmptySketchIsAllZeroes) {
  const QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(QuantileSketchTest, QuantileWalkCoversNegativeZeroAndPositive) {
  QuantileSketch s;
  s.add(-100.0);
  s.add(0.0);
  s.add(100.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.zero_count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), -100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Extreme quantiles clamp to the exact envelope; the median is the
  // exact-zero bucket.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), -100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(QuantileSketchTest, RelativeErrorStaysWithinAlpha) {
  QuantileSketch s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    // Log-uniform grid over twelve decades, ascending (its own sorted
    // order), so the nearest-rank exact quantile is a direct index.
    const double v = std::pow(10.0, -6.0 + 12.0 * i / 999.0);
    xs.push_back(v);
    s.add(v);
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    const double est = s.quantile(q);
    EXPECT_NEAR(est, exact, QuantileSketch::kAlpha * exact * 1.05)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIsCommutativeAssociativeAndExact) {
  QuantileSketch a, b, c, whole;
  std::uint64_t x = 42;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
  };
  for (int i = 0; i < 300; ++i) {
    // Signed spread with occasional exact zeroes.
    const double v = (static_cast<double>(next() % 2001) - 1000.0) / 8.0;
    whole.add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
  }
  QuantileSketch ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  QuantileSketch bc = b;
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);
  QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  // Bucket-wise addition: every grouping and order lands on the same
  // sketch as feeding the whole stream into one.
  EXPECT_EQ(ab_c, whole);
  EXPECT_EQ(a_bc, whole);
  EXPECT_EQ(cba, whole);
  // Merging an empty sketch is the identity, both ways.
  QuantileSketch id = whole;
  id.merge(QuantileSketch{});
  EXPECT_EQ(id, whole);
  QuantileSketch onto_empty;
  onto_empty.merge(whole);
  EXPECT_EQ(onto_empty, whole);
}

TEST(QuantileSketchTest, OutOfRangeMagnitudesClampToEdgeBuckets) {
  QuantileSketch s;
  s.add(1e300);   // far past gamma^kMaxIndex
  s.add(1e-300);  // far below gamma^kMinIndex
  s.add(-1e300);
  ASSERT_EQ(s.positive().size(), 2u);
  EXPECT_EQ(s.positive().begin()->first, QuantileSketch::kMinIndex);
  EXPECT_EQ(s.positive().rbegin()->first, QuantileSketch::kMaxIndex);
  ASSERT_EQ(s.negative().size(), 1u);
  EXPECT_EQ(s.negative().begin()->first, QuantileSketch::kMaxIndex);
  // Estimates still clamp into the exact envelope.
  EXPECT_GE(s.quantile(0.0), s.min());
  EXPECT_LE(s.quantile(1.0), s.max());
}

TEST(QuantileSketchTest, LoadersRebuildTheExactSketch) {
  QuantileSketch s;
  for (const double v : {0.5, -2.0, 0.0, 0.0, 3.75, 1e-9, -4.5}) s.add(v);
  QuantileSketch rebuilt;
  rebuilt.load_zero(s.zero_count());
  for (const auto& [i, n] : s.negative()) rebuilt.load_bucket(i, n, true);
  for (const auto& [i, n] : s.positive()) rebuilt.load_bucket(i, n, false);
  rebuilt.load_bounds(s.min(), s.max());
  EXPECT_EQ(rebuilt, s);  // what the metrics.json parser reconstructs
}

// --- table ------------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(Table, CsvEscapesSpecials) {
  TextTable t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, CsvPlainCellsStayUnquoted) {
  TextTable t({"a", "b"});
  t.add_row({"plain", "als0 plain; semicolons+spaces are fine"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "a,b\nplain,als0 plain; semicolons+spaces are fine\n");
}

TEST(Table, CsvQuotesEmbeddedNewlines) {
  TextTable t({"x"});
  t.add_row({"line1\nline2"});
  std::ostringstream os;
  t.render_csv(os);
  // RFC 4180: the cell is quoted and the newline survives verbatim.
  EXPECT_EQ(os.str(), "x\n\"line1\nline2\"\n");
}

TEST(Table, CsvDoublesEveryEmbeddedQuote) {
  TextTable t({"x", "y"});
  t.add_row({"\"", "a\"b\"c"});
  std::ostringstream os;
  t.render_csv(os);
  // A lone quote becomes """" (open, doubled quote, close); every interior
  // quote is doubled.
  EXPECT_EQ(os.str(), "x,y\n\"\"\"\",\"a\"\"b\"\"c\"\n");
}

TEST(Table, CsvQuotesCombinedSpecials) {
  // Comma + quote + newline in one cell; header cells are escaped too.
  TextTable t({"weird,header"});
  t.add_row({"a,\"b\"\nc"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "\"weird,header\"\n\"a,\"\"b\"\"\nc\"\n");
}

TEST(BarChartTest, RendersStackedBars) {
  BarChart chart("Fig. X", "s");
  chart.add({"O normal", 10.0, 0.5});
  chart.add({"O attacked", 14.0, 0.5});
  chart.add_gap();
  chart.add({"P normal", 9.0, 0.1});
  std::ostringstream os;
  chart.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Fig. X"), std::string::npos);
  EXPECT_NE(out.find("O attacked"), std::string::npos);
  EXPECT_NE(out.find('U'), std::string::npos);  // user-time bar segment
  EXPECT_NE(out.find('S'), std::string::npos);  // system-time bar segment
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_ratio(1.5), "1.50x");
  EXPECT_EQ(fmt_percent_delta(12.3), "+12.3%");
  EXPECT_EQ(fmt_percent_delta(-3.21), "-3.2%");

  const CpuHz cpu{1'000'000'000};
  EXPECT_EQ(fmt_seconds(Cycles{1'500'000'000}, cpu), "1.500s");
  EXPECT_EQ(fmt_cycles(Cycles{1'500'000'000}), "1.50 Gcy");
  EXPECT_EQ(fmt_cycles(Cycles{999}), "999 cy");
  EXPECT_EQ(fmt_ticks(Ticks{250}, TimerHz{250}), "250 ticks (1.000s @250HZ)");
}

}  // namespace
}  // namespace mtr
