// Unit tests for the util library: RNG, statistics, CSV, units, tables.
#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace acclaim::util;
namespace util = acclaim::util;

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), acclaim::InvalidArgument);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) {
    s.add(rng.normal(10.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.lognormal_median(3.0, 0.5));
  }
  EXPECT_NEAR(median(xs), 3.0, 0.1);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a(5);
  Rng b = a.split();
  // The split stream should not replay the parent stream.
  Rng a2(5);
  a2.split();
  EXPECT_NE(b.next_u64(), a2.next_u64() == b.next_u64() ? ~b.next_u64() : a2.next_u64());
  SUCCEED();
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(100, 30);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 30u);
  for (std::size_t v : s) {
    EXPECT_LT(v, 100u);
  }
  EXPECT_THROW(rng.sample_without_replacement(5, 6), acclaim::InvalidArgument);
}

TEST(Rng, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(floor_power_of_two(1), 1u);
  EXPECT_EQ(floor_power_of_two(63), 32u);
  EXPECT_EQ(floor_power_of_two(64), 64u);
  EXPECT_EQ(ceil_power_of_two(1), 1u);
  EXPECT_EQ(ceil_power_of_two(33), 64u);
  EXPECT_EQ(ceil_power_of_two(64), 64u);
}

TEST(Rng, DoublingsStopAtTheirBoundWithoutWrapping) {
  // The next doubling of 2^63 wraps to 0: the axis must stop before it.
  EXPECT_EQ(doublings(std::uint64_t{1} << 62, std::uint64_t{1} << 63),
            (std::vector<std::uint64_t>{std::uint64_t{1} << 62, std::uint64_t{1} << 63}));
  const std::vector<std::uint64_t> to_max = doublings(8, UINT64_MAX);
  ASSERT_EQ(to_max.size(), 61u);
  EXPECT_EQ(to_max.front(), 8u);
  EXPECT_EQ(to_max.back(), std::uint64_t{1} << 63);
  // An int axis up to INT_MAX: 2 .. 2^30, every value fits an int.
  const std::vector<std::uint64_t> ints = doublings(2, INT_MAX);
  ASSERT_EQ(ints.size(), 30u);
  for (std::size_t k = 0; k < ints.size(); ++k) {
    EXPECT_EQ(ints[k], std::uint64_t{2} << k);
  }
  EXPECT_EQ(doublings(3, 24), (std::vector<std::uint64_t>{3, 6, 12, 24}));
  EXPECT_EQ(doublings(1, 1), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(doublings(16, 8).empty());
  EXPECT_THROW(doublings(0, 8), acclaim::InvalidArgument);
}

TEST(Stats, RunningStatMatchesBatch) {
  Rng rng(2);
  RunningStat s;
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-5, 20);
    s.add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(s.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-7);
  EXPECT_EQ(s.count(), 500u);
}

TEST(Stats, EdgeCases) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance({1.0}), 0.0);
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(4.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_THROW(percentile({}, 50), acclaim::InvalidArgument);
}

TEST(Stats, GeomeanAndPearson) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW(geomean({1.0, -1.0}), acclaim::InvalidArgument);
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c = {5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
  EXPECT_EQ(pearson(a, {1, 1, 1, 1, 1}), 0.0);
}

TEST(Stats, PearsonOfANearlyConstantSeriesIsStillDefined) {
  // Only exactly zero variance counts as undefined: a series that moves by
  // 1e-9 still follows its trend perfectly.
  const std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> tiny;
  for (double x : a) {
    tiny.push_back(1.0 + 1e-9 * x);
  }
  EXPECT_NEAR(pearson(a, tiny), 1.0, 1e-6);
}

TEST(Csv, WriteReadRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "acclaim_csv_test.csv";
  {
    CsvWriter w(path);
    w.header({"name", "value", "note"});
    w.row({"a", "1.5", "plain"});
    w.row({"b,c", "2", "has, comma"});
    w.row({"q\"q", "3", "line\nbreak"});
  }
  const CsvTable t = read_csv(path);
  ASSERT_EQ(t.columns.size(), 3u);
  EXPECT_EQ(t.column_index("value"), 1u);
  EXPECT_THROW(t.column_index("missing"), acclaim::NotFoundError);
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(t.rows[1][0], "b,c");
  EXPECT_EQ(t.rows[2][0], "q\"q");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthEnforced) {
  const std::string path = std::filesystem::temp_directory_path() / "acclaim_csv_test2.csv";
  CsvWriter w(path);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), acclaim::InvalidArgument);
  std::remove(path.c_str());
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(64), "64");
  EXPECT_EQ(format_bytes(1024), "1K");
  EXPECT_EQ(format_bytes(1536), "1536");
  EXPECT_EQ(format_bytes(1 << 20), "1M");
  EXPECT_EQ(format_bytes(1ULL << 30), "1G");
}

TEST(Units, ParseBytes) {
  EXPECT_EQ(parse_bytes("64"), 64u);
  EXPECT_EQ(parse_bytes("4K"), 4096u);
  EXPECT_EQ(parse_bytes("1M"), 1048576u);
  EXPECT_EQ(parse_bytes("2KB"), 2048u);
  EXPECT_THROW(parse_bytes("abc"), acclaim::ParseError);
  EXPECT_THROW(parse_bytes(""), acclaim::ParseError);
  // Round trip over the P2 grid.
  for (std::uint64_t b = 1; b <= (1ULL << 20); b <<= 1) {
    EXPECT_EQ(parse_bytes(format_bytes(b)), b);
  }
}

// Regression: "1BB" used to parse as 1 byte (the trailing-'B' branch did not
// check what it followed), and overflowing labels silently wrapped around to
// arbitrary small sizes.
TEST(Units, ParseBytesRejectsMalformedSuffixes) {
  EXPECT_THROW(parse_bytes("1BB"), acclaim::ParseError);
  EXPECT_THROW(parse_bytes("1KBB"), acclaim::ParseError);
  EXPECT_THROW(parse_bytes("4KX"), acclaim::ParseError);
  EXPECT_THROW(parse_bytes("16E"), acclaim::ParseError);
  EXPECT_THROW(parse_bytes("2K2"), acclaim::ParseError);
  // Still-valid forms: bare bytes, scale suffix, scale + trailing B.
  EXPECT_EQ(parse_bytes("10B"), 10u);
  EXPECT_EQ(parse_bytes("4KB"), 4096u);
  EXPECT_EQ(parse_bytes("2gb"), 2ULL << 30);
}

TEST(Units, ParseBytesDetectsOverflow) {
  // Accumulate overflow: more digits than uint64 holds.
  EXPECT_THROW(parse_bytes("99999999999999999999"), acclaim::ParseError);
  // Multiply overflow: the digits fit but the scaled value does not.
  EXPECT_THROW(parse_bytes("99999999999999999G"), acclaim::ParseError);
  // The largest representable scaled values still parse.
  EXPECT_EQ(parse_bytes("17179869183G"), 17179869183ULL << 30);
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(5e-6), "5.0 us");
  EXPECT_EQ(format_seconds(0.25), "250.0 ms");
  EXPECT_EQ(format_seconds(90.0), "90.0 s");
  EXPECT_EQ(format_seconds(600.0), "10.0 min");
  EXPECT_EQ(format_seconds(7200.0), "2.0 h");
}

TEST(Table, PrintsAlignedColumns) {
  TablePrinter t({"metric", "v1", "v2"});
  t.add_row({"slowdown", "1.03", "1.50"});
  t.add_row_numeric("speedup", {2.25, 1.4}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("metric"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "few"}), acclaim::InvalidArgument);
}

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(acclaim::require(true, "ok"));
  try {
    acclaim::require(false, "precondition X");
    FAIL() << "expected throw";
  } catch (const acclaim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("precondition X"), std::string::npos);
  }
}

/// Captures raw messages via set_log_sink and restores the previous sink
/// and level on destruction, so log tests cannot leak state.
class LogCapture {
 public:
  LogCapture()
      : prev_level_(util::log_level()), prev_sink_(util::set_log_sink(
            [this](util::LogLevel level, const std::string& msg) {
              lines_.emplace_back(level, msg);
            })) {}
  ~LogCapture() {
    util::set_log_sink(prev_sink_);
    util::set_log_level(prev_level_);
  }
  const std::vector<std::pair<util::LogLevel, std::string>>& lines() const { return lines_; }

 private:
  util::LogLevel prev_level_;
  util::LogSink prev_sink_;
  std::vector<std::pair<util::LogLevel, std::string>> lines_;
};

TEST(Log, SinkReceivesRawMessagesAboveThreshold) {
  LogCapture capture;
  util::set_log_level(util::LogLevel::Info);
  util::log_debug() << "filtered out";
  util::log_info() << "kept " << 42;
  util::log_warn() << "also kept";
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_EQ(capture.lines()[0].first, util::LogLevel::Info);
  EXPECT_EQ(capture.lines()[0].second, "kept 42");
  EXPECT_EQ(capture.lines()[1].first, util::LogLevel::Warn);
}

TEST(Log, MacrosSkipArgumentEvaluationWhenFiltered) {
  LogCapture capture;
  util::set_log_level(util::LogLevel::Warn);
  int evaluations = 0;
  const auto touch = [&evaluations] { return ++evaluations; };
  AC_LOG_DEBUG() << "never " << touch();
  AC_LOG_INFO() << "never " << touch();
  AC_LOG_ERROR() << "emitted " << touch();
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_EQ(capture.lines()[0].second, "emitted 1");
}

TEST(Log, FormatLineIsIso8601WithLevelTag) {
  const std::string line = util::format_log_line(util::LogLevel::Warn, "msg body");
  // 2026-08-06T12:34:56.789Z [WARN] msg body
  ASSERT_GE(line.size(), 24u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[7], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[13], ':');
  EXPECT_EQ(line[16], ':');
  EXPECT_EQ(line[19], '.');
  EXPECT_EQ(line[23], 'Z');
  EXPECT_NE(line.find("[WARN] msg body"), std::string::npos);
}

TEST(Log, ParseLevelStrictAndLenient) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::Debug);
  EXPECT_EQ(util::parse_log_level("WARN"), util::LogLevel::Warn);
  EXPECT_EQ(util::parse_log_level("Error"), util::LogLevel::ErrorLevel);
  EXPECT_THROW(util::parse_log_level("loud"), acclaim::InvalidArgument);
  EXPECT_EQ(util::parse_log_level("loud", util::LogLevel::Info), util::LogLevel::Info);
  EXPECT_EQ(util::parse_log_level("off", util::LogLevel::Info), util::LogLevel::Off);
}

TEST(Log, LevelNamesRoundTrip) {
  for (util::LogLevel level : {util::LogLevel::Debug, util::LogLevel::Info,
                               util::LogLevel::Warn, util::LogLevel::ErrorLevel,
                               util::LogLevel::Off}) {
    EXPECT_EQ(util::parse_log_level(util::log_level_name(level)), level);
  }
}

}  // namespace
