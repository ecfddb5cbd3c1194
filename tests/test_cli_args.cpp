// Unit tests for the CLI flag parser and the figure benches' shared flags.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "../bench/common.hpp"
#include "../tools/cli_args.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using acclaim::cli::Args;
using acclaim::cli::split_csv;

Args parse(std::vector<std::string> tokens, const std::vector<std::string>& known) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  return Args(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(CliArgs, ParsesFlagValuePairs) {
  const Args args = parse({"--nodes", "32", "--out", "x.csv"}, {"nodes", "out", "ppn"});
  EXPECT_TRUE(args.has("nodes"));
  EXPECT_FALSE(args.has("ppn"));
  EXPECT_EQ(args.get("out"), "x.csv");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("nodes", 1), 32);
  EXPECT_EQ(args.get_int("ppn", 16), 16);
  EXPECT_EQ(args.require_flag("out"), "x.csv");
}

TEST(CliArgs, NumericAndByteConversions) {
  const Args args = parse({"--speedup", "1.05", "--msg", "64K"}, {"speedup", "msg"});
  EXPECT_DOUBLE_EQ(args.get_double("speedup", 0.0), 1.05);
  EXPECT_EQ(args.get_bytes("msg", 0), 65536u);
  EXPECT_EQ(args.get_bytes("other", 128), 128u);
}

// Regression: malformed numeric flag values used to reach std::stoi/std::stod
// unguarded — "--threads 4x" silently parsed as 4, and "--threads abc" threw
// a raw std::invalid_argument that bypassed the CLI's error handler and
// aborted. Every malformed value must now produce one InvalidArgument naming
// the flag and the offending value.
TEST(CliArgs, RejectsTrailingGarbageInIntFlags) {
  const Args args = parse({"--threads", "4x"}, {"threads"});
  try {
    args.get_int("threads", 1);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
  }
}

TEST(CliArgs, RejectsNonNumericIntFlags) {
  const Args args = parse({"--nodes", "abc", "--ppn", ""}, {"nodes", "ppn"});
  EXPECT_THROW(args.get_int("nodes", 1), acclaim::InvalidArgument);
  EXPECT_THROW(args.get_int("ppn", 1), acclaim::InvalidArgument);
}

TEST(CliArgs, RejectsOutOfRangeIntFlags) {
  const Args args = parse({"--seed", "99999999999999999999"}, {"seed"});
  EXPECT_THROW(args.get_int("seed", 1), acclaim::InvalidArgument);
}

TEST(CliArgs, RejectsMalformedDoubleFlags) {
  const Args args =
      parse({"--speedup", "1.5x", "--training", "oops"}, {"speedup", "training"});
  EXPECT_THROW(args.get_double("speedup", 1.0), acclaim::InvalidArgument);
  try {
    args.get_double("training", 1.0);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--training"), std::string::npos) << msg;
    EXPECT_NE(msg.find("oops"), std::string::npos) << msg;
  }
}

TEST(CliArgs, WrapsByteParseErrorsWithTheFlagName) {
  const Args args = parse({"--msg", "1BB"}, {"msg"});
  try {
    args.get_bytes("msg", 8);
    FAIL() << "expected InvalidArgument";
  } catch (const acclaim::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--msg"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1BB"), std::string::npos) << msg;
  }
}

TEST(CliArgs, StillAcceptsWellFormedNumericValues) {
  const Args args = parse({"--threads", "8", "--speedup", "1.25", "--msg", "4KB"},
                          {"threads", "speedup", "msg"});
  EXPECT_EQ(args.get_int("threads", 1), 8);
  EXPECT_DOUBLE_EQ(args.get_double("speedup", 1.0), 1.25);
  EXPECT_EQ(args.get_bytes("msg", 0), 4096u);
}

// Regression: --threads went through get_int, so "-3" silently ran at the
// default and a huge value made the pool spawn that many workers. It now
// takes ACCLAIM_THREADS's range and nothing else.
TEST(CliArgs, ThreadsFlagAcceptsOnlyTheThreadRange) {
  for (const char* bad : {"-3", "0", "1025", "2147483647", "abc", "4x", ""}) {
    const Args args = parse({"--threads", bad}, {"threads"});
    try {
      args.get_threads("threads");
      FAIL() << "expected InvalidArgument for --threads " << bad;
    } catch (const acclaim::InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + std::string(bad) + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("[1, 1024]"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(parse({"--threads", "1"}, {"threads"}).get_threads("threads"), 1);
  EXPECT_EQ(parse({"--threads", "1024"}, {"threads"}).get_threads("threads"), 1024);
  EXPECT_EQ(parse({}, {"threads"}).get_threads("threads"), 0);  // absent: pool default
}

// Regression: `acclaim serve --cache-capacity -1` was cast to a cache that
// never evicts, and 0 silently became an 8-entry cache.
TEST(CliArgs, CountFlagAcceptsOnlyPositiveIntegers) {
  for (const char* bad : {"-1", "0", "abc", "4x", "", "99999999999"}) {
    const Args args = parse({"--cache-capacity", bad}, {"cache-capacity"});
    try {
      args.get_count("cache-capacity", 8);
      FAIL() << "expected InvalidArgument for --cache-capacity " << bad;
    } catch (const acclaim::InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--cache-capacity"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + std::string(bad) + "'"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(parse({"--cache-capacity", "1"}, {"cache-capacity"}).get_count("cache-capacity", 8),
            1u);
  EXPECT_EQ(parse({}, {"cache-capacity"}).get_count("cache-capacity", 8), 8u);  // absent
}

/// Runs the figure benches' flag parsing over `tokens` (argv[0] first).
int bench_env_threads(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  int argc = static_cast<int>(argv.size());
  const acclaim::benchharness::BenchEnv env(argc, argv.data());
  EXPECT_EQ(argc, 1) << "BenchEnv must consume --threads and its value";
  return acclaim::util::global_threads();
}

// Regression: BenchEnv parsed --threads with std::atoi, so "abc", "4x", "-2"
// and "0" all silently ran at hardware concurrency.
TEST(BenchEnvDeathTest, RejectsThreadCountsOutsideTheThreadRange) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* bad : {"abc", "4x", "-2", "0", "1025"}) {
    EXPECT_EXIT(bench_env_threads({"fig", "--threads", bad}), ::testing::ExitedWithCode(2),
                "--threads.*'" + std::string(bad) + "'")
        << "--threads " << bad;
  }
}

// Regression: a bench that registers no rows ran to the end and then
// printed "--json-out ignored".
TEST(BenchEnvDeathTest, RejectsJsonOutWithoutAFigure) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(bench_env_threads({"fig", "--json-out", testing::TempDir()}),
              ::testing::ExitedWithCode(2), "--json-out");
}

TEST(BenchEnv, FigureBenchWritesItsJsonOut) {
  std::vector<std::string> tokens = {"fig", "--json-out", testing::TempDir()};
  std::vector<char*> argv;
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  int argc = static_cast<int>(argv.size());
  const std::string path = testing::TempDir() + "/BENCH_unit.json";
  std::remove(path.c_str());
  {
    acclaim::benchharness::BenchEnv env(argc, argv.data(), "unit");
    EXPECT_EQ(argc, 1) << "BenchEnv must consume --json-out and its value";
    env.add_row(acclaim::util::Json::object());
  }
  const acclaim::util::Json doc = acclaim::util::Json::parse_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(doc.at("figure").as_string(), "unit");
  EXPECT_EQ(doc.at("rows").as_array().size(), 1u);
}

TEST(BenchEnv, AcceptsThreadCountsInRange) {
  const int original = acclaim::util::global_threads();
  EXPECT_EQ(bench_env_threads({"fig", "--threads", "3"}), 3);
  acclaim::util::set_global_threads(original);
}

TEST(CliArgs, RejectsMalformedInput) {
  EXPECT_THROW(parse({"nodes", "32"}, {"nodes"}), acclaim::InvalidArgument);  // no dashes
  EXPECT_THROW(parse({"--bogus", "1"}, {"nodes"}), acclaim::InvalidArgument);  // unknown
  EXPECT_THROW(parse({"--nodes"}, {"nodes"}), acclaim::InvalidArgument);  // missing value
  const Args args = parse({"--nodes", "2"}, {"nodes", "out"});
  try {
    args.require_flag("out");
    FAIL() << "expected throw";
  } catch (const acclaim::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--out"), std::string::npos);
  }
}

TEST(CliArgs, SplitCsv) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("bcast"), (std::vector<std::string>{"bcast"}));
  EXPECT_EQ(split_csv(",a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_csv("").empty());
}

}  // namespace
