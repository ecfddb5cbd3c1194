// Unit tests for the one flag parser (cli::Args) and the benches' BenchEnv
// on top of it.
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

Args parse(std::vector<std::string> tokens, const std::vector<std::string>& known,
           const std::vector<std::string>& switches = {}, const std::string& positional = {}) {
  std::vector<char*> argv;
  argv.reserve(tokens.size());
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  return Args(static_cast<int>(argv.size()), argv.data(), known, switches, positional);
}

/// The InvalidArgument message `read` throws; fails the test if none.
template <typename Read>
std::string usage_error(Read read) {
  try {
    read();
  } catch (const acclaim::InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return {};
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
// takes [1, util::kMaxThreads] and nothing else.
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

// fig10's --ablation and fig13's --naive: a switch takes no value.
TEST(CliArgs, SwitchSetsHasAndTakesNoValue) {
  const Args args = parse({"--ablation", "--seed", "3"}, {"seed"}, {"ablation", "naive"});
  EXPECT_TRUE(args.has("ablation"));
  EXPECT_FALSE(args.has("naive"));
  EXPECT_EQ(args.get_int("seed", 1), 3);
  // What follows a switch is the next flag, never its value.
  EXPECT_NE(usage_error([] { parse({"--ablation", "yes"}, {}, {"ablation"}); }).find("'yes'"),
            std::string::npos);
}

// `acclaim report TRACE` and `acclaim explain AUDIT`.
TEST(CliArgs, LeadingPositionalSetsItsFlag) {
  const Args args = parse({"t.jsonl", "--rows", "3"}, {"trace", "rows"}, {}, "trace");
  EXPECT_EQ(args.get("trace"), "t.jsonl");
  EXPECT_EQ(args.get_int("rows", 12), 3);
  EXPECT_EQ(parse({"--trace", "u.jsonl"}, {"trace"}, {}, "trace").get("trace"), "u.jsonl");
  EXPECT_FALSE(parse({}, {"trace"}, {}, "trace").has("trace"));
  const std::string both = usage_error(
      [] { parse({"t.jsonl", "--trace", "u.jsonl"}, {"trace"}, {}, "trace"); });
  EXPECT_NE(both.find("--trace"), std::string::npos) << both;
  // Only the leading token may be positional, and only where one is declared.
  EXPECT_THROW(parse({"--rows", "3", "t.jsonl"}, {"trace", "rows"}, {}, "trace"),
               acclaim::InvalidArgument);
  EXPECT_THROW(parse({"t.jsonl"}, {"trace"}), acclaim::InvalidArgument);
}

// `acclaim fleet --warm`, `acclaim collect --nonp2`: anything but yes or no
// used to run as "no".
TEST(CliArgs, YesNoFlagAcceptsOnlyYesOrNo) {
  EXPECT_TRUE(parse({"--warm", "yes"}, {"warm"}).get_yes_no("warm", false));
  EXPECT_FALSE(parse({"--warm", "no"}, {"warm"}).get_yes_no("warm", true));
  EXPECT_TRUE(parse({}, {"warm"}).get_yes_no("warm", true));
  for (const char* bad : {"maybe", "YES", ""}) {
    const Args args = parse({"--warm", bad}, {"warm"});
    const std::string msg = usage_error([&] { args.get_yes_no("warm", true); });
    EXPECT_NE(msg.find("--warm"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
  }
}

// `acclaim fleet --node-choices 4,x` used to abort through std::stoi.
TEST(CliArgs, CountListFlagAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(parse({"--node-choices", "4,8,16"}, {"node-choices"}).get_counts("node-choices", {}),
            (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(parse({}, {"node-choices"}).get_counts("node-choices", {2}), (std::vector<int>{2}));
  for (const char* bad : {"4,x", "4,0", ","}) {
    const Args args = parse({"--node-choices", bad}, {"node-choices"});
    const std::string msg = usage_error([&] { args.get_counts("node-choices", {}); });
    EXPECT_NE(msg.find("--node-choices"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos) << msg;
  }
}

/// Runs the benches' flag parsing over `tokens` (argv[0] first).
int bench_env_threads(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  const acclaim::benchharness::BenchEnv env(static_cast<int>(argv.size()), argv.data());
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

// Regression: every bench ran with a mistyped flag and ignored it.
TEST(BenchEnvDeathTest, RejectsAnUnknownFlag) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(bench_env_threads({"fig", "--thread", "2"}), ::testing::ExitedWithCode(2),
              "error: unknown flag '--thread'");
}

TEST(BenchEnv, FigureBenchWritesItsJsonOut) {
  std::vector<std::string> tokens = {"fig", "--json-out", testing::TempDir()};
  std::vector<char*> argv;
  for (auto& t : tokens) {
    argv.push_back(t.data());
  }
  const std::string path = testing::TempDir() + "/BENCH_unit.json";
  std::remove(path.c_str());
  {
    acclaim::benchharness::BenchEnv env(static_cast<int>(argv.size()), argv.data(), "unit");
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
