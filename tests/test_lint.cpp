// Tests for tools/lint — the project-specific determinism/correctness
// static-analysis pass. Each check gets a positive (fires) and a negative
// (stays quiet on the idiomatic pattern) fixture, plus suppression-comment
// behaviour, a whole-repo scan and the CLI's exit status.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "lint/lint.hpp"
#include "util/json.hpp"

using namespace acclaim;
using lint::Finding;

namespace {

/// Lints one file as a project of its own.
std::vector<Finding> lint_source(const std::string& path, const std::string& content,
                                 const util::Json& registry = {}) {
  return lint::lint_files({{path, content}}, registry);
}

std::vector<std::string> ids(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) {
    out.push_back(f.check);
  }
  return out;
}

bool has_check(const std::vector<Finding>& findings, const std::string& id) {
  const std::vector<std::string> v = ids(findings);
  return std::find(v.begin(), v.end(), id) != v.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// det-rand / det-wallclock and layer scoping
// ---------------------------------------------------------------------------

TEST(LintDetLayer, FlagsRandomDeviceInCore) {
  const std::string src = "void f() { std::random_device rd; (void)rd; }\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "det-rand");
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintDetLayer, FlagsLibcRandAndEngines) {
  EXPECT_TRUE(has_check(lint_source("src/ml/x.cpp", "int f() { return rand(); }\n"),
                        "det-rand"));
  EXPECT_TRUE(has_check(
      lint_source("src/simnet/x.cpp", "void f() { std::mt19937 gen(42); (void)gen; }\n"),
      "det-rand"));
}

TEST(LintDetLayer, FlagsWallClock) {
  EXPECT_TRUE(has_check(
      lint_source("src/benchdata/x.cpp",
                  "auto f() { return std::chrono::system_clock::now(); }\n"),
      "det-wallclock"));
  EXPECT_TRUE(has_check(
      lint_source("src/collectives/x.cpp", "long f() { return time(nullptr); }\n"),
      "det-wallclock"));
}

TEST(LintDetLayer, SteadyClockIsAllowed) {
  const auto findings = lint_source(
      "src/ml/x.cpp", "auto f() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintDetLayer, NonDetLayersMayReadTheClock) {
  const std::string src = "auto f() { return std::chrono::system_clock::now(); }\n";
  EXPECT_TRUE(lint_source("src/util/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/telemetry/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/x.cpp", src).empty());
}

TEST(LintDetLayer, NamesInStringsAndCommentsDoNotFire) {
  const std::string src =
      "// std::random_device in a comment\n"
      "const char* s = \"system_clock and rand()\";\n"
      "/* time(nullptr) */\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintDetLayer, PreprocessorLinesDoNotFire) {
  EXPECT_TRUE(lint_source("src/core/x.cpp", "#include <random>\n#include <ctime>\n").empty());
}

// ---------------------------------------------------------------------------
// det-unordered-iter
// ---------------------------------------------------------------------------

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedMember) {
  const std::string src =
      "std::unordered_map<int, int> m_;\n"
      "int f() { int s = 0; for (const auto& [k, v] : m_) { s += v; } return s; }\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "det-unordered-iter");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintUnorderedIter, CompanionHeaderDeclarationsAreVisible) {
  const std::string header = "class C { std::unordered_map<int, int> flows_; };\n";
  const std::string src = "int C::f() { int s = 0; for (auto& [k, v] : flows_) s += v; return s; }\n";
  EXPECT_TRUE(has_check(
      lint::lint_files({{"src/minimpi/x.hpp", header}, {"src/minimpi/x.cpp", src}}, {}),
      "det-unordered-iter"));
}

TEST(LintUnorderedIter, OrderedMapIsFine) {
  const std::string src =
      "std::map<int, int> m_;\n"
      "int f() { int s = 0; for (const auto& [k, v] : m_) { s += v; } return s; }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintUnorderedIter, TestsAreOutOfScope) {
  const std::string src =
      "std::unordered_map<int, int> m;\n"
      "void f() { for (auto& [k, v] : m) { (void)k; (void)v; } }\n";
  EXPECT_TRUE(lint_source("tests/test_x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// det-rng-ref-capture / par-shared-write / par-float-reduction
// ---------------------------------------------------------------------------

TEST(LintParallel, FlagsByRefRngAcrossParallelFor) {
  const std::string src =
      "void f(util::ThreadPool& pool, util::Rng& rng, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    out[i] = rng.uniform();\n"
      "  });\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "det-rng-ref-capture");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintParallel, PreDerivedPerItemRngsAreFine) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<util::Rng>& rngs,\n"
      "       std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    out[i] = rngs[i].uniform();\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintParallel, RngStreamInsideBodyIsFine) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    util::Rng item_rng = util::Rng::stream(7, i);\n"
      "    out[i] = item_rng.uniform();\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintParallel, FlagsSharedCounterWrite) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<int>& v) {\n"
      "  int done = 0;\n"
      "  pool.parallel_for(0, v.size(), [&](std::size_t i) {\n"
      "    v[i] = 1;\n"
      "    ++done;\n"
      "  });\n"
      "}\n";
  const auto findings = lint_source("src/simnet/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "par-shared-write");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LintParallel, AtomicCounterIsFine) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<int>& v) {\n"
      "  std::atomic<int> done{0};\n"
      "  pool.parallel_for(0, v.size(), [&](std::size_t i) {\n"
      "    v[i] = 1;\n"
      "    ++done;\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/simnet/x.cpp", src).empty());
}

TEST(LintParallel, SlotWritesAndBodyLocalsAreFine) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    double acc = 0.0;\n"
      "    acc += 1.0;\n"
      "    out[i] = acc;\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintParallel, FlagsFloatReductionDistinctly) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& v) {\n"
      "  double sum = 0.0;\n"
      "  pool.parallel_for(0, v.size(), [&](std::size_t i) {\n"
      "    sum += v[i];\n"
      "  });\n"
      "}\n";
  const auto findings = lint_source("src/ml/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "par-float-reduction");
}

TEST(LintParallel, SubmitLambdasAreCoveredToo) {
  const std::string src =
      "void f(util::ThreadPool& pool) {\n"
      "  int hits = 0;\n"
      "  auto fut = pool.submit([&] { ++hits; });\n"
      "  fut.get();\n"
      "}\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", src), "par-shared-write"));
}

TEST(LintParallel, FusedBlockedJackknifeLoopStaysClean) {
  // Mirror of the fused sweep in core/model.cpp: fixed-size blocks, a
  // thread_local row/scratch buffer, and slot writes through a pointer
  // offset. The reductions happen inside jackknife_batch over
  // thread-private scratch — nothing here may trip par-float-reduction.
  const std::string src =
      "void sweep(util::ThreadPool& pool, const ml::RandomForest& forest,\n"
      "           const std::vector<ml::FeatureRow>& rows, std::vector<double>& out) {\n"
      "  constexpr std::size_t kBlock = 16;\n"
      "  const std::size_t n_blocks = (rows.size() + kBlock - 1) / kBlock;\n"
      "  pool.parallel_for(0, n_blocks, [&](std::size_t b) {\n"
      "    const std::size_t lo = b * kBlock;\n"
      "    const std::size_t hi = std::min(rows.size(), lo + kBlock);\n"
      "    thread_local std::vector<double> scratch;\n"
      "    forest.jackknife_batch(rows.data() + lo, hi - lo, out.data() + lo, nullptr,\n"
      "                           scratch);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintParallel, MutatedFusedLoopWithSharedAccumulatorFires) {
  // The same shape gone wrong: accumulating the per-block result into one
  // captured double turns the sweep order-dependent.
  const std::string src =
      "void sweep(util::ThreadPool& pool, const ml::RandomForest& forest,\n"
      "           const std::vector<ml::FeatureRow>& rows, std::vector<double>& out) {\n"
      "  double total = 0.0;\n"
      "  pool.parallel_for(0, rows.size(), [&](std::size_t i) {\n"
      "    total += out[i];\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", src), "par-float-reduction"));
}

TEST(LintParallel, ShippedFusedKernelSourcesCarryNoFloatReductionFindings) {
  // Suppression audit on the real files: the hot fused-jackknife sources
  // must stay free of par-float-reduction findings (no new accumulation,
  // and no acclaim-lint:allow creeping in to silence one).
  for (const char* rel : {"src/core/model.cpp", "src/ml/forest.cpp"}) {
    std::ifstream in(std::string(ACCLAIM_SOURCE_DIR "/") + rel, std::ios::binary);
    ASSERT_TRUE(in.good()) << rel;
    std::ostringstream text;
    text << in.rdbuf();
    ASSERT_GT(text.str().size(), 100u) << rel;
    EXPECT_FALSE(text.str().find("allow(par-float-reduction)") != std::string::npos) << rel;
    EXPECT_FALSE(has_check(lint_source(rel, text.str()), "par-float-reduction")) << rel;
  }
}

// ---------------------------------------------------------------------------
// det-audit-order
// ---------------------------------------------------------------------------

TEST(LintAuditOrder, FlagsAuditEmissionInsideParallelFor) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    out[i] = 1.0;\n"
      "    telemetry::audit().record(make_record(i));\n"
      "  });\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "det-audit-order");
}

TEST(LintAuditOrder, FlagsRecordConstructionAndCostObservationToo) {
  const std::string record_src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    telemetry::DecisionRecord rec;\n"
      "    out[i] = 1.0;\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", record_src), "det-audit-order"));

  const std::string cost_src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.submit([&] { telemetry::observe_decision_cost(5.0); });\n"
      "}\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", cost_src), "det-audit-order"));
}

TEST(LintAuditOrder, SerialEmissionAfterTheParallelRegionIsFine) {
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    out[i] = 1.0;\n"
      "  });\n"
      "  telemetry::DecisionRecord rec;\n"
      "  telemetry::audit().record(std::move(rec));\n"
      "  telemetry::observe_decision_cost(5.0);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintAuditOrder, UnrelatedAuditIdentifiersDoNotFire) {
  // An identifier that merely contains "audit" (`auditor`) is not the
  // telemetry::audit() emission call.
  const std::string src =
      "void f(util::ThreadPool& pool, std::vector<double>& out) {\n"
      "  pool.parallel_for(0, out.size(), [&](std::size_t i) {\n"
      "    out[i] = auditor.score(i);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// suppression comments
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesTheCheck) {
  const std::string src = "int f() { return rand(); }  // acclaim-lint: allow(det-rand)\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppression, PrecedingLineAllowSilencesTheCheck) {
  const std::string src =
      "// seeded fixture. acclaim-lint: allow(det-rand)\n"
      "int f() { return rand(); }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppression, AllowOnlySilencesTheNamedCheck) {
  const std::string src =
      "// acclaim-lint: allow(det-wallclock)\n"
      "int f() { return rand(); }\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", src), "det-rand"));
}

TEST(LintSuppression, AllowListAcceptsMultipleIds) {
  const std::string src =
      "// acclaim-lint: allow(det-rand, det-wallclock)\n"
      "long f() { return rand() + time(nullptr); }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppression, AllowReachesNoFurtherThanTheNextLine) {
  // An allow above a multi-line statement covers the statement's first
  // line only; the continuation line and the next statement still fire.
  const std::string src =
      "long f() {\n"
      "  // acclaim-lint: allow(det-rand)\n"
      "  return rand() +\n"
      "         rand();\n"
      "}\n"
      "int g() { return rand(); }\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[1].line, 6u);
}

// ---------------------------------------------------------------------------
// taint-unchecked-arith / taint-narrowing-cast
// ---------------------------------------------------------------------------

TEST(LintTaint, FlagsArithmeticOnRawParse) {
  const std::string src =
      "int f(const std::string& a, const std::string& b) {\n"
      "  return std::stoi(a) * std::stoi(b);\n"
      "}\n";
  const auto findings = lint_source("src/serve/x.cpp", src);
  ASSERT_FALSE(findings.empty());
  for (const Finding& f : findings) {
    EXPECT_EQ(f.check, "taint-unchecked-arith");
    EXPECT_EQ(f.line, 2u);
  }
}

TEST(LintTaint, FlagsAllocationSizeFromTaintedLocal) {
  const std::string src =
      "std::size_t f(const std::string& s, std::vector<int>& v) {\n"
      "  const long n = std::stol(s);\n"
      "  v.resize(n);\n"
      "  return v.size();\n"
      "}\n";
  const auto findings = lint_source("src/serve/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "taint-unchecked-arith");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("resize"), std::string::npos);
}

TEST(LintTaint, FlagsNewArraySizeFromRawParse) {
  const std::string src =
      "int* f(const std::string& s) {\n"
      "  return new int[std::stoul(s)];\n"
      "}\n";
  const auto findings = lint_source("src/serve/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "taint-unchecked-arith");
  EXPECT_NE(findings[0].message.find("new[]"), std::string::npos);
}

TEST(LintTaint, SanitizerWrapIsClean) {
  EXPECT_TRUE(lint_source("src/serve/x.cpp",
                          "void f(const std::string& s, std::vector<int>& v) {\n"
                          "  v.resize(checked_size(std::stol(s)));\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/serve/x.cpp",
                          "int f(const std::string& a, const std::string& b) {\n"
                          "  return serve::checked_comm_size(std::stoi(a), std::stoi(b));\n"
                          "}\n")
                  .empty());
}

TEST(LintTaint, RangeComparisonValidatesTheLocal) {
  const std::string src =
      "int f(const std::string& s) {\n"
      "  const int n = std::stoi(s);\n"
      "  if (n < 1 || n > 1024) { return 1; }\n"
      "  return n * 2;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/serve/x.cpp", src).empty());
}

TEST(LintTaint, FlagsNarrowingCastOfWideParse) {
  const std::string src =
      "int f(const std::string& s) {\n"
      "  return static_cast<int>(std::stoll(s));\n"
      "}\n";
  const auto findings = lint_source("src/serve/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "taint-narrowing-cast");
}

TEST(LintTaint, SameWidthAndWideningCastsAreFine) {
  // int-wide parse into an int-wide cast: no narrowing happens.
  EXPECT_TRUE(lint_source("src/serve/x.cpp",
                          "int f(const std::string& s) {\n"
                          "  return static_cast<int>(std::stoi(s));\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/serve/x.cpp",
                          "long long f(const std::string& s) {\n"
                          "  return static_cast<long long>(std::stoull(s));\n"
                          "}\n")
                  .empty());
}

TEST(LintTaint, TaintDoesNotPropagateThroughFunctionCalls) {
  // The callee may bound the value; flagging its result would taint half
  // the call graph (this exact shape was a false positive on
  // src/benchdata/microbenchmark.cpp during development).
  const std::string src =
      "int f(const std::string& s) {\n"
      "  const long iters = plan_iterations(std::stol(s));\n"
      "  return static_cast<int>(iters);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/serve/x.cpp", src).empty());
}

TEST(LintTaint, TestSourcesAndOtherLayersAreExempt) {
  const std::string src =
      "int f(const std::string& a, const std::string& b) {\n"
      "  return std::stoi(a) * std::stoi(b);\n"
      "}\n";
  EXPECT_TRUE(lint_source("tests/test_x.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/ml/x.cpp", src).empty());
}

TEST(LintTaint, SuppressionSilencesTheCheck) {
  const std::string src =
      "int f(const std::string& a, const std::string& b) {\n"
      "  // acclaim-lint: allow(taint-unchecked-arith) inputs are compile-time constants\n"
      "  return std::stoi(a) * std::stoi(b);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/serve/x.cpp", src).empty());
}

TEST(LintTaint, FieldsTaintedInOneFunctionFlagUsesInAnother) {
  const std::string src =
      "void parse(Limits& lim, const char* s) { lim.cap = std::atol(s); }\n"
      "long scale(const Limits& lim) { return lim.cap * 8; }\n";
  const auto findings = lint_source("src/serve/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "taint-unchecked-arith");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("cap"), std::string::npos);
}

TEST(LintTaint, SanitizedFieldAssignmentDoesNotTaint) {
  const std::string src =
      "void parse(Limits& lim, const char* s) { lim.cap = checked_cap(std::atol(s)); }\n"
      "long scale(const Limits& lim) { return lim.cap * 8; }\n";
  EXPECT_TRUE(lint_source("src/serve/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// drift-metric-name / drift-trace-event
// ---------------------------------------------------------------------------

namespace {

util::Json drift_registry() {
  return util::Json::parse(
      R"({"metrics":[{"name":"app.requests","kind":"counter"}],)"
      R"("trace_events":["model_refit"]})");
}

}  // namespace

TEST(LintDrift, FlagsMetricMissingFromRegistry) {
  const std::string src =
      "void f() {\n"
      "  telemetry::metrics().counter(\"app.requests\").inc();\n"
      "  telemetry::metrics().counter(\"app.reqs\").inc();\n"
      "  trace(telemetry::EventKind::ModelRefit);\n"
      "}\n";
  const auto findings = lint_source("src/telemetry/x.cpp", src, drift_registry());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "drift-metric-name");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("app.reqs"), std::string::npos);
}

TEST(LintDrift, FlagsRegistryEntriesNeverEmitted) {
  // The source emits nothing: both registry entries are stale, and the
  // findings attach to the registry file itself.
  const auto findings = lint_source("src/telemetry/x.cpp", "void f() {}\n", drift_registry());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "tools/telemetry_registry.json");
  EXPECT_TRUE(has_check(findings, "drift-metric-name"));
  EXPECT_TRUE(has_check(findings, "drift-trace-event"));
}

TEST(LintDrift, FlagsUnregisteredTraceEvent) {
  const std::string src =
      "void f() {\n"
      "  telemetry::metrics().counter(\"app.requests\").inc();\n"
      "  trace(telemetry::EventKind::ModelRefit);\n"
      "  trace(telemetry::EventKind::BatchScheduled);\n"
      "}\n";
  const auto findings = lint_source("src/telemetry/x.cpp", src, drift_registry());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "drift-trace-event");
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_NE(findings[0].message.find("batch_scheduled"), std::string::npos);
}

TEST(LintDrift, NullRegistryDisablesDriftChecks) {
  const std::string src =
      "void f() { telemetry::metrics().counter(\"totally.unknown\").inc(); }\n";
  EXPECT_TRUE(lint_source("src/telemetry/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// lint_files: include-graph decl sharing, dedupe, finding order
// ---------------------------------------------------------------------------

TEST(LintFiles, HeaderDeclarationsReachIncludersWithoutRelexing) {
  const std::vector<lint::SourceFile> files = {
      {"src/core/flows.hpp", "class FlowTable { std::unordered_map<int, int> flows_; };\n"},
      {"src/core/flows.cpp",
       "#include \"core/flows.hpp\"\n"
       "int FlowTable::total() {\n"
       "  int s = 0;\n"
       "  for (auto& [k, v] : flows_) s += v;\n"
       "  return s;\n"
       "}\n"},
  };
  const std::vector<Finding> findings = lint::lint_files(files, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "det-unordered-iter");
  EXPECT_EQ(findings[0].file, "src/core/flows.cpp");
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintFiles, DuplicatePathsAreScannedOnce) {
  const lint::SourceFile f = {"src/core/x.cpp", "int f() { return rand(); }\n"};
  EXPECT_EQ(lint::lint_files({f, f, f}, {}).size(), 1u);
}

TEST(LintFiles, TaintedFieldsPropagateAcrossFiles) {
  const std::vector<lint::SourceFile> files = {
      {"tools/ingest.cpp",
       "void parse(Opts& o, const char* s) { o.width = std::atoll(s); }\n"},
      {"src/serve/use.cpp", "long f(const Opts& o) { return o.width * 2; }\n"},
  };
  const std::vector<Finding> findings = lint::lint_files(files, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "taint-unchecked-arith");
  EXPECT_EQ(findings[0].file, "src/serve/use.cpp");
}

TEST(LintFiles, FindingOrderIsIndependentOfInputOrder) {
  std::vector<lint::SourceFile> files;
  for (char c = 'f'; c >= 'a'; --c) {
    files.push_back({std::string("src/core/") + c + ".cpp",
                     "long f() { return time(nullptr); }\n"
                     "void g() { std::random_device rd; (void)rd; }\n"});
  }
  const std::vector<Finding> findings = lint::lint_files(files, {});
  std::reverse(files.begin(), files.end());
  const std::vector<Finding> reversed = lint::lint_files(files, {});
  ASSERT_EQ(findings.size(), 12u);
  ASSERT_EQ(reversed.size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].check, reversed[i].check);
    EXPECT_EQ(findings[i].file, reversed[i].file);
    EXPECT_EQ(findings[i].line, reversed[i].line);
  }
  // Sorted by (file, line, check, message).
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].file, findings[i].file);
  }
}

// ---------------------------------------------------------------------------
// whole-repo scan: the shipped tree must be clean
// ---------------------------------------------------------------------------

TEST(LintRepoScan, ShippedTreeIsClean) {
  namespace fs = std::filesystem;
  const fs::path root = ACCLAIM_SOURCE_DIR;
  std::vector<lint::SourceFile> files;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      ASSERT_TRUE(in.good()) << entry.path();
      std::ostringstream text;
      text << in.rdbuf();
      files.push_back({fs::relative(entry.path(), root).generic_string(), text.str()});
    }
  }
  ASSERT_GT(files.size(), 50u);

  const fs::path registry = root / lint::kRegistryPath;
  ASSERT_TRUE(fs::exists(registry));
  for (const Finding& f : lint::lint_files(files, util::Json::parse_file(registry.string()))) {
    ADD_FAILURE() << f.file << ":" << f.line << " " << f.check << " " << f.message;
  }
}

// ---------------------------------------------------------------------------
// the acclaim_lint binary: its exit status is the CI gate
// ---------------------------------------------------------------------------

namespace {

/// Runs the built acclaim_lint with `args`; returns its exit status and
/// combined stdout/stderr.
std::pair<int, std::string> run_acclaim_lint(const std::string& args) {
  const std::string cmd = std::string("'") + ACCLAIM_LINT_BIN + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return {-1, "popen failed"};
  }
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out.append(buf, n);
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

}  // namespace

TEST(LintCli, ExitStatusIsZeroWhenCleanOneOnFindingsTwoOnUsageErrors) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "acclaim_lint_cli_tree";
  fs::remove_all(root);
  for (const char* dir : {"src/core", "tools", "tests", "bench", "examples"}) {
    fs::create_directories(root / dir);
  }
  const std::string root_arg = "--root '" + root.string() + "'";
  const fs::path source = root / "src" / "core" / "x.cpp";

  std::ofstream(source) << "int f() { return rand(); }\n";
  const auto [dirty_status, dirty_out] = run_acclaim_lint(root_arg);
  EXPECT_EQ(dirty_status, 1) << dirty_out;
  EXPECT_NE(dirty_out.find("1 finding(s)"), std::string::npos) << dirty_out;

  std::ofstream(source) << "int f() { return 4; }\n";
  const auto [clean_status, clean_out] = run_acclaim_lint(root_arg);
  EXPECT_EQ(clean_status, 0) << clean_out;

  const auto [usage_status, usage_out] = run_acclaim_lint(root_arg + " --json");
  EXPECT_EQ(usage_status, 2) << usage_out;
  fs::remove_all(root);
}

TEST(LintCli, EveryArgumentButRootIsAUsageError) {
  // The old CLI's options, a bare directory and --root without its value.
  for (const char* args : {"--json", "--sarif out.sarif", "--threads 4", "--baseline b.json",
                           "--list-checks", "src", "--root"}) {
    const auto [status, out] = run_acclaim_lint(args);
    EXPECT_EQ(status, 2) << args << ": " << out;
    EXPECT_NE(out.find("usage: acclaim_lint [--root DIR]"), std::string::npos) << args;
  }
}

TEST(LintCli, MissingScanDirectoryIsAnIoError) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "acclaim_lint_cli_partial";
  fs::remove_all(root);
  fs::create_directories(root / "src");
  const auto [status, out] = run_acclaim_lint("--root '" + root.string() + "'");
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("lint directory does not exist"), std::string::npos) << out;
  fs::remove_all(root);
}
