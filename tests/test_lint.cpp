// Tests for tools/lint — the project-specific determinism/correctness
// static-analysis pass. Each check gets a positive (fires) and a negative
// (stays quiet on the idiomatic pattern) fixture, plus suppression-comment
// and baseline-ratchet behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

using namespace acclaim;
using lint::Finding;
using lint::lint_source;
using lint::LintOptions;

namespace {

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
  EXPECT_EQ(findings[0].severity, lint::Severity::Error);
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
  LintOptions opt;
  opt.companion_header = "class C { std::unordered_map<int, int> flows_; };\n";
  const std::string src = "int C::f() { int s = 0; for (auto& [k, v] : flows_) s += v; return s; }\n";
  EXPECT_TRUE(has_check(lint_source("src/minimpi/x.cpp", src, opt), "det-unordered-iter"));
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
  EXPECT_EQ(findings[0].severity, lint::Severity::Error);
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
// hygiene checks
// ---------------------------------------------------------------------------

TEST(LintHygiene, FlagsSwallowedCatch) {
  const std::string src =
      "void f() {\n"
      "  try { g(); } catch (const std::exception&) {\n"
      "  }\n"
      "}\n";
  const auto findings = lint_source("src/util/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "hyg-catch-log");
  EXPECT_EQ(findings[0].severity, lint::Severity::Warning);
}

TEST(LintHygiene, LoggingRethrowingOrAssertingCatchIsFine) {
  EXPECT_TRUE(lint_source("src/util/x.cpp",
                          "void f() { try { g(); } catch (const std::exception& e) { "
                          "AC_LOG_WARN() << e.what(); } }\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/util/x.cpp",
                          "void f() { try { g(); } catch (...) { throw; } }\n")
                  .empty());
  EXPECT_TRUE(lint_source("tests/test_x.cpp",
                          "TEST(A, B) { try { g(); FAIL(); } catch (const Error& e) { "
                          "EXPECT_NE(std::string(e.what()).find(\"x\"), std::string::npos); } }\n")
                  .empty());
}

TEST(LintHygiene, FlagsNakedNewButNotMakeUnique) {
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", "int* f() { return new int(3); }\n"),
                        "hyg-naked-new"));
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "auto f() { return std::make_unique<int>(3); }\n")
                  .empty());
}

TEST(LintHygiene, FlagsFloatLiteralEquality) {
  const auto findings =
      lint_source("src/core/x.cpp", "bool f(double x) { return x == 1.5; }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "hyg-float-eq");
  EXPECT_TRUE(lint_source("src/core/x.cpp", "bool f(double x) { return x < 1.5; }\n").empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp", "bool f(int x) { return x == 2; }\n").empty());
}

// ---------------------------------------------------------------------------
// suppression comments
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesTheCheck) {
  const std::string src =
      "bool f(double x) { return x == 1.5; }  // acclaim-lint: allow(hyg-float-eq)\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppression, PrecedingLineAllowSilencesTheCheck) {
  const std::string src =
      "// exact sentinel. acclaim-lint: allow(hyg-float-eq)\n"
      "bool f(double x) { return x == 1.5; }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppression, AllowOnlySilencesTheNamedCheck) {
  const std::string src =
      "// acclaim-lint: allow(hyg-naked-new)\n"
      "bool f(double x) { return x == 1.5; }\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", src), "hyg-float-eq"));
}

TEST(LintSuppression, AllowListAcceptsMultipleIds) {
  const std::string src =
      "// acclaim-lint: allow(hyg-float-eq, hyg-naked-new)\n"
      "int* f(double x) { return x == 1.5 ? new int(1) : nullptr; }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// baseline ratchet
// ---------------------------------------------------------------------------

TEST(LintBaseline, CoversKnownDebtAndFailsNewFindings) {
  const std::string src =
      "bool f(double x) { return x == 1.5; }\n"
      "bool g(double x) { return x != 2.5; }\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 2u);

  lint::Baseline covers_both;
  covers_both.set("hyg-float-eq", "src/core/x.cpp", 2);
  const lint::GateResult ok = lint::apply_baseline(findings, covers_both);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.baselined.size(), 2u);
  EXPECT_TRUE(ok.stale.empty());

  lint::Baseline covers_one;
  covers_one.set("hyg-float-eq", "src/core/x.cpp", 1);
  const lint::GateResult over = lint::apply_baseline(findings, covers_one);
  EXPECT_FALSE(over.ok());
  ASSERT_EQ(over.fresh.size(), 1u);
  EXPECT_EQ(over.fresh[0].check, "hyg-float-eq");
}

TEST(LintBaseline, StaleEntriesAreReportedForRatcheting) {
  lint::Baseline b;
  b.set("hyg-float-eq", "src/core/x.cpp", 3);
  const lint::GateResult gate =
      lint::apply_baseline(lint_source("src/core/x.cpp", "int f() { return 1; }\n"), b);
  EXPECT_TRUE(gate.ok());  // paid-down debt never fails the gate
  ASSERT_EQ(gate.stale.size(), 1u);
  EXPECT_EQ(gate.stale[0].allowed, 3);
  EXPECT_EQ(gate.stale[0].actual, 0);
}

TEST(LintBaseline, JsonRoundTripAndFromFindings) {
  const auto findings = lint_source(
      "src/core/x.cpp", "bool f(double x) { return x == 1.5 || x == 2.5; }\n");
  ASSERT_EQ(findings.size(), 2u);
  const lint::Baseline b = lint::baseline_from_findings(findings);
  EXPECT_EQ(b.allowed("hyg-float-eq", "src/core/x.cpp"), 2);

  const lint::Baseline reparsed = lint::Baseline::from_json(b.to_json());
  EXPECT_EQ(reparsed.allowed("hyg-float-eq", "src/core/x.cpp"), 2);
  EXPECT_TRUE(lint::apply_baseline(findings, reparsed).ok());
}

TEST(LintBaseline, RejectsUnknownCheckIds) {
  util::Json doc = util::Json::parse(
      R"({"version":1,"entries":[{"check":"not-a-check","file":"a.cpp","count":1}]})");
  EXPECT_THROW(lint::Baseline::from_json(doc), NotFoundError);
}

// ---------------------------------------------------------------------------
// registry & report plumbing
// ---------------------------------------------------------------------------

TEST(LintRegistry, EveryCheckHasIdSeverityAndSummary) {
  const auto& checks = lint::all_checks();
  EXPECT_GE(checks.size(), 9u);
  for (const auto& c : checks) {
    EXPECT_FALSE(c.id.empty());
    EXPECT_FALSE(c.summary.empty());
    EXPECT_EQ(lint::check_severity(c.id), c.severity);
  }
  EXPECT_THROW(lint::check_severity("no-such-check"), NotFoundError);
}

TEST(LintReport, JsonCarriesCheckIdsAndOkFlag) {
  const auto findings =
      lint_source("src/core/x.cpp", "void f() { std::random_device rd; (void)rd; }\n");
  const lint::GateResult gate = lint::apply_baseline(findings, {});
  const util::Json doc = lint::report_json(gate, 1);
  EXPECT_FALSE(doc.at("ok").as_bool());
  ASSERT_EQ(doc.at("findings").as_array().size(), 1u);
  EXPECT_EQ(doc.at("findings").as_array()[0].at("check").as_string(), "det-rand");
  EXPECT_EQ(doc.at("findings").as_array()[0].at("severity").as_string(), "error");
}

// ---------------------------------------------------------------------------
// conc-lock-order
// ---------------------------------------------------------------------------

TEST(LintLockOrder, FlagsInvertedAcquisitionAcrossFunctions) {
  const std::string src =
      "class Pair {\n"
      "  void ab() {\n"
      "    std::lock_guard<std::mutex> g1(a_);\n"
      "    std::lock_guard<std::mutex> g2(b_);\n"
      "  }\n"
      "  void ba() {\n"
      "    std::lock_guard<std::mutex> g1(b_);\n"
      "    std::lock_guard<std::mutex> g2(a_);\n"
      "  }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 2u);  // one per direction, at the inner acquisition
  for (const Finding& f : findings) {
    EXPECT_EQ(f.check, "conc-lock-order");
    EXPECT_EQ(f.severity, lint::Severity::Error);
    EXPECT_FALSE(f.hint.empty());
  }
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[1].line, 8u);
}

TEST(LintLockOrder, ConsistentOrderAndManualLockPairsAreFine) {
  const std::string consistent =
      "class Pair {\n"
      "  void f() {\n"
      "    std::lock_guard<std::mutex> g1(a_);\n"
      "    std::lock_guard<std::mutex> g2(b_);\n"
      "  }\n"
      "  void g() {\n"
      "    std::lock_guard<std::mutex> g1(a_);\n"
      "    std::lock_guard<std::mutex> g2(b_);\n"
      "  }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", consistent).empty());

  // Manual lock()/unlock(): the first hold ends before the second begins,
  // so no nesting edge exists in either direction.
  const std::string sequential =
      "class Pair {\n"
      "  void f() { a_.lock(); a_.unlock(); b_.lock(); b_.unlock(); }\n"
      "  void g() { b_.lock(); b_.unlock(); a_.lock(); a_.unlock(); }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", sequential).empty());
}

TEST(LintLockOrder, FlagsManualLockNestingInversion) {
  const std::string src =
      "class Pair {\n"
      "  void f() { a_.lock(); b_.lock(); b_.unlock(); a_.unlock(); }\n"
      "  void g() { b_.lock(); a_.lock(); a_.unlock(); b_.unlock(); }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].check, "conc-lock-order");
}

TEST(LintLockOrder, SuppressionSilencesBothDirections) {
  const std::string src =
      "class Pair {\n"
      "  void ab() {\n"
      "    std::lock_guard<std::mutex> g1(a_);\n"
      "    // acclaim-lint: allow(conc-lock-order)\n"
      "    std::lock_guard<std::mutex> g2(b_);\n"
      "  }\n"
      "  void ba() {\n"
      "    std::lock_guard<std::mutex> g1(b_);\n"
      "    // acclaim-lint: allow(conc-lock-order)\n"
      "    std::lock_guard<std::mutex> g2(a_);\n"
      "  }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintLockOrder, DeferredGuardsDoNotCreateEdges) {
  const std::string src =
      "class Pair {\n"
      "  void ab() {\n"
      "    std::unique_lock<std::mutex> g1(a_);\n"
      "    std::unique_lock<std::mutex> g2(b_, std::defer_lock);\n"
      "  }\n"
      "  void ba() {\n"
      "    std::unique_lock<std::mutex> g1(b_);\n"
      "    std::unique_lock<std::mutex> g2(a_, std::defer_lock);\n"
      "  }\n"
      "  std::mutex a_;\n"
      "  std::mutex b_;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// conc-snapshot-escape
// ---------------------------------------------------------------------------

TEST(LintSnapshotEscape, FlagsReferenceIntoSnapshotInterior) {
  const std::string src =
      "void f(serve::ModelStore& store, serve::ModelKey key) {\n"
      "  const auto& model = store.lookup(key)->model;\n"
      "  use(model);\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "conc-snapshot-escape");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_FALSE(findings[0].hint.empty());
}

TEST(LintSnapshotEscape, FlagsDerefOfSnapshotResult) {
  const std::string src =
      "void f(Cache& cache) {\n"
      "  const Row& row = *cache.snapshot();\n"
      "  use(row);\n"
      "}\n";
  EXPECT_TRUE(has_check(lint_source("src/core/x.cpp", src), "conc-snapshot-escape"));
}

TEST(LintSnapshotEscape, ValueCopiesAndWholeHandleBindsAreFine) {
  // A by-value copy owns its storage.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f(Store& s, Key k) {\n"
                          "  const auto model = s.lookup(k)->model;\n"
                          "  use(model);\n"
                          "}\n")
                  .empty());
  // Binding the whole returned handle keeps the owner alive.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f(Store& s, Key k) {\n"
                          "  const auto& snap = s.lookup(k);\n"
                          "  use(snap->model);\n"
                          "}\n")
                  .empty());
}

TEST(LintSnapshotEscape, SuppressionSilencesTheCheck) {
  const std::string src =
      "void f(Store& s, Key k) {\n"
      "  // acclaim-lint: allow(conc-snapshot-escape) owner outlives this frame\n"
      "  const auto& model = s.lookup(k)->model;\n"
      "  use(model);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// conc-unjoined-thread
// ---------------------------------------------------------------------------

TEST(LintUnjoinedThread, FlagsThreadThatIsNeverJoined) {
  const std::string src =
      "void f() {\n"
      "  std::thread worker(run_job);\n"
      "  do_other_work();\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "conc-unjoined-thread");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].hint.find("join"), std::string::npos);
}

TEST(LintUnjoinedThread, JoinedDetachedOrMovedThreadsAreFine) {
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n"
                          "  std::thread worker(run_job);\n"
                          "  worker.join();\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() {\n"
                          "  std::thread bg(run_job);\n"
                          "  bg.detach();\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "std::thread make() {\n"
                          "  std::thread t(run_job);\n"
                          "  return t;\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f(Pool& pool) {\n"
                          "  std::thread t(run_job);\n"
                          "  pool.adopt(std::move(t));\n"
                          "}\n")
                  .empty());
  // std::jthread joins in its destructor by design.
  EXPECT_TRUE(lint_source("src/core/x.cpp",
                          "void f() { std::jthread worker(run_job); }\n")
                  .empty());
}

TEST(LintUnjoinedThread, SuppressionSilencesTheCheck) {
  const std::string src =
      "void f() {\n"
      "  // acclaim-lint: allow(conc-unjoined-thread) joined by the harness\n"
      "  std::thread worker(run_job);\n"
      "  register_for_shutdown(worker);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
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
    EXPECT_EQ(f.severity, lint::Severity::Error);
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
      "  // acclaim-lint: allow(hyg-naked-new)\n"
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
  EXPECT_EQ(findings[0].severity, lint::Severity::Error);
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

LintOptions drift_opt() {
  LintOptions opt;
  opt.telemetry_registry = util::Json::parse(
      R"({"metrics":[{"name":"app.requests","kind":"counter"}],)"
      R"("trace_events":["model_refit"]})");
  return opt;
}

}  // namespace

TEST(LintDrift, FlagsMetricMissingFromRegistry) {
  const std::string src =
      "void f() {\n"
      "  telemetry::metrics().counter(\"app.requests\").inc();\n"
      "  telemetry::metrics().counter(\"app.reqs\").inc();\n"
      "  trace(telemetry::EventKind::ModelRefit);\n"
      "}\n";
  const auto findings = lint_source("src/telemetry/x.cpp", src, drift_opt());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "drift-metric-name");
  EXPECT_EQ(findings[0].severity, lint::Severity::Warning);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("app.reqs"), std::string::npos);
}

TEST(LintDrift, FlagsRegistryEntriesNeverEmitted) {
  // The source emits nothing: both registry entries are stale, and the
  // findings attach to the registry file itself.
  const auto findings = lint_source("src/telemetry/x.cpp", "void f() {}\n", drift_opt());
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
  const auto findings = lint_source("src/telemetry/x.cpp", src, drift_opt());
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
// drift-dead-config
// ---------------------------------------------------------------------------

TEST(LintDeadConfig, FlagsConfigFieldNeverReadAnywhere) {
  const std::string src =
      "struct RetryConfig {\n"
      "  int attempts = 3;\n"
      "  double backoff_s = 0.5;\n"
      "};\n"
      "inline int plan(const RetryConfig& c) { return c.attempts; }\n";
  const auto findings = lint_source("src/serve/retry.hpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "drift-dead-config");
  EXPECT_EQ(findings[0].severity, lint::Severity::Warning);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("backoff_s"), std::string::npos);
}

TEST(LintDeadConfig, FullyUsedConfigAndNonConfigStructsAreFine) {
  EXPECT_TRUE(lint_source("src/serve/retry.hpp",
                          "struct RetryConfig {\n"
                          "  int attempts = 3;\n"
                          "};\n"
                          "inline int plan(const RetryConfig& c) { return c.attempts; }\n")
                  .empty());
  // Not *Config / *Spec: field liveness is not this check's business.
  EXPECT_TRUE(lint_source("src/serve/retry.hpp",
                          "struct RetryState {\n"
                          "  int attempts = 3;\n"
                          "};\n")
                  .empty());
  // Methods and prototypes inside a config struct are not fields.
  EXPECT_TRUE(lint_source("src/serve/retry.hpp",
                          "struct WireSpec {\n"
                          "  int used = 1;\n"
                          "  int frame_bytes() const { return used; }\n"
                          "};\n"
                          "inline int f(const WireSpec& w) { return w.used; }\n")
                  .empty());
}

TEST(LintDeadConfig, SuppressionSilencesTheCheck) {
  const std::string src =
      "struct RetryConfig {\n"
      "  // acclaim-lint: allow(drift-dead-config) wired up in the next PR\n"
      "  double backoff_s = 0.5;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/serve/retry.hpp", src).empty());
}

// ---------------------------------------------------------------------------
// statement-extent suppression (an allow above a multi-line statement covers
// every line of the statement, not just the first)
// ---------------------------------------------------------------------------

TEST(LintSuppression, AllowCoversTheFullStatementExtent) {
  const std::string src =
      "bool f(double x, double y) {\n"
      "  // acclaim-lint: allow(hyg-float-eq) calibration table boundary\n"
      "  return x == 1.5 &&\n"
      "         y == 2.5;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());

  // Without the allow, both lines fire — proving the extension did the work.
  const std::string bare =
      "bool f(double x, double y) {\n"
      "  return x == 1.5 &&\n"
      "         y == 2.5;\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", bare);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
}

TEST(LintSuppression, ExtendedAllowStopsAtTheStatementBoundary) {
  const std::string src =
      "bool g(double x) {\n"
      "  // acclaim-lint: allow(hyg-float-eq)\n"
      "  bool a = x ==\n"
      "      1.5;\n"
      "  return x == 2.5;\n"
      "}\n";
  const auto findings = lint_source("src/core/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5u);
}

// ---------------------------------------------------------------------------
// lint_files: include-graph decl sharing, dedupe, determinism
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
  const lint::ProjectReport rep = lint::lint_files(files, {}, 2);
  EXPECT_EQ(rep.files, 2u);
  EXPECT_GT(rep.tokens, 0u);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].check, "det-unordered-iter");
  EXPECT_EQ(rep.findings[0].file, "src/core/flows.cpp");
  EXPECT_EQ(rep.findings[0].line, 4u);
}

TEST(LintFiles, DuplicatePathsAreScannedOnce) {
  const lint::SourceFile f = {"src/core/x.cpp",
                              "bool f(double x) { return x == 1.5; }\n"};
  const lint::ProjectReport rep = lint::lint_files({f, f, f}, {}, 2);
  EXPECT_EQ(rep.files, 1u);
  EXPECT_EQ(rep.findings.size(), 1u);
}

TEST(LintFiles, TaintedFieldsPropagateAcrossFiles) {
  const std::vector<lint::SourceFile> files = {
      {"tools/ingest.cpp",
       "void parse(Opts& o, const char* s) { o.width = std::atoll(s); }\n"},
      {"src/serve/use.cpp", "long f(const Opts& o) { return o.width * 2; }\n"},
  };
  const lint::ProjectReport rep = lint::lint_files(files, {}, 2);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].check, "taint-unchecked-arith");
  EXPECT_EQ(rep.findings[0].file, "src/serve/use.cpp");
}

TEST(LintFiles, FindingOrderIsDeterministicAcrossThreadCounts) {
  std::vector<lint::SourceFile> files;
  for (char c = 'a'; c <= 'f'; ++c) {
    files.push_back({std::string("src/core/") + c + ".cpp",
                     "bool f(double x) { return x == 1.5; }\n"
                     "void g() { std::random_device rd; (void)rd; }\n"});
  }
  const lint::ProjectReport one = lint::lint_files(files, {}, 1);
  const lint::ProjectReport many = lint::lint_files(files, {}, 8);
  ASSERT_EQ(one.findings.size(), many.findings.size());
  for (std::size_t i = 0; i < one.findings.size(); ++i) {
    EXPECT_EQ(one.findings[i].check, many.findings[i].check);
    EXPECT_EQ(one.findings[i].file, many.findings[i].file);
    EXPECT_EQ(one.findings[i].line, many.findings[i].line);
  }
  // Sorted by (file, line, check, message).
  for (std::size_t i = 1; i < one.findings.size(); ++i) {
    EXPECT_LE(one.findings[i - 1].file, one.findings[i].file);
  }
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 emission
// ---------------------------------------------------------------------------

TEST(LintSarif, DocumentHasTheGitHubRequiredShape) {
  const auto findings =
      lint_source("src/core/x.cpp", "void f() { std::random_device rd; (void)rd; }\n");
  ASSERT_EQ(findings.size(), 1u);
  const util::Json doc = lint::sarif_report(findings);

  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  EXPECT_NE(doc.at("$schema").as_string().find("sarif-schema-2.1.0"), std::string::npos);
  const auto& runs = doc.at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);

  const util::Json& driver = runs[0].at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "acclaim-lint");
  const auto& rules = driver.at("rules").as_array();
  EXPECT_EQ(rules.size(), lint::all_checks().size());
  for (const util::Json& rule : rules) {
    EXPECT_FALSE(rule.at("id").as_string().empty());
    EXPECT_FALSE(rule.at("shortDescription").at("text").as_string().empty());
    const std::string level = rule.at("defaultConfiguration").at("level").as_string();
    EXPECT_TRUE(level == "error" || level == "warning");
  }

  const auto& results = runs[0].at("results").as_array();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("ruleId").as_string(), "det-rand");
  const auto idx = static_cast<std::size_t>(results[0].at("ruleIndex").as_int());
  ASSERT_LT(idx, rules.size());
  EXPECT_EQ(rules[idx].at("id").as_string(), "det-rand");
  EXPECT_EQ(results[0].at("level").as_string(), "error");
  EXPECT_FALSE(results[0].at("message").at("text").as_string().empty());
  const util::Json& loc = results[0].at("locations").as_array()[0].at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").as_string(), "src/core/x.cpp");
  EXPECT_EQ(loc.at("region").at("startLine").as_int(), 1);
}

TEST(LintSarif, HintsLandInTheResultMessage) {
  const auto findings = lint_source("src/core/x.cpp",
                                    "void f() {\n"
                                    "  std::thread worker(run_job);\n"
                                    "  do_other_work();\n"
                                    "}\n");
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_FALSE(findings[0].hint.empty());
  const util::Json doc = lint::sarif_report(findings);
  const std::string text = doc.at("runs").as_array()[0].at("results").as_array()[0]
                               .at("message").at("text").as_string();
  EXPECT_NE(text.find("[fix:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// whole-repo scan: the shipped tree must be clean against an EMPTY baseline
// ---------------------------------------------------------------------------

TEST(LintRepoScan, ShippedTreeIsCleanAndBaselineStaysEmpty) {
  namespace fs = std::filesystem;
  const fs::path root = ACCLAIM_SOURCE_DIR;
  std::vector<lint::SourceFile> files;
  for (const char* dir : {"src", "tools", "tests", "bench"}) {
    const fs::path d = root / dir;
    if (!fs::exists(d)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(d)) {
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

  LintOptions opt;
  const fs::path registry = root / "tools" / "telemetry_registry.json";
  ASSERT_TRUE(fs::exists(registry));
  opt.telemetry_registry = util::Json::parse_file(registry.string());

  const lint::ProjectReport rep = lint::lint_files(files, opt, 4);
  EXPECT_EQ(rep.files, files.size());

  const lint::Baseline baseline =
      lint::Baseline::load((root / "tools" / "lint_baseline.json").string());
  // The ratchet criterion for this repo: no debt, and none hidden behind
  // baseline allowances either.
  EXPECT_TRUE(baseline.empty());
  const lint::GateResult gate = lint::apply_baseline(rep.findings, baseline);
  EXPECT_TRUE(gate.ok());
  for (const Finding& f : gate.fresh) {
    ADD_FAILURE() << f.file << ":" << f.line << " " << f.check << " " << f.message;
  }
}
