// Telemetry subsystem: metrics registry arithmetic, histogram bucketing,
// trace ring/stream round-trips, and run-report building/rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;
using telemetry::EventKind;
using telemetry::TraceEvent;

// The registry and tracer are process-wide; every test starts from a clean
// slate so ordering (and the other suites linked into this binary) cannot
// leak values across cases.
class TelemetryTest : public testing::Test {
 protected:
  void SetUp() override {
    telemetry::tracer().disable();
    telemetry::metrics().reset();
  }
  void TearDown() override { telemetry::tracer().disable(); }
};

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

TEST_F(TelemetryTest, CounterArithmeticAndReset) {
  telemetry::Counter& c = telemetry::metrics().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument, and reset() keeps the
  // address valid (call sites cache static references).
  telemetry::Counter& again = telemetry::metrics().counter("test.counter");
  EXPECT_EQ(&again, &c);
  telemetry::metrics().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(again.value(), 7u);
}

TEST_F(TelemetryTest, GaugeSetAndAccumulate) {
  telemetry::Gauge& g = telemetry::metrics().gauge("test.gauge");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(0.25);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(TelemetryTest, HistogramBucketEdges) {
  // first_bound = 1.0 keeps every bound exactly representable, so the edge
  // assertions below are fp-exact: bounds 1, 2, 4 plus an overflow bucket.
  telemetry::Histogram h({1.0, 3});
  EXPECT_EQ(h.num_buckets(), 4);
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_bound(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_bound(2), 4.0);
  EXPECT_THROW(h.bucket_bound(3), Error);  // overflow bucket has no bound

  h.observe(0.5);  // below the first bound
  h.observe(1.0);  // exactly on it -> still bucket 0
  h.observe(1.5);
  h.observe(2.0);  // bounds are inclusive
  h.observe(3.0);
  h.observe(4.0);
  h.observe(5.0);    // beyond the last finite bound
  h.observe(1e12);   // deep overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
}

TEST_F(TelemetryTest, HistogramStatsAndReset) {
  telemetry::Histogram h({1.0, 8});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), std::numeric_limits<double>::infinity());
  h.observe(2.0);
  h.observe(6.0);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (int i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u);
  }
}

TEST_F(TelemetryTest, PercentileEmptyHistogramIsNaN) {
  telemetry::Histogram h({1.0, 3});
  EXPECT_TRUE(std::isnan(h.percentile(0.5)));
  EXPECT_TRUE(std::isnan(h.percentile(0.99)));
}

TEST_F(TelemetryTest, PercentileInterpolatesWithinBucket) {
  // Two observations in bucket (1, 2]: the rank interpolation is exact.
  telemetry::Histogram h({1.0, 3});
  h.observe(1.5);
  h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);   // rank 1 of 2 -> halfway up the span
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);   // top of the span
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.5);   // clamped to the observed min
}

TEST_F(TelemetryTest, PercentilesMonotoneAndBracketedByMinMax) {
  telemetry::Histogram h({0.01, 32});
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    h.observe(0.02 + static_cast<double>(state % 10000) / 37.0);
  }
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
}

TEST_F(TelemetryTest, PercentileOverflowBucketClampsToMax) {
  // Everything lands past the last finite bound (4.0): the overflow bucket
  // has no upper bound, so the estimate collapses to the observed max.
  telemetry::Histogram h({1.0, 3});
  h.observe(100.0);
  h.observe(250.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 250.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 250.0);
}

TEST_F(TelemetryTest, PercentileFromBucketsMatchesLiveHistogram) {
  // Snapshot-side estimator (what `acclaim report --metrics` uses) agrees
  // with the in-process one for the same sparse bucket list.
  telemetry::Histogram h({1.0, 8});
  for (double v : {0.4, 1.2, 2.7, 3.1, 9.0, 15.0, 120.0, 300.0}) {
    h.observe(v);
  }
  std::vector<telemetry::BucketSlice> slices;
  for (int i = 0; i < h.num_buckets(); ++i) {
    if (h.bucket_count(i) == 0) {
      continue;
    }
    telemetry::BucketSlice s;
    s.le = i < h.num_buckets() - 1 ? h.bucket_bound(i)
                                   : std::numeric_limits<double>::infinity();
    s.n = h.bucket_count(i);
    slices.push_back(s);
  }
  for (double p : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(
        telemetry::percentile_from_buckets(slices, h.count(), h.min(), h.max(), p),
        h.percentile(p))
        << "p=" << p;
  }
}

TEST_F(TelemetryTest, RenderMetricsSummarySmoke) {
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("sum.runs").add(4);
  reg.gauge("threadpool.threads").set(8);
  telemetry::Histogram& h = reg.histogram("sum.latency_ms", {0.01, 32});
  for (int i = 1; i <= 100; ++i) {
    h.observe(static_cast<double>(i) * 0.1);
  }
  std::ostringstream os;
  telemetry::render_metrics_summary(reg.to_json(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("sum.runs"), std::string::npos);
  EXPECT_NE(out.find("threadpool.threads"), std::string::npos);
  EXPECT_NE(out.find("sum.latency_ms"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
}

TEST_F(TelemetryTest, RenderMetricsSummaryOmitsOnlyNeverTouchedInstruments) {
  // Exactly zero means never touched; a tiny nonzero gauge is still shown.
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("sum.idle_counter");
  reg.gauge("sum.idle_gauge");
  reg.counter("sum.busy_counter").add(1);
  reg.gauge("sum.tiny_gauge").set(1e-9);
  std::ostringstream os;
  telemetry::render_metrics_summary(reg.to_json(), os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("sum.idle_counter"), std::string::npos);
  EXPECT_EQ(out.find("sum.idle_gauge"), std::string::npos);
  EXPECT_NE(out.find("sum.busy_counter"), std::string::npos);
  EXPECT_NE(out.find("sum.tiny_gauge"), std::string::npos);
}

TEST_F(TelemetryTest, RenderMetricsSummaryRejectsNonSnapshot) {
  std::ostringstream os;
  EXPECT_THROW(telemetry::render_metrics_summary(util::Json::object(), os), Error);
}

TEST_F(TelemetryTest, PublishThreadPoolMetricsSetsGauges) {
  util::global_pool().parallel_for(0, 8, [](std::size_t) {});
  telemetry::publish_thread_pool_metrics();
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  EXPECT_GE(reg.gauge("threadpool.threads").value(), 1.0);
  EXPECT_GE(reg.gauge("threadpool.parallel_fors").value(), 1.0);
}

TEST_F(TelemetryTest, RegistryJsonRoundTrip) {
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("rt.runs").add(3);
  reg.gauge("rt.level").set(2.5);
  reg.histogram("rt.sizes", {1.0, 8}).observe(4.0);

  const std::string path = temp_path("metrics_rt.json");
  reg.dump_file(path);
  const util::Json doc = util::Json::parse_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(doc.at("counters").at("rt.runs").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("rt.level").as_number(), 2.5);
  const util::Json& hist = doc.at("histograms").at("rt.sizes");
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), 4.0);
  // One occupied bucket survives the empty-bucket elision.
  ASSERT_EQ(hist.at("buckets").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").as_array()[0].at("le").as_number(), 4.0);
}

TEST_F(TelemetryTest, EventKindNamesRoundTrip) {
  for (EventKind k : {EventKind::TrainingIteration, EventKind::PointAcquired,
                      EventKind::BatchScheduled, EventKind::BenchmarkRun,
                      EventKind::ModelRefit, EventKind::ConvergenceCheck, EventKind::Phase}) {
    const auto parsed = telemetry::parse_event_kind(telemetry::event_kind_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(telemetry::parse_event_kind("not_an_event").has_value());
}

TEST_F(TelemetryTest, TraceEventJsonRoundTrip) {
  TraceEvent ev;
  ev.kind = EventKind::PointAcquired;
  ev.label = "bcast";
  ev.t_wall_ms = 12.5;
  ev.fields["nnodes"] = 8;
  ev.fields["algorithm"] = "binomial";
  ev.fields["nonp2"] = true;

  const TraceEvent back = TraceEvent::from_json(ev.to_json());
  EXPECT_EQ(back.kind, EventKind::PointAcquired);
  EXPECT_EQ(back.label, "bcast");
  EXPECT_DOUBLE_EQ(back.t_wall_ms, 12.5);
  EXPECT_EQ(back.fields.at("nnodes").as_int(), 8);
  EXPECT_EQ(back.fields.at("algorithm").as_string(), "binomial");
  EXPECT_TRUE(back.fields.at("nonp2").as_bool());
}

TEST_F(TelemetryTest, RingKeepsNewestEventsOldestFirst) {
  telemetry::Tracer& tr = telemetry::tracer();
  EXPECT_FALSE(tr.enabled());
  tr.enable_ring(4);
  EXPECT_TRUE(tr.enabled());
  for (int i = 0; i < 6; ++i) {
    TraceEvent ev;
    ev.kind = EventKind::ModelRefit;
    ev.label = "ev" + std::to_string(i);
    tr.record(std::move(ev));
  }
  const auto snap = tr.ring_snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().label, "ev2");
  EXPECT_EQ(snap.back().label, "ev5");
  EXPECT_EQ(tr.ring_dropped(), 2u);
  EXPECT_EQ(tr.recorded(), 6u);
  tr.disable();
  EXPECT_FALSE(tr.enabled());
  EXPECT_TRUE(tr.ring_snapshot().empty());
}

TEST_F(TelemetryTest, StreamWritesJsonLinesReadableByReader) {
  const std::string path = temp_path("trace_rt.jsonl");
  telemetry::Tracer& tr = telemetry::tracer();
  tr.open_stream(path);
  for (int i = 0; i < 3; ++i) {
    TraceEvent ev;
    ev.kind = EventKind::BenchmarkRun;
    ev.label = "allreduce";
    ev.fields["cost_s"] = 0.5 * (i + 1);
    tr.record(std::move(ev));
  }
  tr.close_stream();

  const auto events = telemetry::read_trace_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(events.size(), 3u);
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.kind, EventKind::BenchmarkRun);
    EXPECT_EQ(ev.label, "allreduce");
  }
  EXPECT_DOUBLE_EQ(events[2].fields.at("cost_s").as_number(), 1.5);
}

TEST_F(TelemetryTest, ReaderSkipsBlankLinesAndUnknownKinds) {
  const std::string path = temp_path("trace_fwd.jsonl");
  {
    std::ofstream out(path);
    out << R"({"event":"model_refit","t_ms":1.0,"label":"bcast"})" << "\n\n"
        << R"({"event":"from_the_future","t_ms":2.0,"label":"x"})" << "\n";
  }
  const auto events = telemetry::read_trace_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::ModelRefit);
  EXPECT_THROW(telemetry::read_trace_file(temp_path("no_such_trace.jsonl")), IoError);
}

// Regression: only the audit reader named the file and line of a bad record;
// the trace reader reported a bare JSON error at "line 1".
TEST_F(TelemetryTest, ReaderNamesPathAndLineOfABadRecord) {
  const std::string path = temp_path("trace_bad.jsonl");
  {
    std::ofstream out(path);
    out << R"({"event":"model_refit","t_ms":1.0,"label":"bcast"})" << "\n"
        << "{not json\n";
  }
  try {
    telemetry::read_trace_file(path);
    std::remove(path.c_str());
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    std::remove(path.c_str());
    EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos) << e.what();
  }
}

// A line that is not JSON is named once, at the parser's column on that
// line; a record that parses but fails its schema keeps the path:line:
// prefix at column 1.
TEST_F(TelemetryTest, ReaderNamesOneLocationWithTheParsersColumn) {
  const std::string path = temp_path("trace_column.jsonl");
  const std::string good = R"({"event":"model_refit","t_ms":1.0,"label":"bcast"})";
  for (const std::string& bad : {std::string("{not json"), std::string(R"({"t_ms":1.0})")}) {
    {
      std::ofstream out(path);
      out << good << "\n" << bad << "\n";
    }
    try {
      telemetry::read_trace_file(path);
      ADD_FAILURE() << "expected ParseError for " << bad;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.line(), 2u);
      EXPECT_EQ(what.find("(line"), what.rfind("(line")) << what;
      if (bad == "{not json") {
        EXPECT_EQ(what, path + ":2: expected '\"' (line 2, column 3)");
        EXPECT_EQ(e.column(), 3u);
      } else {
        EXPECT_EQ(what.rfind(path + ":2: ", 0), 0u) << what;
        EXPECT_EQ(e.column(), 1u);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, RingRejectsZeroCapacity) {
  EXPECT_THROW(telemetry::tracer().enable_ring(0), InvalidArgument);
  EXPECT_FALSE(telemetry::tracer().enabled());
}

// --- run reports on a synthetic trace ------------------------------------

TraceEvent make_event(EventKind kind, std::string label) {
  TraceEvent ev;
  ev.kind = kind;
  ev.label = std::move(label);
  return ev;
}

std::vector<TraceEvent> synthetic_trace() {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 5; ++i) {
    TraceEvent it = make_event(EventKind::TrainingIteration, "bcast");
    it.fields["iteration"] = i;
    it.fields["points"] = 4 * (i + 1);
    it.fields["variance"] = 1.0 / (i + 1);
    it.fields["variance_ema"] = 0.8 / (i + 1);
    it.fields["batch_size"] = 4;
    events.push_back(std::move(it));
  }
  for (int size : {4, 4, 2}) {
    TraceEvent b = make_event(EventKind::BatchScheduled, "bcast");
    b.fields["batch_size"] = size;
    events.push_back(std::move(b));
  }
  for (int i = 0; i < 10; ++i) {
    TraceEvent r = make_event(EventKind::BenchmarkRun, "bcast");
    r.fields["cost_s"] = 0.1;
    events.push_back(std::move(r));
  }
  events.push_back(make_event(EventKind::ModelRefit, "bcast"));
  events.push_back(make_event(EventKind::ModelRefit, "bcast"));
  TraceEvent pick = make_event(EventKind::PointAcquired, "bcast");
  pick.fields["nonp2"] = true;
  events.push_back(std::move(pick));
  TraceEvent phase = make_event(EventKind::Phase, "train:bcast");
  phase.fields["sim_s"] = 30.0;
  phase.fields["wall_ms"] = 12.0;
  phase.fields["points"] = 20;
  phase.fields["iterations"] = 5;
  phase.fields["converged"] = true;
  events.push_back(std::move(phase));
  return events;
}

TEST_F(TelemetryTest, BuildReportAggregatesTheTrace) {
  const telemetry::RunReport report = telemetry::build_report(synthetic_trace());
  EXPECT_EQ(report.benchmark_runs, 10u);
  EXPECT_NEAR(report.benchmark_sim_cost_s, 1.0, 1e-9);
  EXPECT_EQ(report.model_refits, 2u);
  EXPECT_EQ(report.points_acquired, 1u);
  EXPECT_EQ(report.nonp2_swaps, 1u);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].label, "train:bcast");
  EXPECT_DOUBLE_EQ(report.phases[0].sim_s, 30.0);
  EXPECT_TRUE(report.phases[0].has_outcome);
  EXPECT_TRUE(report.phases[0].converged);
  EXPECT_DOUBLE_EQ(report.total_sim_s, 30.0);
  ASSERT_EQ(report.trajectories.count("bcast"), 1u);
  const auto& traj = report.trajectories.at("bcast");
  ASSERT_EQ(traj.size(), 5u);
  EXPECT_EQ(traj.front().iteration, 0);
  EXPECT_EQ(traj.back().points, 20u);
  EXPECT_EQ(report.batch_histogram.at(4), 2u);
  EXPECT_EQ(report.batch_histogram.at(2), 1u);
  EXPECT_EQ(report.event_counts.at("training_iteration"), 5u);
}

TEST_F(TelemetryTest, RenderReportShowsEverySection) {
  const telemetry::RunReport report = telemetry::build_report(synthetic_trace());
  std::ostringstream os;
  telemetry::render_report(report, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("run summary"), std::string::npos);
  EXPECT_NE(text.find("phase timing"), std::string::npos);
  EXPECT_NE(text.find("train:bcast"), std::string::npos);
  EXPECT_NE(text.find("variance trajectory: bcast"), std::string::npos);
  EXPECT_NE(text.find("scheduler batch occupancy"), std::string::npos);
  EXPECT_NE(text.find("total simulated training"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);  // occupancy bars
}

TEST_F(TelemetryTest, RenderSamplesLongTrajectoriesKeepingEndpoints) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 100; ++i) {
    TraceEvent it = make_event(EventKind::TrainingIteration, "reduce");
    it.fields["iteration"] = i;
    it.fields["points"] = i + 1;
    it.fields["variance"] = 1.0;
    it.fields["variance_ema"] = 1.0;
    events.push_back(std::move(it));
  }
  std::ostringstream os;
  telemetry::render_report(telemetry::build_report(events), os, 5);
  const std::string text = os.str();
  // First and last iterations must survive the down-sampling (table rows
  // are indented two spaces).
  EXPECT_NE(text.find("\n  0 "), std::string::npos);
  EXPECT_NE(text.find("\n  99 "), std::string::npos);
  // Strictly fewer rows than iterations: count newlines in the trajectory
  // table region as a proxy.
  EXPECT_LT(std::count(text.begin(), text.end(), '\n'), 20);
}

// --- chrome://tracing export ---------------------------------------------

TEST_F(TelemetryTest, ChromeTraceConvertsPhasesAndBatchedRunsToSpans) {
  std::vector<TraceEvent> events;
  TraceEvent phase = make_event(EventKind::Phase, "train:bcast");
  phase.t_wall_ms = 100.0;
  phase.fields["wall_ms"] = 40.0;
  phase.fields["sim_s"] = 3.5;
  events.push_back(std::move(phase));
  TraceEvent run = make_event(EventKind::BenchmarkRun, "bcast");
  run.t_wall_ms = 90.0;
  run.fields["slot"] = 2;
  run.fields["wall_ms"] = 5.0;
  events.push_back(std::move(run));
  TraceEvent refit = make_event(EventKind::ModelRefit, "bcast");
  refit.t_wall_ms = 95.0;
  events.push_back(std::move(refit));

  const util::Json doc = telemetry::chrome_trace_json(events);
  ASSERT_TRUE(doc.is_object());
  const util::JsonArray& tev = doc.as_object().at("traceEvents").as_array();
  ASSERT_EQ(tev.size(), 3u);

  const util::JsonObject& p = tev[0].as_object();
  EXPECT_EQ(p.at("name").as_string(), "train:bcast");
  EXPECT_EQ(p.at("ph").as_string(), "X");
  // Span ends at the event timestamp: ts = (100 - 40) ms in microseconds.
  EXPECT_DOUBLE_EQ(p.at("ts").as_number(), 60000.0);
  EXPECT_DOUBLE_EQ(p.at("dur").as_number(), 40000.0);
  EXPECT_EQ(p.at("tid").as_int(), 0);
  EXPECT_DOUBLE_EQ(p.at("args").as_object().at("sim_s").as_number(), 3.5);

  const util::JsonObject& r = tev[1].as_object();
  EXPECT_EQ(r.at("ph").as_string(), "X");
  EXPECT_EQ(r.at("tid").as_int(), 3);  // slot 2 -> lane 3 (lane 0 is phases)
  EXPECT_DOUBLE_EQ(r.at("ts").as_number(), 85000.0);
  EXPECT_DOUBLE_EQ(r.at("dur").as_number(), 5000.0);

  const util::JsonObject& m = tev[2].as_object();
  EXPECT_EQ(m.at("ph").as_string(), "i");
  EXPECT_EQ(m.at("tid").as_int(), 0);
  EXPECT_DOUBLE_EQ(m.at("ts").as_number(), 95000.0);
}

TEST_F(TelemetryTest, ChromeTraceClampsSpansThatPredateTheEpoch) {
  TraceEvent phase = make_event(EventKind::Phase, "p");
  phase.t_wall_ms = 5.0;
  phase.fields["wall_ms"] = 9.0;  // longer than the time since epoch
  const util::Json doc = telemetry::chrome_trace_json({phase});
  const util::JsonObject& p = doc.as_object().at("traceEvents").as_array()[0].as_object();
  EXPECT_DOUBLE_EQ(p.at("ts").as_number(), 0.0);
  // The duration shrinks with the clamp: the span still *ends* at the
  // recorded event time (5 ms), not 4 ms past it.
  EXPECT_DOUBLE_EQ(p.at("dur").as_number(), 5000.0);
}

TEST_F(TelemetryTest, WriteChromeTraceRoundTripsThroughTheParser) {
  const std::string path = "chrome_trace_test.json";
  telemetry::write_chrome_trace(synthetic_trace(), path);
  const util::Json doc = util::Json::parse_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.is_object());
  const util::JsonArray& tev = doc.as_object().at("traceEvents").as_array();
  EXPECT_EQ(tev.size(), synthetic_trace().size());
  for (const util::Json& e : tev) {
    const util::JsonObject& o = e.as_object();
    EXPECT_TRUE(o.contains("name"));
    EXPECT_TRUE(o.contains("ph"));
    EXPECT_TRUE(o.contains("ts"));
    EXPECT_TRUE(o.contains("pid"));
    EXPECT_TRUE(o.contains("tid"));
  }
}

// `acclaim report --trace T --chrome-out C` is the one chrome://tracing
// writer: converting a streamed trace read back must equal converting the
// in-memory ring of the same events.
TEST_F(TelemetryTest, ChromeTraceOfTheRingEqualsTheStreamedTraceReadBack) {
  const std::string path = temp_path("trace_chrome_rt.jsonl");
  telemetry::Tracer& tr = telemetry::tracer();
  tr.enable_ring(1 << 10);
  tr.open_stream(path);
  std::vector<TraceEvent> events = synthetic_trace();
  TraceEvent run = make_event(EventKind::BenchmarkRun, "bcast \"slot\"");
  run.fields["slot"] = 2;
  run.fields["wall_ms"] = 0.1 + 0.2;
  events.push_back(std::move(run));
  for (TraceEvent& ev : events) {
    tr.record(std::move(ev));  // stamps t_ms from the host clock
  }
  tr.close_stream();
  const std::string from_ring = telemetry::chrome_trace_json(tr.ring_snapshot()).dump(2);
  const std::string from_file =
      telemetry::chrome_trace_json(telemetry::read_trace_file(path)).dump(2);
  std::remove(path.c_str());
  EXPECT_EQ(from_ring, from_file);
}

// Golden schema contract for the chrome://tracing export. chrome://tracing
// and Perfetto silently drop (or worse, misrender) events that violate the
// trace-event format, so the exporter pins it here: every event carries
// name/ph/ts/pid/tid, ph is a known phase, timestamps are non-negative, and
// complete spans have a non-negative duration. If this test fails, the
// exporter broke the viewer contract — fix the exporter, not the test.
TEST_F(TelemetryTest, ChromeTraceSchemaGolden) {
  // A trace that exercises every exporter path: phases (spans), batched
  // benchmark runs (slot lanes), instants, and the pre-epoch clamp.
  std::vector<TraceEvent> events = synthetic_trace();
  TraceEvent early = make_event(EventKind::Phase, "clamped");
  early.t_wall_ms = 1.0;
  early.fields["wall_ms"] = 50.0;  // starts before the epoch -> clamped
  events.push_back(std::move(early));

  const util::Json doc = telemetry::chrome_trace_json(events);
  const util::JsonArray& tev = doc.as_object().at("traceEvents").as_array();
  ASSERT_EQ(tev.size(), events.size());
  for (const util::Json& e : tev) {
    const util::JsonObject& o = e.as_object();
    ASSERT_TRUE(o.contains("name"));
    ASSERT_TRUE(o.contains("ph"));
    ASSERT_TRUE(o.contains("ts"));
    ASSERT_TRUE(o.contains("pid"));
    ASSERT_TRUE(o.contains("tid"));
    const std::string ph = o.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    EXPECT_GE(o.at("ts").as_number(), 0.0);
    if (ph == "X") {
      ASSERT_TRUE(o.contains("dur"));
      EXPECT_GE(o.at("dur").as_number(), 0.0);
    } else {
      // Instant events need a scope for the viewer to draw them.
      EXPECT_EQ(o.at("s").as_string(), "t");
    }
  }
}

// --- prometheus exposition -------------------------------------------------

TEST_F(TelemetryTest, PrometheusTextExposesAllInstrumentKinds) {
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("prom.runs").add(3);
  reg.gauge("prom.level").set(2.5);
  telemetry::Histogram& h = reg.histogram("prom.lat_us", {1.0, 3});
  h.observe(1.5);   // finite bucket (le 2)
  h.observe(100.0); // overflow bucket -> +Inf only

  const std::string text = telemetry::prometheus_text(reg.to_json());
  // Names are sanitized ('.' -> '_') and prefixed; counters get _total.
  EXPECT_NE(text.find("# TYPE acclaim_prom_runs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("acclaim_prom_runs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE acclaim_prom_level gauge\n"), std::string::npos);
  EXPECT_NE(text.find("acclaim_prom_level 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE acclaim_prom_lat_us histogram\n"), std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("acclaim_prom_lat_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("acclaim_prom_lat_us_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("acclaim_prom_lat_us_sum 101.5\n"), std::string::npos);
  EXPECT_NE(text.find("acclaim_prom_lat_us_count 2\n"), std::string::npos);
}

// `acclaim report --metrics M --prom-out P` is the one Prometheus writer:
// rendering a --metrics-out file read back must equal rendering the live
// registry it was dumped from.
TEST_F(TelemetryTest, PrometheusTextOfADumpedSnapshotEqualsTheLiveRender) {
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  reg.counter("prom.rt.runs").add(12345678901ull);
  reg.gauge("prom.rt.level").set(0.1 + 0.2);
  reg.gauge("prom.rt-small").set(-2.75e-7);
  telemetry::Histogram& h = reg.histogram("prom.rt.lat_us", {1e-3, 8});
  for (double v : {0.0004, 0.0031, 0.017, 0.1 + 0.2, 1e9}) {
    h.observe(v);
  }
  const std::string path = temp_path("metrics_prom_rt.json");
  reg.dump_file(path);
  const util::Json back = telemetry::load_metrics_snapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(telemetry::prometheus_text(back), telemetry::prometheus_text(reg.to_json()));
}

// --- self-profiler ----------------------------------------------------------

TEST_F(TelemetryTest, SpanBuildsNestedAttributionPaths) {
  telemetry::profiler().disable();
  telemetry::profiler().enable();
  {
    const telemetry::Span outer("outer");
    EXPECT_TRUE(outer.active());
    const telemetry::Span inner("inner");
    EXPECT_TRUE(inner.active());
  }
  const auto snap = telemetry::profiler().snapshot();
  telemetry::profiler().disable();
  ASSERT_EQ(snap.count("outer"), 1u);
  ASSERT_EQ(snap.count("outer;inner"), 1u);
  EXPECT_EQ(snap.at("outer").count, 1u);
  EXPECT_EQ(snap.at("outer;inner").count, 1u);
  // Inclusive times: the parent covers the child.
  EXPECT_GE(snap.at("outer").total_ns, snap.at("outer;inner").total_ns);
}

TEST_F(TelemetryTest, SpanIsInertWhenProfilerDisabled) {
  telemetry::profiler().disable();
  const telemetry::Span t("idle");
  EXPECT_FALSE(t.active());
  EXPECT_TRUE(telemetry::profiler().snapshot().empty());
}

TEST_F(TelemetryTest, SpanLeftByAnExceptionRestoresTheThreadPath) {
  telemetry::profiler().disable();
  telemetry::profiler().enable();
  try {
    const telemetry::Span failing("failing");
    throw InvalidArgument("scope fails");
  } catch (const InvalidArgument&) {
  }
  { const telemetry::Span next("next"); }
  const auto snap = telemetry::profiler().snapshot();
  telemetry::profiler().disable();
  EXPECT_EQ(snap.count("failing"), 1u);
  EXPECT_EQ(snap.count("next"), 1u);
  EXPECT_EQ(snap.count("failing;next"), 0u);
}

TEST_F(TelemetryTest, SpanElapsedTimesUseTheirUnits) {
  const telemetry::Span span("clock");
  // sleep_for blocks for at least its duration on the steady clock.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(span.elapsed_ms(), 2.0);
  EXPECT_GE(span.elapsed_us(), 2e3);
  EXPECT_GE(span.elapsed_ns(), 2e6);
}

TEST_F(TelemetryTest, FoldedStacksExportSelfTimeMinusChildren) {
  telemetry::profiler().disable();
  telemetry::profiler().enable();
  // 10 ms inclusive under "a", of which 4 ms belongs to the direct child
  // "a;b"; the grandchild must NOT be subtracted from "a" again.
  telemetry::profiler().record("a", 10'000'000);
  telemetry::profiler().record("a;b", 4'000'000);
  telemetry::profiler().record("a;b;c", 1'000'000);
  const std::string folded = telemetry::profiler().folded();
  telemetry::profiler().disable();
  EXPECT_NE(folded.find("a 6000\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("a;b 3000\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("a;b;c 1000\n"), std::string::npos) << folded;
}

TEST_F(TelemetryTest, FoldedClampsOverlappingChildrenAndSkipsZeroSelf) {
  telemetry::profiler().disable();
  telemetry::profiler().enable();
  // Concurrent children can sum past the parent (parallel workers); the
  // parent's self time clamps to zero and its line is elided.
  telemetry::profiler().record("p", 1'000'000);
  telemetry::profiler().record("p;w", 3'000'000);
  const std::string folded = telemetry::profiler().folded();
  telemetry::profiler().disable();
  EXPECT_EQ(folded.find("p "), std::string::npos) << folded;
  EXPECT_NE(folded.find("p;w 3000\n"), std::string::npos) << folded;
}

TEST_F(TelemetryTest, WriteFoldedThrowsOnUnwritablePath) {
  telemetry::profiler().disable();
  EXPECT_THROW(telemetry::profiler().write_folded("/no/such/dir/profile.folded"), IoError);
}

// --- metrics snapshot loading (acclaim report --metrics) --------------------

TEST_F(TelemetryTest, LoadMetricsSnapshotRoundTripsARealSnapshot) {
  telemetry::metrics().counter("load.ok").add(2);
  const std::string path = temp_path("metrics_load.json");
  telemetry::metrics().dump_file(path);
  const util::Json doc = telemetry::load_metrics_snapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(doc.at("counters").at("load.ok").as_int(), 2);
}

TEST_F(TelemetryTest, LoadMetricsSnapshotErrorsAreOneClearLine) {
  // Missing file.
  try {
    telemetry::load_metrics_snapshot(temp_path("no_such_metrics.json"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("metrics file missing or unreadable"), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_metrics.json"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;  // one line
  }

  // Malformed JSON.
  const std::string bad = temp_path("metrics_bad.json");
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "{\"counters\": oops";
  }
  try {
    telemetry::load_metrics_snapshot(bad);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("not valid JSON"), std::string::npos) << e.what();
  }

  // Valid JSON, wrong shape.
  const std::string shape = temp_path("metrics_shape.json");
  {
    std::ofstream out(shape, std::ios::trunc);
    out << "{\"rows\": []}";
  }
  try {
    telemetry::load_metrics_snapshot(shape);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("not a metrics snapshot"), std::string::npos)
        << e.what();
  }
  std::remove(bad.c_str());
  std::remove(shape.c_str());
}

// Regression: the renderers cast counts straight to uint64_t, so a counter
// of -5 printed as 18446744073709551611, 1e300 as 0, and a histogram count
// of -3 as 18446744073709551613.
TEST_F(TelemetryTest, LoadMetricsSnapshotRefusesCountsThatAreNotWholeNumbers) {
  const std::string hist_head = R"({"counters":{},"gauges":{},"histograms":{"h":)";
  const std::vector<std::string> docs = {
      R"({"counters":{"x":-5},"gauges":{},"histograms":{}})",
      R"({"counters":{"x":1e300},"gauges":{},"histograms":{}})",
      R"({"counters":{"x":18446744073709551616},"gauges":{},"histograms":{}})",
      R"({"counters":{"x":0.5},"gauges":{},"histograms":{}})",
      R"({"counters":{"x":"3"},"gauges":{},"histograms":{}})",
      hist_head + R"({"count":-3,"sum":0,"buckets":[]}}})",
      hist_head + R"({"count":2.5,"sum":0,"buckets":[]}}})",
      hist_head + R"({"sum":0,"buckets":[]}}})",
      hist_head + R"({"count":1,"sum":1,"buckets":[{"le":1,"n":-1}]}}})",
      hist_head + R"({"count":1,"sum":1,"buckets":[{"le":1,"n":1e20}]}}})",
      hist_head + R"({"count":1,"sum":1}}})",
  };
  const std::string path = temp_path("metrics_counts.json");
  for (const std::string& doc : docs) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << doc;
    }
    try {
      telemetry::load_metrics_snapshot(path);
      ADD_FAILURE() << doc << " loaded";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
  // The largest counts a snapshot holds still load.
  {
    std::ofstream out(path, std::ios::trunc);
    out << hist_head << R"({"count":18446744073709549568,"sum":0,"buckets":[{"le":1,"n":0}]}}})";
  }
  EXPECT_NO_THROW(telemetry::load_metrics_snapshot(path));
  std::remove(path.c_str());
}

}  // namespace
