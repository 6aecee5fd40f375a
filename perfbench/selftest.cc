// Self-test of the benchmark's own logic: order statistics, the open-loop
// schedule, the backlog guard, span self-time, and the metric catalog.
// perfbench/run.py runs it before every measurement; exit 0 = all passed.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "util/status.h"

namespace hignn::perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "selftest: line %d: expected %s\n", line, what);
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestOrderStatistics() {
  // Nearest rank: ceil(q * n)-th smallest, never interpolated.
  EXPECT(NearestRank(10, 0.5) == 5);
  EXPECT(NearestRank(10, 0.99) == 10);
  EXPECT(NearestRank(1000, 0.99) == 990);
  EXPECT(NearestRank(3, 0.01) == 1);
  EXPECT(Percentile({}, 0.5) == 0.0);
  EXPECT(Percentile({7.0}, 0.99) == 7.0);
  EXPECT(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.99) == 99.0);
  EXPECT(Percentile(hundred, 1.0) == 100.0);
  // The value is always one of the samples (no bucket bounds).
  EXPECT(Percentile({1.5, 1000.25, 3.75}, 0.5) == 3.75);

  // At least ten samples strictly above the reported order statistic.
  EXPECT(HighestSupportedPercentile(19) == 0.0);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(100) == 90.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);

  // Window counts: the window is half-open, so the event at 3000 is out,
  // and so is the one before the start.
  EXPECT(CountInWindow({0, 10, 20, 1500, 2100, 3000}, 10, 2990) == 4);
  EXPECT(CountInWindow({}, 0, 1000) == 0);

  Samples samples;
  for (int i = 1; i <= 1000; ++i) samples.Add(i);
  EXPECT(samples.Percentile(0.5) == 500.0);
  EXPECT(samples.Percentile(0.99) == 990.0);
}

void TestSchedule() {
  const std::vector<int64_t> a = PoissonSchedule(1000.0, 10'000'000, 42);
  const std::vector<int64_t> b = PoissonSchedule(1000.0, 10'000'000, 42);
  const std::vector<int64_t> c = PoissonSchedule(1000.0, 10'000'000, 43);
  EXPECT(a == b);  // same seed, same inputs
  EXPECT(a != c);
  // 10000 expected arrivals; a Poisson count is within 5 sigma (500).
  EXPECT(a.size() > 9500 && a.size() < 10500);
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  EXPECT(increasing);
  EXPECT(!a.empty() && a.front() >= 0 && a.back() < 10'000'000);
  // Exponential gaps: about 63% of gaps are shorter than the mean gap.
  int64_t short_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) short_gaps += a[i] - a[i - 1] < 1000;
  const double share = static_cast<double>(short_gaps) / (a.size() - 1);
  EXPECT(std::fabs(share - (1.0 - std::exp(-1.0))) < 0.03);
  EXPECT(PoissonSchedule(0.0, 1000, 1).empty());
  const std::vector<int64_t> fixed = FixedRateSchedule(400.0, 10'000);
  EXPECT((fixed == std::vector<int64_t>{0, 2500, 5000, 7500}));
  EXPECT(FixedRateSchedule(0.0, 1000).empty());

  // Backlog: steady lateness passes, lateness that keeps growing fails.
  std::vector<double> steady(400, 80.0);
  steady[200] = 50000.0;  // one stall that recovers
  EXPECT(!BacklogGrew(steady, 5000.0));
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(100.0 * i);
  EXPECT(BacklogGrew(growing, 5000.0));
  EXPECT(!BacklogGrew({}, 5000.0));
}

void TestOutcomes() {
  OpCounts counts;
  counts.Record(OpOutcome::kOk);
  counts.Record(OpOutcome::kOk);
  counts.Record(OpOutcome::kShed);
  counts.Record(ClassifyStatus(Status::IOError("bad frame")));
  counts.Reclassify();
  EXPECT(counts.attempted == 4);
  EXPECT(counts.succeeded == 1);
  EXPECT(counts.mismatch == 1 && counts.shed == 1 && counts.io_error == 1);
  EXPECT(counts.failed() == 3);
  EXPECT(ClassifyStatus(Status::FailedPrecondition("overloaded")) ==
         OpOutcome::kShed);
  EXPECT(ClassifyStatus(Status::OK()) == OpOutcome::kOk);
}

void TestSpans() {
  // Thread 1: fit [0, 100) holds step [10, 40) which holds forward
  // [12, 20); a sibling step [40, 90). Thread 2's span is separate.
  const std::string trace =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"forward\", \"cat\": \"hignn\", \"ph\": \"X\", "
      "\"ts\": 12, \"dur\": 8, \"pid\": 1, \"tid\": 1, \"args\": {}},\n"
      "  {\"name\": \"step\", \"cat\": \"hignn\", \"ph\": \"X\", \"ts\": 10, "
      "\"dur\": 30, \"pid\": 1, \"tid\": 1, \"args\": {\"step\": 0}},\n"
      "  {\"name\": \"step\", \"cat\": \"hignn\", \"ph\": \"X\", \"ts\": 40, "
      "\"dur\": 50, \"pid\": 1, \"tid\": 1, \"args\": {\"step\": 1}},\n"
      "  {\"name\": \"fit\", \"cat\": \"hignn\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 100, \"pid\": 1, \"tid\": 1, \"args\": {}},\n"
      "  {\"name\": \"step\", \"cat\": \"hignn\", \"ph\": \"X\", \"ts\": 5, "
      "\"dur\": 20, \"pid\": 1, \"tid\": 2, \"args\": {}}\n"
      "], \"displayTimeUnit\": \"ms\", \"dropped_events\": 0}\n";
  const auto spans = AnalyzeSpans(trace, 0);
  EXPECT(spans.at("fit").count == 1);
  EXPECT(spans.at("fit").self_us == 20.0);  // 100 - 30 - 50
  EXPECT(spans.at("step").count == 3);
  EXPECT(spans.at("step").total_us == 100.0);
  EXPECT(spans.at("step").self_us == 92.0);  // 30 - 8 + 50 + 20
  EXPECT(spans.at("forward").self_us == 8.0);
  const auto late = AnalyzeSpans(trace, 10);
  EXPECT(late.count("fit") == 0);
  EXPECT(late.at("step").count == 2);
}

void TestCatalog() {
  for (const auto* catalog : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    std::set<std::string> seen;
    for (const MetricSpec& spec : *catalog) {
      EXPECT(IsValidMetricName(spec.name));
      EXPECT(IsValidUnit(spec.unit));
      EXPECT(seen.insert(spec.name).second);
    }
  }
  EXPECT(EndToEndMetrics().front().name == std::string("setup_s"));
  EXPECT(!IsValidMetricName("_leading_underscore"));
  EXPECT(!IsValidMetricName(std::string(65, 'a')));
  EXPECT(!IsValidMetricName("has space"));
  EXPECT(IsValidMetricName("serve.engine.forward_us.p50"));
  EXPECT(IsValidUnit("1/s") && IsValidUnit("%") && !IsValidUnit(""));

  Report report(/*traced=*/false);
  EXPECT(report.Missing().size() == EndToEndMetrics().size());
  for (const MetricSpec& spec : EndToEndMetrics()) {
    report.Set(spec.name, 1.5, 3);
  }
  EXPECT(report.Missing().empty());
  const std::string line = report.ResultLine(true, 4, 0);
  EXPECT(line.rfind("{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
                    "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": "
                    "\"s\"}",
                    0) == 0);
  EXPECT(line.back() == '}');
}

}  // namespace
}  // namespace hignn::perfbench

int main() {
  using namespace hignn::perfbench;
  TestOrderStatistics();
  TestSchedule();
  TestOutcomes();
  TestSpans();
  TestCatalog();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}
