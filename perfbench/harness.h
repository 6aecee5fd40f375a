#ifndef HIGNN_PERFBENCH_HARNESS_H_
#define HIGNN_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the perfbench workloads: exact order
// statistics, the open-loop arrival schedule, operation accounting, the
// metric catalog, and the one-line JSON result the benchmark prints last.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace hignn::perfbench {

// ---------------------------------------------------------------------------
// Exact order statistics. Every percentile the benchmark reports is the
// nearest-rank order statistic of the raw samples: the ceil(q * n)-th
// smallest value. Nothing is interpolated and nothing is bucketed.
// ---------------------------------------------------------------------------

/// \brief Nearest-rank percentile of `samples`, q in (0, 1]. Sorts a copy.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

/// \brief 1-based rank of the q-quantile among n samples (ceil(q * n),
/// clamped to [1, n]).
int64_t NearestRank(int64_t n, double q);

/// \brief The highest percentile of {50, 90, 99, 99.9, 99.99} that has at
/// least ten samples above its order statistic; 0 when even the median
/// does not (n < 20).
double HighestSupportedPercentile(int64_t n);

/// \brief Raw samples of one quantity plus their summary line.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  int64_t count() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }
  double Percentile(double q) const;
  const std::vector<double>& values() const { return values_; }

  /// \brief "p50=.. p99=.. max=.. n=.. (highest supported p..)".
  std::string Describe(const char* unit) const;

 private:
  std::vector<double> values_;
};

/// \brief Number of events in [start_us, start_us + duration_us).
int64_t CountInWindow(const std::vector<int64_t>& event_us, int64_t start_us,
                      int64_t duration_us);

// ---------------------------------------------------------------------------
// Open-loop arrivals.
// ---------------------------------------------------------------------------

/// \brief Poisson arrival times (µs offsets from the phase start, strictly
/// increasing, all < duration_us) at `rate_per_s`, drawn from `seed`.
std::vector<int64_t> PoissonSchedule(double rate_per_s, int64_t duration_us,
                                     uint64_t seed);

/// \brief Evenly spaced arrival times (µs offsets, all < duration_us) at
/// `rate_per_s`, the first at 0.
std::vector<int64_t> FixedRateSchedule(double rate_per_s, int64_t duration_us);

/// \brief True when the generator fell progressively behind its schedule:
/// the mean lateness of the last quarter of arrivals exceeds that of the
/// first quarter by more than `slack_us`. Lateness is taken in due order.
/// A rate past saturation grows a backlog and trips this; a transient
/// stall that recovers does not.
bool BacklogGrew(const std::vector<double>& lateness_us, double slack_us);

// ---------------------------------------------------------------------------
// Operation accounting.
// ---------------------------------------------------------------------------

/// \brief Outcome of one attempted operation.
enum class OpOutcome {
  kOk,
  kShed,      ///< server answered kOverloaded
  kTimeout,   ///< socket receive timeout
  kIOError,   ///< protocol violation / transport error
  kMismatch,  ///< answered, but the answer failed a correctness check
  kOther,
};

/// \brief Maps a client Status to the failure cause it represents.
OpOutcome ClassifyStatus(const Status& status);

/// \brief Attempted / succeeded / failed-by-cause tallies of one phase.
struct OpCounts {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t shed = 0;
  int64_t timeout = 0;
  int64_t io_error = 0;
  int64_t mismatch = 0;
  int64_t other = 0;

  void Record(OpOutcome outcome);
  /// \brief Moves one success to the mismatch column (a reply that a
  /// later correctness check rejected).
  void Reclassify();
  int64_t failed() const {
    return shed + timeout + io_error + mismatch + other;
  }
  void Merge(const OpCounts& other_counts);
  std::string Describe() const;
};

// ---------------------------------------------------------------------------
// Metric catalog and the result line.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// \brief Metrics every untraced run reports (BENCHMARK.json end_to_end).
const std::vector<MetricSpec>& EndToEndMetrics();

/// \brief Metrics every traced run reports (BENCHMARK.json per_layer).
const std::vector<MetricSpec>& PerLayerMetrics();

/// \brief Name grammar of BENCHMARK.json metric names: starts with a letter or
/// digit, at most 64 of [A-Za-z0-9_.-].
bool IsValidMetricName(const std::string& name);

/// \brief Unit grammar: 1..16 of [A-Za-z0-9_/%.-].
bool IsValidUnit(const std::string& unit);

/// \brief Collects one run's metric values, each with the number of raw
/// samples behind it, and renders the human table and the JSON line.
class Report {
 public:
  explicit Report(bool traced);

  /// \brief Records `name` (must be in this run's catalog) with the
  /// count of samples it was computed from (0 = layer not exercised).
  void Set(const std::string& name, double value, int64_t base_count);

  /// \brief Names in the catalog that were never Set.
  std::vector<std::string> Missing() const;

  /// \brief Human-readable "name value unit (n=..)" table.
  std::string Table() const;

  /// \brief The result line perfbench prints last: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;

 private:
  struct Entry {
    double value = 0.0;
    int64_t base_count = 0;
  };
  const std::vector<MetricSpec>& catalog_;
  std::map<std::string, Entry> values_;
};

// ---------------------------------------------------------------------------
// Span analysis over the program's existing Chrome-trace export.
// ---------------------------------------------------------------------------

/// \brief Totals of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus the time its child spans cover
};

/// \brief Parses obs::TraceJson() output, keeps the spans that started at
/// or after `since_us`, and totals them by name. A span's children are
/// the spans on the same thread whose interval lies inside it; its self
/// time is its duration minus its direct children's durations.
std::map<std::string, SpanTotals> AnalyzeSpans(const std::string& trace_json,
                                               int64_t since_us);

// ---------------------------------------------------------------------------
// Process probes and provenance.
// ---------------------------------------------------------------------------

/// \brief Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
Status ResetPeakRss();

/// \brief VmHWM of this process in MiB.
Result<double> PeakRssMb();

/// \brief User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// \brief Error unless this binary was built optimized (NDEBUG) and
/// without a sanitizer the compiler announces.
Status CheckMeasurementBuild();

/// \brief One JSON object of provenance: host (bench::JsonHostFields),
/// build, and the caller's run fields (already-rendered `"k": v` pairs).
std::string ProvenanceJson(const std::string& run_fields);

}  // namespace hignn::perfbench

#endif  // HIGNN_PERFBENCH_HARNESS_H_
