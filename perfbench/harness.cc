#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "serve/wire.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace hignn::perfbench {

int64_t NearestRank(int64_t n, double q) {
  if (n <= 0) return 0;
  // ceil(q * n) with a small tolerance so q = 0.5, n = 10 gives rank 5,
  // not 6 from 5.000000000001.
  const double exact = q * static_cast<double>(n);
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t rank = NearestRank(static_cast<int64_t>(samples.size()), q);
  const auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double HighestSupportedPercentile(int64_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n - NearestRank(n, p / 100.0) >= 10) best = p;
  }
  return best;
}

double Samples::Percentile(double q) const {
  return perfbench::Percentile(values_, q);
}

std::string Samples::Describe(const char* unit) const {
  if (values_.empty()) return "n=0";
  const double supported = HighestSupportedPercentile(count());
  std::string line = StrFormat(
      "p50=%.1f%s p90=%.1f%s p99=%.1f%s max=%.1f%s n=%lld", Percentile(0.50),
      unit, Percentile(0.90), unit, Percentile(0.99), unit, Percentile(1.0),
      unit, static_cast<long long>(count()));
  if (supported > 0.0) {
    line += StrFormat(" (p%g=%.1f%s is the highest percentile with >=10 "
                      "samples above it)",
                      supported, Percentile(supported / 100.0), unit);
  } else {
    line += " (too few samples for any percentile to have 10 above it)";
  }
  return line;
}

int64_t CountInWindow(const std::vector<int64_t>& event_us, int64_t start_us,
                      int64_t duration_us) {
  return std::count_if(event_us.begin(), event_us.end(), [&](int64_t at_us) {
    return at_us >= start_us && at_us < start_us + duration_us;
  });
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, int64_t duration_us,
                                     uint64_t seed) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || duration_us <= 0) return due;
  Rng rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  double t = 0.0;
  int64_t last = -1;
  while (true) {
    // Inverse-CDF exponential gap; 1 - U keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_us;
    int64_t at = static_cast<int64_t>(t);
    if (at >= duration_us) break;
    if (at <= last) at = last + 1;  // keep due times strictly increasing
    due.push_back(at);
    last = at;
  }
  return due;
}

std::vector<int64_t> FixedRateSchedule(double rate_per_s,
                                       int64_t duration_us) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0) return due;
  const double gap_us = 1e6 / rate_per_s;
  for (int64_t i = 0;; ++i) {
    const int64_t at = static_cast<int64_t>(static_cast<double>(i) * gap_us);
    if (at >= duration_us) break;
    due.push_back(at);
  }
  return due;
}

bool BacklogGrew(const std::vector<double>& lateness_us, double slack_us) {
  const size_t quarter = lateness_us.size() / 4;
  if (quarter == 0) return false;
  double head = 0.0;
  double tail = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    head += lateness_us[i];
    tail += lateness_us[lateness_us.size() - quarter + i];
  }
  return (tail - head) / static_cast<double>(quarter) > slack_us;
}

OpOutcome ClassifyStatus(const Status& status) {
  if (status.ok()) return OpOutcome::kOk;
  if (IsRecvTimeout(status)) return OpOutcome::kTimeout;
  switch (status.code()) {
    case StatusCode::kFailedPrecondition:  // the client's kOverloaded mapping
      return OpOutcome::kShed;
    case StatusCode::kIOError:
    case StatusCode::kUnavailable:
      return OpOutcome::kIOError;
    default:
      return OpOutcome::kOther;
  }
}

void OpCounts::Record(OpOutcome outcome) {
  ++attempted;
  switch (outcome) {
    case OpOutcome::kOk: ++succeeded; break;
    case OpOutcome::kShed: ++shed; break;
    case OpOutcome::kTimeout: ++timeout; break;
    case OpOutcome::kIOError: ++io_error; break;
    case OpOutcome::kMismatch: ++mismatch; break;
    case OpOutcome::kOther: ++other; break;
  }
}

void OpCounts::Reclassify() {
  --succeeded;
  ++mismatch;
}

void OpCounts::Merge(const OpCounts& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  shed += o.shed;
  timeout += o.timeout;
  io_error += o.io_error;
  mismatch += o.mismatch;
  other += o.other;
}

std::string OpCounts::Describe() const {
  return StrFormat(
      "attempted=%lld succeeded=%lld failed=%lld (shed=%lld timeout=%lld "
      "io_error=%lld mismatch=%lld other=%lld)",
      static_cast<long long>(attempted), static_cast<long long>(succeeded),
      static_cast<long long>(failed()), static_cast<long long>(shed),
      static_cast<long long>(timeout), static_cast<long long>(io_error),
      static_cast<long long>(mismatch), static_cast<long long>(other));
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_p50_us", "us"},
      {"throughput_rps", "1/s"},
      {"quality", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"core.fit_s", "s"},
      {"core.fit_cpu_util", "ratio"},
      {"core.level_self_s", "s"},
      {"sage.step_s", "s"},
      {"sage.step_self_s", "s"},
      {"sage.forward_s", "s"},
      {"sage.backward_s", "s"},
      {"sage.batch_assembly_s", "s"},
      {"sage.embed_all_s", "s"},
      {"sage.steps", "count"},
      {"cluster.kmeans_s", "s"},
      {"cluster.kmeans_calls", "count"},
      {"graph.coarsen_s", "s"},
      {"graph.build_s", "s"},
      {"predict.feature_build_s", "s"},
      {"predict.cvr_train_s", "s"},
      {"serve.store.export_s", "s"},
      {"serve.store.open_ms", "ms"},
      {"serve.server.start_ms", "ms"},
      {"serve.server.first_reply_us", "us"},
      {"serve.server.parse_us.p50", "us"},
      {"serve.server.reply_us.p50", "us"},
      {"serve.batcher.queue_wait_us.p50", "us"},
      {"serve.batcher.queue_wait_us.p99", "us"},
      {"serve.batcher.rows_per_batch", "rows"},
      {"serve.engine.assemble_us.p50", "us"},
      {"serve.engine.forward_us.p50", "us"},
      {"serve.engine.score_batch_us.p50", "us"},
      {"serve.engine.score_batch64_us.p50", "us"},
      {"serve.engine.topk_us.p50", "us"},
      {"serve.index.index_us.p50", "us"},
      {"serve.index.rows_scored_mean", "rows"},
      {"client.sent", "count"},
      {"client.failed", "count"},
      {"client.late_us.p99", "us"},
  };
  return metrics;
}

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), IsNameChar);
}

bool IsValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

Report::Report(bool traced)
    : catalog_(traced ? PerLayerMetrics() : EndToEndMetrics()) {}

void Report::Set(const std::string& name, double value, int64_t base_count) {
  const bool known = std::any_of(
      catalog_.begin(), catalog_.end(),
      [&](const MetricSpec& spec) { return name == spec.name; });
  HIGNN_CHECK(known) << "metric '" << name << "' is not in this run's catalog";
  HIGNN_CHECK(std::isfinite(value)) << "metric '" << name << "' is not finite";
  values_[name] = Entry{value, base_count};
}

std::vector<std::string> Report::Missing() const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : catalog_) {
    if (values_.find(spec.name) == values_.end()) missing.push_back(spec.name);
  }
  return missing;
}

std::string Report::Table() const {
  std::string table;
  for (const MetricSpec& spec : catalog_) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    table += StrFormat("  %-36s %16.6g %-6s (n=%lld)\n", spec.name,
                       it->second.value, spec.unit,
                       static_cast<long long>(it->second.base_count));
  }
  return table;
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed) const {
  std::string metrics;
  for (const MetricSpec& spec : catalog_) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    metrics += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         metrics.empty() ? "" : ", ", spec.name,
                         it->second.value, spec.unit);
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.c_str());
}

std::map<std::string, SpanTotals> AnalyzeSpans(const std::string& trace_json,
                                               int64_t since_us) {
  struct Span {
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int64_t child_us = 0;
  };
  // obs::TraceJson() writes one event object per line with a fixed key
  // order; read name, ts, dur and tid from each.
  std::map<int64_t, std::vector<Span>> by_thread;
  size_t pos = 0;
  while ((pos = trace_json.find("{\"name\": \"", pos)) != std::string::npos) {
    const size_t name_begin = pos + 10;
    const size_t name_end = trace_json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    long long ts = 0;
    long long dur = 0;
    long long tid = 0;
    const size_t ts_at = trace_json.find("\"ts\": ", name_end);
    const size_t dur_at = trace_json.find("\"dur\": ", name_end);
    const size_t tid_at = trace_json.find("\"tid\": ", name_end);
    if (ts_at == std::string::npos || dur_at == std::string::npos ||
        tid_at == std::string::npos ||
        std::sscanf(trace_json.c_str() + ts_at, "\"ts\": %lld", &ts) != 1 ||
        std::sscanf(trace_json.c_str() + dur_at, "\"dur\": %lld", &dur) != 1 ||
        std::sscanf(trace_json.c_str() + tid_at, "\"tid\": %lld", &tid) != 1) {
      break;
    }
    pos = name_end;
    if (ts < since_us) continue;
    by_thread[tid].push_back(
        Span{trace_json.substr(name_begin, name_end - name_begin), ts,
             ts + dur, 0});
  }

  std::map<std::string, SpanTotals> totals;
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before the children they contain: earlier start first,
    // and on a shared start the longer span first.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<size_t> open;  // indices of the enclosing spans
    for (size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end < spans[i].end) {
        open.pop_back();
      }
      if (!open.empty()) {
        spans[open.back()].child_us += spans[i].end - spans[i].start;
      }
      open.push_back(i);
    }
    for (const Span& span : spans) {
      SpanTotals& t = totals[span.name];
      const double duration = static_cast<double>(span.end - span.start);
      ++t.count;
      t.total_us += duration;
      t.self_us += duration - static_cast<double>(span.child_us);
    }
  }
  return totals;
}

Status ResetPeakRss() {
  // /proc/self/clear_refs is a kernel control file, not an artifact: the
  // atomic tmp+rename writer cannot target it, and a torn write is
  // impossible for a one-byte command.
  // hignn-lint: allow(raw-write) kernel control file, see above
  std::ofstream control("/proc/self/clear_refs");
  control << "5";
  control.close();
  if (!control) return Status::IOError("cannot reset /proc/self/clear_refs");
  return Status::OK();
}

Result<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const double kib = std::atof(line.c_str() + 6);
    if (kib > 0.0) return kib / 1024.0;
  }
  return Status::IOError("VmHWM not found in /proc/self/status");
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Status CheckMeasurementBuild() {
#ifndef NDEBUG
  return Status::FailedPrecondition(
      "perfbench was built without NDEBUG; refusing to report timings "
      "from a debug build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return Status::FailedPrecondition(
      "perfbench was built with a sanitizer; refusing to report timings");
#endif
  return Status::OK();
}

std::string ProvenanceJson(const std::string& run_fields) {
  std::string host = bench::JsonHostFields();  // "  \"host\": {...},\n"
  while (!host.empty() && (host.back() == '\n' || host.back() == ',')) {
    host.pop_back();
  }
  const size_t start = host.find_first_not_of(' ');
  host = start == std::string::npos ? "" : host.substr(start);
  return StrFormat("{%s, \"build\": {\"ndebug\": true, \"compiler\": \"%s\"}, "
                   "%s}",
                   host.c_str(), __VERSION__, run_fields.c_str());
}

}  // namespace hignn::perfbench
