// train_pipeline: the `hignn export-store` path at a size where both the
// SAGE steps and the quadratic Lloyd k-means (k = n / alpha) take a
// material share of Fit. Each repetition runs the whole pipeline from the
// built graph to the store file on disk; the repetitions also prove the
// pipeline deterministic (equal AUC and store digest at one seed).

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/hignn.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "predict/cvr_model.h"
#include "predict/features.h"
#include "serve/embedding_store.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/string_util.h"
#include "workloads.h"

namespace hignn::perfbench {
namespace {

// Size: at 5000 x 2500 (~100k edges) with 20 SAGE steps per level, Lloyd
// k-means (quadratic at alpha = 5) takes ~40% of a one-thread pipeline,
// and the SAGE steps and the CVR head about a quarter each, so a change
// to any of them moves wall time, and a run repeats the pipeline often
// enough for a stable median.
constexpr int32_t kUsers = 5000;
constexpr int32_t kItems = 2500;
constexpr int32_t kSageSteps = 20;
constexpr int32_t kGraphBuildReps = 21;

// Fit runs on one thread. On a shared 4-vCPU host, Fit at 4 threads was
// only 1.4x faster than at 1 (1.9 s vs 2.65 s per pipeline), but every
// parallel region waits for its slowest worker, so a vCPU taken by a
// neighbour stalls the whole region: two busy neighbour processes slowed
// the 4-thread pipeline by 50% and the 1-thread one not at all, and two
// 10-run sets of the 4-thread pipeline spread by 26% and 35% (IQR over
// median). Multi-core scaling is measured by bench/parallel_scaling.
constexpr int32_t kFitThreads = 1;

// The click log is the taobao1 preset's own (seed 101) for every run, as
// `hignn gen-data --preset taobao1` writes it; the run seed drives Fit,
// sample replication and the CVR head. A per-seed click log moved the
// test-day AUC by several percent between seeds, which is data variance,
// not a property of the code under test.
constexpr uint64_t kClickLogSeed = 101;

/// One pipeline repetition's outputs and per-call timings.
struct PipelineRun {
  double wall_s = 0.0;  ///< graph + features -> store file on disk
  double fit_s = 0.0;
  double fit_cpu_s = 0.0;
  double feature_build_s = 0.0;
  double cvr_train_s = 0.0;
  double export_s = 0.0;
  double auc = 0.0;
  uint32_t store_digest = 0;
  int64_t started_us = 0;  ///< obs::NowMicros() when the pipeline began
};

Result<uint32_t> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return Crc32(bytes.data(), bytes.size());
}

Result<PipelineRun> RunPipeline(const SyntheticDataset& dataset,
                                const BipartiteGraph& graph, uint64_t seed,
                                int32_t threads,
                                const std::string& store_path) {
  PipelineRun run;
  run.started_us = obs::NowMicros();
  obs::Stopwatch wall;

  HignnConfig config;  // paper defaults: L = 3, d = 32, alpha = 5, Lloyd
  config.sage.train_steps = kSageSteps;
  config.num_threads = threads;
  config.seed = seed;
  obs::Stopwatch stage;
  const double cpu_before = ProcessCpuSeconds();
  HIGNN_ASSIGN_OR_RETURN(
      HignnModel model,
      Hignn::Fit(graph, dataset.user_features(), dataset.item_features(),
                 config));
  run.fit_s = stage.Seconds();
  run.fit_cpu_s = ProcessCpuSeconds() - cpu_before;

  stage.Restart();
  const FeatureSpec spec = FeatureSpec::HiGnn(model.num_levels());
  HIGNN_ASSIGN_OR_RETURN(CvrFeatureBuilder features,
                         CvrFeatureBuilder::Create(&dataset, &model, spec));
  const SampleSet samples =
      BuildSamples(dataset, /*replicate_positives=*/true, seed);
  run.feature_build_s = stage.Seconds();

  // The export-store CVR head: hidden {32, 16}, batch 256, two epochs.
  stage.Restart();
  CvrModelConfig cvr_config;
  cvr_config.hidden = {32, 16};
  cvr_config.batch_size = 256;
  cvr_config.epochs = 2;
  cvr_config.seed = seed;
  HIGNN_ASSIGN_OR_RETURN(CvrModel cvr,
                         CvrModel::Create(features.dim(), cvr_config));
  HIGNN_RETURN_IF_ERROR(cvr.Train(features, samples.train).status());
  run.cvr_train_s = stage.Seconds();

  stage.Restart();
  HIGNN_RETURN_IF_ERROR(
      ExportEmbeddingStore(model, dataset, spec, cvr, store_path));
  run.export_s = stage.Seconds();
  run.wall_s = wall.Seconds();

  // Outside the timed pipeline: quality on the held-out test day and the
  // digest the determinism check compares.
  HIGNN_ASSIGN_OR_RETURN(run.auc, cvr.EvaluateAuc(features, samples.test));
  HIGNN_ASSIGN_OR_RETURN(run.store_digest, FileDigest(store_path));
  return run;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// Per-layer attribution of the traced repetitions: the benchmark's own
// timers around each public call, plus Fit's existing trace spans.
void ReportLayers(const std::vector<PipelineRun>& traced,
                  const std::vector<std::map<std::string, SpanTotals>>& spans,
                  double graph_build_s, int32_t threads, Report* report) {
  const auto median_of = [&](auto get) {
    std::vector<double> values;
    for (size_t i = 0; i < traced.size(); ++i) values.push_back(get(i));
    return Median(values);
  };
  const auto n = static_cast<int64_t>(traced.size());
  const auto span = [&](size_t i, const char* name) {
    const auto it = spans[i].find(name);
    return it == spans[i].end() ? SpanTotals{} : it->second;
  };
  const auto kmeans = [&](size_t i) {
    SpanTotals sum;
    for (const char* name :
         {"kmeans.lloyd", "kmeans.minibatch", "kmeans.single_pass"}) {
      const SpanTotals t = span(i, name);
      sum.count += t.count;
      sum.total_us += t.total_us;
    }
    return sum;
  };

  report->Set("core.fit_s",
              median_of([&](size_t i) { return traced[i].fit_s; }), n);
  report->Set("core.fit_cpu_util", median_of([&](size_t i) {
                return traced[i].fit_cpu_s / (traced[i].fit_s * threads);
              }),
              n);
  report->Set("core.level_self_s", median_of([&](size_t i) {
                return span(i, "fit.level").self_us * 1e-6;
              }),
              span(0, "fit.level").count);
  report->Set("sage.step_s", median_of([&](size_t i) {
                return span(i, "fit.step").total_us * 1e-6;
              }),
              span(0, "fit.step").count);
  report->Set("sage.step_self_s", median_of([&](size_t i) {
                return span(i, "fit.step").self_us * 1e-6;
              }),
              span(0, "fit.step").count);
  const std::pair<const char*, const char*> sage_spans[] = {
      {"sage.forward_s", "sage.forward"},
      {"sage.backward_s", "sage.backward"},
      {"sage.batch_assembly_s", "sage.batch_assembly"},
      {"sage.embed_all_s", "sage.embed_all"},
      {"graph.coarsen_s", "coarsen"},
  };
  for (const auto& [metric, name] : sage_spans) {
    report->Set(metric, median_of([&, name = name](size_t i) {
                  return span(i, name).total_us * 1e-6;
                }),
                span(0, name).count);
  }
  report->Set("sage.steps", static_cast<double>(span(0, "fit.step").count),
              span(0, "fit.step").count);
  report->Set("cluster.kmeans_s",
              median_of([&](size_t i) { return kmeans(i).total_us * 1e-6; }),
              kmeans(0).count);
  report->Set("cluster.kmeans_calls", static_cast<double>(kmeans(0).count),
              kmeans(0).count);
  report->Set("graph.build_s", graph_build_s, kGraphBuildReps);
  report->Set("predict.feature_build_s", median_of([&](size_t i) {
                return traced[i].feature_build_s;
              }),
              n);
  report->Set("predict.cvr_train_s",
              median_of([&](size_t i) { return traced[i].cvr_train_s; }), n);
  report->Set("serve.store.export_s",
              median_of([&](size_t i) { return traced[i].export_s; }), n);
}

}  // namespace

Status RunTrainPipeline(const RunOptions& options, Report* report,
                        RunOutcome* outcome) {
  const int32_t threads = kFitThreads;

  // Input generation (not measured): the taobao1-shaped click log.
  SyntheticConfig data_config = SyntheticConfig::Taobao1();
  data_config.num_users = kUsers;
  data_config.num_items = kItems;
  data_config.seed = kClickLogSeed;
  HIGNN_ASSIGN_OR_RETURN(SyntheticDataset dataset,
                         SyntheticDataset::Generate(data_config));
  HIGNN_RETURN_IF_ERROR(ResetPeakRss());

  // Set-up: building the click graph, median of several builds.
  std::vector<double> build_s;
  BipartiteGraph graph;
  for (int32_t rep = 0; rep < kGraphBuildReps; ++rep) {
    obs::Stopwatch timer;
    graph = dataset.BuildTrainGraph();
    build_s.push_back(timer.Seconds());
  }
  const double setup_s = Median(build_s);
  std::printf("train_pipeline: %d users x %d items, %lld edges, %d threads, "
              "%d SAGE steps/level\n",
              graph.num_left(), graph.num_right(),
              static_cast<long long>(graph.num_edges()), threads, kSageSteps);

  // Repetitions until the time budget is spent (at least two: the
  // determinism check compares them). The traced run alternates untraced
  // and traced repetitions so both see the same machine state.
  std::vector<PipelineRun> untraced;
  std::vector<PipelineRun> traced;
  std::vector<std::map<std::string, SpanTotals>> traced_spans;
  obs::Stopwatch budget;
  for (int32_t rep = 0;; ++rep) {
    const bool is_traced = options.trace && rep % 2 == 1;
    const std::string store_path =
        StrFormat("%s/train_pipeline-%d.hgnnstore", options.work_dir.c_str(),
                  rep % 2);
    HIGNN_ASSIGN_OR_RETURN(
        PipelineRun run,
        RunPipeline(dataset, graph, options.seed, threads, store_path));
    outcome->ops.Record(OpOutcome::kOk);
    std::printf("  rep %d%s: wall %.3fs (fit %.3fs, features %.3fs, cvr "
                "%.3fs, export %.3fs) auc %.6f digest %08x\n",
                rep, is_traced ? " [traced]" : "", run.wall_s, run.fit_s,
                run.feature_build_s, run.cvr_train_s, run.export_s, run.auc,
                run.store_digest);
    if (is_traced) {
      traced_spans.push_back(
          AnalyzeSpans(obs::TraceJson(), run.started_us));
      traced.push_back(run);
    } else {
      untraced.push_back(run);
    }
    const double mean_rep = budget.Seconds() / (rep + 1);
    const size_t min_untraced = options.trace ? 1 : 2;
    const bool have_enough = untraced.size() >= min_untraced &&
                             (!options.trace || !traced.empty());
    if (have_enough && budget.Seconds() + mean_rep > options.seconds) break;
  }
  Result<double> peak_rss = PeakRssMb();
  HIGNN_RETURN_IF_ERROR(peak_rss.status());

  // Correctness: every repetition at this seed must produce the same
  // store bytes and the same AUC.
  std::vector<PipelineRun> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].store_digest != all[0].store_digest) {
      outcome->ops.Reclassify();
      outcome->check_failures.push_back(StrFormat(
          "store digest %08x differs from the first repetition's %08x",
          all[i].store_digest, all[0].store_digest));
    } else if (all[i].auc != all[0].auc) {
      outcome->ops.Reclassify();
      outcome->check_failures.push_back(
          StrFormat("auc %.17g differs from the first repetition's %.17g",
                    all[i].auc, all[0].auc));
    }
  }

  Samples walls_us;
  for (const PipelineRun& run : untraced) walls_us.Add(run.wall_s * 1e6);
  std::printf("  pipeline wall_s: %s\n", walls_us.Describe("us").c_str());
  std::printf("  auc (held-out test day): %.6f\n", all[0].auc);
  std::printf("  setup (graph build) median %.6fs over %d builds\n", setup_s,
              kGraphBuildReps);

  if (options.trace) {
    std::vector<double> traced_wall;
    for (const PipelineRun& run : traced) traced_wall.push_back(run.wall_s);
    const double traced_median = Median(traced_wall);
    const double untraced_median = walls_us.Percentile(0.5) * 1e-6;
    std::printf("  tracing overhead: wall_s traced %.3f - untraced %.3f = "
                "%+.3fs (%+.1f%%)\n",
                traced_median, untraced_median,
                traced_median - untraced_median,
                100.0 * (traced_median / untraced_median - 1.0));
    std::printf("  spans of the last traced repetition (total / self):\n");
    for (const auto& [name, totals] : traced_spans.back()) {
      std::printf("    %-22s n=%-6lld total %10.4fs self %10.4fs\n",
                  name.c_str(), static_cast<long long>(totals.count),
                  totals.total_us * 1e-6, totals.self_us * 1e-6);
    }
    HIGNN_RETURN_IF_ERROR(obs::WriteTraceJson(
        options.work_dir + "/train_pipeline-trace.json"));
    ReportLayers(traced, traced_spans, setup_s, threads, report);
  } else {
    report->Set("setup_s", setup_s, kGraphBuildReps);
    report->Set("peak_rss_mb", peak_rss.value(), 1);
    report->Set("latency_p50_us", walls_us.Percentile(0.50), walls_us.count());
    // Pipelines run back to back, so throughput is the inverse of the
    // median pipeline; a mean would let one repetition that met a host
    // stall move the whole run.
    report->Set("throughput_rps", 1e6 / walls_us.Percentile(0.50),
                walls_us.count());
    report->Set("quality", all[0].auc, 1);
  }
  outcome->provenance = ProvenanceJson(StrFormat(
      "\"workload\": \"train_pipeline\", \"seed\": %llu, \"threads\": %d, "
      "\"users\": %d, \"items\": %d, \"edges\": %lld, \"sage_steps\": %d, "
      "\"repetitions\": %zu",
      static_cast<unsigned long long>(options.seed), threads, kUsers, kItems,
      static_cast<long long>(graph.num_edges()), kSageSteps, all.size()));
  return Status::OK();
}

}  // namespace hignn::perfbench
