// perfbench: the repository benchmark. One run measures one workload:
//
//   perfbench --workload <train_pipeline|score_stream|topk_stream>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics (see harness.cc for both catalogs). Human-readable detail goes
// first; the last line of stdout is the JSON result. Exit status: 0 when
// every correctness check passed, 1 when one failed (the result line
// still prints, with "correct": false), 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "util/io.h"
#include "util/string_util.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_pipeline|score_stream|"
               "topk_stream> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
  return 2;
}

bool ParseInt(const char* text, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hignn;
  using namespace hignn::perfbench;

  RunOptions options;
  long long trace = -1;
  long long seed = -1;
  long long seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      ok = ParseInt(value, &seed) && seed >= 0;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      ok = ParseInt(value, &seconds) && seconds >= 1 && seconds <= 3600;
    } else if (std::strcmp(flag, "--trace") == 0) {
      ok = ParseInt(value, &trace) && (trace == 0 || trace == 1);
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty() ||
      seed < 0 || seconds < 0 || trace < 0) {
    return Usage();
  }
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = static_cast<int32_t>(seconds);
  options.trace = trace == 1;

  if (Status status = CheckMeasurementBuild(); !status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 2;
  }

  Report report(options.trace);
  RunOutcome outcome;
  Status status;
  if (options.workload == "train_pipeline") {
    status = RunTrainPipeline(options, &report, &outcome);
  } else if (options.workload == "score_stream") {
    status = RunServeStream(options, /*topk=*/false, &report, &outcome);
  } else if (options.workload == "topk_stream") {
    status = RunServeStream(options, /*topk=*/true, &report, &outcome);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 2;
  }

  // A traced run reports every layer; layers this workload does not
  // exercise read 0 with a base count of 0. An untraced run must have
  // measured every end-to-end metric itself.
  for (const std::string& name : report.Missing()) {
    if (!options.trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                   name.c_str());
      return 2;
    }
    report.Set(name, 0.0, 0);
  }

  const std::string provenance_path =
      StrFormat("%s/%s-seed%lld-trace%d.json", options.work_dir.c_str(),
                options.workload.c_str(), seed, options.trace ? 1 : 0);
  if (Status write = AtomicWriteTextFile(provenance_path,
                                         outcome.provenance + "\n");
      !write.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", write.ToString().c_str());
    return 2;
  }
  std::printf("provenance: %s\n", outcome.provenance.c_str());
  std::printf("operations: %s\n", outcome.ops.Describe().c_str());
  for (const std::string& failure : outcome.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s metrics (%s):\n%s", options.workload.c_str(),
              options.trace ? "per-layer, traced run" : "end-to-end",
              report.Table().c_str());
  std::printf("%s\n", report.ResultLine(outcome.correct(),
                                        outcome.ops.attempted,
                                        outcome.ops.failed())
                          .c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}
