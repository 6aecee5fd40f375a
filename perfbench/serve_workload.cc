// score_stream / topk_stream: the online stack (StoreManager ->
// ScoringServer -> MicroBatcher / cluster-tree index -> PredictionEngine)
// in this process, driven over loopback TCP by a few blocking clients,
// one generator thread and one server handler each.
//
// Each measured pass is an open-loop phase (Poisson arrivals at a fixed
// rate below saturation; latency timed from each request's due time, so
// a stall is charged to every request it delays) followed by a
// closed-loop phase (every connection sends its next request as soon as
// the previous reply arrives). The catalog is the 20000 x 100000 planted
// world: ~100k item rows of a few hundred bytes overflow the CPU caches
// during row assembly.
//
// Not covered here: idle connections starving the handler pool. That is a
// robustness property, not a throughput workload, and belongs to the
// serving chaos tests; this benchmark only guards that each of its own
// load connections gets a handler (see RunPhase).

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/planted.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/embedding_store.h"
#include "serve/engine.h"
#include "serve/request_context.h"
#include "serve/request_id.h"
#include "serve/serve_metrics.h"
#include "serve/server.h"
#include "serve/store_manager.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace hignn::perfbench {
namespace {

constexpr int32_t kUsers = 20000;
constexpr int32_t kItems = 100000;
constexpr uint64_t kCatalogSeed = 7;
constexpr int32_t kPairsPerRequest = 8;
constexpr int32_t kTopK = 10;
constexpr int32_t kSetupReps = 5;
constexpr size_t kPoolSize = 1 << 16;
constexpr int32_t kQualityUsers = 256;
constexpr int32_t kRecallUsers = 12;
constexpr int32_t kReplays = 512;
constexpr int64_t kBarrierTimeoutUs = 5'000'000;

/// Load shape of one serving workload.
struct StreamProfile {
  int32_t connections;  ///< = generator threads = server handlers
  double rate_per_s;    ///< open-loop offered rate
  bool poisson;         ///< Poisson arrivals; false = evenly spaced
  int64_t spin_us;      ///< generator busy-waits this long before a send
};

// kScore: independent users, so Poisson arrivals, over four connections
// that the batcher coalesces; 700/s is about a quarter of its closed-loop
// throughput on a 4-core host.
//
// kTopK: one connection, because concurrent top-k requests serialize on
// the engine's model mutex and the wake-ups that contention adds made
// throughput swing by 20% between identical runs on a virtualized host.
// On one connection Poisson arrivals make an M/D/1 queue whose tail is
// mostly queueing, which amplified the host's +-20% speed swings into
// +-60% latency swings. Evenly spaced arrivals at 200/s (about a quarter
// of the closed-loop throughput, so even a host running 40% slow keeps
// up) measure the request itself at a fixed rate. Its generator
// busy-waits the whole gap between requests: with a short spin the idle
// vCPUs were parked between requests and the open-loop p50 swung by 2x
// between identical runs. One spinning thread leaves three cores to the
// server.
constexpr StreamProfile kScoreProfile{4, 700.0, true, 300};
constexpr StreamProfile kTopKProfile{1, 200.0, false, 5000};

// The measured budget runs as kCycles cycles of an open-loop phase
// (kOpenLoopShare of the cycle) followed by a closed-loop phase. Each
// closed-loop phase runs on fresh client threads, and on a virtualized
// host one top-k phase ran at ~800/s and the next at ~1050/s, depending
// on where the scheduler put the client and the handler. Throughput is
// therefore all closed-loop completions over all closed-loop time, taken
// over many short phases: with 3 cycles and the median of 1 s windows,
// the median jumped between the two modes and spread by 25% between
// identical runs; with 10 cycles and the pooled rate it spread by ~5%.
constexpr int32_t kCycles = 10;
constexpr double kOpenLoopShare = 0.7;

// Backlog guard: mean lateness of the open loop's last quarter may exceed
// its first quarter's by at most this much before the run is refused as
// offered past saturation.
constexpr double kBacklogSlackUs = 5000.0;

// Wire top-k answers are checked against the in-process engine for every
// kTopKCheckStride-th request (the check re-runs each beam search).
constexpr size_t kTopKCheckStride = 8;

/// Everything the generator derives from the seed before measurement.
struct Inputs {
  bool topk = false;
  StreamProfile profile{};
  std::string store_path;
  std::vector<std::vector<ScoreRequest>> score_pool;
  std::vector<int32_t> topk_pool;
  std::vector<std::vector<ScoreRequest>> quality_requests;
  std::vector<float> quality_labels;  ///< aligned with the flattened pairs
  std::vector<int32_t> recall_users;
};

Status GenerateInputs(const RunOptions& options, bool topk, Inputs* inputs) {
  inputs->topk = topk;
  inputs->profile = topk ? kTopKProfile : kScoreProfile;
  inputs->store_path = StrFormat("%s/%s.hgnnstore", options.work_dir.c_str(),
                                 options.workload.c_str());
  // The planted world of bench/serving_load's index phase: wider codes
  // and a larger head budget keep 100k items routable. The catalog is the
  // same for every seed (like a deployed store); the seed draws the
  // request stream. A per-seed catalog would change the index's shape and
  // with it the cost of a query, which is not what a run should vary.
  PlantedWorldConfig config;
  config.num_users = kUsers;
  config.num_items = kItems;
  config.level_dim = 16;
  config.cvr_train_samples = 60000;
  config.cvr_epochs = 4;
  config.seed = kCatalogSeed;
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<PlantedWorld> world,
                         BuildPlantedWorld(config));
  HIGNN_RETURN_IF_ERROR(ExportEmbeddingStore(world->model, world->dataset,
                                             world->spec, world->cvr,
                                             inputs->store_path));

  Rng rng(options.seed ^ 0x5c0e5eedULL);
  std::vector<double> popularity;
  popularity.reserve(kItems);
  for (const ItemMeta& item : world->dataset.items()) {
    popularity.push_back(item.popularity);
  }
  const AliasSampler item_sampler(popularity);
  const auto user = [&] {
    return static_cast<int32_t>(rng.UniformInt(kUsers));
  };
  if (topk) {
    inputs->topk_pool.reserve(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i) inputs->topk_pool.push_back(user());
    for (int32_t i = 0; i < kRecallUsers; ++i) {
      inputs->recall_users.push_back(user());
    }
  } else {
    inputs->score_pool.reserve(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i) {
      std::vector<ScoreRequest> request;
      for (int32_t p = 0; p < kPairsPerRequest; ++p) {
        request.push_back(
            {user(), static_cast<int32_t>(item_sampler.Sample(rng))});
      }
      inputs->score_pool.push_back(std::move(request));
    }
    // Ranking quality of served scores: each user's planted target item
    // against popularity-drawn items.
    for (int32_t q = 0; q < kQualityUsers; ++q) {
      const int32_t u = user();
      std::vector<ScoreRequest> request{{u, world->user_target[u]}};
      inputs->quality_labels.push_back(1.0f);
      for (int32_t p = 1; p < kPairsPerRequest; ++p) {
        request.push_back({u, static_cast<int32_t>(item_sampler.Sample(rng))});
        inputs->quality_labels.push_back(
            request.back().item == world->user_target[u] ? 1.0f : 0.0f);
      }
      inputs->quality_requests.push_back(std::move(request));
    }
  }
  // Peak RSS is measured from here on: hand the generator's world back
  // to the OS first so it does not count against the serving process.
  world.reset();
  ::malloc_trim(0);
  return Status::OK();
}

/// One attempted request and what came back.
struct OpRecord {
  size_t pool_index = 0;
  OpOutcome outcome = OpOutcome::kOk;
  int64_t due_us = 0;
  int64_t send_us = 0;
  int64_t recv_us = 0;
  std::vector<float> scores;
  std::vector<Recommendation> recs;
  RequestContext trace;  ///< echoed phase stamps (traced passes only)
};

/// The running server and the objects it borrows.
struct ServingStack {
  std::unique_ptr<ServeMetrics> metrics;
  std::unique_ptr<StoreManager> stores;
  std::unique_ptr<ScoringServer> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    stores.reset();
  }
};

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> open_ms;
  std::vector<double> start_ms;
};

// Set-up as a user of the daemon sees it: open the store, start the
// server, and wait until `health` answers.
Status StartStack(const std::string& store_path, int32_t connections,
                  ServingStack* stack, SetupTimes* times) {
  obs::Stopwatch total;
  HIGNN_ASSIGN_OR_RETURN(stack->stores,
                         StoreManager::Open(store_path, stack->metrics.get()));
  const double open_ms = total.Millis();
  obs::Stopwatch start;
  ServerConfig config;
  // One handler per load connection: fewer would serialize connections
  // (each handler owns its connection until it closes).
  config.num_threads = connections;
  HIGNN_ASSIGN_OR_RETURN(
      stack->server,
      ScoringServer::Start(stack->stores.get(), stack->metrics.get(), config));
  HIGNN_ASSIGN_OR_RETURN(ScoringClient probe,
                         ScoringClient::Connect("127.0.0.1",
                                                stack->server->port()));
  HIGNN_RETURN_IF_ERROR(probe.Health());
  times->start_ms.push_back(start.Millis());
  times->open_ms.push_back(open_ms);
  times->total_s.push_back(total.Seconds());
  return Status::OK();
}

enum class PhaseKind { kWarmup, kOpenLoop, kClosedLoop };

const char* PhaseName(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kWarmup: return "warmup";
    case PhaseKind::kOpenLoop: return "open_loop";
    case PhaseKind::kClosedLoop: return "closed_loop";
  }
  return "?";
}

/// One phase's raw records plus its per-connection handler guard.
struct PhaseResult {
  PhaseKind kind = PhaseKind::kWarmup;
  bool traced = false;
  std::vector<OpRecord> ops;
  std::vector<double> first_reply_us;  ///< connect -> first reply, per conn
  int64_t start_us = 0;     ///< scheduled phase start (obs::NowMicros)
  int64_t duration_us = 0;  ///< scheduled phase length
  double wall_s = 0.0;      ///< phase start to the last reply
  OpCounts counts;
  double offered_rate = 0.0;
};

/// Issues one request on `client` and times it with obs::NowMicros(), the
/// clock the server's phase stamps use.
OpRecord Issue(ScoringClient& client, const Inputs& inputs,
               size_t pool_index) {
  OpRecord op;
  op.pool_index = pool_index;
  op.send_us = obs::NowMicros();
  Status status;
  if (inputs.topk) {
    Result<std::vector<Recommendation>> recs =
        client.TopK(inputs.topk_pool[pool_index], kTopK);
    status = recs.status();
    if (recs.ok()) op.recs = std::move(recs).value();
  } else {
    Result<std::vector<float>> scores =
        client.Score(inputs.score_pool[pool_index]);
    status = scores.status();
    if (scores.ok()) op.scores = std::move(scores).value();
  }
  op.recv_us = obs::NowMicros();
  op.outcome = ClassifyStatus(status);
  op.trace = client.last_trace();
  return op;
}

/// Runs one phase on the profile's count of fresh connections. Every connection
/// first proves it has a handler (a health reply within the barrier
/// timeout while all the others hold theirs); a connection left waiting
/// fails the phase, since the measurement would then serialize clients.
Result<PhaseResult> RunPhase(int32_t port, const Inputs& inputs,
                             PhaseKind kind, bool traced, double seconds,
                             uint64_t seed, size_t pool_offset) {
  PhaseResult phase;
  phase.kind = kind;
  phase.traced = traced;
  const double rate_per_s = inputs.profile.rate_per_s;
  phase.offered_rate = rate_per_s;
  const int64_t duration_us = static_cast<int64_t>(seconds * 1e6);
  const std::vector<int64_t> schedule =
      kind != PhaseKind::kOpenLoop ? std::vector<int64_t>{}
      : inputs.profile.poisson
          ? PoissonSchedule(rate_per_s, duration_us, seed)
          : FixedRateSchedule(rate_per_s, duration_us);

  std::atomic<int32_t> ready{0};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> start_us{0};
  std::atomic<size_t> next{0};
  const int32_t connections = inputs.profile.connections;
  std::vector<std::vector<OpRecord>> per_conn(connections);
  std::vector<double> first_reply(connections, -1.0);
  std::vector<Status> conn_status(connections);

  const auto connection = [&](int32_t c) {
    ClientConfig config;
    if (traced) config.request_id_seed = seed + static_cast<uint64_t>(c) + 1;
    const int64_t connect_us = obs::NowMicros();
    Result<ScoringClient> client =
        ScoringClient::Connect("127.0.0.1", port, config);
    Status status = client.status();
    if (status.ok()) status = client.value().Health();
    if (!status.ok()) {
      conn_status[c] = status;
      failed.store(true);
      return;
    }
    first_reply[c] = static_cast<double>(obs::NowMicros() - connect_us);
    ready.fetch_add(1);
    while (start_us.load() == 0 && !failed.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (failed.load()) return;
    const int64_t start = start_us.load();
    const int64_t end = start + duration_us;
    std::vector<OpRecord>& ops = per_conn[c];
    uint64_t sent = 0;
    while (true) {
      OpRecord op;
      if (kind == PhaseKind::kOpenLoop) {
        const size_t idx = next.fetch_add(1);
        if (idx >= schedule.size()) break;
        const int64_t due = start + schedule[idx];
        // Sleep to spin_us short of the due time, then busy-wait: a sleep's
        // wake-up on a virtualized host overshoots by a varying 50-500 us,
        // which would otherwise show up as generator lateness.
        const int64_t wait = due - inputs.profile.spin_us - obs::NowMicros();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(wait));
        }
        while (obs::NowMicros() < due) {
        }
        op = Issue(client.value(), inputs, (pool_offset + idx) % kPoolSize);
        op.due_us = due;
      } else {
        if (obs::NowMicros() >= end) break;
        const size_t idx = next.fetch_add(1);
        op = Issue(client.value(), inputs, (pool_offset + idx) % kPoolSize);
        op.due_us = op.send_us;
      }
      // The echoed trailer must carry the ID this connection sent; an
      // unjoined reply is a tracing failure, counted like a wrong answer.
      if (traced && op.outcome == OpOutcome::kOk &&
          op.trace.request_id != RequestIdGenerator::Derive(
                                     config.request_id_seed, sent)) {
        op.outcome = OpOutcome::kMismatch;
      }
      ++sent;
      ops.push_back(std::move(op));
    }
  };

  // Generator threads block on their sockets for the whole phase, so they
  // cannot be GlobalThreadPool tasks: the engine's row assembly needs the
  // pool's workers while these wait for replies.
  // hignn-lint: allow(naked-thread) blocking load-generator connections
  std::vector<std::thread> threads;
  for (int32_t c = 0; c < connections; ++c) threads.emplace_back(connection, c);
  const int64_t barrier_deadline = obs::NowMicros() + kBarrierTimeoutUs;
  while (ready.load() < connections && !failed.load()) {
    if (obs::NowMicros() > barrier_deadline) {
      failed.store(true);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t phase_start = obs::NowMicros() + 1000;
  if (!failed.load()) start_us.store(phase_start);
  // hignn-lint: allow(naked-thread) joining the load-generator connections
  for (std::thread& t : threads) t.join();
  if (failed.load()) {
    std::string why;
    for (int32_t c = 0; c < connections; ++c) {
      if (!conn_status[c].ok()) {
        why += StrFormat(" connection %d: %s;", c,
                         conn_status[c].ToString().c_str());
      } else if (first_reply[c] < 0.0) {
        why += StrFormat(" connection %d got no handler reply;", c);
      }
    }
    return Status::FailedPrecondition(
        "a load connection waited for a handler (effective concurrency below "
        + std::to_string(connections) + "):" + why);
  }

  int64_t last_recv = phase_start;
  for (std::vector<OpRecord>& ops : per_conn) {
    for (OpRecord& op : ops) {
      last_recv = std::max(last_recv, op.recv_us);
      phase.counts.Record(op.outcome);
      phase.ops.push_back(std::move(op));
    }
  }
  std::sort(phase.ops.begin(), phase.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.due_us < b.due_us;
            });
  phase.first_reply_us = first_reply;
  phase.start_us = phase_start;
  phase.duration_us = duration_us;
  phase.wall_s = static_cast<double>(last_recv - phase_start) * 1e-6;
  return phase;
}

/// Latency, lateness and throughput of the untraced (or traced) phases.
struct PassStats {
  Samples latency_us;   ///< open loop, from due time, successful requests
  Samples lateness_us;  ///< open loop, send time minus due time
  int64_t closed_completions = 0;  ///< successful, inside their phase
  int64_t closed_us = 0;           ///< summed closed-loop phase durations
  bool backlog = false;

  double throughput_rps() const {
    return closed_us > 0 ? 1e6 * static_cast<double>(closed_completions) /
                               static_cast<double>(closed_us)
                         : 0.0;
  }

  void AddOpenLoop(const PhaseResult& open) {
    std::vector<double> lateness_in_due_order;
    for (const OpRecord& op : open.ops) {
      const double late = static_cast<double>(op.send_us - op.due_us);
      lateness_us.Add(late);
      lateness_in_due_order.push_back(late);
      if (op.outcome == OpOutcome::kOk) {
        latency_us.Add(static_cast<double>(op.recv_us - op.due_us));
      }
    }
    backlog |= BacklogGrew(lateness_in_due_order, kBacklogSlackUs);
  }

  void AddClosedLoop(const PhaseResult& closed) {
    std::vector<int64_t> completions;
    for (const OpRecord& op : closed.ops) {
      if (op.outcome == OpOutcome::kOk) completions.push_back(op.recv_us);
    }
    closed_completions +=
        CountInWindow(completions, closed.start_us, closed.duration_us);
    closed_us += closed.duration_us;
  }
};

void PrintPhase(const PhaseResult& phase) {
  std::printf("  phase %-11s%s %s, wall %.3fs", PhaseName(phase.kind),
              phase.traced ? " [traced]" : "",
              phase.counts.Describe().c_str(), phase.wall_s);
  if (phase.kind == PhaseKind::kOpenLoop) {
    std::printf(", offered %.0f/s", phase.offered_rate);
  }
  std::printf("\n    first reply per connection (us):");
  for (const double us : phase.first_reply_us) std::printf(" %.0f", us);
  std::printf("\n");
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameRecommendations(const std::vector<Recommendation>& a,
                         const std::vector<Recommendation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Checks every wire answer of `phases` against a freshly opened in-process
// engine; a wrong answer moves its op from succeeded to mismatch.
void CheckAnswers(PredictionEngine& engine, const Inputs& inputs,
                  std::vector<PhaseResult>* phases, RunOutcome* outcome) {
  std::map<size_t, std::vector<float>> expected_scores;
  std::map<int32_t, std::vector<Recommendation>> expected_topk;
  int64_t checked = 0;
  int64_t wrong = 0;
  for (PhaseResult& phase : *phases) {
    for (size_t i = 0; i < phase.ops.size(); ++i) {
      OpRecord& op = phase.ops[i];
      if (op.outcome != OpOutcome::kOk) continue;
      bool ok = true;
      if (inputs.topk) {
        if (op.pool_index % kTopKCheckStride != 0) continue;
        const int32_t user = inputs.topk_pool[op.pool_index];
        auto it = expected_topk.find(user);
        if (it == expected_topk.end()) {
          Result<std::vector<Recommendation>> recs =
              engine.RecommendTopK(user, kTopK, kDefaultTopKBeam);
          it = expected_topk
                   .emplace(user, recs.ok() ? std::move(recs).value()
                                            : std::vector<Recommendation>{})
                   .first;
        }
        ok = !it->second.empty() && SameRecommendations(op.recs, it->second);
      } else {
        auto it = expected_scores.find(op.pool_index);
        if (it == expected_scores.end()) {
          Result<std::vector<float>> scores =
              engine.ScoreBatch(inputs.score_pool[op.pool_index]);
          it = expected_scores
                   .emplace(op.pool_index, scores.ok()
                                               ? std::move(scores).value()
                                               : std::vector<float>{})
                   .first;
        }
        ok = !it->second.empty() && SameBits(op.scores, it->second);
      }
      ++checked;
      if (!ok) {
        ++wrong;
        op.outcome = OpOutcome::kMismatch;
        phase.counts.Reclassify();
      }
    }
  }
  std::printf("  checked %lld wire answers against the in-process engine: "
              "%lld wrong\n",
              static_cast<long long>(checked), static_cast<long long>(wrong));
  if (wrong > 0) {
    outcome->check_failures.push_back(StrFormat(
        "%lld of %lld wire answers differ from the in-process engine",
        static_cast<long long>(wrong), static_cast<long long>(checked)));
  }
}

// recall@10 of the served beam against the exact scan (beam <= 0).
Result<double> RecallAtK(PredictionEngine& engine, const Inputs& inputs) {
  int64_t hits = 0;
  for (const int32_t user : inputs.recall_users) {
    HIGNN_ASSIGN_OR_RETURN(std::vector<Recommendation> exact,
                           engine.RecommendTopK(user, kTopK, -1));
    HIGNN_ASSIGN_OR_RETURN(std::vector<Recommendation> beamed,
                           engine.RecommendTopK(user, kTopK, kDefaultTopKBeam));
    std::set<int32_t> found;
    for (const Recommendation& rec : beamed) found.insert(rec.item);
    for (const Recommendation& rec : exact) hits += found.count(rec.item);
  }
  return static_cast<double>(hits) /
         static_cast<double>(inputs.recall_users.size() * kTopK);
}

// AUC of the served scores for planted targets vs. popular items, scored
// over the wire and cross-checked bitwise against the engine.
Result<double> WireQualityAuc(int32_t port, PredictionEngine& engine,
                              const Inputs& inputs, RunOutcome* outcome) {
  HIGNN_ASSIGN_OR_RETURN(ScoringClient client,
                         ScoringClient::Connect("127.0.0.1", port));
  std::vector<float> scores;
  for (const std::vector<ScoreRequest>& request : inputs.quality_requests) {
    Result<std::vector<float>> wire = client.Score(request);
    outcome->ops.Record(ClassifyStatus(wire.status()));
    HIGNN_RETURN_IF_ERROR(wire.status());
    HIGNN_ASSIGN_OR_RETURN(std::vector<float> local,
                           engine.ScoreBatch(request));
    if (!SameBits(wire.value(), local)) {
      outcome->ops.Reclassify();
      outcome->check_failures.push_back(
          "quality pair scores differ between wire and engine");
    }
    scores.insert(scores.end(), wire.value().begin(), wire.value().end());
  }
  return ComputeAuc(scores, inputs.quality_labels);
}

/// Per-layer samples of the traced pass, joined from the echoed stamps.
void ReportTracedLayers(const std::vector<PhaseResult>& traced_phases,
                        const Inputs& inputs, const SetupTimes& setup,
                        PredictionEngine& engine, Report* report) {
  Samples parse, reply, queue_wait, assemble, forward, index, late;
  std::set<std::pair<int64_t, int64_t>> batches;
  int64_t batched_rows = 0;
  double first_reply_max = 0.0;
  int64_t connections = 0;
  OpCounts counts;
  for (const PhaseResult& phase : traced_phases) {
    counts.Merge(phase.counts);
    for (const double us : phase.first_reply_us) {
      first_reply_max = std::max(first_reply_max, us);
      ++connections;
    }
    for (const OpRecord& op : phase.ops) {
      if (phase.kind == PhaseKind::kOpenLoop) {
        late.Add(static_cast<double>(op.send_us - op.due_us));
      }
      if (op.outcome != OpOutcome::kOk) continue;
      const RequestContext& t = op.trace;
      parse.Add(static_cast<double>(t.parse_us - t.accept_us));
      const int64_t reply_from =
          t.forward_done_us >= 0 ? t.forward_done_us : t.parse_us;
      reply.Add(static_cast<double>(op.recv_us - reply_from));
      if (t.batch_close_us >= 0) {
        queue_wait.Add(static_cast<double>(t.batch_close_us - t.enqueue_us));
        // Batch-mates share the batch's assembly and forward stamps.
        batches.insert({t.rows_assembled_us, t.forward_done_us});
        batched_rows += kPairsPerRequest;
      }
      if (t.index_descent_us >= 0) {
        index.Add(static_cast<double>(t.index_descent_us - t.parse_us));
      }
      const int64_t assemble_from = t.batch_close_us >= 0 ? t.batch_close_us
                                    : t.index_descent_us >= 0
                                        ? t.index_descent_us
                                        : t.parse_us;
      if (t.rows_assembled_us >= 0) {
        assemble.Add(static_cast<double>(t.rows_assembled_us - assemble_from));
        forward.Add(
            static_cast<double>(t.forward_done_us - t.rows_assembled_us));
      }
    }
  }

  // Direct replays through the public engine calls, outside the server.
  Samples score_request, score_batch, topk;
  double rows_scored = 0.0;
  if (inputs.topk) {
    for (int32_t r = 0; r < kReplays; ++r) {
      ClusterTreeIndex::SearchStats stats;
      obs::Stopwatch timer;
      const bool ok = engine.RecommendTopK(inputs.topk_pool[r], kTopK,
                                           kDefaultTopKBeam, &stats)
                          .ok();
      topk.Add(timer.Micros());
      HIGNN_CHECK(ok);
      rows_scored += static_cast<double>(stats.nodes_scored +
                                         stats.leaves_selected);
    }
  } else {
    const size_t batch_requests = 64 / kPairsPerRequest;  // max_batch rows
    for (int32_t r = 0; r < kReplays; ++r) {
      obs::Stopwatch timer;
      const bool ok = engine.ScoreBatch(inputs.score_pool[r]).ok();
      score_request.Add(timer.Micros());
      HIGNN_CHECK(ok);
      std::vector<ScoreRequest> batch;
      for (size_t j = 0; j < batch_requests; ++j) {
        const std::vector<ScoreRequest>& part =
            inputs.score_pool[(r * batch_requests + j) % kPoolSize];
        batch.insert(batch.end(), part.begin(), part.end());
      }
      timer.Restart();
      const bool batch_ok = engine.ScoreBatch(batch).ok();
      score_batch.Add(timer.Micros());
      HIGNN_CHECK(batch_ok);
    }
  }

  report->Set("serve.store.open_ms", Percentile(setup.open_ms, 0.5),
              static_cast<int64_t>(setup.open_ms.size()));
  report->Set("serve.server.start_ms", Percentile(setup.start_ms, 0.5),
              static_cast<int64_t>(setup.start_ms.size()));
  report->Set("serve.server.first_reply_us", first_reply_max, connections);
  report->Set("serve.server.parse_us.p50", parse.Percentile(0.5),
              parse.count());
  report->Set("serve.server.reply_us.p50", reply.Percentile(0.5),
              reply.count());
  report->Set("serve.batcher.queue_wait_us.p50", queue_wait.Percentile(0.5),
              queue_wait.count());
  report->Set("serve.batcher.queue_wait_us.p99", queue_wait.Percentile(0.99),
              queue_wait.count());
  report->Set("serve.batcher.rows_per_batch",
              batches.empty() ? 0.0
                              : static_cast<double>(batched_rows) /
                                    static_cast<double>(batches.size()),
              static_cast<int64_t>(batches.size()));
  report->Set("serve.engine.assemble_us.p50", assemble.Percentile(0.5),
              assemble.count());
  report->Set("serve.engine.forward_us.p50", forward.Percentile(0.5),
              forward.count());
  report->Set("serve.engine.score_batch_us.p50", score_request.Percentile(0.5),
              score_request.count());
  report->Set("serve.engine.score_batch64_us.p50", score_batch.Percentile(0.5),
              score_batch.count());
  report->Set("serve.engine.topk_us.p50", topk.Percentile(0.5), topk.count());
  report->Set("serve.index.index_us.p50", index.Percentile(0.5), index.count());
  report->Set("serve.index.rows_scored_mean",
              topk.empty() ? 0.0 : rows_scored / topk.count(), topk.count());
  report->Set("client.sent", static_cast<double>(counts.attempted),
              counts.attempted);
  report->Set("client.failed", static_cast<double>(counts.failed()),
              counts.attempted);
  report->Set("client.late_us.p99", late.Percentile(0.99), late.count());
  std::printf("  traced phases: parse %s\n", parse.Describe("us").c_str());
  std::printf("                 reply %s\n", reply.Describe("us").c_str());
  if (!queue_wait.empty()) {
    std::printf("                 queue_wait %s\n",
                queue_wait.Describe("us").c_str());
  }
  if (!index.empty()) {
    std::printf("                 index %s\n", index.Describe("us").c_str());
  }
  std::printf("                 assemble %s\n",
              assemble.Describe("us").c_str());
  std::printf("                 forward %s\n", forward.Describe("us").c_str());
}

void PrintPass(const char* label, const PassStats& stats) {
  std::printf("  %s latency: %s\n", label,
              stats.latency_us.Describe("us").c_str());
  std::printf("  %s generator lateness: %s\n", label,
              stats.lateness_us.Describe("us").c_str());
  std::printf("  %s closed-loop throughput: %lld completions in %.3fs, "
              "%.1f requests/s\n",
              label, static_cast<long long>(stats.closed_completions),
              static_cast<double>(stats.closed_us) * 1e-6,
              stats.throughput_rps());
}

}  // namespace

Status RunServeStream(const RunOptions& options, bool topk, Report* report,
                      RunOutcome* outcome) {
  // The engine's row assembly runs inline on each handler thread: with a
  // pool, every kTopK request makes over a dozen fork/join dispatches to
  // workers that sleep between requests, and on a virtualized 4-core host
  // waking them made latency and throughput swing by 2x from run to run.
  // Serving parallelism comes from the connections instead.
  SetGlobalThreadPoolThreads(1);
  Inputs inputs;
  HIGNN_RETURN_IF_ERROR(GenerateInputs(options, topk, &inputs));
  HIGNN_RETURN_IF_ERROR(ResetPeakRss());
  const double rate = inputs.profile.rate_per_s;
  const int32_t connections = inputs.profile.connections;

  // Set-up, several times over; the last stack stays up for the load.
  ServingStack stack;
  stack.metrics =
      std::make_unique<ServeMetrics>(&obs::MetricsRegistry::Global());
  SetupTimes setup;
  for (int32_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) stack.Stop();
    HIGNN_RETURN_IF_ERROR(
        StartStack(inputs.store_path, connections, &stack, &setup));
  }
  const int32_t port = stack.server->port();
  std::printf("%s: %d users x %d items, %d connections, server handlers %d, "
              "open-loop rate %.0f/s\n",
              options.workload.c_str(), kUsers, kItems, connections,
              connections, rate);

  std::vector<PhaseResult> phases;
  size_t pool_offset = 0;
  const auto run_phase = [&](PhaseKind kind, bool traced, double phase_seconds,
                             uint64_t phase_seed) -> Status {
    HIGNN_ASSIGN_OR_RETURN(
        PhaseResult phase,
        RunPhase(port, inputs, kind, traced, phase_seconds, phase_seed,
                 pool_offset));
    pool_offset = (pool_offset + phase.ops.size()) % kPoolSize;
    PrintPhase(phase);
    phases.push_back(std::move(phase));
    return Status::OK();
  };
  HIGNN_RETURN_IF_ERROR(run_phase(PhaseKind::kWarmup, false, 0.5,
                                  options.seed));
  // The budget is spent in cycles of (open loop, closed loop), so every
  // statistic samples the host at several points of the run. A traced run
  // alternates untraced and traced cycles; their difference is the
  // tracing overhead.
  const std::vector<bool> modes = options.trace ? std::vector<bool>{false, true}
                                                : std::vector<bool>{false};
  const double cycle_seconds =
      static_cast<double>(options.seconds) /
      static_cast<double>(kCycles * static_cast<int32_t>(modes.size()));
  PassStats untraced;
  PassStats traced;
  for (int32_t cycle = 0; cycle < kCycles; ++cycle) {
    for (const bool is_traced : modes) {
      PassStats& stats = is_traced ? traced : untraced;
      HIGNN_RETURN_IF_ERROR(run_phase(
          PhaseKind::kOpenLoop, is_traced, kOpenLoopShare * cycle_seconds,
          options.seed * 8 + static_cast<uint64_t>(cycle * 2 + is_traced)));
      stats.AddOpenLoop(phases.back());
      HIGNN_RETURN_IF_ERROR(run_phase(PhaseKind::kClosedLoop, is_traced,
                                      (1.0 - kOpenLoopShare) * cycle_seconds,
                                      options.seed));
      stats.AddClosedLoop(phases.back());
    }
  }
  Result<double> peak_rss = PeakRssMb();
  HIGNN_RETURN_IF_ERROR(peak_rss.status());

  // Correctness, against an engine opened independently of the server.
  HIGNN_ASSIGN_OR_RETURN(std::unique_ptr<PredictionEngine> engine,
                         PredictionEngine::Open(inputs.store_path));
  CheckAnswers(*engine, inputs, &phases, outcome);
  for (const PhaseResult& phase : phases) outcome->ops.Merge(phase.counts);
  for (const PassStats* pass : {&untraced, &traced}) {
    if (pass->backlog) {
      outcome->check_failures.push_back(StrFormat(
          "open-loop backlog grew at %.0f requests/s: the offered rate is "
          "past saturation",
          rate));
    }
  }
  double quality = 0.0;
  if (topk) {
    HIGNN_ASSIGN_OR_RETURN(quality, RecallAtK(*engine, inputs));
    std::printf("  recall@%d (beam %d vs exact scan, %zu users): %.4f\n",
                kTopK, kDefaultTopKBeam, inputs.recall_users.size(), quality);
  } else {
    HIGNN_ASSIGN_OR_RETURN(quality,
                           WireQualityAuc(port, *engine, inputs, outcome));
    std::printf("  served-score AUC (planted target vs popular items, %zu "
                "pairs): %.6f\n",
                inputs.quality_labels.size(), quality);
  }

  PrintPass("untraced", untraced);
  const double setup_s = Percentile(setup.total_s, 0.5);
  std::printf("  setup (store open + server start + health) median %.6fs "
              "over %d\n",
              setup_s, kSetupReps);
  if (options.trace) {
    PrintPass("traced", traced);
    std::printf("  tracing overhead (traced - untraced): latency_p50 %+.1fus, "
                "latency_p90 %+.1fus, throughput %+.1f/s\n",
                traced.latency_us.Percentile(0.5) -
                    untraced.latency_us.Percentile(0.5),
                traced.latency_us.Percentile(0.9) -
                    untraced.latency_us.Percentile(0.9),
                traced.throughput_rps() - untraced.throughput_rps());
    std::vector<PhaseResult> traced_phases;
    for (const PhaseResult& phase : phases) {
      if (phase.traced) traced_phases.push_back(phase);
    }
    ReportTracedLayers(traced_phases, inputs, setup, *engine, report);
  } else {
    report->Set("setup_s", setup_s, kSetupReps);
    report->Set("peak_rss_mb", peak_rss.value(), 1);
    report->Set("latency_p50_us", untraced.latency_us.Percentile(0.5),
                untraced.latency_us.count());
    report->Set("throughput_rps", untraced.throughput_rps(),
                untraced.closed_completions);
    report->Set("quality", quality,
                topk ? static_cast<int64_t>(inputs.recall_users.size()) * kTopK
                     : static_cast<int64_t>(inputs.quality_labels.size()));
  }
  stack.Stop();

  outcome->provenance = ProvenanceJson(StrFormat(
      "\"workload\": \"%s\", \"seed\": %llu, \"connections\": %d, "
      "\"generator_threads\": %d, \"server_handlers\": %d, "
      "\"engine_pool_threads\": 1, \"arrivals\": \"%s\", \"spin_us\": %lld, "
      "\"open_loop_rate_per_s\": %.1f, \"users\": %d, \"items\": %d, "
      "\"pairs_per_request\": %d, \"topk\": %d, \"beam\": %d",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      connections, connections, connections,
      inputs.profile.poisson ? "poisson" : "fixed_interval",
      static_cast<long long>(inputs.profile.spin_us), rate, kUsers, kItems,
      topk ? 0 : kPairsPerRequest, topk ? kTopK : 0, kDefaultTopKBeam));
  return Status::OK();
}

}  // namespace hignn::perfbench
