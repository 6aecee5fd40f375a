#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// How often the accept loop wakes to check the stop flag.
constexpr int kAcceptPollMs = 50;

// Per-frame request row bound: protocol sanity, distinct from the
// batcher's queue bound (which governs overload, not parsing).
constexpr uint32_t kMaxRequestRows = 1u << 20;

WireStatus WireStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return WireStatus::kBadRequest;
    case StatusCode::kFailedPrecondition:
      return WireStatus::kOverloaded;
    default:
      return WireStatus::kInternal;
  }
}

std::vector<char> ErrorResponse(WireStatus code, const std::string& message) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(code));
  writer.PutString(message);
  return writer.bytes();
}

}  // namespace

Result<std::unique_ptr<ScoringServer>> ScoringServer::Start(
    StoreManager* stores, ServeMetrics* metrics,
    const ServerConfig& config) {
  if (stores == nullptr || metrics == nullptr) {
    return Status::InvalidArgument("stores and metrics must not be null");
  }
  if (config.num_threads <= 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (config.port < 0 || config.port > 65535) {
    return Status::InvalidArgument("port out of range");
  }

  std::unique_ptr<ScoringServer> server(
      new ScoringServer(stores, metrics, config));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  server->listen_fd_ = fd;
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("invalid host address '%s'", config.host.c_str()));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(StrFormat("bind to %s:%d failed: %s",
                                     config.host.c_str(), config.port,
                                     std::strerror(errno)));
  }
  if (::listen(fd, 128) < 0) {
    return Status::IOError(
        StrFormat("listen failed: %s", std::strerror(errno)));
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    return Status::IOError(
        StrFormat("getsockname failed: %s", std::strerror(errno)));
  }
  server->port_ = static_cast<int32_t>(ntohs(bound.sin_port));

  server->event_log_ = config.event_log != nullptr
                           ? config.event_log
                           : &obs::EventLog::Global();
  server->event_log_->set_slow_threshold_us(config.slow_threshold_us);
  server->start_us_ = obs::NowMicros();
  server->start_generation_ = stores->generation();
  server->batcher_ = std::make_unique<MicroBatcher>(stores, metrics,
                                                    config.batcher);
  // hignn-lint: allow(naked-thread) long-blocking accept thread (server.h)
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  for (int32_t t = 0; t < config.num_threads; ++t) {
    // hignn-lint: allow(naked-thread) long-blocking handlers (server.h)
    server->handlers_.emplace_back([s = server.get()] { s->HandlerLoop(); });
  }
  return server;
}

ScoringServer::ScoringServer(StoreManager* stores, ServeMetrics* metrics,
                             const ServerConfig& config)
    : stores_(stores), metrics_(metrics), config_(config) {}

ScoringServer::~ScoringServer() { Stop(); }

void ScoringServer::Stop() {
  if (stopping_.exchange(true)) {
    // Another caller already ran (or is running) shutdown; joins below
    // must only happen once.
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  fd_ready_.NotifyAll();
  // hignn-lint: allow(naked-thread) joining the handler threads
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  {
    MutexLock lock(mu_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }
  if (batcher_) batcher_->Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ScoringServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout or EINTR — recheck the flag
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Chaos site: an accepted connection dropped before service — the
    // client sees a peer reset and must retry onto a fresh connection.
    if (fault::ShouldFail("serve.handler.accept")) {
      ::close(conn);
      continue;
    }
    timeval timeout{};
    timeout.tv_sec = config_.recv_timeout_ms / 1000;
    timeout.tv_usec = (config_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    {
      MutexLock lock(mu_);
      pending_fds_.push_back(conn);
    }
    fd_ready_.NotifyOne();
  }
}

void ScoringServer::HandlerLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      // One bounded wait, then recheck: the outer loop re-enters every
      // kAcceptPollMs anyway, so a timed single Wait is equivalent to the
      // predicate form and keeps every guarded read in this function's
      // analysis scope.
      if (pending_fds_.empty() && !stopping_.load()) {
        fd_ready_.WaitFor(lock, std::chrono::milliseconds(kAcceptPollMs));
      }
      if (!pending_fds_.empty()) {
        fd = pending_fds_.front();
        pending_fds_.pop_front();
      } else if (stopping_.load()) {
        return;
      }
    }
    if (fd >= 0) ServeConnection(fd);
  }
}

void ScoringServer::ServeConnection(int fd) {
  while (true) {
    Result<std::vector<char>> frame = RecvFrame(fd);
    if (!frame.ok()) {
      if (IsRecvTimeout(frame.status()) && !stopping_.load()) continue;
      break;  // closed, corrupt, or shutting down
    }
    RequestContext ctx;
    obs::Stamp(&ctx, &RequestContext::accept_us);
    const std::vector<char> response = HandleRequest(frame.value(), &ctx);
    const bool sent = SendFrame(fd, response).ok();
    if (sent) obs::Stamp(&ctx, &RequestContext::reply_flushed_us);
    // Full-lifecycle accounting happens only now that the reply has been
    // flushed (or failed): per-phase histograms plus the structured event
    // record, slow exemplars retained by the log itself.
    metrics_->RecordPhases(ctx);
    event_log_->Record(ctx);
    if (!sent) break;
  }
  ::close(fd);
}

std::vector<char> ScoringServer::HandleRequest(
    const std::vector<char>& payload, RequestContext* ctx) {
  obs::Stopwatch timer;
  WireReader reader(payload);
  Result<uint8_t> verb_byte = reader.TakeU8();
  if (!verb_byte.ok()) {
    return ErrorResponse(WireStatus::kBadRequest, "empty request frame");
  }
  ctx->verb = verb_byte.value();

  const auto finish = [&](ServeVerbStat verb, bool ok,
                          std::vector<char> response) {
    ctx->ok = ok;
    metrics_->RecordRequest(verb, timer.Seconds() * 1e6, ok);
    return response;
  };

  // Appends the reply trace trailer (wire.h) when the request carried a
  // request-ID tag: the ID echoed back plus every stamp in table order.
  // reply_flushed is still -1 here: the reply is not yet flushed.
  const auto append_trace = [&](WireWriter& writer) {
    if (ctx->request_id == 0) return;
    writer.PutU8(kRequestIdTag);
    writer.PutU64(ctx->request_id);
    for (const obs::StampDef& stamp : obs::kStamps) {
      writer.PutI64(ctx->*stamp.field);
    }
  };

  switch (static_cast<WireVerb>(verb_byte.value())) {
    case WireVerb::kScore: {
      Result<uint32_t> count = reader.TakeU32();
      if (!count.ok() || count.value() > kMaxRequestRows) {
        return finish(ServeVerbStat::kScore, false,
                      ErrorResponse(WireStatus::kBadRequest,
                                    "bad score request count"));
      }
      std::vector<ScoreRequest> requests;
      requests.reserve(count.value());
      for (uint32_t r = 0; r < count.value(); ++r) {
        ScoreRequest request;
        Result<int32_t> user = reader.TakeI32();
        Result<int32_t> item = reader.TakeI32();
        if (!user.ok() || !item.ok()) {
          return finish(ServeVerbStat::kScore, false,
                        ErrorResponse(WireStatus::kBadRequest,
                                      "truncated score request"));
        }
        request.user = user.value();
        request.item = item.value();
        requests.push_back(request);
      }
      Result<uint64_t> request_id = TakeOptionalRequestId(reader);
      if (!request_id.ok()) {
        return finish(ServeVerbStat::kScore, false,
                      ErrorResponse(WireStatus::kBadRequest,
                                    request_id.status().message()));
      }
      ctx->request_id = request_id.value();
      obs::Stamp(ctx, &RequestContext::parse_us);
      Result<std::vector<float>> scores = batcher_->Score(requests, ctx);
      if (!scores.ok()) {
        return finish(ServeVerbStat::kScore, false,
                      ErrorResponse(WireStatusForError(scores.status()),
                                    scores.status().message()));
      }
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutU32(static_cast<uint32_t>(scores.value().size()));
      for (float score : scores.value()) writer.PutF32(score);
      append_trace(writer);
      return finish(ServeVerbStat::kScore, true, writer.bytes());
    }
    case WireVerb::kTopK: {
      Result<int32_t> user = reader.TakeI32();
      Result<int32_t> k = reader.TakeI32();
      if (!user.ok() || !k.ok()) {
        return finish(ServeVerbStat::kTopK, false,
                      ErrorResponse(WireStatus::kBadRequest,
                                    "truncated topk request"));
      }
      // Optional trailing fields, discriminated by remaining length
      // (wire.h): 0 = neither, 4 = beam, 9 = request-ID tag, 13 = both.
      // Absent or 0 beam means the configured default, negative exact.
      int32_t beam = 0;
      if (reader.remaining() == 4 || reader.remaining() == 13) {
        Result<int32_t> wire_beam = reader.TakeI32();
        if (!wire_beam.ok()) {
          return finish(ServeVerbStat::kTopK, false,
                        ErrorResponse(WireStatus::kBadRequest,
                                      "truncated topk beam field"));
        }
        beam = wire_beam.value();
      }
      Result<uint64_t> request_id = TakeOptionalRequestId(reader);
      if (!request_id.ok()) {
        return finish(ServeVerbStat::kTopK, false,
                      ErrorResponse(WireStatus::kBadRequest,
                                    request_id.status().message()));
      }
      ctx->request_id = request_id.value();
      obs::Stamp(ctx, &RequestContext::parse_us);
      const int32_t effective_beam = beam == 0 ? config_.topk_beam : beam;
      // Hold one generation for the whole ranking pass; a concurrent
      // reload cannot swap the store out from under it — the index is
      // part of the generation's store, so beamed descent and leaf
      // brute-force see one consistent hierarchy.
      const std::shared_ptr<const StoreGeneration> generation =
          stores_->Current();
      ClusterTreeIndex::SearchStats search_stats;
      Result<std::vector<Recommendation>> top =
          generation->engine->RecommendTopK(user.value(), k.value(),
                                            effective_beam, &search_stats,
                                            ctx);
      if (!top.ok()) {
        return finish(ServeVerbStat::kTopK, false,
                      ErrorResponse(WireStatusForError(top.status()),
                                    top.status().message()));
      }
      metrics_->RecordIndexSearch(search_stats.nodes_scored,
                                  search_stats.leaves_selected,
                                  effective_beam,
                                  /*exact=*/search_stats.levels_descended ==
                                      0);
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutU32(static_cast<uint32_t>(top.value().size()));
      for (const Recommendation& rec : top.value()) {
        writer.PutI32(rec.item);
        writer.PutF32(rec.score);
      }
      append_trace(writer);
      return finish(ServeVerbStat::kTopK, true, writer.bytes());
    }
    case WireVerb::kHealth: {
      obs::Stamp(ctx, &RequestContext::parse_us);
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutU8(1);
      writer.PutU32(static_cast<uint32_t>(stores_->generation()));
      return finish(ServeVerbStat::kHealth, true, writer.bytes());
    }
    case WireVerb::kStats: {
      obs::Stamp(ctx, &RequestContext::parse_us);
      // ToJson() is the stable pre-§17 wire format; the daemon-scoped
      // fields (start generation, monotonic uptime, exemplar config) are
      // spliced in as a trailing "daemon" section so every older field
      // keeps its exact bytes.
      std::string json = metrics_->ToJson();  // ends "...}\n}\n"
      json.erase(json.size() - 3);            // keep "...}", drop "\n}\n"
      json += StrFormat(
          ",\n  \"daemon\": {\"start_generation\": %lld, "
          "\"uptime_us\": %lld, \"slow_threshold_us\": %lld, "
          "\"events_recorded\": %lld, \"slow_events\": %lld}\n}\n",
          static_cast<long long>(start_generation_),
          static_cast<long long>(obs::NowMicros() - start_us_),
          static_cast<long long>(event_log_->slow_threshold_us()),
          static_cast<long long>(event_log_->recorded()),
          static_cast<long long>(event_log_->slow_recorded()));
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutString(json);
      return finish(ServeVerbStat::kStats, true, writer.bytes());
    }
    case WireVerb::kReload: {
      Result<std::string> path = reader.TakeString();
      if (!path.ok()) {
        return finish(ServeVerbStat::kReload, false,
                      ErrorResponse(WireStatus::kBadRequest,
                                    "truncated reload request"));
      }
      obs::Stamp(ctx, &RequestContext::parse_us);
      Result<int64_t> generation = stores_->Reload(path.value());
      if (!generation.ok()) {
        // The failed swap is a no-op for traffic: report the error but
        // keep serving the previous generation.
        return finish(ServeVerbStat::kReload, false,
                      ErrorResponse(WireStatus::kInternal,
                                    generation.status().message()));
      }
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutU32(static_cast<uint32_t>(generation.value()));
      return finish(ServeVerbStat::kReload, true, writer.bytes());
    }
    case WireVerb::kMetrics: {
      obs::Stamp(ctx, &RequestContext::parse_us);
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutString(metrics_->registry().DumpPrometheus());
      return finish(ServeVerbStat::kMetrics, true, writer.bytes());
    }
    case WireVerb::kTraceDump: {
      obs::Stamp(ctx, &RequestContext::parse_us);
      WireWriter writer;
      writer.PutU8(static_cast<uint8_t>(WireStatus::kOk));
      writer.PutString(event_log_->DumpJsonl());
      return finish(ServeVerbStat::kTraceDump, true, writer.bytes());
    }
  }
  return ErrorResponse(WireStatus::kBadRequest, "unknown verb");
}

}  // namespace hignn
