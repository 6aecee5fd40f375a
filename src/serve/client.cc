#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/request_id.h"
#include "serve/wire.h"
#include "util/string_util.h"

namespace hignn {

namespace {

// Backoff for the n-th retry (1-based): capped exponential scaled by a
// deterministic jitter draw in [0.5, 1.0). Never returns less than 1 ms
// so the budget accounting below always makes progress.
int64_t BackoffMs(const RetryPolicy& policy, int32_t retry, Rng& jitter) {
  double backoff = static_cast<double>(std::max(policy.initial_backoff_ms, 1));
  const double cap = static_cast<double>(std::max(policy.max_backoff_ms, 1));
  for (int32_t i = 1; i < retry; ++i) {
    backoff = std::min(backoff * 2.0, cap);
  }
  backoff = std::min(backoff, cap) * jitter.Uniform(0.5, 1.0);
  return std::max<int64_t>(1, std::llround(backoff));
}

void SetSocketTimeout(int fd, int optname, int32_t timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, optname, &timeout, sizeof(timeout));
}

}  // namespace

Result<int> ScoringClient::Dial(const std::string& host, int32_t port,
                                const ClientConfig& config) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port out of range");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("invalid host address '%s'", host.c_str()));
  }

  if (config.connect_timeout_ms > 0) {
    // Non-blocking connect + poll: a blocking connect can stall for the
    // kernel's SYN-retry schedule (minutes); the poll bounds the dial to
    // the configured deadline.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS) {
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::Unavailable(StrFormat("connect to %s:%d failed: %s",
                                           host.c_str(), port, error.c_str()));
    }
    if (rc < 0) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int ready = ::poll(&pfd, 1, config.connect_timeout_ms);
      if (ready == 0) {
        ::close(fd);
        return Status::Unavailable(
            StrFormat("connect to %s:%d timed out after %d ms", host.c_str(),
                      port, config.connect_timeout_ms));
      }
      if (ready < 0) {
        const std::string error = std::strerror(errno);
        ::close(fd);
        return Status::IOError(
            StrFormat("poll during connect failed: %s", error.c_str()));
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        ::close(fd);
        return Status::Unavailable(
            StrFormat("connect to %s:%d failed: %s", host.c_str(), port,
                      std::strerror(so_error)));
      }
    }
    ::fcntl(fd, F_SETFL, flags);  // restore blocking mode for send/recv
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable(StrFormat("connect to %s:%d failed: %s",
                                         host.c_str(), port, error.c_str()));
  }

  SetSocketTimeout(fd, SO_SNDTIMEO, config.send_timeout_ms);
  SetSocketTimeout(fd, SO_RCVTIMEO, config.recv_timeout_ms);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return fd;
}

Result<ScoringClient> ScoringClient::Connect(const std::string& host,
                                             int32_t port) {
  // Legacy fail-fast client: bounded dial, no retries.
  return Connect(host, port, ClientConfig{});
}

Result<ScoringClient> ScoringClient::Connect(const std::string& host,
                                             int32_t port,
                                             const ClientConfig& config) {
  Rng jitter(config.retry.jitter_seed);
  int64_t slept_ms = 0;
  for (int32_t attempt = 1;; ++attempt) {
    Result<int> fd = Dial(host, port, config);
    if (fd.ok()) {
      ScoringClient client(fd.value(), host, port, config);
      // Hand the dial loop's jitter stream position to the client so the
      // whole session consumes one deterministic sequence.
      client.jitter_ = jitter;
      return client;
    }
    if (fd.status().code() != StatusCode::kUnavailable ||
        attempt >= config.retry.max_attempts) {
      return fd.status();
    }
    const int64_t backoff = BackoffMs(config.retry, attempt, jitter);
    if (slept_ms + backoff > config.retry.retry_budget_ms) {
      return fd.status();
    }
    slept_ms += backoff;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

ScoringClient::ScoringClient(int fd, const std::string& host, int32_t port,
                             const ClientConfig& config)
    : fd_(fd), host_(host), port_(port), config_(config),
      jitter_(config.retry.jitter_seed) {}

ScoringClient::ScoringClient(ScoringClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      config_(other.config_),
      jitter_(other.jitter_),
      next_request_n_(other.next_request_n_),
      last_trace_(other.last_trace_),
      retries_attempted_(other.retries_attempted_) {
  other.fd_ = -1;
}

ScoringClient& ScoringClient::operator=(ScoringClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    config_ = other.config_;
    jitter_ = other.jitter_;
    next_request_n_ = other.next_request_n_;
    last_trace_ = other.last_trace_;
    retries_attempted_ = other.retries_attempted_;
    other.fd_ = -1;
  }
  return *this;
}

ScoringClient::~ScoringClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<char>> ScoringClient::RoundTripOnce(
    const std::vector<char>& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client is disconnected");
  HIGNN_RETURN_IF_ERROR(SendFrame(fd_, request));
  HIGNN_ASSIGN_OR_RETURN(std::vector<char> response, RecvFrame(fd_));
  WireReader reader(response);
  HIGNN_ASSIGN_OR_RETURN(const uint8_t code, reader.TakeU8());
  if (static_cast<WireStatus>(code) == WireStatus::kOk) {
    // Strip the status byte; the caller parses the verb-specific body.
    return std::vector<char>(response.begin() + 1, response.end());
  }
  HIGNN_ASSIGN_OR_RETURN(const std::string message, reader.TakeString());
  switch (static_cast<WireStatus>(code)) {
    case WireStatus::kBadRequest:
      return Status::InvalidArgument(message);
    case WireStatus::kOverloaded:
      last_overloaded_ = true;
      return Status::FailedPrecondition(message);
    default:
      return Status::Internal(message);
  }
}

Result<std::vector<char>> ScoringClient::RoundTrip(
    const std::vector<char>& request, bool retryable) {
  const RetryPolicy& policy = config_.retry;
  int64_t slept_ms = 0;
  for (int32_t attempt = 1;; ++attempt) {
    Status status = Status::OK();
    last_overloaded_ = false;
    if (fd_ < 0) {
      // A previous attempt tore the connection down; re-dial before the
      // retry so it lands on a fresh transport.
      Result<int> fd = Dial(host_, port_, config_);
      if (fd.ok()) {
        fd_ = fd.value();
      } else {
        status = fd.status();
      }
    }
    if (status.ok()) {
      Result<std::vector<char>> body = RoundTripOnce(request);
      if (body.ok()) return body;
      status = body.status();
    }
    const bool transport = IsRetryableTransport(status) ||
                           status.code() == StatusCode::kIOError;
    if (transport && fd_ >= 0) {
      // The connection is in an unknown state (a frame may be half-read
      // or half-written); never reuse it.
      ::close(fd_);
      fd_ = -1;
    }
    const bool may_retry =
        IsRetryableTransport(status) || last_overloaded_;
    if (!retryable || !may_retry || attempt >= policy.max_attempts) {
      return status;
    }
    const int64_t backoff = BackoffMs(policy, attempt, jitter_);
    if (slept_ms + backoff > policy.retry_budget_ms) {
      return status;
    }
    slept_ms += backoff;
    ++retries_attempted_;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

uint64_t ScoringClient::TagRequest(std::vector<char>* frame) {
  if (config_.request_id_seed == 0) return 0;
  const uint64_t id =
      RequestIdGenerator::Derive(config_.request_id_seed, next_request_n_++);
  WireWriter trailer;
  trailer.PutU8(kRequestIdTag);
  trailer.PutU64(id);
  frame->insert(frame->end(), trailer.bytes().begin(), trailer.bytes().end());
  return id;
}

void ScoringClient::ParseReplyTrailer(WireReader& reader,
                                      uint64_t request_id) {
  // Trailer := tag(1) + id(8) + one i64 per stamp, in table order.
  // Anything else trailing the body is some future server's extension —
  // skip it and keep last_trace_ as the previous traced reply.
  constexpr size_t kTrailerBytes = 1 + 8 + 8 * obs::kNumStamps;
  if (request_id == 0 || reader.remaining() != kTrailerBytes) return;
  RequestContext trace;
  const Result<uint8_t> tag = reader.TakeU8();
  if (!tag.ok() || tag.value() != kRequestIdTag) return;
  const Result<uint64_t> echoed = reader.TakeU64();
  if (!echoed.ok() || echoed.value() != request_id) return;
  trace.request_id = echoed.value();
  for (const obs::StampDef& stamp : obs::kStamps) {
    const Result<int64_t> value = reader.TakeI64();
    if (!value.ok()) return;
    trace.*stamp.field = value.value();
  }
  last_trace_ = trace;
}

Result<std::vector<float>> ScoringClient::Score(
    const std::vector<ScoreRequest>& requests) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kScore));
  writer.PutU32(static_cast<uint32_t>(requests.size()));
  for (const ScoreRequest& request : requests) {
    writer.PutI32(request.user);
    writer.PutI32(request.item);
  }
  std::vector<char> frame = writer.bytes();
  const uint64_t request_id = TagRequest(&frame);
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body, RoundTrip(frame));
  WireReader reader(body);
  HIGNN_ASSIGN_OR_RETURN(const uint32_t count, reader.TakeU32());
  if (count != requests.size()) {
    return Status::IOError("score response count mismatch");
  }
  std::vector<float> scores;
  scores.reserve(count);
  for (uint32_t r = 0; r < count; ++r) {
    HIGNN_ASSIGN_OR_RETURN(const float score, reader.TakeF32());
    scores.push_back(score);
  }
  ParseReplyTrailer(reader, request_id);
  return scores;
}

Result<std::vector<Recommendation>> ScoringClient::TopK(int32_t user,
                                                        int32_t k) {
  return TopK(user, k, /*beam=*/0);
}

Result<std::vector<Recommendation>> ScoringClient::TopK(int32_t user,
                                                        int32_t k,
                                                        int32_t beam) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kTopK));
  writer.PutI32(user);
  writer.PutI32(k);
  // Trailing optional field: 0 (server default) still travels
  // explicitly — only pre-beam clients send the 8-byte body. The beam
  // must precede the request-ID tag: the server discriminates the two
  // optional fields by remaining length (4 = beam, 9 = tag, 13 = both).
  writer.PutI32(beam);
  std::vector<char> frame = writer.bytes();
  const uint64_t request_id = TagRequest(&frame);
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body, RoundTrip(frame));
  WireReader reader(body);
  HIGNN_ASSIGN_OR_RETURN(const uint32_t count, reader.TakeU32());
  std::vector<Recommendation> top;
  top.reserve(count);
  for (uint32_t r = 0; r < count; ++r) {
    Recommendation rec;
    HIGNN_ASSIGN_OR_RETURN(rec.item, reader.TakeI32());
    HIGNN_ASSIGN_OR_RETURN(rec.score, reader.TakeF32());
    top.push_back(rec);
  }
  ParseReplyTrailer(reader, request_id);
  return top;
}

Status ScoringClient::Health() { return HealthGeneration().status(); }

Result<int64_t> ScoringClient::HealthGeneration() {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kHealth));
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body,
                         RoundTrip(writer.bytes()));
  WireReader reader(body);
  HIGNN_ASSIGN_OR_RETURN(const uint8_t alive, reader.TakeU8());
  if (alive != 1) return Status::Internal("server reported unhealthy");
  HIGNN_ASSIGN_OR_RETURN(const uint32_t generation, reader.TakeU32());
  return static_cast<int64_t>(generation);
}

Result<std::string> ScoringClient::Stats() {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kStats));
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body,
                         RoundTrip(writer.bytes()));
  WireReader reader(body);
  return reader.TakeString();
}

Result<std::string> ScoringClient::Metrics() {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kMetrics));
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body,
                         RoundTrip(writer.bytes()));
  WireReader reader(body);
  return reader.TakeString();
}

Result<std::string> ScoringClient::TraceDump() {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kTraceDump));
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body,
                         RoundTrip(writer.bytes()));
  WireReader reader(body);
  return reader.TakeString();
}

Result<int64_t> ScoringClient::Reload(const std::string& store_path) {
  WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(WireVerb::kReload));
  writer.PutString(store_path);
  // retryable=false: a reload that dies mid-flight may or may not have
  // published; blindly retrying could swap twice.
  HIGNN_ASSIGN_OR_RETURN(const std::vector<char> body,
                         RoundTrip(writer.bytes(), /*retryable=*/false));
  WireReader reader(body);
  HIGNN_ASSIGN_OR_RETURN(const uint32_t generation, reader.TakeU32());
  return static_cast<int64_t>(generation);
}

}  // namespace hignn
