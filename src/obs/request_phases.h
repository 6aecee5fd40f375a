#ifndef HIGNN_OBS_REQUEST_PHASES_H_
#define HIGNN_OBS_REQUEST_PHASES_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hignn {
namespace obs {

/// \brief The request-phase model of the serving path (DESIGN.md §17), in
/// one place: the per-request stamp record, the table of its eight stamps
/// (wire trailer and event-log order), and the table of the six phases
/// derived from them. Every consumer — the event log, the reply trailer
/// writer and reader, the serve.phase.* histograms, hignn_obs and the
/// serving bench — loops over these tables instead of naming stamps.
///
/// The record is threaded server -> MicroBatcher -> PredictionEngine ->
/// ClusterTreeIndex. Each stamp is a monotonic obs::NowMicros() value
/// (process-epoch based, never wall clock) taken as the request crosses
/// that boundary; -1 means the request never reached it (a kHealth
/// request has no batch-close, an exact-scan topk has no index descent).
///
/// Ownership: the handler thread owns the record for the request's
/// lifetime. The MicroBatcher's collector thread writes the enqueue-to-
/// forward stamps while the handler blocks on Job::done; the batcher's
/// mutex handoff publishes those writes back, so no stamp is read
/// concurrently with its write and the struct needs no atomics.
///
/// Observation-only contract (§11): nothing here may feed scores,
/// batching decisions, or any other deterministic output.
struct RequestContext {
  /// Client-assigned ID from the wire frame's tagged trailer; 0 means the
  /// frame carried no tag (an untraced legacy client).
  uint64_t request_id = 0;

  /// Wire verb byte, recorded for the event log.
  uint8_t verb = 0;

  /// Whether the request was answered kOk (set as the reply is built).
  bool ok = false;

  /// Phase boundaries; kStamps below fixes their wire and log order.
  int64_t accept_us = -1;          ///< connection handed to a handler
  int64_t parse_us = -1;           ///< request frame decoded
  int64_t enqueue_us = -1;         ///< job entered the batch queue
  int64_t batch_close_us = -1;     ///< batching window closed on the job
  int64_t rows_assembled_us = -1;  ///< feature rows gathered from the store
  int64_t forward_done_us = -1;    ///< MLP forward finished
  int64_t index_descent_us = -1;   ///< cluster-tree beam descent finished
  int64_t reply_flushed_us = -1;   ///< response frame handed to the kernel

  /// \brief End-to-end duration: last present stamp minus first present
  /// stamp, or 0 when no stamp is present.
  int64_t DurationUs() const;
};

/// The event log records the same struct the handler stamps.
using Event = RequestContext;

using StampField = int64_t RequestContext::*;

/// \brief One stamp: its JSONL key (also its name everywhere else) and
/// where it lives in the record.
struct StampDef {
  const char* key;
  StampField field;
};

/// \brief The eight stamps in lifecycle order. The order is the wire
/// order of the reply trailer and the key order of the event-log JSONL;
/// both are compatibility contracts, so entries may only be appended.
inline constexpr StampDef kStamps[] = {
    {"accept_us", &RequestContext::accept_us},
    {"parse_us", &RequestContext::parse_us},
    {"enqueue_us", &RequestContext::enqueue_us},
    {"batch_close_us", &RequestContext::batch_close_us},
    {"rows_assembled_us", &RequestContext::rows_assembled_us},
    {"forward_done_us", &RequestContext::forward_done_us},
    {"index_descent_us", &RequestContext::index_descent_us},
    {"reply_flushed_us", &RequestContext::reply_flushed_us},
};
inline constexpr size_t kNumStamps = std::size(kStamps);

/// \brief One phase: the interval from the first present start stamp to
/// the end stamp. A verb's path decides which start applies — row
/// assembly begins at the batch close (batched score), the index descent
/// (beamed topk), or the parse (exact-scan topk).
struct PhaseDef {
  const char* name;
  StampField end;
  StampField starts[3];  ///< fallbacks in order; unused slots are null
};

/// \brief The six phases, in reporting order (also the dominant-phase
/// tie-break in hignn_obs: the earlier phase wins a tie). The reply phase
/// starts only at forward_done, so verbs without a forward (health,
/// stats, metrics, trace-dump, reload, failed scoring) record no reply
/// phase rather than attributing their whole handler work to it.
inline constexpr PhaseDef kPhases[] = {
    {"parse", &RequestContext::parse_us, {&RequestContext::accept_us}},
    {"queue_wait",
     &RequestContext::batch_close_us,
     {&RequestContext::enqueue_us}},
    {"index", &RequestContext::index_descent_us, {&RequestContext::parse_us}},
    {"assemble",
     &RequestContext::rows_assembled_us,
     {&RequestContext::batch_close_us, &RequestContext::index_descent_us,
      &RequestContext::parse_us}},
    {"forward",
     &RequestContext::forward_done_us,
     {&RequestContext::rows_assembled_us}},
    {"reply",
     &RequestContext::reply_flushed_us,
     {&RequestContext::forward_done_us}},
};
inline constexpr size_t kNumPhases = std::size(kPhases);

/// \brief `phase`'s duration in microseconds, or -1 when the request
/// never crossed it (no start stamp present, end stamp absent, or the
/// stamps out of order).
inline int64_t PhaseDelta(const RequestContext& ctx, const PhaseDef& phase) {
  for (const StampField start : phase.starts) {
    if (start == nullptr || ctx.*start < 0) continue;
    const int64_t end = ctx.*phase.end;
    return end >= ctx.*start ? end - ctx.*start : -1;
  }
  return -1;
}

inline int64_t RequestContext::DurationUs() const {
  int64_t first = -1;
  int64_t last = -1;
  for (const StampDef& stamp : kStamps) {
    const int64_t value = this->*stamp.field;
    if (value < 0) continue;
    if (first < 0 || value < first) first = value;
    if (value > last) last = value;
  }
  return first < 0 ? 0 : last - first;
}

/// \brief Observation-only stamp of `field` on `ctx` (a null `ctx` is an
/// untraced caller). A no-op under --obs-off, so that path never reads
/// the clock.
inline void Stamp(RequestContext* ctx, StampField field) {
  if (ctx != nullptr && Enabled()) ctx->*field = NowMicros();
}

}  // namespace obs
}  // namespace hignn

#endif  // HIGNN_OBS_REQUEST_PHASES_H_
