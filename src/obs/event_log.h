#ifndef HIGNN_OBS_EVENT_LOG_H_
#define HIGNN_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/request_phases.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hignn {
namespace obs {

/// \brief Bounded, lock-cheap structured event log: a fixed-size ring of
/// recent events plus a separate exemplar ring that always captures slow
/// requests (duration above the configured threshold), so a burst of fast
/// traffic can never evict the one slow request worth debugging.
///
/// Record() is O(1) — two array stores and a handful of scalar writes
/// under a mutex held for no allocation — and is a no-op when collection
/// is disabled (--obs-off), keeping the §11 observation-only contract:
/// nothing here is read by the serving path itself.
///
/// DumpJsonl() is deterministic for a given record history: events come
/// out in sequence order, deduplicated between the two rings, one JSON
/// object per line with a stable key order.
class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr size_t kDefaultExemplarCapacity = 256;
  /// Default slow threshold: 50ms, matching ServerConfig::slow_threshold_us.
  static constexpr int64_t kDefaultSlowThresholdUs = 50000;

  explicit EventLog(size_t capacity = kDefaultCapacity,
                    size_t exemplar_capacity = kDefaultExemplarCapacity);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// \brief The process-wide log the serving daemon records into.
  static EventLog& Global();

  /// \brief Threshold (µs) above which an event is an always-kept slow
  /// exemplar; <= 0 disables exemplar capture.
  void set_slow_threshold_us(int64_t threshold_us) {
    slow_threshold_us_.store(threshold_us, std::memory_order_relaxed);
  }
  int64_t slow_threshold_us() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }

  /// \brief Appends `event` (no-op when obs::Enabled() is false).
  void Record(const Event& event);

  int64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  int64_t slow_recorded() const {
    return slow_recorded_.load(std::memory_order_relaxed);
  }

  /// \brief One JSON object per line, sequence order, rings deduplicated;
  /// slow exemplars carry `"slow": true`.
  std::string DumpJsonl() const;

  /// \brief Atomically writes DumpJsonl() to `path`.
  Status WriteJsonl(const std::string& path) const;

  /// \brief Drops every stored event and restarts sequence numbering.
  void Reset();

 private:
  struct Stored {
    uint64_t seq = 0;
    bool valid = false;
    bool slow = false;
    Event event;
  };

  const size_t capacity_;
  const size_t exemplar_capacity_;
  std::atomic<int64_t> slow_threshold_us_{kDefaultSlowThresholdUs};
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> slow_recorded_{0};

  mutable Mutex mu_;
  std::vector<Stored> ring_ HIGNN_GUARDED_BY(mu_);
  std::vector<Stored> exemplars_ HIGNN_GUARDED_BY(mu_);
  uint64_t next_seq_ HIGNN_GUARDED_BY(mu_) = 0;
  uint64_t next_exemplar_slot_ HIGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace hignn

#endif  // HIGNN_OBS_EVENT_LOG_H_
