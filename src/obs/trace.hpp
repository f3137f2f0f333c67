// Per-thread lock-free trace-event rings, drained post-hoc into a timeline.
//
// Producers (the simulators, the sweep workers, the runtime executor) record
// fixed-size begin/end/instant/counter events into a thread-local ring with
// two relaxed atomic ops and no allocation; when the ring is full the oldest
// events are overwritten (the drop count is reported, never silent). Rings
// are registered with the global TraceSession, which drains them after the
// instrumented work has quiesced — there is no concurrent consumer, so the
// hot path never synchronizes.
//
// Timestamps carry one of two clock domains:
//   * kSim  — the simulator's virtual clock, in cycles. Each producer thread
//             gets its own Perfetto process so concurrent trials don't
//             interleave on one timeline.
//   * kHost — wall-clock microseconds since the session epoch (sweep solves,
//             trial spans, anything measured with real time).
// Event names must be string literals (the ring stores the pointer); dynamic
// names like pipeline node labels go through set_track_name instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ripple::obs {

/// Timestamp clock domain; also selects the Perfetto process grouping.
enum class Domain : std::uint8_t {
  kSim = 0,   ///< virtual cycles, one process per producer thread
  kHost = 1,  ///< wall-clock microseconds since the session epoch
};

enum class TraceKind : std::uint8_t {
  kEnd = 0,      ///< span end ("E"); ordered before kBegin at equal ts
  kCounter = 1,  ///< sampled level, e.g. queue depth ("C")
  kInstant = 2,  ///< point event, e.g. a deadline miss ("i")
  kBegin = 3,    ///< span begin ("B")
};

struct TraceEvent {
  const char* name = nullptr;  ///< static string literal
  double ts = 0.0;             ///< in the domain's clock units
  double value = 0.0;          ///< counter level / instant payload (slack)
  std::uint32_t track = 0;     ///< node index or worker ordinal (Perfetto tid)
  std::uint16_t ring = 0;      ///< producer ring ordinal, stamped on record
  Domain domain = Domain::kSim;
  TraceKind kind = TraceKind::kInstant;
};

/// Fixed-capacity single-producer ring. Overwrites the oldest events when
/// full; `dropped()` reports how many were lost.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 16).
  explicit TraceRing(std::size_t capacity, std::uint16_t ordinal);

  std::uint16_t ordinal() const noexcept { return ordinal_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Record one event (producer thread only). Two relaxed atomics, no locks.
  void record(TraceEvent event) noexcept {
    const std::uint64_t index = head_.load(std::memory_order_relaxed);
    event.ring = ordinal_;
    slots_[index & mask_] = event;
    head_.store(index + 1, std::memory_order_release);
  }

  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const noexcept;

  /// Append the retained events, oldest first (call after the producer has
  /// quiesced).
  void drain_into(std::vector<TraceEvent>& out) const;

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_;
  std::uint16_t ordinal_;
  std::atomic<std::uint64_t> head_{0};
};

/// Owns every thread's ring plus the track-name metadata; the exporter
/// drains it after a run. One global instance serves the whole process.
class TraceSession {
 public:
  static TraceSession& global();

  /// This thread's ring, creating and registering it on first use (or after
  /// clear()). The returned pointer stays valid until clear().
  TraceRing* ring_for_current_thread();

  /// Capacity for rings created after this call (default 1 << 16 events).
  void set_ring_capacity(std::size_t capacity);

  /// All retained events: rings in registration order, each oldest-first.
  /// Within one (ring, track) pair events are already in timestamp order, so
  /// the exporter needs no sort. Only call while no producer is recording.
  std::vector<TraceEvent> drain() const;

  /// Total events lost to ring wraparound across all rings.
  std::uint64_t dropped() const;

  /// Human-readable Perfetto track label (e.g. a pipeline node name) for a
  /// (domain, track) pair; exported as thread_name metadata.
  void set_track_name(Domain domain, std::uint32_t track, std::string name);
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::string> track_names()
      const;

  /// Wall-clock microseconds since this session was created (kHost domain).
  double host_now_us() const noexcept;

  /// Drop every ring, name, and event. Only call while no producer is
  /// recording; threads transparently re-register on their next record.
  void clear();

 private:
  TraceSession();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::string> track_names_;
  std::size_t ring_capacity_ = 1 << 16;
  std::uint64_t generation_ = 0;  // bumped by clear(); invalidates TL caches
  std::chrono::steady_clock::time_point epoch_;
};

/// Cheap per-call-site handle: null when observability is disabled at
/// runtime, so the instrumented hot path pays one branch on a cached pointer.
class TraceWriter {
 public:
  /// Bound to this thread's ring when obs::enabled(), inactive otherwise.
  static TraceWriter for_current_thread();

  bool active() const noexcept { return ring_ != nullptr; }
  /// This producer's ring ordinal — used as the kHost track id so each
  /// worker thread gets its own timeline row.
  std::uint32_t track() const noexcept {
    return ring_ == nullptr ? 0 : ring_->ordinal();
  }

  void begin(Domain domain, std::uint32_t track, const char* name,
             double ts) noexcept {
    record(domain, track, name, ts, 0.0, TraceKind::kBegin);
  }
  void end(Domain domain, std::uint32_t track, const char* name,
           double ts) noexcept {
    record(domain, track, name, ts, 0.0, TraceKind::kEnd);
  }
  void instant(Domain domain, std::uint32_t track, const char* name, double ts,
               double value) noexcept {
    record(domain, track, name, ts, value, TraceKind::kInstant);
  }
  void counter(Domain domain, std::uint32_t track, const char* name, double ts,
               double value) noexcept {
    record(domain, track, name, ts, value, TraceKind::kCounter);
  }

 private:
  void record(Domain domain, std::uint32_t track, const char* name, double ts,
              double value, TraceKind kind) noexcept {
    TraceEvent event;
    event.name = name;
    event.ts = ts;
    event.value = value;
    event.track = track;
    event.domain = domain;
    event.kind = kind;
    ring_->record(event);
  }

  TraceRing* ring_ = nullptr;
};

/// While a muting guard is alive, TraceWriter::for_current_thread() on its
/// thread returns an inactive writer; guards nest. The trial runners mute
/// every trial but trial 0 (sim/trial_runner.hpp), so a traced multi-trial
/// run records trial 0's sim timeline and no other, whatever the pool size
/// and however the pool's threads interleave.
class ScopedTraceMute {
 public:
  explicit ScopedTraceMute(bool mute) noexcept;
  ~ScopedTraceMute();
  ScopedTraceMute(const ScopedTraceMute&) = delete;
  ScopedTraceMute& operator=(const ScopedTraceMute&) = delete;

 private:
  bool mute_;
};

}  // namespace ripple::obs
