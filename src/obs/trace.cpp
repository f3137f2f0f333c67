#include "obs/trace.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace ripple::obs {

namespace {

std::atomic<bool> g_enabled{false};

std::size_t round_up_pow2(std::size_t value) {
  std::size_t result = 16;
  while (result < value) result <<= 1;
  return result;
}

/// Thread-local ring cache, invalidated when the session generation moves
/// (i.e. after TraceSession::clear()).
struct ThreadSlot {
  TraceRing* ring = nullptr;
  std::uint64_t generation = 0;
};
thread_local ThreadSlot t_slot;
// Live ScopedTraceMute guards muting this thread.
thread_local int t_mutes = 0;

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool instrumentation_compiled() noexcept {
#if RIPPLE_OBS
  return true;
#else
  return false;
#endif
}

TraceRing::TraceRing(std::size_t capacity, std::uint16_t ordinal)
    : slots_(round_up_pow2(capacity)),
      mask_(slots_.size() - 1),
      ordinal_(ordinal) {}

std::uint64_t TraceRing::dropped() const noexcept {
  const std::uint64_t total = recorded();
  return total > slots_.size() ? total - slots_.size() : 0;
}

void TraceRing::drain_into(std::vector<TraceEvent>& out) const {
  const std::uint64_t total = recorded();
  const std::uint64_t retained =
      std::min<std::uint64_t>(total, slots_.size());
  for (std::uint64_t i = total - retained; i < total; ++i) {
    out.push_back(slots_[i & mask_]);
  }
}

TraceSession& TraceSession::global() {
  static TraceSession instance;
  return instance;
}

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

TraceRing* TraceSession::ring_for_current_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (t_slot.ring != nullptr && t_slot.generation == generation_) {
    return t_slot.ring;
  }
  auto ring = std::make_unique<TraceRing>(
      ring_capacity_, static_cast<std::uint16_t>(rings_.size()));
  t_slot.ring = ring.get();
  t_slot.generation = generation_;
  rings_.push_back(std::move(ring));
  return t_slot.ring;
}

void TraceSession::set_ring_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = round_up_pow2(capacity);
}

std::vector<TraceEvent> TraceSession::drain() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> events;
  for (const auto& ring : rings_) ring->drain_into(events);
  return events;
}

std::uint64_t TraceSession::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void TraceSession::set_track_name(Domain domain, std::uint32_t track,
                                  std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  track_names_[{static_cast<std::uint8_t>(domain), track}] = std::move(name);
}

std::map<std::pair<std::uint8_t, std::uint32_t>, std::string>
TraceSession::track_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return track_names_;
}

double TraceSession::host_now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  track_names_.clear();
  ++generation_;  // forces every thread to re-register on next use
}

TraceWriter TraceWriter::for_current_thread() {
  TraceWriter writer;
  if (enabled() && t_mutes == 0) {
    writer.ring_ = TraceSession::global().ring_for_current_thread();
  }
  return writer;
}

ScopedTraceMute::ScopedTraceMute(bool mute) noexcept : mute_(mute) {
  if (mute_) ++t_mutes;
}

ScopedTraceMute::~ScopedTraceMute() {
  if (mute_) --t_mutes;
}

}  // namespace ripple::obs
