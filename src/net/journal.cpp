#include "net/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::net {

namespace {

// Journal record types ([u32 len][u32 crc][u8 type][payload] framing; the
// CRC covers type + payload, so a torn append is detected on recovery).
constexpr std::uint8_t kRecSessionOpen = 1;
constexpr std::uint8_t kRecSessionClose = 2;
constexpr std::uint8_t kRecDrain = 3;
constexpr std::uint8_t kRecLatency = 4;
constexpr std::size_t kRecordFrameSize = 9;  // len + crc + type
/// A record bigger than this is corruption, not data (largest legal DRAIN:
/// queue capacity 2^32 is impossible in one drain; 64 MiB is far beyond any
/// real drain and small enough to reject garbage lengths instantly).
constexpr std::uint32_t kMaxRecordLen = 64u << 20;

constexpr std::uint32_t kSnapshotMagic = 0x534A5052;  // "RPJS" on disk
/// Version 2: the estimator checkpoint is prior, group count and the
/// (gap, count) group window; the fingerprint carries no EWMA weight.
constexpr std::uint8_t kSnapshotVersion = 2;

std::string journal_path(const std::string& dir) {
  return dir + "/journal.log";
}
std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.bin";
}

void put_fingerprint(std::vector<std::uint8_t>& out,
                     const ControlFingerprint& fp) {
  put_f64(out, fp.deadline);
  put_f64(out, fp.initial_tau0);
  put_u64(out, fp.window);
  put_u64(out, fp.min_samples);
  put_f64(out, fp.drift_threshold);
  put_f64(out, fp.headroom);
  put_u64(out, fp.cooldown_ticks);
  put_f64(out, fp.boundary_margin);
  put_f64(out, fp.slack_trigger);
}

/// Cursor over a byte buffer; every read is bounds-checked so a corrupt
/// snapshot or record yields an exception, never an over-read.
struct Reader {
  const std::uint8_t* data;
  std::size_t len;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (len - pos < n) throw std::runtime_error("journal: truncated payload");
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_u32(data + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(data + pos);
    pos += 8;
    return v;
  }
  double f64() {
    need(8);
    const double v = get_f64(data + pos);
    pos += 8;
    return v;
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
};

ControlFingerprint read_fingerprint(Reader& in) {
  ControlFingerprint fp;
  fp.deadline = in.f64();
  fp.initial_tau0 = in.f64();
  fp.window = in.u64();
  fp.min_samples = in.u64();
  fp.drift_threshold = in.f64();
  fp.headroom = in.f64();
  fp.cooldown_ticks = in.u64();
  fp.boundary_margin = in.f64();
  fp.slack_trigger = in.f64();
  return fp;
}

void put_cycles_vector(std::vector<std::uint8_t>& out,
                       const std::vector<Cycles>& values) {
  put_u32(out, static_cast<std::uint32_t>(values.size()));
  for (const Cycles value : values) put_f64(out, value);
}

std::vector<Cycles> read_cycles_vector(Reader& in) {
  const std::uint32_t n = in.u32();
  if (n > (1u << 24)) throw std::runtime_error("journal: absurd vector size");
  std::vector<Cycles> values;
  values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) values.push_back(in.f64());
  return values;
}

}  // namespace

ControlFingerprint ControlFingerprint::from(
    Cycles deadline, Cycles initial_tau0,
    const control::ControllerConfig& config) {
  ControlFingerprint fp;
  fp.deadline = deadline;
  fp.initial_tau0 = initial_tau0;
  fp.window = config.estimator.window;
  fp.min_samples = config.estimator.min_samples;
  fp.drift_threshold = config.replanner.drift_threshold;
  fp.headroom = config.replanner.headroom;
  fp.cooldown_ticks = config.replanner.cooldown_ticks;
  fp.boundary_margin = config.replanner.boundary_margin;
  fp.slack_trigger = config.slack_trigger;
  return fp;
}

bool ControlFingerprint::operator==(const ControlFingerprint& other) const {
  return deadline == other.deadline && initial_tau0 == other.initial_tau0 &&
         window == other.window &&
         min_samples == other.min_samples &&
         drift_threshold == other.drift_threshold &&
         headroom == other.headroom &&
         cooldown_ticks == other.cooldown_ticks &&
         boundary_margin == other.boundary_margin &&
         slack_trigger == other.slack_trigger;
}

ArrivalJournal::ArrivalJournal(JournalConfig config,
                               const control::Controller* controller)
    : config_(std::move(config)), controller_(controller) {
  RIPPLE_REQUIRE(controller_ != nullptr, "journal needs a controller");
  RIPPLE_REQUIRE(!config_.dir.empty(), "journal dir must be set");
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    throw std::runtime_error("journal: cannot create " + config_.dir + ": " +
                             ec.message());
  }
  // One directory records one run: truncate any previous log and drop its
  // snapshot, so recovery never mixes two histories.
  std::filesystem::remove(snapshot_path(config_.dir), ec);
  fd_ = ::open(journal_path(config_.dir).c_str(),
               O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot open " +
                             journal_path(config_.dir) + ": " +
                             std::strerror(errno));
  }
}

ArrivalJournal::~ArrivalJournal() {
  try {
    flush();
  } catch (const std::exception&) {
    // Destructors must not throw; a failed final flush loses the buffered
    // tail, which recovery already tolerates (same as a crash).
  }
  if (fd_ >= 0) ::close(fd_);
}

void ArrivalJournal::append_record(std::uint8_t type,
                                   const std::vector<std::uint8_t>& payload) {
  // [u32 len][u32 crc][u8 type][payload]; crc covers type + payload.
  const auto len = static_cast<std::uint32_t>(1 + payload.size());
  scratch_.clear();
  scratch_.push_back(type);
  scratch_.insert(scratch_.end(), payload.begin(), payload.end());
  put_u32(buffer_, len);
  put_u32(buffer_, crc32(scratch_.data(), scratch_.size()));
  buffer_.insert(buffer_.end(), scratch_.begin(), scratch_.end());
  ++stats_.records;
  ++records_since_snapshot_;
}

void ArrivalJournal::on_session_open(service::SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  open_sessions_.insert(id);
  scratch_.clear();
  std::vector<std::uint8_t> payload;
  put_u64(payload, id);
  append_record(kRecSessionOpen, payload);
}

void ArrivalJournal::on_session_close(service::SessionId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  open_sessions_.erase(id);
  std::vector<std::uint8_t> payload;
  put_u64(payload, id);
  append_record(kRecSessionClose, payload);
}

void ArrivalJournal::on_drain(
    const std::vector<service::ArrivalRecord>& admitted,
    const std::vector<Cycles>& shed_arrivals) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Snapshot boundary: the controller has exactly the already-appended
  // records applied (this drain's gaps have not been fed yet). Flush first
  // so the snapshot never covers records that are not on disk.
  if (config_.snapshot_records > 0 &&
      records_since_snapshot_ >= config_.snapshot_records) {
    flush_locked();
    snapshot_locked();
    records_since_snapshot_ = 0;
  }

  std::vector<std::uint8_t> payload;
  payload.reserve(8 + 33 * admitted.size() + 8 * shed_arrivals.size());
  put_u32(payload, static_cast<std::uint32_t>(admitted.size()));
  put_u32(payload, static_cast<std::uint32_t>(shed_arrivals.size()));
  for (const service::ArrivalRecord& record : admitted) {
    put_u64(payload, record.session);
    put_u64(payload, record.seq);
    put_f64(payload, record.arrival);
    put_u64(payload, record.payload);
    payload.push_back(record.has_payload ? 1 : 0);
    last_arrival_ = std::max(last_arrival_, record.arrival);
  }
  for (const Cycles shed : shed_arrivals) {
    put_f64(payload, shed);
    last_arrival_ = std::max(last_arrival_, shed);
  }
  append_record(kRecDrain, payload);
  ++stats_.drains;
  stats_.arrivals += admitted.size();
  ++drains_buffered_;

  if (buffer_.size() >= config_.commit_bytes ||
      drains_buffered_ >= config_.commit_drains) {
    flush_locked();
  }
}

void ArrivalJournal::on_batch_latency(Cycles worst) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint8_t> payload;
  put_f64(payload, worst);
  append_record(kRecLatency, payload);
}

void ArrivalJournal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void ArrivalJournal::flush_locked() {
  if (buffer_.empty()) return;
#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    trace.begin(obs::Domain::kHost, trace.track(), "journal.commit",
                obs::TraceSession::global().host_now_us());
  }
#endif
  std::size_t written = 0;
  while (written < buffer_.size()) {
    const ssize_t n = ::write(fd_, buffer_.data() + written,
                              buffer_.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("journal: write failed: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  stats_.bytes += buffer_.size();
  ++stats_.commits;
  buffer_.clear();
  drains_buffered_ = 0;
#if RIPPLE_OBS
  if (trace.active()) {
    trace.end(obs::Domain::kHost, trace.track(), "journal.commit",
              obs::TraceSession::global().host_now_us());
    obs::Registry::global().counter("journal.commits")->increment();
  }
#endif
}

void ArrivalJournal::snapshot_locked() {
#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    trace.begin(obs::Domain::kHost, trace.track(), "journal.snapshot",
                obs::TraceSession::global().host_now_us());
  }
#endif
  const control::ControllerCheckpoint state = controller_->checkpoint();

  std::vector<std::uint8_t> body;
  put_fingerprint(body, config_.fingerprint);
  put_u64(body, stats_.records);  // records covered by this snapshot
  put_f64(body, last_arrival_);
  // Estimator.
  put_f64(body, state.estimator.prior);
  put_u64(body, state.estimator.groups);
  put_u32(body, static_cast<std::uint32_t>(state.estimator.window.size()));
  for (const control::ArrivalGroup& group : state.estimator.window) {
    put_f64(body, group.gap);
    put_u64(body, group.count);
  }
  // Replanner + plan.
  put_u64(body, state.replanner.ticks);
  put_u64(body, state.replanner.last_replan_tick);
  put_u64(body, state.replanner.replans);
  put_u64(body, state.replanner.solve_failures);
  put_u64(body, state.replanner.plan_epoch);
  put_f64(body, state.replanner.planned_tau0);
  put_f64(body, state.replanner.plan_deadline);
  body.push_back(state.replanner.shedding ? 1 : 0);
  put_cycles_vector(body, state.replanner.waits);
  put_cycles_vector(body, state.replanner.firing_intervals);
  put_f64(body, state.replanner.predicted_active_fraction);
  put_f64(body, state.replanner.deadline_budget_used);
  // Controller.
  put_f64(body, state.worst_latency);
  put_u64(body, state.stats.ticks);
  put_u64(body, state.stats.replans);
  put_u64(body, state.stats.solve_failures);
  put_u64(body, state.stats.shed_ticks);
  put_u64(body, state.stats.slack_forced);
  // Session table.
  put_u32(body, static_cast<std::uint32_t>(open_sessions_.size()));
  for (const std::uint64_t id : open_sessions_) put_u64(body, id);

  std::vector<std::uint8_t> file;
  put_u32(file, kSnapshotMagic);
  file.push_back(kSnapshotVersion);
  put_u32(file, static_cast<std::uint32_t>(body.size()));
  put_u32(file, crc32(body.data(), body.size()));
  file.insert(file.end(), body.begin(), body.end());

  const std::string tmp = snapshot_path(config_.dir) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("journal: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    if (!out) throw std::runtime_error("journal: short snapshot write");
  }
  if (std::rename(tmp.c_str(), snapshot_path(config_.dir).c_str()) != 0) {
    throw std::runtime_error("journal: snapshot rename failed");
  }
  ++stats_.snapshots;
#if RIPPLE_OBS
  if (trace.active()) {
    trace.end(obs::Domain::kHost, trace.track(), "journal.snapshot",
              obs::TraceSession::global().host_now_us());
  }
#endif
}

JournalStats ArrivalJournal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

std::vector<std::uint8_t> read_file(const std::string& path, bool& exists) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    exists = false;
    return {};
  }
  exists = true;
  std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  return data;
}

struct SnapshotState {
  std::uint64_t records_covered = 0;
  Cycles last_arrival = 0.0;
  control::ControllerCheckpoint checkpoint;
  std::set<std::uint64_t> open_sessions;
};

SnapshotState load_snapshot(const std::vector<std::uint8_t>& file,
                            const ControlFingerprint& expected) {
  Reader in{file.data(), file.size()};
  if (in.u32() != kSnapshotMagic) {
    throw std::runtime_error("snapshot: bad magic");
  }
  if (in.u8() != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version");
  }
  const std::uint32_t body_len = in.u32();
  const std::uint32_t body_crc = in.u32();
  in.need(body_len);
  if (crc32(file.data() + in.pos, body_len) != body_crc) {
    throw std::runtime_error("snapshot: CRC mismatch");
  }
  Reader body{file.data() + in.pos, body_len};
  const ControlFingerprint fp = read_fingerprint(body);
  if (!(fp == expected)) {
    throw std::runtime_error(
        "snapshot: control fingerprint mismatch — recover with the same "
        "deadline/tau0/controller flags the journal was recorded under");
  }
  SnapshotState state;
  state.records_covered = body.u64();
  state.last_arrival = body.f64();
  state.checkpoint.estimator.prior = body.f64();
  state.checkpoint.estimator.groups = body.u64();
  const std::uint32_t groups = body.u32();
  if (groups > (1u << 24)) throw std::runtime_error("snapshot: absurd window");
  state.checkpoint.estimator.window.reserve(groups);
  for (std::uint32_t i = 0; i < groups; ++i) {
    control::ArrivalGroup group;
    group.gap = body.f64();
    group.count = body.u64();
    state.checkpoint.estimator.window.push_back(group);
  }
  state.checkpoint.replanner.ticks = body.u64();
  state.checkpoint.replanner.last_replan_tick = body.u64();
  state.checkpoint.replanner.replans = body.u64();
  state.checkpoint.replanner.solve_failures = body.u64();
  state.checkpoint.replanner.plan_epoch = body.u64();
  state.checkpoint.replanner.planned_tau0 = body.f64();
  state.checkpoint.replanner.plan_deadline = body.f64();
  state.checkpoint.replanner.shedding = body.u8() != 0;
  state.checkpoint.replanner.waits = read_cycles_vector(body);
  state.checkpoint.replanner.firing_intervals = read_cycles_vector(body);
  state.checkpoint.replanner.predicted_active_fraction = body.f64();
  state.checkpoint.replanner.deadline_budget_used = body.f64();
  state.checkpoint.worst_latency = body.f64();
  state.checkpoint.stats.ticks = body.u64();
  state.checkpoint.stats.replans = body.u64();
  state.checkpoint.stats.solve_failures = body.u64();
  state.checkpoint.stats.shed_ticks = body.u64();
  state.checkpoint.stats.slack_forced = body.u64();
  const std::uint32_t session_count = body.u32();
  for (std::uint32_t i = 0; i < session_count; ++i) {
    state.open_sessions.insert(body.u64());
  }
  return state;
}

}  // namespace

RecoveryReport recover_journal(const std::string& dir,
                               const ControlFingerprint& fingerprint,
                               control::Controller& controller) {
  bool journal_exists = false;
  const std::vector<std::uint8_t> log =
      read_file(journal_path(dir), journal_exists);
  if (!journal_exists) {
    throw std::runtime_error("recover: no journal at " + journal_path(dir));
  }

  RecoveryReport report;
  std::set<std::uint64_t> open_sessions;
  Cycles last_arrival = 0.0;

  bool snapshot_exists = false;
  const std::vector<std::uint8_t> snap =
      read_file(snapshot_path(dir), snapshot_exists);
  if (snapshot_exists) {
    const SnapshotState state = load_snapshot(snap, fingerprint);
    controller.restore(state.checkpoint);
    open_sessions = state.open_sessions;
    last_arrival = state.last_arrival;
    report.snapshot_loaded = true;
    report.records_in_snapshot = state.records_covered;
  }

  // Replay the tail, skipping the records the snapshot already covers. The
  // cadence below mirrors PipelineService::drain_shard exactly: merge + sort
  // the drain's arrivals, feed them through Controller::observe_arrivals,
  // tick; latency records feed the *next* tick, as live.
  std::uint64_t record_index = 0;
  std::size_t pos = 0;
  std::vector<Cycles> arrivals;
  while (pos < log.size()) {
    const std::size_t remaining = log.size() - pos;
    if (remaining < kRecordFrameSize) {
      report.torn_bytes = remaining;
      break;
    }
    const std::uint32_t len = get_u32(log.data() + pos);
    if (len == 0 || len > kMaxRecordLen) {
      report.torn_bytes = remaining;
      break;
    }
    if (remaining < std::size_t{8} + len) {
      report.torn_bytes = remaining;
      break;
    }
    const std::uint32_t crc = get_u32(log.data() + pos + 4);
    const std::uint8_t* record = log.data() + pos + 8;
    if (crc32(record, len) != crc) {
      report.torn_bytes = remaining;
      break;
    }
    pos += std::size_t{8} + len;
    const std::uint64_t index = record_index++;
    if (index < report.records_in_snapshot) continue;  // folded into snapshot

    const std::uint8_t type = record[0];
    Reader payload{record + 1, len - 1};
    switch (type) {
      case kRecSessionOpen:
        open_sessions.insert(payload.u64());
        break;
      case kRecSessionClose:
        open_sessions.erase(payload.u64());
        break;
      case kRecDrain: {
        const std::uint32_t admitted = payload.u32();
        const std::uint32_t shed = payload.u32();
        arrivals.clear();
        arrivals.reserve(std::size_t{admitted} + shed);
        for (std::uint32_t i = 0; i < admitted; ++i) {
          payload.u64();  // session
          payload.u64();  // seq
          arrivals.push_back(payload.f64());
          payload.u64();  // item payload
          payload.u8();   // has_payload
        }
        for (std::uint32_t i = 0; i < shed; ++i) {
          arrivals.push_back(payload.f64());
        }
        std::sort(arrivals.begin(), arrivals.end());
        last_arrival = controller.observe_arrivals(arrivals, last_arrival);
        controller.tick();
        ++report.drains_replayed;
        report.arrivals_replayed += admitted;
        break;
      }
      case kRecLatency:
        controller.observe_worst_latency(payload.f64());
        break;
      default:
        throw std::runtime_error("recover: unknown record type " +
                                 std::to_string(type));
    }
    ++report.records_replayed;
  }

  report.last_arrival = last_arrival;
  report.open_sessions.assign(open_sessions.begin(), open_sessions.end());
  return report;
}

}  // namespace ripple::net
