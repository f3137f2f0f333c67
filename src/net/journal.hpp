// Append-only arrival journal + snapshot recovery: the durable side of the
// ingest front door.
//
// The journal is a service::IngestObserver. Attached to a single-shard
// PipelineService it records, in the exact order the drain loop mutates the
// controller:
//
//   SESSION_OPEN / SESSION_CLOSE   one record per admission event
//   DRAIN                          one record per non-empty drain: every
//                                  admitted arrival (session, seq, arrival
//                                  stamp, u64 payload when the item carries
//                                  one) in executed order, plus the shed
//                                  arrival timestamps swapped out with them
//   LATENCY                        the worst end-to-end latency of each
//                                  executed batch that produced sink output
//
// Records are CRC-framed ([u32 len][u32 crc][u8 type][payload], the same
// CRC-32 as the wire frames) and group-committed: appends buffer in memory
// and one write() flushes the batch when the buffer crosses commit_bytes or
// commit_drains drains have accumulated. A crash loses at most the
// uncommitted tail; a torn final record (partial write) is detected by the
// CRC and discarded on recovery.
//
// Every snapshot_records records, the journal checkpoints the controller
// (control::ControllerCheckpoint — estimator prior, group count and
// (gap, count) window, hysteresis counters, published plan with its
// epoch), the drain loop's last-arrival
// carry, and the open-session table into snapshot.bin (temp + rename, so a
// crash mid-snapshot leaves the previous one intact). The journal is always
// flushed before the snapshot is written, so a snapshot's records_covered
// records are all on disk.
//
// Recovery (recover_journal) = restore the snapshot, then replay the
// journal tail through the same controller cadence drain_shard uses: merge
// admitted + shed arrivals, sort, feed them through the one arrival feed
// (Controller::observe_arrivals, one group per run of equal stamps), tick,
// then apply the batch latencies. Because the estimator, re-planner, and
// solver are deterministic, the recovered controller — its group window,
// plan epoch, and firing intervals — is bit-identical to the
// uninterrupted run at the same record boundary (pinned by
// tests/test_net_journal.cpp). A killed server therefore converges to the
// same plan it would have been running, not an approximation of it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "service/service.hpp"
#include "util/types.hpp"

namespace ripple::net {

/// The control-loop configuration the journal was recorded under. Recovery
/// must rebuild the controller with identical parameters (state replays,
/// configuration does not), so the snapshot embeds this fingerprint and
/// recover_journal refuses a mismatch instead of silently diverging.
struct ControlFingerprint {
  double deadline = 0.0;
  double initial_tau0 = 0.0;
  std::uint64_t window = 0;
  std::uint64_t min_samples = 0;
  double drift_threshold = 0.0;
  double headroom = 0.0;
  std::uint64_t cooldown_ticks = 0;
  double boundary_margin = 0.0;
  double slack_trigger = 0.0;

  static ControlFingerprint from(Cycles deadline, Cycles initial_tau0,
                                 const control::ControllerConfig& config);
  bool operator==(const ControlFingerprint& other) const;
};

struct JournalConfig {
  std::string dir;  ///< journal directory (created if missing)
  /// Group commit: flush the append buffer once it holds this many bytes...
  std::size_t commit_bytes = 64 * 1024;
  /// ...or this many DRAIN records, whichever comes first.
  std::size_t commit_drains = 8;
  /// Snapshot the controller every this many records (0 disables snapshots;
  /// recovery then replays the journal from the beginning).
  std::uint64_t snapshot_records = 4096;
  ControlFingerprint fingerprint;
};

struct JournalStats {
  std::uint64_t records = 0;    ///< records appended (buffered or flushed)
  std::uint64_t drains = 0;     ///< DRAIN records among them
  std::uint64_t arrivals = 0;   ///< admitted arrivals journaled
  std::uint64_t commits = 0;    ///< group-commit writes
  std::uint64_t bytes = 0;      ///< bytes written to the log
  std::uint64_t snapshots = 0;  ///< snapshots taken
};

class ArrivalJournal final : public service::IngestObserver {
 public:
  /// Opens (truncating) `config.dir`/journal.log and removes any stale
  /// snapshot — one journal directory records one run; recovery reads it,
  /// never appends. `controller` is the service's shard-0 controller, read
  /// only at snapshot boundaries (on the drain thread, where it is
  /// quiescent). Throws std::runtime_error on I/O failure.
  ArrivalJournal(JournalConfig config, const control::Controller* controller);
  ~ArrivalJournal() override;

  ArrivalJournal(const ArrivalJournal&) = delete;
  ArrivalJournal& operator=(const ArrivalJournal&) = delete;

  // service::IngestObserver
  void on_session_open(service::SessionId id) override;
  void on_session_close(service::SessionId id) override;
  void on_drain(const std::vector<service::ArrivalRecord>& admitted,
                const std::vector<Cycles>& shed_arrivals) override;
  void on_batch_latency(Cycles worst) override;

  /// Force a group commit of everything buffered (also done on destruction
  /// and before every snapshot).
  void flush();

  JournalStats stats() const;

 private:
  void append_record(std::uint8_t type, const std::vector<std::uint8_t>& payload);
  void flush_locked();
  void snapshot_locked();

  JournalConfig config_;
  const control::Controller* controller_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> scratch_;
  std::set<std::uint64_t> open_sessions_;
  Cycles last_arrival_ = 0.0;  ///< mirrors the drain loop's carry
  std::size_t drains_buffered_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  JournalStats stats_;
};

struct RecoveryReport {
  bool snapshot_loaded = false;
  std::uint64_t records_in_snapshot = 0;  ///< records the snapshot covers
  std::uint64_t records_replayed = 0;     ///< journal-tail records applied
  std::uint64_t drains_replayed = 0;
  std::uint64_t arrivals_replayed = 0;
  std::uint64_t torn_bytes = 0;  ///< discarded unparseable tail (torn write)
  Cycles last_arrival = 0.0;
  std::vector<std::uint64_t> open_sessions;  ///< sessions open at the end
};

/// Rebuild `controller` from `dir`: load snapshot.bin when present (the
/// fingerprint must match), then replay the journal tail into the
/// controller. The controller must be freshly constructed with the
/// fingerprinted configuration. Throws std::runtime_error on missing/corrupt
/// journal or fingerprint mismatch; a torn tail is not an error (it is the
/// expected crash artifact) and is reported in torn_bytes.
RecoveryReport recover_journal(const std::string& dir,
                               const ControlFingerprint& fingerprint,
                               control::Controller& controller);

}  // namespace ripple::net
