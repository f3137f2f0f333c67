// Arrival journal + recovery: the kill-and-recover bit-identity contract.
// A service run with the journal attached, killed at an arbitrary record
// boundary (modeled by copying the journal directory mid-run), must recover
// to a controller whose checkpoint is bit-for-bit equal to the live
// controller at the same boundary — same arrival-group window, same plan
// epoch and firing intervals. Also covers snapshot+tail recovery, torn
// tails, fingerprint mismatches, and group-commit bookkeeping.
#include "net/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/enforced_waits.hpp"
#include "dist/gain.hpp"
#include "net/frame.hpp"
#include "sdf/pipeline.hpp"
#include "service/service.hpp"

namespace ripple::net {
namespace {

namespace fs = std::filesystem;

sdf::PipelineSpec make_spec() {
  auto spec = sdf::PipelineBuilder("journal")
                  .simd_width(4)
                  .add_node("expand", 8.0, dist::make_deterministic(2))
                  .add_node("filter", 6.0, dist::make_deterministic(1))
                  .add_node("sink", 10.0, nullptr)
                  .build();
  EXPECT_TRUE(spec.ok());
  return spec.value();
}

service::ServiceConfig base_config() {
  service::ServiceConfig config;
  config.deadline = 600.0;
  config.initial_tau0 = 20.0;
  // Each round's submit is one arrival group: warm after 4 of them, so the
  // recovered runs cover a live estimate and its re-plans, not just the
  // prior.
  config.controller.estimator.min_samples = 4;
  return config;
}

std::vector<runtime::Item> make_items(std::size_t n, std::uint64_t base) {
  std::vector<runtime::Item> items;
  for (std::uint64_t i = 0; i < n; ++i) items.emplace_back(base + i);
  return items;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("ripple_journal_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

void copy_dir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to / entry.path().filename());
  }
}

/// Fresh controller with the config the journal fingerprints — what the
/// `recover` path constructs before replaying.
control::Controller make_controller(const sdf::PipelineSpec& spec,
                                    const service::ServiceConfig& config) {
  // Mirror the service's shard-controller construction: empty `b` selects
  // the optimistic enforced-waits multipliers.
  return control::Controller(spec, core::EnforcedWaitsConfig::optimistic(spec),
                             config.deadline, config.initial_tau0,
                             config.controller);
}

bool checkpoints_equal(const control::ControllerCheckpoint& a,
                       const control::ControllerCheckpoint& b) {
  return a.estimator.prior == b.estimator.prior &&
         a.estimator.groups == b.estimator.groups &&
         a.estimator.window == b.estimator.window &&
         a.replanner.ticks == b.replanner.ticks &&
         a.replanner.last_replan_tick == b.replanner.last_replan_tick &&
         a.replanner.replans == b.replanner.replans &&
         a.replanner.solve_failures == b.replanner.solve_failures &&
         a.replanner.plan_epoch == b.replanner.plan_epoch &&
         a.replanner.planned_tau0 == b.replanner.planned_tau0 &&
         a.replanner.plan_deadline == b.replanner.plan_deadline &&
         a.replanner.shedding == b.replanner.shedding &&
         a.replanner.waits == b.replanner.waits &&
         a.replanner.firing_intervals == b.replanner.firing_intervals &&
         a.replanner.predicted_active_fraction ==
             b.replanner.predicted_active_fraction &&
         a.replanner.deadline_budget_used == b.replanner.deadline_budget_used &&
         a.worst_latency == b.worst_latency && a.stats.ticks == b.stats.ticks &&
         a.stats.replans == b.stats.replans &&
         a.stats.solve_failures == b.stats.solve_failures &&
         a.stats.shed_ticks == b.stats.shed_ticks &&
         a.stats.slack_forced == b.stats.slack_forced;
}

/// Drive a journaled single-shard service for `rounds` drain cycles, copying
/// the journal directory into `kill_dir` after `kill_after_rounds` and
/// capturing the live controller checkpoint at that same boundary.
control::ControllerCheckpoint run_journaled(
    const fs::path& dir, const fs::path& kill_dir, int rounds,
    int kill_after_rounds, const JournalConfig& base,
    service::ServiceConfig config) {
  const sdf::PipelineSpec spec = make_spec();
  service::PipelineService service(spec, service::synthetic_stages(spec),
                                   config);
  JournalConfig jconfig = base;
  jconfig.dir = dir.string();
  jconfig.fingerprint = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  ArrivalJournal journal(jconfig, &service.controller());
  service.set_ingest_observer(&journal);

  const service::SessionId a = service.open_session();
  const service::SessionId b = service.open_session();
  control::ControllerCheckpoint at_kill;
  for (int round = 0; round < rounds; ++round) {
    service.submit(round % 2 == 0 ? a : b, make_items(16, 1000u * round));
    service.drain_once();
    if (round + 1 == kill_after_rounds) {
      journal.flush();
      copy_dir(dir, kill_dir);  // the "kill -9" disk image
      at_kill = service.controller().checkpoint();
    }
  }
  service.close_session(a);
  service.set_ingest_observer(nullptr);
  return at_kill;
}

TEST(NetJournal, KillAndRecoverConvergesBitIdentically) {
  TempDir live("live");
  TempDir killed("killed");
  const service::ServiceConfig config = base_config();
  JournalConfig jbase;
  jbase.commit_drains = 1;  // flush every drain: the kill image is complete
  jbase.snapshot_records = 0;
  const control::ControllerCheckpoint at_kill = run_journaled(
      live.path, killed.path, /*rounds=*/12, /*kill_after_rounds=*/7, jbase,
      config);

  const sdf::PipelineSpec spec = make_spec();
  control::Controller recovered = make_controller(spec, config);
  const ControlFingerprint fp = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  const RecoveryReport report =
      recover_journal(killed.path.string(), fp, recovered);

  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.drains_replayed, 7u);
  EXPECT_EQ(report.arrivals_replayed, 7u * 16u);
  EXPECT_EQ(report.torn_bytes, 0u);
  EXPECT_EQ(report.open_sessions.size(), 2u);
  // Warm after 4 rounds, the live estimate (wall-clock span over 16-item
  // groups, far above the prior of 20 cycles) has replanned: recovery must
  // reproduce those plans, not just the prior's.
  EXPECT_GT(at_kill.stats.replans, 0u);
  EXPECT_TRUE(checkpoints_equal(recovered.checkpoint(), at_kill))
      << "recovered controller diverged from the live run at the kill point";
  // The recovered plan is the live plan, not an approximation of it.
  EXPECT_EQ(recovered.plan()->epoch, at_kill.replanner.plan_epoch);
  EXPECT_EQ(recovered.plan()->schedule.firing_intervals,
            at_kill.replanner.firing_intervals);
}

TEST(NetJournal, SnapshotPlusTailRecoversIdentically) {
  TempDir live("snap");
  TempDir killed("snapkill");
  const service::ServiceConfig config = base_config();
  JournalConfig jbase;
  jbase.commit_drains = 1;
  jbase.snapshot_records = 8;  // force several snapshots across the run
  const control::ControllerCheckpoint at_kill = run_journaled(
      live.path, killed.path, /*rounds=*/20, /*kill_after_rounds=*/17, jbase,
      config);

  const sdf::PipelineSpec spec = make_spec();
  control::Controller recovered = make_controller(spec, config);
  const ControlFingerprint fp = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  const RecoveryReport report =
      recover_journal(killed.path.string(), fp, recovered);

  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_GT(report.records_in_snapshot, 0u);
  EXPECT_LT(report.drains_replayed, 17u);  // the snapshot absorbed a prefix
  EXPECT_TRUE(checkpoints_equal(recovered.checkpoint(), at_kill));
}

TEST(NetJournal, TornTailIsDetectedAndDiscarded) {
  TempDir live("torn");
  TempDir killed("tornkill");
  const service::ServiceConfig config = base_config();
  JournalConfig jbase;
  jbase.commit_drains = 1;
  jbase.snapshot_records = 0;
  run_journaled(live.path, killed.path, /*rounds=*/6, /*kill_after_rounds=*/6,
                jbase, config);

  // Model a torn final write: chop bytes off the log's tail.
  const fs::path log = killed.path / "journal.log";
  const std::uintmax_t size = fs::file_size(log);
  fs::resize_file(log, size - 5);

  const sdf::PipelineSpec spec = make_spec();
  control::Controller recovered = make_controller(spec, config);
  const ControlFingerprint fp = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  const RecoveryReport report =
      recover_journal(killed.path.string(), fp, recovered);
  EXPECT_GT(report.torn_bytes, 0u);     // detected, reported...
  EXPECT_GT(report.drains_replayed, 0u);  // ...and the intact prefix replayed
}

TEST(NetJournal, FingerprintMismatchRefusesRecovery) {
  TempDir live("fp");
  TempDir killed("fpkill");
  service::ServiceConfig config = base_config();
  JournalConfig jbase;
  jbase.commit_drains = 1;
  jbase.snapshot_records = 4;  // need a snapshot: the fingerprint lives there
  run_journaled(live.path, killed.path, /*rounds=*/12, /*kill_after_rounds=*/12,
                jbase, config);

  const sdf::PipelineSpec spec = make_spec();
  control::Controller recovered = make_controller(spec, config);
  ControlFingerprint wrong = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  wrong.deadline += 1.0;
  EXPECT_THROW(recover_journal(killed.path.string(), wrong, recovered),
               std::runtime_error);
}

TEST(NetJournal, MissingJournalIsAnError) {
  const sdf::PipelineSpec spec = make_spec();
  const service::ServiceConfig config = base_config();
  control::Controller recovered = make_controller(spec, config);
  EXPECT_THROW(recover_journal("/nonexistent/ripple-journal",
                               ControlFingerprint{}, recovered),
               std::runtime_error);
}

TEST(NetJournal, GroupCommitBuffersUntilThreshold) {
  TempDir dir("commit");
  const sdf::PipelineSpec spec = make_spec();
  const service::ServiceConfig config = base_config();
  service::PipelineService service(spec, service::synthetic_stages(spec),
                                   config);
  JournalConfig jconfig;
  jconfig.dir = dir.path.string();
  jconfig.commit_bytes = 1 << 20;
  jconfig.commit_drains = 4;  // commit every 4th drain
  jconfig.snapshot_records = 0;
  jconfig.fingerprint = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  ArrivalJournal journal(jconfig, &service.controller());
  service.set_ingest_observer(&journal);
  const service::SessionId id = service.open_session();
  for (int round = 0; round < 7; ++round) {
    service.submit(id, make_items(8, 0));
    service.drain_once();
  }
  const JournalStats stats = journal.stats();
  EXPECT_EQ(stats.drains, 7u);
  EXPECT_EQ(stats.commits, 1u);  // only the 4-drain threshold fired so far
  journal.flush();
  EXPECT_EQ(journal.stats().commits, 2u);
  EXPECT_GT(journal.stats().bytes, 0u);
  service.set_ingest_observer(nullptr);
}

TEST(NetJournal, ObserverRequiresSingleShard) {
  const sdf::PipelineSpec spec = make_spec();
  service::ServiceConfig config = base_config();
  config.shards = 2;
  service::PipelineService service(
      spec, service::synthetic_stage_factory(spec), config);
  TempDir dir("shards");
  JournalConfig jconfig;
  jconfig.dir = dir.path.string();
  jconfig.fingerprint = ControlFingerprint::from(
      config.deadline, config.initial_tau0, config.controller);
  ArrivalJournal journal(jconfig, &service.controller());
  EXPECT_THROW(service.set_ingest_observer(&journal), std::logic_error);
}

}  // namespace
}  // namespace ripple::net
