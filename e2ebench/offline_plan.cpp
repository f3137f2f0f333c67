// Workload offline_plan: the paper's own experiment on the Table-1 pipeline,
// all of it in core/opt/sim/calib and none of it in runtime/net/service.
//
// One pass = three steps on a pool of nproc threads:
//   1. calib::calibrate_enforced_waits from the optimistic b over
//      calib::default_probes() (paper §6.2), trials seeded from --seed;
//   2. core::run_sweep of both strategies over SweepGrid::paper_ranges at
//      the paper's calibrated b (Figs 3/4);
//   3. sim::run_trials validation of the calibrated enforced-waits plan and
//      the monolithic plan at fixed (tau0, D) cells.
// Passes repeat for --seconds; times are medians over passes.
#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "calib/calibrate.hpp"
#include "common.hpp"
#include "core/enforced_waits.hpp"
#include "core/monolithic.hpp"
#include "core/sweep.hpp"
#include "dist/rng.hpp"
#include "offline_expected.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/monolithic_sim.hpp"
#include "sim/trial_runner.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

using namespace ripple;

/// Set-up blocks, each timing kSetupRepeats builds of the inputs before
/// every pass.
constexpr std::size_t kSetupBlocks = 5;
constexpr std::size_t kSetupRepeats = 1000;
constexpr std::size_t kTau0Points = 100;
constexpr std::size_t kDeadlinePoints = 100;
constexpr std::uint64_t kCalibTrials = 48;
constexpr ItemCount kCalibInputs = 20000;
constexpr std::uint64_t kValidateTrials = 64;
constexpr ItemCount kValidateInputs = 20000;

/// Validation cells: inside the feasible region of both strategies at the
/// paper's b, spread over light, medium and heavy load.
constexpr calib::Probe kValidateCells[] = {
    {10.0, 1.85e5}, {50.0, 1.0e5}, {100.0, 3.5e5}};

struct Setup {
  sdf::PipelineSpec spec;
  std::vector<calib::Probe> probes;
  core::SweepGrid grid;
  util::ThreadPool* pool = nullptr;
};

Setup make_setup(util::ThreadPool& pool) {
  return Setup{blast::canonical_blast_pipeline(), calib::default_probes(),
               core::SweepGrid::paper_ranges(kTau0Points, kDeadlinePoints), &pool};
}

/// Set-up cost of the workload's inputs, a microsecond or two per build.
/// The host's speed drifts over seconds, so builds are timed before every
/// pass rather than once up front: each of kSetupBlocks blocks gets
/// kSetupRepeats builds per pass, and per_build_s() is the median over the
/// blocks of their CPU time per build, each block spanning the whole run.
/// Every build is released at once, so the heap reuses its memory and no
/// page fault (kernel time) lands in a sample.
class SetupClock {
 public:
  explicit SetupClock(util::ThreadPool& pool) : pool_(pool) {
    for (std::size_t k = 0; k < kSetupRepeats; ++k) make_setup(pool_);  // warm-up
  }

  void sample() {
    for (Block& block : blocks_) {
      const double start = thread_cpu_s();
      for (std::size_t k = 0; k < kSetupRepeats; ++k) make_setup(pool_);
      block.cpu_s += thread_cpu_s() - start;
      block.builds += kSetupRepeats;
    }
  }

  double per_build_s() const {
    std::vector<double> values;
    for (const Block& block : blocks_) {
      values.push_back(block.cpu_s / static_cast<double>(block.builds));
    }
    return median(std::move(values));
  }

 private:
  struct Block {
    double cpu_s = 0.0;
    std::size_t builds = 0;
  };

  util::ThreadPool& pool_;
  std::array<Block, kSetupBlocks> blocks_;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the pass, all threads
  double calib_s = 0.0;
  double sweep_s = 0.0;
  double validate_s = 0.0;
  bool calib_success = false;
  bool calib_replayed = false;
  int calib_rounds = 0;
  std::vector<double> b;
  std::uint64_t calib_trials = 0;
  std::uint64_t surface_digest = 0;
  std::size_t cells = 0;
  std::uint64_t validate_trials = 0;
  std::uint64_t validate_miss_free = 0;
  std::uint64_t validate_digest = 0;
};

std::uint64_t surface_digest(const core::SweepSurface& surface) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const core::SweepCell& cell : surface.cells()) {
    const unsigned char flags = static_cast<unsigned char>(
        (cell.enforced_feasible ? 1 : 0) | (cell.monolithic_feasible ? 2 : 0));
    hash = fnv1a(&flags, 1, hash);
    hash = fnv1a(&cell.enforced_active_fraction, sizeof(double), hash);
    hash = fnv1a(&cell.monolithic_active_fraction, sizeof(double), hash);
    hash = fnv1a(&cell.monolithic_block, sizeof(cell.monolithic_block), hash);
  }
  return hash;
}

/// Trials the calibration ran: each round evaluates every probe feasible
/// under that round's b, and the log names the multiplier raised after each
/// unsuccessful round, so the per-round b is replayed from the log. Sets
/// `replayed` to whether the replay ends at the calibrated b after one raise
/// per unsuccessful round, so that a change in the log or in the raise logic
/// fails the run instead of miscounting trials.
std::uint64_t calibration_trials(const Setup& setup,
                                 const calib::EnforcedCalibrationResult& result,
                                 bool& replayed) {
  std::vector<double> b = core::EnforcedWaitsConfig::optimistic(setup.spec).b;
  std::vector<std::size_t> raised;
  for (const std::string& line : result.log) {
    const auto at = line.find("raising b[");
    if (at != std::string::npos) raised.push_back(std::stoul(line.substr(at + 10)));
  }
  std::uint64_t trials = 0;
  for (int round = 0; round < result.rounds; ++round) {
    const core::EnforcedWaitsStrategy strategy(setup.spec,
                                               core::EnforcedWaitsConfig{b});
    for (const calib::Probe& probe : setup.probes) {
      if (strategy.solve(probe.tau0, probe.deadline).ok()) trials += kCalibTrials;
    }
    if (static_cast<std::size_t>(round) < raised.size()) b[raised[round]] += 1.0;
  }
  const int unsuccessful = result.rounds - (result.success ? 1 : 0);
  replayed = static_cast<int>(raised.size()) == unsuccessful && b == result.config.b;
  return trials;
}

void validate(const Setup& setup, const std::vector<double>& b,
              std::uint64_t seed, Pass& pass) {
  const core::EnforcedWaitsStrategy enforced(setup.spec,
                                             core::EnforcedWaitsConfig{b});
  const core::MonolithicStrategy monolithic(setup.spec, core::MonolithicConfig{});
  std::uint64_t cell_index = 0;
  for (const calib::Probe& cell : kValidateCells) {
    ++cell_index;
    auto enforced_plan = enforced.solve(cell.tau0, cell.deadline);
    auto monolithic_plan = monolithic.solve(cell.tau0, cell.deadline);
    if (!enforced_plan.ok() || !monolithic_plan.ok()) continue;
    const std::vector<Cycles> intervals = enforced_plan.value().firing_intervals;
    const std::int64_t block = monolithic_plan.value().block_size;
    const sim::TrialSummary enforced_summary = sim::run_trials_into(
        [&](std::uint64_t trial, sim::TrialMetrics& out) {
          arrivals::FixedRateArrivals arrivals(cell.tau0);
          sim::EnforcedSimConfig config;
          config.input_count = kValidateInputs;
          config.deadline = cell.deadline;
          config.seed = dist::derive_seed({seed, 0xE2E0, cell_index, trial});
          sim::simulate_enforced_waits_into(setup.spec, intervals, arrivals,
                                            config, out);
        },
        kValidateTrials, setup.pool, 2);
    const sim::TrialSummary monolithic_summary = sim::run_trials_into(
        [&](std::uint64_t trial, sim::TrialMetrics& out) {
          arrivals::FixedRateArrivals arrivals(cell.tau0);
          sim::MonolithicSimConfig config;
          config.block_size = block;
          config.input_count = kValidateInputs;
          config.deadline = cell.deadline;
          config.seed = dist::derive_seed({seed, 0xE2E1, cell_index, trial});
          sim::simulate_monolithic_into(setup.spec, arrivals, config, out);
        },
        kValidateTrials, setup.pool, 2);
    for (const sim::TrialSummary* summary : {&enforced_summary, &monolithic_summary}) {
      pass.validate_trials += summary->trials;
      pass.validate_miss_free += summary->miss_free_trials;
      const double mean_active = summary->active_fraction.mean();
      pass.validate_digest = fnv1a(&summary->miss_free_trials,
                                   sizeof(std::uint64_t), pass.validate_digest);
      pass.validate_digest =
          fnv1a(&mean_active, sizeof(double), pass.validate_digest);
    }
  }
}

Pass run_pass(const Setup& setup, std::uint64_t seed, bool traced) {
  Pass pass;
  pass.validate_digest = fnv1a(nullptr, 0);
  const Clock::time_point start = Clock::now();
  const double cpu_start = process_cpu_s();

  calib::CalibrationOptions options;
  options.trials = kCalibTrials;
  options.inputs_per_trial = kCalibInputs;
  options.base_seed = seed;
  options.pool = setup.pool;
  calib::EnforcedCalibrationResult calibration;
  {
    Span span(traced, "calib.calibrate_enforced_waits");
    const Clock::time_point t = Clock::now();
    calibration = calib::calibrate_enforced_waits(
        setup.spec, core::EnforcedWaitsConfig::optimistic(setup.spec),
        setup.probes, options);
    pass.calib_s = seconds_since(t);
  }

  core::SweepOptions sweep_options;
  sweep_options.pool = setup.pool;
  {
    Span span(traced, "core.run_sweep");
    const Clock::time_point t = Clock::now();
    const core::SweepSurface surface = core::run_sweep(
        setup.spec, core::EnforcedWaitsConfig{blast::paper_calibrated_b()},
        core::MonolithicConfig{}, setup.grid, sweep_options);
    pass.sweep_s = seconds_since(t);
    pass.surface_digest = surface_digest(surface);
    pass.cells = surface.cells().size();
  }

  {
    Span span(traced, "sim.validate");
    const Clock::time_point t = Clock::now();
    validate(setup, calibration.config.b, seed, pass);
    pass.validate_s = seconds_since(t);
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu_start;

  pass.calib_success = calibration.success;
  pass.calib_rounds = calibration.rounds;
  pass.b = calibration.config.b;
  pass.calib_trials = calibration_trials(setup, calibration, pass.calib_replayed);
  return pass;
}

std::string format_b(const std::vector<double>& b) {
  std::string text = "{";
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i != 0) text += ',';
    text += std::to_string(static_cast<long long>(b[i]));
  }
  return text + "}";
}

/// Passes for `budget_s` seconds (at least two), each after a set-up
/// sample when `setup_clock` is given.
std::vector<Pass> run_passes(const Setup& setup, std::uint64_t seed,
                             double budget_s, bool traced,
                             SetupClock* setup_clock) {
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < 2 || seconds_since(start) < budget_s) {
    if (setup_clock != nullptr) setup_clock->sample();
    passes.push_back(run_pass(setup, seed, traced));
  }
  return passes;
}

}  // namespace

void run_offline_plan(const Args& args, Report& report) {
  // The pool is the harness's, made once; set-up is the build of the
  // workload's inputs, timed between the untraced passes.
  util::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  const Setup setup = make_setup(pool);
  SetupClock setup_clock(pool);

  const std::uint64_t seed = dist::derive_seed({args.seed, 0x0FF1});
  std::vector<Pass> untraced =
      run_passes(setup, seed, args.trace ? args.seconds / 2 : args.seconds, false,
                 &setup_clock);
  std::vector<Pass> traced;
  if (args.trace) traced = run_passes(setup, seed, args.seconds / 2, true, nullptr);

  // Output checks: every pass agrees with the first, the surface digest
  // matches the recorded one, and the calibrated b matches the value
  // recorded for this seed where one is recorded.
  const Pass& first = untraced.front();
  std::uint64_t failed = 0;
  std::vector<const Pass*> all;
  for (const Pass& p : untraced) all.push_back(&p);
  for (const Pass& p : traced) all.push_back(&p);
  for (const Pass* p : all) {
    bool ok = p->calib_success && p->calib_replayed;
    if (p->b != first.b) ok = false;
    if (p->surface_digest != kSurfaceDigest) ok = false;
    if (p->validate_digest != first.validate_digest) ok = false;
    if (!ok) ++failed;
  }
  if (!first.calib_success) report.fail_check("calibration did not meet its target");
  if (!first.calib_replayed) {
    report.fail_check("calibration log replay does not reach the calibrated b");
  }
  if (first.surface_digest != kSurfaceDigest) {
    report.fail_check(std::string("sweep surface digest ") + hex64(first.surface_digest) +
                      " != recorded " + hex64(kSurfaceDigest));
  }
  if (failed != 0) report.fail_check(std::to_string(failed) + " passes disagree");
  std::vector<double> expected_b;
  const bool recorded = recorded_b(args.seed, expected_b);
  if (recorded && expected_b != first.b) {
    report.fail_check(std::string("calibrated b ") + format_b(first.b) + " != recorded " +
                      format_b(expected_b) + " for seed " + std::to_string(args.seed));
  }
  report.note("offline: " + std::to_string(all.size()) + " passes, calibrated b " +
              format_b(first.b) + (recorded ? " (recorded)" : " (seed not recorded)") +
              ", surface digest " + hex64(first.surface_digest) + ", " +
              std::to_string(first.cells) + " cells");

  // One operation per calibration, sweep and validation trial batch per
  // pass; a pass that fails any check fails all of its operations.
  const std::uint64_t ops_per_pass = 3;
  report.attempted = ops_per_pass * all.size();
  report.failed = ops_per_pass * failed;

  const double offline_s = median_by(untraced, [](const Pass& p) { return p.wall_s; });
  const double cpu_s = median_by(untraced, [](const Pass& p) { return p.cpu_s; });
  const double sim_inputs =
      static_cast<double>(first.calib_trials) * static_cast<double>(kCalibInputs) +
      static_cast<double>(first.validate_trials) * static_cast<double>(kValidateInputs);
  report.figure("offline_s", offline_s, "s");
  report.figure("failed_ratio", report.failed_ratio(), "ratio");
  if (!args.trace) {
    report.add("setup_s", setup_clock.per_build_s(), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cpu_us_per_item", 1e6 * cpu_s / sim_inputs, "us");
    return;
  }

  const auto med = [&](auto field) { return median_by(traced, field); };
  const double calib_s = med([](const Pass& p) { return p.calib_s; });
  const double sweep_s = med([](const Pass& p) { return p.sweep_s; });
  const double validate_s = med([](const Pass& p) { return p.validate_s; });
  const double traced_cpu = med([](const Pass& p) { return p.cpu_s; });
  report.add("calib.s", calib_s, "s");
  report.add("calib.rounds", first.calib_rounds, "count");
  report.add("calib.trials", static_cast<double>(first.calib_trials), "count");
  report.add("sim.inputs_per_s", sim_inputs / (calib_s + validate_s), "items/s");
  report.add("core.sweep_s", sweep_s, "s");
  report.add("core.cells_per_s", static_cast<double>(first.cells) / sweep_s, "1/s");
  report.add("sim.validate_s", validate_s, "s");
  report.add("sim.miss_free_ratio",
             static_cast<double>(first.validate_miss_free) /
                 static_cast<double>(first.validate_trials),
             "ratio");
  report.add("trace.untraced_wall_s", offline_s, "s");
  report.add("trace.overhead_ratio", traced_cpu / cpu_s - 1.0, "ratio");
  report.add("trace.unexplained_s", med([](const Pass& p) {
               return p.wall_s - (p.calib_s + p.sweep_s + p.validate_s);
             }), "s");
}

}  // namespace e2e
