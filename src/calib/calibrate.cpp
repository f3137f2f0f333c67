#include "calib/calibrate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <sstream>

#include "arrivals/arrival_process.hpp"
#include "dist/rng.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/monolithic_sim.hpp"
#include "sim/topology.hpp"
#include "sim/trial_runner.hpp"
#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::calib {

std::vector<Probe> default_probes() {
  // Corners, edge midpoints and center of the paper's ranges
  // (tau0 in [1, 100], D in [2e4, 3.5e5]). Infeasible points are skipped at
  // evaluation time, so the fast-arrival corner is safe to include.
  return {
      {1.0, 2e4},    {1.0, 1.85e5},   {1.0, 3.5e5},
      {10.0, 2e4},   {10.0, 1.85e5},  {10.0, 3.5e5},
      {50.0, 2e4},   {50.0, 1.85e5},  {50.0, 3.5e5},
      {100.0, 2e4},  {100.0, 1.85e5}, {100.0, 3.5e5},
  };
}

namespace {

/// Evaluate one probe for enforced waits: optimize, then run seeded trials.
/// Also reports the worst per-node queue depth (in vector multiples) seen,
/// which drives the raise heuristic.
struct EnforcedProbeEvaluation {
  ProbeOutcome outcome;
  std::vector<double> observed_depth;  ///< max queue length / v, per node
};

EnforcedProbeEvaluation evaluate_enforced_probe(
    const sdf::PipelineSpec& pipeline, const core::EnforcedWaitsStrategy& strategy,
    const Probe& probe, const CalibrationOptions& options, std::uint64_t round) {
  EnforcedProbeEvaluation eval;
  eval.outcome.probe = probe;
  eval.observed_depth.assign(pipeline.size(), 0.0);

  auto solved = strategy.solve(probe.tau0, probe.deadline);
  if (!solved.ok()) return eval;  // infeasible: skip
  eval.outcome.feasible = true;
  const std::vector<Cycles> intervals = solved.value().firing_intervals;

  // The probe's trials differ only in their gain seed, so they run in
  // lockstep groups: one shared event walk per group, gain draws vectorized
  // across its trials, each trial's metrics exactly its lone run's.
  const sim::Topology topology = sim::chain_topology(pipeline, "fire");
  sim::EnforcedSimConfig config;
  config.input_count = options.inputs_per_trial;
  config.deadline = probe.deadline;
  auto group_body = [&](std::uint64_t first,
                        std::span<sim::TrialMetrics> out) {
    std::array<std::uint64_t, sim::kTrialLanes> seeds{};
    for (std::size_t k = 0; k < out.size(); ++k) {
      seeds[k] = dist::derive_seed(
          {options.base_seed, 0xE4F0ACEDULL, round,
           static_cast<std::uint64_t>(probe.tau0 * 1e6),
           static_cast<std::uint64_t>(probe.deadline), first + k});
    }
    sim::simulate_enforced_waits_lanes(
        topology, intervals, probe.tau0, config,
        std::span<const std::uint64_t>(seeds.data(), out.size()), out);
  };
  const sim::TrialSummary summary = sim::run_trial_groups_into(
      group_body, options.trials, options.pool, options.trial_grain);

  eval.outcome.miss_free_fraction = summary.miss_free_fraction();
  eval.outcome.mean_miss_fraction = summary.miss_fraction.mean();
  eval.outcome.mean_active_fraction = summary.active_fraction.mean();
  const double v = static_cast<double>(pipeline.simd_width());
  for (std::size_t i = 0; i < summary.max_queue_lengths.size(); ++i) {
    eval.observed_depth[i] =
        static_cast<double>(summary.max_queue_lengths[i]) / v;
  }
  return eval;
}

std::string format_b(const std::vector<double>& b) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i != 0) os << ", ";
    os << util::format_double(b[i], 3);
  }
  os << '}';
  return os.str();
}

}  // namespace

EnforcedCalibrationResult calibrate_enforced_waits(
    const sdf::PipelineSpec& pipeline, const core::EnforcedWaitsConfig& initial,
    const std::vector<Probe>& probes, const CalibrationOptions& options) {
  RIPPLE_REQUIRE(!probes.empty(), "calibration needs at least one probe");
  EnforcedCalibrationResult result;
  result.config = initial;

  for (int round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    const core::EnforcedWaitsStrategy strategy(pipeline, result.config);

    std::vector<EnforcedProbeEvaluation> evaluations;
    evaluations.reserve(probes.size());
    double worst_miss_free = 1.0;
    bool any_feasible = false;
    std::vector<double> worst_depth(pipeline.size(), 0.0);

    for (const Probe& probe : probes) {
      evaluations.push_back(evaluate_enforced_probe(
          pipeline, strategy, probe, options, static_cast<std::uint64_t>(round)));
      const EnforcedProbeEvaluation& eval = evaluations.back();
      if (!eval.outcome.feasible) continue;
      any_feasible = true;
      worst_miss_free = std::min(worst_miss_free, eval.outcome.miss_free_fraction);
      for (std::size_t i = 0; i < worst_depth.size(); ++i) {
        worst_depth[i] = std::max(worst_depth[i], eval.observed_depth[i]);
      }
    }

    result.final_outcomes.clear();
    for (const auto& eval : evaluations) result.final_outcomes.push_back(eval.outcome);
    result.worst_miss_free = any_feasible ? worst_miss_free : 0.0;

    if (!any_feasible) {
      result.log.push_back("round " + std::to_string(round) +
                           ": no feasible probe with b = " +
                           format_b(result.config.b));
      return result;  // raising b only shrinks feasibility; stop
    }
    if (worst_miss_free >= options.target_miss_free) {
      result.success = true;
      result.log.push_back("round " + std::to_string(round) + ": b = " +
                           format_b(result.config.b) +
                           " meets target (worst miss-free " +
                           util::format_double(worst_miss_free, 4) + ")");
      return result;
    }

    // Raise the multiplier of the node whose observed queue depth most
    // exceeds its current allowance; break ties toward the deeper pipeline
    // stage (later stages accumulate upstream burstiness).
    std::size_t worst_node = 0;
    double worst_ratio = -1.0;
    for (std::size_t i = 0; i < worst_depth.size(); ++i) {
      const double ratio = (worst_depth[i] + 1.0) / result.config.b[i];
      if (ratio >= worst_ratio) {
        worst_ratio = ratio;
        worst_node = i;
      }
    }
    result.config.b[worst_node] += 1.0;
    result.log.push_back(
        "round " + std::to_string(round) + ": worst miss-free " +
        util::format_double(worst_miss_free, 4) + " < target; raising b[" +
        std::to_string(worst_node) + "] -> " +
        util::format_double(result.config.b[worst_node], 3));

    if (result.config.b[worst_node] > options.max_multiplier) {
      result.log.push_back("give up: multiplier bound exceeded");
      return result;
    }
  }
  result.log.push_back("give up: round budget exhausted");
  return result;
}

MonolithicCalibrationResult calibrate_monolithic(
    const sdf::PipelineSpec& pipeline, const core::MonolithicConfig& initial,
    const std::vector<Probe>& probes, const CalibrationOptions& options) {
  RIPPLE_REQUIRE(!probes.empty(), "calibration needs at least one probe");
  MonolithicCalibrationResult result;
  result.config = initial;

  for (int round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    const core::MonolithicStrategy strategy(pipeline, result.config);

    result.final_outcomes.clear();
    double worst_miss_free = 1.0;
    bool any_feasible = false;

    for (const Probe& probe : probes) {
      ProbeOutcome outcome;
      outcome.probe = probe;
      auto solved = strategy.solve(probe.tau0, probe.deadline);
      if (solved.ok()) {
        outcome.feasible = true;
        any_feasible = true;
        const std::int64_t block = solved.value().block_size;
        auto trial_body = [&, block](std::uint64_t trial,
                                     sim::TrialMetrics& out) {
          arrivals::FixedRateArrivals arrival_process(probe.tau0);
          sim::MonolithicSimConfig config;
          config.block_size = block;
          config.input_count = options.inputs_per_trial;
          config.deadline = probe.deadline;
          config.seed = dist::derive_seed(
              {options.base_seed, 0x30701170ULL,
               static_cast<std::uint64_t>(round),
               static_cast<std::uint64_t>(probe.tau0 * 1e6),
               static_cast<std::uint64_t>(probe.deadline), trial});
          sim::simulate_monolithic_into(pipeline, arrival_process, config, out);
        };
        const sim::TrialSummary summary = sim::run_trials_into(
            trial_body, options.trials, options.pool, options.trial_grain);
        outcome.miss_free_fraction = summary.miss_free_fraction();
        outcome.mean_miss_fraction = summary.miss_fraction.mean();
        outcome.mean_active_fraction = summary.active_fraction.mean();
        worst_miss_free = std::min(worst_miss_free, outcome.miss_free_fraction);
      }
      result.final_outcomes.push_back(outcome);
    }
    result.worst_miss_free = any_feasible ? worst_miss_free : 0.0;

    if (!any_feasible) {
      result.log.push_back("round " + std::to_string(round) +
                           ": no feasible probe");
      return result;
    }
    if (worst_miss_free >= options.target_miss_free) {
      result.success = true;
      result.log.push_back(
          "round " + std::to_string(round) + ": (b=" +
          util::format_double(result.config.b, 3) + ", S=" +
          util::format_double(result.config.S, 3) + ") meets target");
      return result;
    }

    // Alternate raising the service-scale S (finer) and the block multiplier
    // b (coarser), mirroring the paper's manual "raise one or more
    // parameters" loop.
    if (round % 2 == 0) {
      result.config.S += 0.25;
      result.log.push_back("round " + std::to_string(round) + ": raising S -> " +
                           util::format_double(result.config.S, 3));
    } else {
      result.config.b += 1.0;
      result.log.push_back("round " + std::to_string(round) + ": raising b -> " +
                           util::format_double(result.config.b, 3));
    }
    if (result.config.b > options.max_multiplier) {
      result.log.push_back("give up: multiplier bound exceeded");
      return result;
    }
  }
  result.log.push_back("give up: round budget exhausted");
  return result;
}

}  // namespace ripple::calib

