#include "service/replay.hpp"

#include <utility>

#include "dist/rng.hpp"
#include "sim/enforced_sim.hpp"
#include "util/assert.hpp"

namespace ripple::service {

ReplayReport replay_trace(const sdf::PipelineSpec& pipeline,
                          arrivals::ArrivalProcess& offered,
                          const ReplayConfig& config) {
  RIPPLE_REQUIRE(config.chunk_items > 0, "chunk_items must be positive");
  RIPPLE_REQUIRE(config.chunks > 0, "chunks must be positive");
  RIPPLE_REQUIRE(config.sessions > 0, "sessions must be positive");

  core::EnforcedWaitsConfig waits;
  if (config.b.empty()) {
    waits = core::EnforcedWaitsConfig::optimistic(pipeline);
  } else {
    waits.b = config.b;
  }
  control::Controller controller(pipeline, std::move(waits), config.deadline,
                                 config.initial_tau0, config.controller);

  dist::Xoshiro256 arrival_rng(dist::derive_seed({config.seed, 0x5eA}));
  ReplayReport report;
  report.chunks.reserve(config.chunks);

  std::size_t admitted_sessions = controller.admitted_sessions(config.sessions);
  std::vector<Cycles> offered_gaps;
  std::vector<Cycles> offered_stamps;
  std::vector<Cycles> admitted_gaps;
  Cycles clock = 0.0;       // virtual arrival time of the newest offered item
  Cycles last_stamp = 0.0;  // the controller feed's carry, as in drain_shard
  sim::TrialMetrics metrics;

  for (std::size_t chunk = 0; chunk < config.chunks; ++chunk) {
    // 1. Draw the offered gaps for this control interval.
    offered_gaps.clear();
    Cycles offered_sum = 0.0;
    for (std::size_t j = 0; j < config.chunk_items; ++j) {
      const Cycles gap = offered.next_interarrival(arrival_rng);
      offered_gaps.push_back(gap);
      offered_sum += gap;
    }

    // 2. Admission cut: arrival j belongs to session j mod S; sessions at or
    // beyond the admitted count are shed, their gaps merging into the next
    // admitted arrival's gap (the shed item still occupies wall time).
    admitted_gaps.clear();
    Cycles carried = 0.0;
    std::uint64_t shed_count = 0;
    for (std::size_t j = 0; j < offered_gaps.size(); ++j) {
      carried += offered_gaps[j];
      if (j % config.sessions < admitted_sessions) {
        admitted_gaps.push_back(carried);
        carried = 0.0;
      } else {
        ++shed_count;
      }
    }

    // 3. Simulate the admitted stream under the plan in force at chunk
    // start. A fully shed chunk (admitted_sessions == 0) skips the sim.
    const control::PlanPtr plan = controller.plan();
    ReplayChunk record;
    record.mean_gap_offered =
        offered_sum / static_cast<double>(config.chunk_items);
    record.planned_tau0 = plan->planned_tau0;
    record.plan_epoch = plan->epoch;
    record.shedding = plan->shedding;
    record.admitted_sessions = admitted_sessions;
    record.offered = offered_gaps.size();
    record.admitted = admitted_gaps.size();
    record.shed = shed_count;

    if (!admitted_gaps.empty()) {
      arrivals::TraceArrivals trace(admitted_gaps);
      sim::EnforcedSimConfig sim_config;
      sim_config.input_count = admitted_gaps.size();
      sim_config.deadline = config.deadline;
      sim_config.seed = dist::derive_seed({config.seed, chunk + 1});
      sim::simulate_enforced_waits_into(pipeline,
                                        plan->schedule.firing_intervals, trace,
                                        sim_config, metrics);
      record.deadline_misses = metrics.inputs_missed;
      record.worst_latency = metrics.output_latency.max();
      record.active_fraction = metrics.active_fraction();
      controller.observe_worst_latency(record.worst_latency);
    }

    // 4. Feed the offered arrivals as stamps through the same feed the live
    // worker uses, tick, and recompute admission for the next chunk — the
    // same between-batches cadence as the live worker.
    offered_stamps.clear();
    for (const Cycles gap : offered_gaps) offered_stamps.push_back(clock += gap);
    last_stamp = controller.observe_arrivals(offered_stamps, last_stamp);
    const control::ControlDecision decision = controller.tick();
    record.tau0_estimate = decision.tau0_estimate;
    admitted_sessions = controller.admitted_sessions(config.sessions);

    report.total_offered += record.offered;
    report.total_admitted += record.admitted;
    report.total_shed += record.shed;
    report.total_misses += record.deadline_misses;
    report.chunks.push_back(std::move(record));
  }

  report.final_plan = controller.plan();
  report.controller = controller.stats();
  return report;
}

}  // namespace ripple::service
