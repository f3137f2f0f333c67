// JSON export of scheduling artifacts: schedules and sweep surfaces. A
// standalone pipeline document is sdf::write_pipeline_spec_json's.
//
// Output schema (stable; consumed by plotting/automation tooling):
//   pipeline (nested in each schedule):
//             { name, simd_width, nodes: [{name, service_time, mean_gain}] }
//   enforced: { tau0, deadline, b, waits, firing_intervals,
//               predicted_active_fraction, deadline_budget_used }
//   monolithic: { tau0, deadline, b, S, block_size,
//                 predicted_active_fraction, mean_block_service,
//                 worst_case_latency }
//   surface:  { tau0_values, deadline_values, cells: [...] }
#pragma once

#include <ostream>

#include "core/enforced_waits.hpp"
#include "core/monolithic.hpp"
#include "core/sweep.hpp"
#include "sdf/pipeline.hpp"
#include "util/types.hpp"

namespace ripple::core {

void write_enforced_schedule_json(std::ostream& out,
                                  const sdf::PipelineSpec& pipeline,
                                  const EnforcedWaitsConfig& config,
                                  const EnforcedWaitsSchedule& schedule,
                                  Cycles tau0, Cycles deadline);

void write_monolithic_schedule_json(std::ostream& out,
                                    const sdf::PipelineSpec& pipeline,
                                    const MonolithicConfig& config,
                                    const MonolithicSchedule& schedule,
                                    Cycles tau0, Cycles deadline);

void write_surface_json(std::ostream& out, const SweepSurface& surface);

}  // namespace ripple::core
