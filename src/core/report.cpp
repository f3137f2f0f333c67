#include "core/report.hpp"

#include "util/json.hpp"

namespace ripple::core {

namespace {

void pipeline_body(util::JsonWriter& json, const sdf::PipelineSpec& pipeline) {
  json.member("name", pipeline.name());
  json.member("simd_width", static_cast<std::uint64_t>(pipeline.simd_width()));
  json.key("nodes").begin_array();
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    json.begin_object();
    json.member("name", pipeline.node(i).name);
    json.member("service_time", pipeline.service_time(i));
    if (pipeline.node(i).gain) {
      json.member("mean_gain", pipeline.mean_gain(i));
      json.member("gain_model", pipeline.node(i).gain->name());
    } else {
      json.key("mean_gain").null();
    }
    json.end_object();
  }
  json.end_array();
}

void vector_member(util::JsonWriter& json, std::string_view name,
                   const std::vector<double>& values) {
  json.key(name).begin_array();
  for (double v : values) json.value(v);
  json.end_array();
}

}  // namespace

void write_enforced_schedule_json(std::ostream& out,
                                  const sdf::PipelineSpec& pipeline,
                                  const EnforcedWaitsConfig& config,
                                  const EnforcedWaitsSchedule& schedule,
                                  Cycles tau0, Cycles deadline) {
  util::JsonWriter json(out);
  json.begin_object();
  json.member("strategy", "enforced_waits");
  json.member("tau0", tau0);
  json.member("deadline", deadline);
  json.key("pipeline").begin_object();
  pipeline_body(json, pipeline);
  json.end_object();
  vector_member(json, "b", config.b);
  vector_member(json, "waits", schedule.waits);
  vector_member(json, "firing_intervals", schedule.firing_intervals);
  json.member("predicted_active_fraction", schedule.predicted_active_fraction);
  json.member("deadline_budget_used", schedule.deadline_budget_used);
  json.member("kkt_satisfied", schedule.kkt.satisfied(1e-4));
  json.end_object();
  out << '\n';
}

void write_monolithic_schedule_json(std::ostream& out,
                                    const sdf::PipelineSpec& pipeline,
                                    const MonolithicConfig& config,
                                    const MonolithicSchedule& schedule,
                                    Cycles tau0, Cycles deadline) {
  util::JsonWriter json(out);
  json.begin_object();
  json.member("strategy", "monolithic");
  json.member("tau0", tau0);
  json.member("deadline", deadline);
  json.key("pipeline").begin_object();
  pipeline_body(json, pipeline);
  json.end_object();
  json.member("b", config.b);
  json.member("S", config.S);
  json.member("block_size", static_cast<std::int64_t>(schedule.block_size));
  json.member("predicted_active_fraction", schedule.predicted_active_fraction);
  json.member("mean_block_service", schedule.mean_block_service);
  json.member("worst_case_latency", schedule.worst_case_latency);
  json.end_object();
  out << '\n';
}

void write_surface_json(std::ostream& out, const SweepSurface& surface) {
  util::JsonWriter json(out);
  json.begin_object();
  vector_member(json, "tau0_values", surface.grid().tau0_values);
  vector_member(json, "deadline_values", surface.grid().deadline_values);
  json.key("cells").begin_array();
  for (const SweepCell& cell : surface.cells()) {
    json.begin_object();
    json.member("tau0", cell.tau0);
    json.member("deadline", cell.deadline);
    json.member("enforced_feasible", cell.enforced_feasible);
    json.member("enforced_active_fraction", cell.enforced_active_fraction);
    json.member("monolithic_feasible", cell.monolithic_feasible);
    json.member("monolithic_active_fraction", cell.monolithic_active_fraction);
    json.member("monolithic_block", static_cast<std::int64_t>(cell.monolithic_block));
    json.member("difference", cell.difference());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace ripple::core
