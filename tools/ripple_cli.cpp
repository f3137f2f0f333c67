// ripple_cli — command-line front end to the RIPPLE scheduling library.
//
//   ripple_cli describe   <pipeline.json|blast>
//   ripple_cli solve      <pipeline.json|blast> --tau0 T --deadline D [--b 1,3,9,6]
//                         [--strategy enforced|monolithic] [--json FILE]
//   ripple_cli sweep      <pipeline.json|blast> [--tau0-points N] [--d-points N]
//                         [ranges] [--csv FILE] [--json FILE]
//   ripple_cli simulate   <pipeline.json|blast> --tau0 T --deadline D
//                         [--b ...] [--trials N] [--inputs N]
//   ripple_cli predict-b  <pipeline.json|blast> --tau0 T --deadline D
//                         [--model poisson|batch] [--headroom H]
//   ripple_cli sensitivity <pipeline.json|blast> --tau0 T --deadline D [--b ...]
//   ripple_cli replay     <pipeline.json|blast> --tau0 T --tau1 T' --deadline D
//                         [--profile step|ramp|sine|fixed] [--stochastic]
//   ripple_cli serve      <pipeline.json|blast> --tau0 T --deadline D
//                         [--producers N] [--duration-ms MS]
//                         [--listen PORT] [--journal-dir DIR]
//   ripple_cli recover    <pipeline.json|blast> --journal-dir DIR
//                         --tau0 T --deadline D [control flags as recorded]
//   ripple_cli graph      <graph.json|branching-blast|telemetry-fanin>
//                         [--mode validate|plan|run] [--tau0 T --deadline D]
//                         [--b ...] [--inputs N]
//
// The literal pipeline name "blast" loads the paper's canonical Table 1
// pipeline; anything else is read as a JSON file in the schema documented in
// src/sdf/pipeline_io.hpp (emit one with `describe --json FILE`). The graph
// command takes a ripple.graph.v1 JSON file (src/graph/graph_io.hpp) or a
// builtin measured scenario name instead; builtin scenarios run through the
// vector-wide DAG executor, JSON graphs through the stochastic DAG
// simulator (arbitrary JSON carries gain models but no stage code).
#include <any>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "arrivals/arrival_process.hpp"
#include "arrivals/nonstationary.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "blast/canonical.hpp"
#include "blast/simd_kernels.hpp"
#include "cascade/simd_kernels.hpp"
#include "core/report.hpp"
#include "core/robustness.hpp"
#include "core/sweep.hpp"
#include "core/tradeoff.hpp"
#include "device/dispatch.hpp"
#include "device/kernel_registry.hpp"
#include "dist/lane_kernels.hpp"
#include "dist/rng.hpp"
#include "graph/graph_executor.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_plan.hpp"
#include "graph/graph_sim.hpp"
#include "graph/scenarios.hpp"
#include "net/journal.hpp"
#include "net/server.hpp"
#include "queueing/predict.hpp"
#include "sdf/analysis.hpp"
#include "sdf/pipeline_io.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/trial_runner.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ripple;

int usage(int code) {
  std::cerr
      << "usage: ripple_cli <command> <pipeline.json|blast> [options]\n"
         "commands:\n"
         "  describe     print the pipeline, its floors and asymptotics\n"
         "  solve        optimize a schedule (--strategy enforced|monolithic)\n"
         "  sweep        (tau0, D) active-fraction surfaces for both strategies\n"
         "  simulate     run seeded trials of the enforced-waits schedule\n"
         "  predict-b    queueing-theoretic worst-case multipliers\n"
         "  sensitivity  deadline pricing and bottleneck analysis\n"
         "  tradeoff     deadline vs active-fraction Pareto curve + knee\n"
         "  replay       closed-loop control replay over a rate profile\n"
         "  serve        live service demo: producer threads + online control\n"
         "  recover      rebuild the controller from a serve --journal-dir\n"
         "  kernels      dump the SIMD kernel dispatch catalog (no pipeline "
         "argument)\n"
         "  graph        validate/plan/run a DAG topology (ripple.graph.v1 "
         "JSON, 'branching-blast', or 'telemetry-fanin')\n"
         "run `ripple_cli <command> --help` for command options\n";
  return code;
}

util::Result<sdf::PipelineSpec> load_pipeline(const std::string& source) {
  using R = util::Result<sdf::PipelineSpec>;
  if (source == "blast") return blast::canonical_blast_pipeline();
  std::ifstream in(source);
  if (!in) return R::failure("io_error", "cannot open " + source);
  std::ostringstream text;
  text << in.rdbuf();
  return sdf::pipeline_from_json(text.str());
}

std::vector<double> parse_b(const std::string& text, std::size_t node_count) {
  if (text.empty()) return {};
  std::vector<double> b;
  for (const std::string& field : util::split(text, ',')) {
    double value = 0.0;
    if (!util::parse_double(field, value)) return {};
    b.push_back(value);
  }
  if (b.size() != node_count) return {};
  return b;
}

core::EnforcedWaitsConfig enforced_config(const sdf::PipelineSpec& pipeline,
                                          const std::string& b_text) {
  const std::vector<double> b = parse_b(b_text, pipeline.size());
  if (!b.empty()) return core::EnforcedWaitsConfig{b};
  if (b_text.empty()) return core::EnforcedWaitsConfig::optimistic(pipeline);
  throw std::logic_error("--b must list one multiplier (>= 1) per node");
}

std::string fmt(double v, int p = 4) { return util::format_double(v, p); }

/// Count flags (--trials, --shards, --producers, ...) must be positive.
/// A non-positive count is reported as the user error it is — never
/// silently clamped (a `--shards -4` that quietly ran one shard used to
/// hide real mistakes).
std::size_t positive_count(const util::CliParser& cli,
                           const std::string& name) {
  const long long value = cli.get_int(name);
  if (value <= 0) {
    throw std::logic_error("--" + name + " must be a positive count (got " +
                           std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

/// Flags where zero is meaningful (--cooldown 0, --submit-gap-us 0, seeds)
/// but negatives are still nonsense.
std::uint64_t non_negative_count(const util::CliParser& cli,
                                 const std::string& name) {
  const long long value = cli.get_int(name);
  if (value < 0) {
    throw std::logic_error("--" + name + " must be non-negative (got " +
                           std::to_string(value) + ")");
  }
  return static_cast<std::uint64_t>(value);
}

/// Arm observability recording when --trace-out/--metrics-out was given.
void enable_observability(const util::CliParser& cli) {
  if (cli.get_string("trace-out").empty() &&
      cli.get_string("metrics-out").empty()) {
    return;
  }
  obs::set_enabled(true);
  if (!obs::instrumentation_compiled()) {
    std::cerr << "warning: --trace-out/--metrics-out requested but this "
                 "build has RIPPLE_OBS=OFF; outputs will be empty\n";
  }
}

/// Write the requested observability artifacts after the command has run.
int export_observability(const util::CliParser& cli, int code) {
  const std::string& trace_path = cli.get_string("trace-out");
  if (!trace_path.empty()) {
    if (auto written = obs::export_chrome_trace_file(trace_path);
        !written.ok()) {
      std::cerr << "cannot write trace: " << written.error().message << "\n";
      return 2;
    }
    std::cout << "wrote trace " << trace_path << "\n";
  }
  const std::string& metrics_path = cli.get_string("metrics-out");
  if (!metrics_path.empty()) {
    if (auto written = obs::export_metrics_file(metrics_path);
        !written.ok()) {
      std::cerr << "cannot write metrics: " << written.error().message
                << "\n";
      return 2;
    }
    std::cout << "wrote metrics " << metrics_path << "\n";
  }
  return code;
}

// ---------------------------------------------------------------- commands

int cmd_describe(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  util::TextTable table({"node", "t_i", "mean gain", "G_i", "gain model"});
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    const bool terminal = (i + 1 == pipeline.size());
    table.add_row({pipeline.node(i).name, fmt(pipeline.service_time(i), 1),
                   terminal ? "N/A" : fmt(pipeline.mean_gain(i)),
                   fmt(pipeline.total_gain_into(i)),
                   pipeline.node(i).gain ? pipeline.node(i).gain->name() : "N/A"});
  }
  std::cout << "pipeline '" << pipeline.name() << "', v = "
            << pipeline.simd_width() << ", N = " << pipeline.size() << "\n";
  table.print(std::cout);
  std::cout << "\nmean service per input:        "
            << fmt(pipeline.mean_service_per_input()) << " cycles\n"
            << "enforced-waits rate floor:     tau0 >= "
            << fmt(sdf::min_interarrival_enforced(pipeline)) << "\n"
            << "monolithic stability floor:    tau0 >= "
            << fmt(sdf::min_interarrival_monolithic(pipeline)) << "\n";
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    sdf::write_pipeline_spec_json(out, pipeline);
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

int cmd_solve(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const double tau0 = cli.get_double("tau0");
  const double deadline = cli.get_double("deadline");
  const std::string strategy_name = cli.get_string("strategy");
  const std::string json_path = cli.get_string("json");

  if (strategy_name == "monolithic") {
    const core::MonolithicStrategy strategy(
        pipeline, {cli.get_double("block-b"), cli.get_double("S")});
    auto solved = strategy.solve(tau0, deadline);
    if (!solved.ok()) {
      std::cerr << "infeasible: " << solved.error().message << "\n";
      return 1;
    }
    std::cout << "block size M = " << solved.value().block_size
              << "\npredicted active fraction = "
              << fmt(solved.value().predicted_active_fraction)
              << "\nmean block service = "
              << fmt(solved.value().mean_block_service, 1)
              << "\nworst-case latency bound = "
              << fmt(solved.value().worst_case_latency, 1) << "\n";
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      core::write_monolithic_schedule_json(
          out, pipeline, {cli.get_double("block-b"), cli.get_double("S")},
          solved.value(), tau0, deadline);
      std::cout << "wrote " << json_path << "\n";
    }
    return 0;
  }

  const auto config = enforced_config(pipeline, cli.get_string("b"));
  const core::EnforcedWaitsStrategy strategy(pipeline, config);
  auto solved = strategy.solve(tau0, deadline);
  if (!solved.ok()) {
    std::cerr << "infeasible: " << solved.error().message << "\n";
    return 1;
  }
  util::TextTable table({"node", "t_i", "wait w_i", "interval x_i"});
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    table.add_row({pipeline.node(i).name, fmt(pipeline.service_time(i), 1),
                   fmt(solved.value().waits[i], 2),
                   fmt(solved.value().firing_intervals[i], 2)});
  }
  table.print(std::cout);
  std::cout << "\npredicted active fraction = "
            << fmt(solved.value().predicted_active_fraction)
            << "\ndeadline budget used = "
            << fmt(solved.value().deadline_budget_used, 1) << " / "
            << fmt(deadline, 1) << "\nKKT certified = "
            << (solved.value().kkt.satisfied(1e-4) ? "yes" : "NO") << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    core::write_enforced_schedule_json(out, pipeline, config, solved.value(),
                                       tau0, deadline);
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

int cmd_sweep(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const auto grid = core::SweepGrid::linear(
      cli.get_double("tau0-lo"), cli.get_double("tau0-hi"),
      positive_count(cli, "tau0-points"), cli.get_double("d-lo"),
      cli.get_double("d-hi"), positive_count(cli, "d-points"));
  util::ThreadPool pool;
  const auto surface = core::run_sweep(
      pipeline, enforced_config(pipeline, cli.get_string("b")),
      {cli.get_double("block-b"), cli.get_double("S")}, grid, {&pool});
  const auto summary = core::summarize_dominance(surface);
  std::cout << "cells: " << summary.cells_total
            << ", enforced wins " << summary.enforced_wins
            << " (max advantage " << fmt(summary.max_enforced_advantage, 3)
            << "), monolithic wins " << summary.monolithic_wins
            << " (max advantage " << fmt(summary.max_monolithic_advantage, 3)
            << ")\n";
  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    surface.write_csv(out);
    std::cout << "wrote " << csv_path << "\n";
  }
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    core::write_surface_json(out, surface);
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

int cmd_simulate(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const double tau0 = cli.get_double("tau0");
  const double deadline = cli.get_double("deadline");
  const auto config = enforced_config(pipeline, cli.get_string("b"));
  const core::EnforcedWaitsStrategy strategy(pipeline, config);
  auto solved = strategy.solve(tau0, deadline);
  if (!solved.ok()) {
    std::cerr << "infeasible: " << solved.error().message << "\n";
    return 1;
  }
  const auto intervals = solved.value().firing_intervals;
  const auto trials = static_cast<std::uint64_t>(positive_count(cli, "trials"));
  const auto inputs = static_cast<ItemCount>(positive_count(cli, "inputs"));
  const std::uint64_t seed = non_negative_count(cli, "seed");

  util::ThreadPool pool;
  const auto summary = sim::run_trials(
      [&](std::uint64_t trial) {
        arrivals::FixedRateArrivals arrival_process(tau0);
        sim::EnforcedSimConfig sim_config;
        sim_config.input_count = inputs;
        sim_config.deadline = deadline;
        sim_config.seed = dist::derive_seed({seed, trial});
        return sim::simulate_enforced_waits(pipeline, intervals,
                                            arrival_process, sim_config);
      },
      trials, &pool);
  std::cout << "trials: " << summary.trials << " x "
            << util::with_commas(inputs) << " inputs\n"
            << "miss-free trials: " << summary.miss_free_trials << " ("
            << fmt(summary.miss_free_fraction(), 3) << ", 95% CI ["
            << fmt(summary.miss_free_interval().lower, 3) << ", "
            << fmt(summary.miss_free_interval().upper, 3) << "])\n"
            << "mean miss fraction: " << fmt(summary.miss_fraction.mean(), 6)
            << "\nmeasured active fraction: "
            << fmt(summary.active_fraction.mean()) << " (predicted "
            << fmt(solved.value().predicted_active_fraction) << ")\n"
            << "worst latency: " << fmt(summary.latency_max.max(), 1)
            << " (deadline " << fmt(deadline, 1) << ")\n";
  return summary.miss_free_fraction() >= 0.95 ? 0 : 1;
}

int cmd_predict_b(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const double tau0 = cli.get_double("tau0");
  const double deadline = cli.get_double("deadline");
  const double headroom = cli.get_double("headroom");
  const auto model = cli.get_string("model") == "poisson"
                         ? queueing::ArrivalModel::kPoisson
                         : queueing::ArrivalModel::kBatch;
  const auto config = enforced_config(pipeline, cli.get_string("b"));
  const core::EnforcedWaitsStrategy strategy(pipeline, config);
  auto solved = strategy.solve(headroom * tau0, headroom * deadline);
  if (!solved.ok()) {
    std::cerr << "headroom solve infeasible: " << solved.error().message << "\n";
    return 1;
  }
  auto prediction =
      queueing::predict_b(pipeline, solved.value().firing_intervals, tau0,
                          cli.get_double("epsilon"), model);
  if (!prediction.ok()) {
    std::cerr << "prediction failed (" << prediction.error().code
              << "): " << prediction.error().message << "\n";
    return 1;
  }
  util::TextTable table({"node", "utilization", "queue q(1-eps)", "b_i"});
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    table.add_row({pipeline.node(i).name,
                   fmt(prediction.value().utilization[i], 3),
                   std::to_string(prediction.value().queue_quantiles[i]),
                   fmt(prediction.value().b[i], 0)});
  }
  table.print(std::cout);
  std::cout << "\nmodel: " << to_string(model) << ", epsilon = "
            << fmt(cli.get_double("epsilon"), 6)
            << "\npredicted worst-case latency budget: "
            << fmt(prediction.value().predicted_worst_latency, 1)
            << " (deadline " << fmt(deadline, 1) << ")\n";
  return 0;
}

int cmd_sensitivity(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const auto config = enforced_config(pipeline, cli.get_string("b"));
  const core::EnforcedWaitsStrategy strategy(pipeline, config);
  auto analysis = core::analyze_sensitivity(strategy, cli.get_double("tau0"),
                                            cli.get_double("deadline"));
  if (!analysis.ok()) {
    std::cerr << "infeasible: " << analysis.error().message << "\n";
    return 1;
  }
  util::TextTable table({"constraint", "slack", "active"});
  for (const auto& slack : analysis.value().slacks) {
    table.add_row({slack.label, fmt(slack.slack, 3), slack.active ? "yes" : ""});
  }
  table.print(std::cout);
  std::cout << "\nbottleneck: " << analysis.value().bottleneck
            << "\nmarginal value of deadline: "
            << fmt(analysis.value().deadline_multiplier * 1000.0, 6)
            << " active fraction per 1000 cycles\n";
  return 0;
}

int cmd_tradeoff(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const double tau0 = cli.get_double("tau0");
  core::TradeoffConfig config;
  config.samples = positive_count(cli, "tau0-points") * 4;
  auto curve = core::trace_tradeoff(
      pipeline, enforced_config(pipeline, cli.get_string("b")),
      {cli.get_double("block-b"), cli.get_double("S")}, tau0, config);
  if (!curve.ok()) {
    std::cerr << "infeasible: " << curve.error().message << "\n";
    return 1;
  }
  util::TextTable table({"deadline D", "enforced AF", "monolithic AF", ""});
  for (std::size_t i = 0; i < curve.value().points.size(); ++i) {
    const auto& point = curve.value().points[i];
    table.add_row(
        {fmt(point.deadline, 0),
         point.enforced_feasible ? fmt(point.enforced_active_fraction) : "--",
         point.monolithic_feasible ? fmt(point.monolithic_active_fraction)
                                   : "--",
         static_cast<std::ptrdiff_t>(i) == curve.value().knee_index ? "<- knee"
                                                                    : ""});
  }
  table.print(std::cout);
  std::cout << "\nrate/chain-limited floor: "
            << fmt(curve.value().enforced_floor) << "\n";
  if (const auto* knee = curve.value().knee()) {
    std::cout << "knee: D = " << fmt(knee->deadline, 0)
              << " (active fraction "
              << fmt(knee->enforced_active_fraction)
              << ") — past this, deadline slack buys little\n";
  }
  return 0;
}

arrivals::RateFnPtr make_rate_profile(const std::string& profile, double tau0,
                                      double tau1, Cycles switch_t) {
  const double r0 = 1.0 / tau0;
  const double r1 = 1.0 / tau1;
  if (profile == "fixed") {
    return std::make_shared<arrivals::PiecewiseConstantRate>(
        std::vector<Cycles>{0.0}, std::vector<double>{r0});
  }
  if (profile == "step") {
    return std::make_shared<arrivals::PiecewiseConstantRate>(
        std::vector<Cycles>{0.0, switch_t}, std::vector<double>{r0, r1});
  }
  if (profile == "ramp") {
    return std::make_shared<arrivals::LinearRampRate>(r0, r1, switch_t);
  }
  if (profile == "sine") {
    return std::make_shared<arrivals::SinusoidalRate>(
        0.5 * (r0 + r1), 0.5 * std::abs(r1 - r0), switch_t);
  }
  throw std::logic_error("--profile must be step|ramp|sine|fixed");
}

int cmd_replay(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const double tau0 = cli.get_double("tau0");
  const double tau1 = cli.get_double("tau1");
  const auto rate = make_rate_profile(cli.get_string("profile"), tau0, tau1,
                                      cli.get_double("switch-t"));

  service::ReplayConfig config;
  config.deadline = cli.get_double("deadline");
  config.initial_tau0 = tau0;
  config.b = parse_b(cli.get_string("b"), pipeline.size());
  config.controller.replanner.drift_threshold = cli.get_double("drift");
  config.controller.replanner.headroom = cli.get_double("headroom");
  config.controller.replanner.cooldown_ticks =
      non_negative_count(cli, "cooldown");
  config.chunk_items = positive_count(cli, "chunk-items");
  config.chunks = positive_count(cli, "chunks");
  config.sessions = positive_count(cli, "sessions");
  config.seed = non_negative_count(cli, "seed");

  arrivals::ArrivalPtr offered;
  if (cli.get_flag("stochastic")) {
    offered = std::make_unique<arrivals::ThinningArrivals>(rate);
  } else {
    offered = std::make_unique<arrivals::VariableRateArrivals>(rate);
  }

  const auto report = service::replay_trace(pipeline, *offered, config);

  util::TextTable table({"chunk", "true gap", "tau0_est", "planned", "epoch",
                         "admit", "shed", "misses", "AF"});
  const std::size_t stride = std::max<std::size_t>(1, report.chunks.size() / 16);
  for (std::size_t i = 0; i < report.chunks.size(); ++i) {
    if (i % stride != 0 && i + 1 != report.chunks.size()) continue;
    const auto& chunk = report.chunks[i];
    table.add_row({std::to_string(i), fmt(chunk.mean_gap_offered, 2),
                   fmt(chunk.tau0_estimate, 2), fmt(chunk.planned_tau0, 2),
                   std::to_string(chunk.plan_epoch),
                   std::to_string(chunk.admitted_sessions),
                   std::to_string(chunk.shed),
                   std::to_string(chunk.deadline_misses),
                   fmt(chunk.active_fraction, 3)});
  }
  table.print(std::cout);

  std::cout << "\noffered " << util::with_commas(report.total_offered)
            << ", admitted " << util::with_commas(report.total_admitted)
            << ", shed " << util::with_commas(report.total_shed)
            << ", misses " << util::with_commas(report.total_misses) << "\n"
            << "replans: " << report.controller.replans << " ("
            << report.controller.slack_forced << " slack-forced, "
            << report.controller.solve_failures << " solve failures) over "
            << report.controller.ticks << " ticks\n"
            << "final plan: epoch " << report.final_plan->epoch
            << ", planned tau0 " << fmt(report.final_plan->planned_tau0, 3)
            << (report.final_plan->shedding ? " (shedding)" : "") << "\n";

  // Offline oracle: solve directly at the final chunk's true rate.
  const auto config_b = enforced_config(pipeline, cli.get_string("b"));
  const core::EnforcedWaitsStrategy oracle(pipeline, config_b);
  const Cycles oracle_tau0 = cli.get_double("headroom") *
                             report.chunks.back().mean_gap_offered;
  if (auto solved = oracle.solve(oracle_tau0, config.deadline); solved.ok()) {
    double max_rel = 0.0;
    for (std::size_t i = 0; i < pipeline.size(); ++i) {
      const double rel =
          std::abs(report.final_plan->schedule.firing_intervals[i] -
                   solved.value().firing_intervals[i]) /
          solved.value().firing_intervals[i];
      max_rel = std::max(max_rel, rel);
    }
    std::cout << "oracle (tau0 " << fmt(oracle_tau0, 3)
              << "): max relative interval gap " << fmt(max_rel, 6) << "\n";
  }
  return 0;
}

/// The controller configuration `serve` runs under — and therefore the one
/// `recover` must rebuild with. Shared so the journal fingerprint derived
/// from it is identical on both sides.
control::ControllerConfig serve_controller_config(const util::CliParser& cli) {
  control::ControllerConfig controller;
  controller.replanner.headroom = cli.get_double("headroom");
  controller.replanner.drift_threshold = cli.get_double("drift");
  controller.replanner.cooldown_ticks = non_negative_count(cli, "cooldown");
  return controller;
}

int cmd_serve(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  service::ServiceConfig config;
  config.deadline = cli.get_double("deadline");
  config.initial_tau0 = cli.get_double("tau0");
  config.b = parse_b(cli.get_string("b"), pipeline.size());
  config.controller = serve_controller_config(cli);
  config.shards = positive_count(cli, "shards");
  config.pin_workers = cli.get_flag("pin");

  const long long listen = cli.get_int("listen");
  if (listen > 65535) throw std::logic_error("--listen must be a port");
  const std::string journal_dir = cli.get_string("journal-dir");
  if (!journal_dir.empty() && config.shards != 1) {
    throw std::logic_error(
        "--journal-dir requires --shards 1 (drain records carry no shard "
        "identity, so a multi-shard journal would not replay "
        "deterministically)");
  }

  service::PipelineService svc(pipeline,
                               service::synthetic_stage_factory(pipeline),
                               config);

  std::unique_ptr<net::ArrivalJournal> journal;
  if (!journal_dir.empty()) {
    net::JournalConfig jconfig;
    jconfig.dir = journal_dir;
    jconfig.fingerprint = net::ControlFingerprint::from(
        config.deadline, config.initial_tau0, config.controller);
    journal = std::make_unique<net::ArrivalJournal>(jconfig, &svc.controller());
    svc.set_ingest_observer(journal.get());
  }
  svc.start();

  std::unique_ptr<net::IngestServer> server;
  if (listen >= 0) {
    net::ServerConfig sconfig;
    sconfig.port = static_cast<std::uint16_t>(listen);
    server = std::make_unique<net::IngestServer>(svc, sconfig);
    server->start();
    std::cout << "listening on " << sconfig.bind_address << ":"
              << server->port() << "\n";
  }

  const std::size_t producers = positive_count(cli, "producers");
  const auto duration = std::chrono::milliseconds(
      static_cast<long long>(positive_count(cli, "duration-ms")));
  const std::size_t batch = positive_count(cli, "submit-batch");
  const auto gap = std::chrono::microseconds(
      static_cast<long long>(non_negative_count(cli, "submit-gap-us")));

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const auto until = std::chrono::steady_clock::now() + duration;
      std::uint64_t counter = p << 32;
      if (server) {
        // Producers exercise the wire path: each is a loopback TCP client
        // streaming kItemBatch frames at the server.
        net::IngestClient client("127.0.0.1", server->port());
        const std::uint64_t wire_id = p + 1;
        client.open_session(wire_id);
        std::vector<std::uint64_t> items(batch);
        while (std::chrono::steady_clock::now() < until) {
          for (std::size_t k = 0; k < batch; ++k) items[k] = counter++;
          client.send_items(wire_id, items.data(), items.size());
          client.poll_notifications();
          if (gap.count() > 0) std::this_thread::sleep_for(gap);
        }
        client.close_session(wire_id);
        client.finish();
      } else {
        const service::SessionId session = svc.open_session();
        while (std::chrono::steady_clock::now() < until) {
          std::vector<runtime::Item> items;
          items.reserve(batch);
          for (std::size_t k = 0; k < batch; ++k) {
            items.emplace_back(std::any(counter++));
          }
          svc.submit(session, std::move(items));
          if (gap.count() > 0) std::this_thread::sleep_for(gap);
        }
        svc.close_session(session);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (server) server->stop();
  svc.stop();
  if (journal) {
    svc.set_ingest_observer(nullptr);
    journal->flush();
  }

  const service::ServiceStats stats = svc.stats();
  const control::ControllerStats loop = svc.controller().stats();
  std::cout << "submitted " << util::with_commas(stats.submitted)
            << ", accepted " << util::with_commas(stats.accepted)
            << ", backpressure "
            << util::with_commas(stats.rejected_backpressure) << ", shed "
            << util::with_commas(stats.shed) << "\n"
            << "batches " << util::with_commas(stats.batches) << ", executed "
            << util::with_commas(stats.executed_items) << ", sink outputs "
            << util::with_commas(stats.sink_outputs) << ", misses "
            << util::with_commas(stats.deadline_misses) << "\n"
            << "failed batches " << util::with_commas(stats.failed_batches)
            << " (stage_exception "
            << util::with_commas(stats.failed_stage_exception)
            << ", event_budget " << util::with_commas(stats.failed_event_budget)
            << "), failed items " << util::with_commas(stats.failed_items)
            << "\n"
            << "control: " << loop.replans << " replans over " << loop.ticks
            << " ticks, plan epoch " << stats.plan_epoch << ", tau0_est "
            << fmt(svc.controller().estimator().tau0(), 2) << "\n";
  if (svc.shards() > 1) {
    util::TextTable table({"shard", "sessions", "batches", "executed",
                           "failed batches", "failed items", "epoch", "depth",
                           "watermark"});
    for (std::size_t s = 0; s < svc.shards(); ++s) {
      const service::ShardStats shard = svc.shard_stats(s);
      table.add_row({std::to_string(s), std::to_string(shard.open_sessions),
                     util::with_commas(shard.batches),
                     util::with_commas(shard.executed_items),
                     util::with_commas(shard.failed_batches),
                     util::with_commas(shard.failed_items),
                     std::to_string(shard.plan_epoch),
                     std::to_string(shard.queue_depth),
                     shard.admitted_watermark == UINT64_MAX
                         ? std::string("open")
                         : std::to_string(shard.admitted_watermark)});
    }
    table.print(std::cout);
  }
  if (server) {
    const net::ServerStats sstats = server->stats();
    std::cout << "net: " << sstats.connections_accepted << " connections, "
              << util::with_commas(sstats.frames_in) << " frames, "
              << util::with_commas(sstats.items_in) << " items in, "
              << util::with_commas(sstats.items_rejected) << " rejected, "
              << sstats.protocol_errors << " protocol errors\n";
  }
  if (journal) {
    const net::JournalStats jstats = journal->stats();
    std::cout << "journal: " << util::with_commas(jstats.records)
              << " records (" << util::with_commas(jstats.arrivals)
              << " arrivals over " << util::with_commas(jstats.drains)
              << " drains), " << jstats.commits << " commits, "
              << util::with_commas(jstats.bytes) << " bytes, "
              << jstats.snapshots << " snapshots\n";
  }
  return stats.executed_items == stats.accepted ? 0 : 1;
}

int cmd_recover(const sdf::PipelineSpec& pipeline, util::CliParser& cli) {
  const std::string journal_dir = cli.get_string("journal-dir");
  if (journal_dir.empty()) {
    throw std::logic_error("recover requires --journal-dir");
  }
  const double deadline = cli.get_double("deadline");
  const double tau0 = cli.get_double("tau0");
  const control::ControllerConfig controller_config =
      serve_controller_config(cli);

  // Rebuild the controller exactly as the journaled serve run built its
  // shard-0 controller; the snapshot fingerprint rejects any mismatch.
  control::Controller controller(
      pipeline, enforced_config(pipeline, cli.get_string("b")), deadline,
      tau0, controller_config);
  const net::ControlFingerprint fingerprint =
      net::ControlFingerprint::from(deadline, tau0, controller_config);
  const net::RecoveryReport report =
      net::recover_journal(journal_dir, fingerprint, controller);

  std::cout << "recovered from " << journal_dir << ": "
            << (report.snapshot_loaded
                    ? "snapshot (" +
                          util::with_commas(report.records_in_snapshot) +
                          " records) + "
                    : std::string())
            << util::with_commas(report.records_replayed)
            << " replayed records (" << util::with_commas(report.drains_replayed)
            << " drains, " << util::with_commas(report.arrivals_replayed)
            << " arrivals)";
  if (report.torn_bytes > 0) {
    std::cout << ", torn tail " << report.torn_bytes << " bytes discarded";
  }
  std::cout << "\nopen sessions: " << report.open_sessions.size()
            << ", last arrival " << fmt(report.last_arrival, 2) << "\n";
  const control::ControllerStats stats = controller.stats();
  const control::PlanPtr plan = controller.plan();
  std::cout << "controller: " << stats.ticks << " ticks, " << stats.replans
            << " replans, tau0_est " << fmt(controller.estimator().tau0(), 2)
            << "\nplan: epoch " << plan->epoch << ", planned tau0 "
            << fmt(plan->planned_tau0, 3)
            << (plan->shedding ? " (shedding)" : "") << "\n";
  return 0;
}


/// Register every subsystem's kernels with the process-wide registry and
/// apply the dispatch flags: --simd-level pins the global cap (clamped by
/// capability, like RIPPLE_SIMD_LEVEL), --simd-autotune runs the gated
/// deterministic microbench pass so resolution prefers measured winners.
device::AutotuneReport configure_dispatch(const util::CliParser& cli) {
  blast::simd::register_kernels();
  cascade::simd::register_kernels();
  dist::lanes::register_kernels();
  const std::string& level_text = cli.get_string("simd-level");
  if (!level_text.empty()) {
    const std::optional<device::SimdLevel> level =
        device::parse_simd_level(level_text);
    if (!level.has_value()) {
      throw std::logic_error("--simd-level must be scalar|neon|avx2|avx512 (got " +
                             level_text + ")");
    }
    device::set_simd_override(level);
  }
  if (cli.get_flag("simd-autotune")) {
    return device::KernelRegistry::instance().autotune();
  }
  return {};
}

int cmd_kernels(const util::CliParser& cli) {
  const device::AutotuneReport report = configure_dispatch(cli);
  device::KernelRegistry& registry = device::KernelRegistry::instance();
  std::cout << "active level: "
            << device::to_string(device::active_simd_level()) << " (detected "
            << device::to_string(device::detected_simd_level()) << ")\n";
  util::TextTable table(
      {"kernel", "subsystem", "level", "lanes", "supported", "resolved"});
  for (const device::KernelCatalogRow& row : registry.dump()) {
    const bool resolved = registry.resolved_level(row.kernel) == row.level;
    table.add_row({row.kernel, row.subsystem, device::to_string(row.level),
                   std::to_string(row.lanes), row.supported ? "yes" : "no",
                   resolved ? "<-" : ""});
  }
  table.print(std::cout);
  if (!report.kernels.empty()) {
    std::cout << "\nautotune (" << fmt(report.wall_us, 1) << " us wall):\n";
    util::TextTable tuned({"kernel", "level", "lanes", "ns/item"});
    for (const device::AutotuneKernelReport& kernel : report.kernels) {
      for (const device::AutotuneMeasurement& m : kernel.measured) {
        tuned.add_row({kernel.kernel, device::to_string(m.level),
                       std::to_string(m.lanes),
                       fmt(m.ns_per_item, 2) +
                           (m.level == kernel.winner ? "  <- winner" : "")});
      }
    }
    tuned.print(std::cout);
  }
  return 0;
}

/// Graph sources: a builtin measured scenario (with stage code, runnable on
/// the DAG executor) or a ripple.graph.v1 JSON file (gain models only,
/// runnable on the stochastic DAG simulator).
util::Result<graph::GraphScenario> load_graph(const std::string& source) {
  using R = util::Result<graph::GraphScenario>;
  if (source == "branching-blast") return graph::branching_blast_scenario();
  if (source == "telemetry-fanin") return graph::telemetry_fanin_scenario();
  std::ifstream in(source);
  if (!in) return R::failure("io_error", "cannot open " + source);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = graph::graph_from_json(text.str());
  if (!parsed.ok()) return R::failure(parsed.error().code,
                                      parsed.error().message);
  return graph::GraphScenario{std::move(parsed).take(), {}};
}

void print_graph_summary(const graph::GraphSpec& g) {
  const std::vector<Cycles> minimal = g.minimal_firing_intervals();
  std::cout << "graph '" << g.name() << "', v = " << g.simd_width()
            << ", N = " << g.size() << ", E = " << g.edge_count()
            << (g.is_linear() ? " (linear chain)" : "") << "\n";
  util::TextTable nodes({"node", "kind", "t_u", "in", "out", "flow", "L_u"});
  for (NodeIndex u = 0; u < g.size(); ++u) {
    nodes.add_row({g.node(u).name, graph::node_kind_name(g.node(u).kind),
                   fmt(g.service_time(u), 1),
                   std::to_string(g.in_edges(u).size()),
                   std::to_string(g.out_edges(u).size()),
                   fmt(g.node_flow(u)), fmt(minimal[u], 1)});
  }
  nodes.print(std::cout);
  util::TextTable edges({"edge", "mean gain", "gain model", "flow"});
  for (graph::EdgeIndex e = 0; e < g.edge_count(); ++e) {
    edges.add_row({g.node(g.edge(e).from).name + " -> " +
                       g.node(g.edge(e).to).name,
                   fmt(g.edge(e).mean_gain()),
                   g.edge(e).gain ? g.edge(e).gain->name() : "N/A",
                   fmt(g.edge_flow(e))});
  }
  edges.print(std::cout);
  if (auto paths = g.enumerate_paths(); paths.ok()) {
    std::cout << "source -> sink paths: " << paths.value().size() << "\n";
  } else {
    std::cout << "source -> sink paths: > 64 (" << paths.error().code
              << ")\n";
  }
}

void print_graph_metrics(const graph::GraphSpec& g,
                         const sim::TrialMetrics& m) {
  util::TextTable table({"node", "firings", "empty", "consumed", "produced",
                         "occupancy", "max queue"});
  for (NodeIndex u = 0; u < g.size(); ++u) {
    const sim::NodeMetrics& node = m.nodes[u];
    table.add_row({g.node(u).name, std::to_string(node.firings),
                   std::to_string(node.empty_firings),
                   std::to_string(node.items_consumed),
                   std::to_string(node.items_produced),
                   fmt(node.mean_occupancy(m.vector_width), 3),
                   std::to_string(node.max_queue_length)});
  }
  table.print(std::cout);
  std::cout << "inputs arrived = " << m.inputs_arrived
            << ", on time = " << m.inputs_on_time
            << ", missed = " << m.inputs_missed
            << "\nsink outputs = " << m.sink_outputs << "\n";
  if (m.output_latency.count() > 0) {
    std::cout << "output latency mean/min/max = "
              << fmt(m.output_latency.mean(), 1) << " / "
              << fmt(m.output_latency.min(), 1) << " / "
              << fmt(m.output_latency.max(), 1) << " cycles\n";
  }
  std::cout << "makespan = " << fmt(m.makespan, 1) << " cycles\n";
}

int cmd_graph(util::CliParser& cli) {
  if (cli.positional().empty()) {
    std::cerr << "missing graph source (a ripple.graph.v1 JSON file, "
                 "'branching-blast', or 'telemetry-fanin')\n";
    return usage(2);
  }
  auto loaded = load_graph(cli.positional()[0]);
  if (!loaded.ok()) {
    std::cerr << "cannot load graph (" << loaded.error().code
              << "): " << loaded.error().message << "\n";
    return 2;
  }
  const graph::GraphSpec& g = loaded.value().graph;
  const std::string mode = cli.get_string("mode");
  if (mode != "validate" && mode != "plan" && mode != "run") {
    std::cerr << "--mode must be validate|plan|run (got '" << mode << "')\n";
    return 2;
  }

  print_graph_summary(g);
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << graph::graph_to_json(g);
    std::cout << "wrote " << json_path << "\n";
  }
  if (mode == "validate") return 0;

  const std::vector<double> b = parse_b(cli.get_string("b"), g.size());
  if (!b.empty() && b.size() != g.size()) {
    throw std::logic_error("--b must list one multiplier (>= 1) per node");
  }
  graph::GraphPlanner planner(
      g, b.empty() ? graph::GraphPlanConfig::optimistic(g)
                   : graph::GraphPlanConfig{b});
  const double tau0 = cli.get_double("tau0");
  const double deadline = cli.get_double("deadline");
  auto solved = planner.solve(tau0, deadline);
  if (!solved.ok()) {
    std::cerr << "infeasible (" << solved.error().code
              << "): " << solved.error().message
              << "\nmin feasible deadline at this tau0 = "
              << fmt(planner.min_feasible_deadline(tau0), 1) << "\n";
    return 1;
  }
  const graph::GraphSchedule& schedule = solved.value();
  std::cout << "\nplan at tau0 = " << fmt(tau0, 1) << ", D = "
            << fmt(deadline, 1)
            << (schedule.lowered_linear ? " (chain-solver delegation)"
                                        : " (per-path barrier, KKT "
                                          "certified)")
            << "\n";
  util::TextTable plan({"node", "t_u", "w_u", "x_u"});
  for (NodeIndex u = 0; u < g.size(); ++u) {
    plan.add_row({g.node(u).name, fmt(g.service_time(u), 1),
                  fmt(schedule.waits[u], 2),
                  fmt(schedule.firing_intervals[u], 2)});
  }
  plan.print(std::cout);
  std::cout << "predicted active fraction = "
            << fmt(schedule.predicted_active_fraction)
            << "\ndeadline budget used = "
            << fmt(schedule.deadline_budget_used, 1) << " of "
            << fmt(deadline, 1) << "\n";
  if (mode == "plan") return 0;

  const auto inputs = positive_count(cli, "inputs");
  const auto seed = non_negative_count(cli, "seed");
  if (!loaded.value().stages.empty()) {
    // Builtin scenario: real stage code through the vector-wide DAG engine.
    graph::GraphExecutorConfig config;
    config.firing_intervals = schedule.firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    const graph::GraphExecutor executor(g, loaded.value().stages);
    auto run = executor.run(graph::scenario_inputs(inputs, seed), config);
    if (!run.ok()) {
      std::cerr << "run failed (" << run.error().code
                << "): " << run.error().message << "\n";
      return 1;
    }
    std::cout << "\nvector-wide DAG executor, " << inputs << " inputs:\n";
    print_graph_metrics(g, run.value().base);
    return 0;
  }
  // JSON graph: no stage code — stochastic simulation of the gain models.
  arrivals::FixedRateArrivals arrival_process(tau0);
  sim::EnforcedSimConfig config;
  config.input_count = static_cast<ItemCount>(inputs);
  config.deadline = deadline;
  config.seed = seed;
  config.initial_offsets = sim::aligned_phase_offsets(graph::graph_topology(g));
  const sim::TrialMetrics metrics = graph::simulate_graph_enforced(
      g, schedule.firing_intervals, arrival_process, config);
  std::cout << "\nstochastic DAG simulation, " << inputs << " inputs:\n";
  print_graph_metrics(g, metrics);
  return 0;
}

}  // namespace

int main(int argc, const char** argv) {
  if (argc < 2) return usage(2);
  const std::string command = argv[1];

  util::CliParser cli;
  cli.add_double("tau0", 20.0, "inter-arrival time (cycles)");
  cli.add_double("deadline", 185000.0, "end-to-end deadline D (cycles)");
  cli.add_string("b", "", "enforced-waits multipliers, comma separated");
  cli.add_double("block-b", 1.0, "monolithic queue multiplier b");
  cli.add_double("S", 1.0, "monolithic worst-case scale S");
  cli.add_string("strategy", "enforced", "solve: enforced|monolithic");
  cli.add_string("csv", "", "write CSV output here");
  cli.add_string("json", "", "write JSON output here");
  cli.add_int("trials", 20, "simulate: seeded trials");
  cli.add_int("inputs", 20000, "simulate: inputs per trial");
  cli.add_int("seed", 2021, "base RNG seed");
  cli.add_double("tau0-lo", 1.0, "sweep: tau0 range start");
  cli.add_double("tau0-hi", 100.0, "sweep: tau0 range end");
  cli.add_int("tau0-points", 12, "sweep: tau0 grid points");
  cli.add_double("d-lo", 2e4, "sweep: deadline range start");
  cli.add_double("d-hi", 3.5e5, "sweep: deadline range end");
  cli.add_int("d-points", 8, "sweep: deadline grid points");
  cli.add_string("model", "batch", "predict-b: poisson|batch");
  cli.add_string("mode", "validate", "graph: validate|plan|run");
  cli.add_double("headroom", 0.9,
                 "predict-b: solve at (h*tau0, h*D); replay/serve: re-plan "
                 "at h*tau0_est");
  cli.add_double("epsilon", 1e-4, "predict-b: queue-quantile tail level");
  cli.add_double("tau1", 10.0, "replay: post-step/ramp inter-arrival time");
  cli.add_string("profile", "step", "replay: step|ramp|sine|fixed");
  cli.add_double("switch-t", 5e5,
                 "replay: step time / ramp duration / sine period (cycles)");
  cli.add_flag("stochastic", false,
               "replay: thinned Poisson arrivals instead of deterministic");
  cli.add_int("chunk-items", 256, "replay: arrivals per control interval");
  cli.add_int("chunks", 64, "replay: control intervals");
  cli.add_int("sessions", 4, "replay: symmetric producer sessions");
  cli.add_double("drift", 0.05,
                 "replay/serve: re-plan drift threshold (the floor of the "
                 "estimator's 3-standard-error noise band)");
  cli.add_int("cooldown", 1, "replay: ticks between re-solves");
  cli.add_int("producers", 2, "serve: producer threads");
  cli.add_int("shards", 1, "serve: shard workers (sessions hash to a shard)");
  cli.add_flag("pin", false, "serve: pin each shard worker to a core");
  cli.add_int("duration-ms", 200, "serve: wall-clock run time");
  cli.add_int("submit-batch", 8, "serve: items per submission");
  cli.add_int("submit-gap-us", 500, "serve: producer sleep between submissions");
  cli.add_int("listen", -1,
              "serve: accept ripple.frame.v1 ingest on this TCP port "
              "(0 picks an ephemeral port; producers become loopback clients)");
  cli.add_string("journal-dir", "",
                 "serve: journal every admitted arrival here for recovery; "
                 "recover: the directory to rebuild from");
  cli.add_string("trace-out", "",
                 "write a Chrome trace_event timeline here (RIPPLE_OBS builds)");
  cli.add_string("metrics-out", "",
                 "write the metrics registry as JSON here (RIPPLE_OBS builds)");
  cli.add_string("simd-level", "",
                 "pin kernel dispatch: scalar|neon|avx2|avx512 (clamped by "
                 "host capability; also settable via RIPPLE_SIMD_LEVEL)");
  cli.add_flag("simd-autotune", false,
               "run the deterministic kernel microbench pass at startup and "
               "dispatch to measured winners");

  auto parsed = cli.parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::cerr << parsed.error().message << "\n";
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("ripple_cli " + command) << std::endl;
    return 0;
  }
  try {
    if (command == "kernels") return cmd_kernels(cli);
    configure_dispatch(cli);
    if (command == "graph") {
      enable_observability(cli);
      return export_observability(cli, cmd_graph(cli));
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  if (cli.positional().empty()) {
    std::cerr << "missing pipeline source (a JSON file, or 'blast')\n";
    return usage(2);
  }
  auto pipeline = load_pipeline(cli.positional()[0]);
  if (!pipeline.ok()) {
    std::cerr << "cannot load pipeline (" << pipeline.error().code
              << "): " << pipeline.error().message << "\n";
    return 2;
  }

  enable_observability(cli);

  try {
    if (command == "describe")
      return export_observability(cli, cmd_describe(pipeline.value(), cli));
    if (command == "solve")
      return export_observability(cli, cmd_solve(pipeline.value(), cli));
    if (command == "sweep")
      return export_observability(cli, cmd_sweep(pipeline.value(), cli));
    if (command == "simulate")
      return export_observability(cli, cmd_simulate(pipeline.value(), cli));
    if (command == "predict-b")
      return export_observability(cli, cmd_predict_b(pipeline.value(), cli));
    if (command == "sensitivity")
      return export_observability(cli, cmd_sensitivity(pipeline.value(), cli));
    if (command == "tradeoff")
      return export_observability(cli, cmd_tradeoff(pipeline.value(), cli));
    if (command == "replay")
      return export_observability(cli, cmd_replay(pipeline.value(), cli));
    if (command == "serve")
      return export_observability(cli, cmd_serve(pipeline.value(), cli));
    if (command == "recover")
      return export_observability(cli, cmd_recover(pipeline.value(), cli));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return usage(2);
}
