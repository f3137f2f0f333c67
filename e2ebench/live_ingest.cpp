// Workload live_ingest: the production path under open-loop load.
//
// One net::IngestClient (this thread, one connection, several wire sessions
// so both shards carry load) streams fixed-size ripple.frame.v1 item frames
// with Poisson frame gaps into net::IngestServer -> service::PipelineService
// (set up as `ripple_cli serve blast` sets it up: Table-1 spec, default
// tau0/deadline/controller/cycles_per_us, but 2 shards and 1 executor thread
// each) -> sink. Four threads in all: client, server, two shard workers.
//
// Stages are service::synthetic_stages wrapped by a benchmark-owned
// StageFactory: the wrapper passes each u64 payload (a sequence number)
// through unchanged and timestamps it at the sink (and, traced, at stage-0
// entry and around every stage call).
//
// The offered rate follows a fixed ladder: rung `lo` (light), rung `hi`
// (heavy but sustainable on a 4-core host), then rungs above `hi` that
// search for the knee. Latency is timed from each frame's *due* send time,
// so generator stalls count against the system. A rung passes when its p99
// meets kLatencyLimitUs, nothing is refused, lost or past its deadline, and
// the backlog drains within kDrainBoundMs after the last send; the first
// rung that fails ends the knee search. A drain that never completes (e.g. a shard worker spinning on
// idle firings) fails the run instead of hanging it: the service threads are
// abandoned and the process exits after printing its result.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "blast/canonical.hpp"
#include "common.hpp"
#include "control/controller.hpp"
#include "dist/rng.hpp"
#include "net/server.hpp"
#include "service/service.hpp"

namespace e2e {
namespace {

using namespace ripple;

constexpr std::size_t kSetups = 21;
constexpr std::size_t kShards = 2;
constexpr std::size_t kSessions = 32;
constexpr std::size_t kFrameItems = 64;
/// p99 latency limit (due time -> sink) a rung must meet to count as
/// sustained.
constexpr double kLatencyLimitUs = 50000.0;
/// How long after its last frame a rung's backlog may take to drain.
constexpr double kDrainBoundMs = 1000.0;

struct Rung {
  const char* name;
  double items_per_s;
  double share;  ///< of --seconds, untraced
};

constexpr Rung kLo = {"lo", 20e3, 0.15};
constexpr Rung kHi = {"hi", 1e6, 0.15};
/// Rungs above hi: 15% steps from 2M items/s until one fails, then
/// kRefineSteps geometric bisections between the last pass and that failure.
constexpr double kKneeStart = 2e6;
constexpr double kKneeStep = 1.15;
constexpr int kKneeRungs = 14;
constexpr int kRefineSteps = 3;
constexpr double kKneeShare = 0.04;
/// After the knee search, the rest of the run repeats lo and hi in rungs of
/// this share, so every run measures for its full length wherever the knee
/// lies; lo and hi figures pool all of their rungs.
constexpr double kFillShare = 0.1;

/// Per-shard observations the wrapped stages record on the shard worker.
struct ShardProbe {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, double>> sink;  ///< (seq, t_us)
  std::uint64_t sink_taken = 0;  ///< entries already moved out of `sink`
  std::atomic<std::uint64_t> stage_ns{0};  ///< traced: time inside stages
  std::atomic<bool> have_clock{false};
  clockid_t cpu_clock{};
};

/// State shared between the generator and the wrapped stages.
struct Probe {
  std::atomic<bool> traced{false};
  std::vector<std::unique_ptr<ShardProbe>> shards;
  /// Traced: stage-0 entry time per sequence number from stage0_base on.
  std::unique_ptr<std::atomic<double>[]> stage0_us;
  std::uint64_t capacity = 0;
  std::atomic<std::uint64_t> stage0_base{0};
};

std::uint64_t seq_of(const runtime::Item& item) {
  const auto* seq = std::any_cast<std::uint64_t>(&item);
  return seq == nullptr ? ~std::uint64_t{0} : *seq;
}

service::StageFactory wrapped_factory(const sdf::PipelineSpec& spec, Probe& probe) {
  return [spec, &probe](std::size_t shard) {
    std::vector<runtime::StageFn> stages = service::synthetic_stages(spec);
    ShardProbe& sp = *probe.shards[shard];
    const std::size_t last = stages.size() - 1;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      stages[i] = [inner = std::move(stages[i]), i, last, &sp, &probe](
                      runtime::Item&& input, std::vector<runtime::Item>& outputs) {
        if (!sp.have_clock.load(std::memory_order_acquire)) {
          pthread_getcpuclockid(pthread_self(), &sp.cpu_clock);
          sp.have_clock.store(true, std::memory_order_release);
        }
        const bool traced = probe.traced.load(std::memory_order_relaxed);
        const double start = traced ? now_us() : 0.0;
        if (traced && i == 0) {
          const std::uint64_t slot =
              seq_of(input) - probe.stage0_base.load(std::memory_order_relaxed);
          if (slot < probe.capacity) {
            probe.stage0_us[slot].store(start, std::memory_order_relaxed);
          }
        }
        const std::size_t before = outputs.size();
        inner(std::move(input), outputs);
        if (i == last) {
          const double t = now_us();
          std::lock_guard<std::mutex> lock(sp.mutex);
          for (std::size_t k = before; k < outputs.size(); ++k) {
            sp.sink.emplace_back(seq_of(outputs[k]), t);
          }
        }
        if (traced) {
          sp.stage_ns.fetch_add(static_cast<std::uint64_t>((now_us() - start) * 1e3),
                                std::memory_order_relaxed);
        }
      };
    }
    return stages;
  };
}

service::ServiceConfig serve_config() {
  // ripple_cli serve defaults (--tau0 20 --deadline 185000 --alpha 0.05
  // --headroom 0.9 --drift 0.05 --cooldown 1), with 2 shards.
  service::ServiceConfig config;
  config.deadline = 185000.0;
  config.initial_tau0 = 20.0;
  config.controller.estimator.alpha = 0.05;
  config.controller.replanner.headroom = 0.9;
  config.controller.replanner.drift_threshold = 0.05;
  config.controller.replanner.cooldown_ticks = 1;
  config.shards = kShards;
  config.exec_threads = 1;
  return config;
}

/// Sink outputs the synthetic stages emit for `executed` stage-0 inputs on
/// one shard: stage i emits floor(n * g_i) after n calls (32.32 fixed point,
/// as service::synthetic_stages accumulates), and the sink passes through.
std::uint64_t implied_sink_outputs(const sdf::PipelineSpec& spec,
                                   std::uint64_t executed) {
  std::uint64_t n = executed;  // < 2^32 per run, so n * low fits in 64 bits
  for (std::size_t i = 0; i + 1 < spec.size(); ++i) {
    const auto gain_fp = static_cast<std::uint64_t>(spec.mean_gain(i) * 4294967296.0);
    n = n * (gain_fp >> 32) + ((n * (gain_fp & 0xFFFFFFFFULL)) >> 32);
  }
  return n;
}

struct Live {
  sdf::PipelineSpec spec = blast::canonical_blast_pipeline();
  Probe probe;
  std::unique_ptr<service::PipelineService> service;
  std::unique_ptr<net::IngestServer> server;
  std::unique_ptr<net::IngestClient> client;
  std::uint64_t next_seq = 0;
  std::uint64_t sent = 0;

  explicit Live(std::uint64_t capacity) {
    probe.capacity = capacity;
    probe.stage0_us = std::make_unique<std::atomic<double>[]>(capacity);
    for (std::size_t s = 0; s < kShards; ++s) {
      probe.shards.push_back(std::make_unique<ShardProbe>());
    }
    service = std::make_unique<service::PipelineService>(
        spec, wrapped_factory(spec, probe), serve_config());
    service->start();
    server = std::make_unique<net::IngestServer>(*service, net::ServerConfig{});
    server->start();
    client = std::make_unique<net::IngestClient>("127.0.0.1", server->port());
    std::vector<bool> shard_used(kShards, false);
    for (std::uint64_t wire = 1; wire <= kSessions; ++wire) {
      shard_used[service->shard_of(client->open_session(wire))] = true;
    }
    if (std::count(shard_used.begin(), shard_used.end(), true) !=
        static_cast<long>(kShards)) {
      throw std::runtime_error("sessions did not cover every shard");
    }
  }

  void send_frame(std::uint64_t frame) {
    std::uint64_t items[kFrameItems];
    for (std::size_t k = 0; k < kFrameItems; ++k) items[k] = next_seq++;
    client->send_items(frame % kSessions + 1, items, kFrameItems);
    sent += kFrameItems;
  }

  std::uint64_t sink_seen() {
    std::uint64_t total = 0;
    for (auto& sp : probe.shards) {
      std::lock_guard<std::mutex> lock(sp->mutex);
      total += sp->sink_taken + sp->sink.size();
    }
    return total;
  }

  std::uint64_t implied_sink() const {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      total += implied_sink_outputs(spec, service->shard_stats(s).executed_items);
    }
    return total;
  }

  /// Outputs the executed items imply but the sink has not seen.
  std::uint64_t missing_outputs() {
    const std::uint64_t seen = sink_seen();
    const std::uint64_t implied = implied_sink();
    return implied > seen ? implied - seen : 0;
  }

  /// Waits until every sent item is submitted and executed (or refused) and
  /// the sink counts have settled. Returns false only when the backlog is
  /// still not executed after `bound_ms`; outputs that never reach the sink
  /// are left for the caller to count as lost.
  bool wait_drained(double bound_ms) {
    const Clock::time_point start = Clock::now();
    for (;;) {
      client->poll_notifications();
      const service::ServiceStats stats = service->stats();
      const bool executed =
          stats.submitted == sent && stats.executed_items == stats.accepted;
      const std::uint64_t seen = sink_seen();
      if (executed && seen >= implied_sink() && stats.sink_outputs == seen) return true;
      if (seconds_since(start) * 1e3 > bound_ms) return executed;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  double worker_cpu_s() const {
    double total = 0.0;
    for (const auto& sp : probe.shards) {
      if (!sp->have_clock.load(std::memory_order_acquire)) continue;
      timespec ts{};
      clock_gettime(sp->cpu_clock, &ts);
      total += static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    }
    return total;
  }

  /// Orderly shutdown: close the sessions, drain notifications, stop the
  /// server and the shard workers.
  void shutdown() {
    for (std::uint64_t wire = 1; wire <= kSessions; ++wire) client->close_session(wire);
    client->finish();
    server->stop();
    service->stop();
  }
};

struct RungResult {
  std::string name;
  double rate = 0.0;
  bool traced = false;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t shed = 0;
  std::uint64_t executed = 0;
  std::uint64_t batches = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t lost = 0;
  std::uint64_t sink_mismatch = 0;  ///< |ServiceStats.sink_outputs - seen|
  std::uint64_t replans = 0;
  std::size_t queue_depth_max = 0;
  bool drained = false;
  double duration_s = 0.0;
  double worker_cpu_s = 0.0;
  double service_cpu_s = 0.0;  ///< every thread but the client's
  double stage_s = 0.0;
  std::vector<double> latency_us;  ///< due -> sink, per sink output
  std::vector<double> late_us;     ///< send start - due, per frame
  std::vector<double> send_us;     ///< time inside send_items, per frame
  std::vector<double> ingress_us;  ///< traced: send return -> stage-0 entry
  std::vector<double> residency_us;  ///< traced: stage-0 entry -> sink

  bool within_limits() const {
    return drained && !latency_us.empty() &&
           quantile(latency_us, 0.99) <= kLatencyLimitUs;
  }
  /// Items refused or missing their deadline, and outputs lost or miscounted.
  std::uint64_t failures() const {
    return backpressure + shed + deadline_misses + lost + sink_mismatch;
  }
  bool passed() const { return within_limits() && failures() == 0; }
  /// Failed operations (offered items): every item of a rung that missed its
  /// latency limit or drain bound, else the items and outputs that failed.
  std::uint64_t failed_items() const {
    return within_limits() ? std::min(failures(), offered) : offered;
  }

  /// Fold another rung at the same rate into this one.
  void pool(const RungResult& o) {
    offered += o.offered;
    accepted += o.accepted;
    backpressure += o.backpressure;
    shed += o.shed;
    executed += o.executed;
    batches += o.batches;
    deadline_misses += o.deadline_misses;
    lost += o.lost;
    sink_mismatch += o.sink_mismatch;
    replans += o.replans;
    queue_depth_max = std::max(queue_depth_max, o.queue_depth_max);
    drained = drained && o.drained;
    duration_s += o.duration_s;
    worker_cpu_s += o.worker_cpu_s;
    service_cpu_s += o.service_cpu_s;
    stage_s += o.stage_s;
    for (auto [mine, theirs] : {std::pair{&latency_us, &o.latency_us},
                                {&late_us, &o.late_us},
                                {&send_us, &o.send_us},
                                {&ingress_us, &o.ingress_us},
                                {&residency_us, &o.residency_us}}) {
      mine->insert(mine->end(), theirs->begin(), theirs->end());
    }
  }
};

RungResult run_rung(Live& live, const std::string& name, double rate, double seconds,
                    bool traced, std::uint64_t seed, std::uint64_t rung_index) {
  RungResult r;
  r.name = name;
  r.rate = rate;
  r.traced = traced;
  r.duration_s = seconds;
  live.probe.traced.store(traced, std::memory_order_relaxed);
  service::PipelineService& svc = *live.service;

  const service::ServiceStats before = svc.stats();
  std::vector<std::uint64_t> epoch_before;
  for (std::size_t s = 0; s < kShards; ++s) {
    epoch_before.push_back(svc.shard_stats(s).plan_epoch);
  }
  const std::uint64_t seen_before = live.sink_seen();
  std::uint64_t stage_ns_before = 0;
  for (auto& sp : live.probe.shards) stage_ns_before += sp->stage_ns.load();
  const double cpu_before = live.worker_cpu_s();
  const double service_cpu_before = process_cpu_s() - thread_cpu_s();
  const std::uint64_t missing_before = live.missing_outputs();
  const std::uint64_t first_seq = live.next_seq;

  // Open-loop Poisson schedule of frame due times.
  dist::Xoshiro256 rng(dist::derive_seed({seed, 0x11FE, rung_index}));
  const double mean_gap_us = 1e6 * static_cast<double>(kFrameItems) / rate;
  std::vector<double> due_us;
  std::vector<double> sent_us;
  const double start_us = now_us() + 1000.0;
  double due = start_us;
  double next_sample = start_us;
  std::optional<Span> sending(std::in_place, traced, "live.rung.send");
  while (due < start_us + seconds * 1e6) {
    for (;;) {
      const double now = now_us();
      // Depth is published per drain; skip the first samples, which can
      // still show the previous rung's last drain.
      if (now >= next_sample && now >= start_us + 5000.0) {
        for (std::size_t s = 0; s < kShards; ++s) {
          const std::size_t depth = svc.shard_stats(s).queue_depth;
          r.queue_depth_max = std::max(r.queue_depth_max, depth);
          if (traced) {
            trace_counter("service.shard.queue_depth", static_cast<std::uint32_t>(s),
                          static_cast<double>(depth));
          }
        }
        live.client->poll_notifications();
        next_sample = now + 1000.0;
      }
      if (now >= due) break;
      if (due - now > 300.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(due - now - 200.0)));
      }
    }
    const double send_start = now_us();
    live.send_frame(due_us.size());
    const double send_end = now_us();
    r.late_us.push_back(send_start - due);
    r.send_us.push_back(send_end - send_start);
    due_us.push_back(due);
    sent_us.push_back(send_end);
    const double u = std::max(1e-12, rng.uniform01());
    due += -std::log(u) * mean_gap_us;
  }
  sending.reset();
  {
    Span draining(traced, "live.rung.drain");
    r.drained = live.wait_drained(kDrainBoundMs);
  }

  const service::ServiceStats after = svc.stats();
  r.offered = static_cast<std::uint64_t>(due_us.size()) * kFrameItems;
  r.accepted = after.accepted - before.accepted;
  r.backpressure = after.rejected_backpressure - before.rejected_backpressure;
  r.shed = after.shed - before.shed;
  r.executed = after.executed_items - before.executed_items;
  r.batches = after.batches - before.batches;
  r.deadline_misses = after.deadline_misses - before.deadline_misses;
  r.worker_cpu_s = live.worker_cpu_s() - cpu_before;
  r.service_cpu_s = process_cpu_s() - thread_cpu_s() - service_cpu_before;
  std::uint64_t stage_ns_after = 0;
  for (auto& sp : live.probe.shards) stage_ns_after += sp->stage_ns.load();
  r.stage_s = 1e-9 * static_cast<double>(stage_ns_after - stage_ns_before);

  const std::uint64_t seen = live.sink_seen() - seen_before;
  for (std::size_t s = 0; s < kShards; ++s) {
    r.replans += svc.shard_stats(s).plan_epoch - epoch_before[s];
    ShardProbe& sp = *live.probe.shards[s];
    std::vector<std::pair<std::uint64_t, double>> sink;
    {
      std::lock_guard<std::mutex> lock(sp.mutex);
      sink.swap(sp.sink);
      sp.sink_taken += sink.size();
    }
    for (const auto& [seq, t] : sink) {
      if (seq < first_seq || seq >= live.next_seq) continue;
      const std::size_t frame = (seq - first_seq) / kFrameItems;
      r.latency_us.push_back(t - due_us[frame]);
      if (traced) {
        const std::uint64_t slot = seq - live.probe.stage0_base.load();
        const double t0 = slot < live.probe.capacity
                              ? live.probe.stage0_us[slot].load(std::memory_order_relaxed)
                              : t;
        r.residency_us.push_back(t - t0);
        r.ingress_us.push_back(t0 - sent_us[frame]);
      }
    }
  }
  const std::uint64_t missing_after = live.missing_outputs();
  r.lost = missing_after > missing_before ? missing_after - missing_before : 0;
  const std::uint64_t reported = after.sink_outputs - before.sink_outputs;
  r.sink_mismatch = reported > seen ? reported - seen : seen - reported;
  return r;
}

void add_rung_metrics(Report& report, const RungResult& r) {
  const std::string sfx = "." + r.name;
  const auto q = [](const std::vector<double>& v, double p) { return quantile(v, p); };
  report.add("gen.late_us.p99" + sfx, q(r.late_us, 0.99), "us");
  report.add("gen.send_us.p99" + sfx, q(r.send_us, 0.99), "us");
  report.add("service.ingress_us.p50" + sfx, q(r.ingress_us, 0.5), "us");
  report.add("service.ingress_us.p99" + sfx, q(r.ingress_us, 0.99), "us");
  report.add("runtime.residency_us.p50" + sfx, q(r.residency_us, 0.5), "us");
  report.add("runtime.residency_us.p99" + sfx, q(r.residency_us, 0.99), "us");
  report.add("service.items_per_batch" + sfx,
             r.batches ? static_cast<double>(r.executed) / static_cast<double>(r.batches)
                       : 0.0,
             "items");
  report.add("service.queue_depth.max" + sfx, static_cast<double>(r.queue_depth_max),
             "items");
  report.add("service.worker_cpu_us_per_item" + sfx,
             r.executed ? 1e6 * r.worker_cpu_s / static_cast<double>(r.executed) : 0.0,
             "us");
  report.add("control.replans_per_s" + sfx,
             static_cast<double>(r.replans) / r.duration_s, "1/s");
  report.add("stages.busy_share" + sfx,
             r.worker_cpu_s > 0.0 ? r.stage_s / r.worker_cpu_s : 0.0, "ratio");
}

/// Knee rung label: 'k' (ladder) or 'r' (refinement) and the rate in k/s.
std::string knee_name(char kind, double rate) {
  char name[32];
  std::snprintf(name, sizeof(name), "%c%ld", kind, static_cast<long>(rate / 1e3));
  return name;
}

std::string describe(const RungResult& r) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "rung %-6s %8.0f items/s%s: offered %llu accepted %llu backpressure %llu "
      "shed %llu deadline misses %llu lost %llu, p50 %.0f us p99 %.0f us (%zu "
      "samples), drained %s -> %s",
      r.name.c_str(), r.rate, r.traced ? " traced" : "",
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.accepted),
      static_cast<unsigned long long>(r.backpressure),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.deadline_misses),
      static_cast<unsigned long long>(r.lost), quantile(r.latency_us, 0.5),
      quantile(r.latency_us, 0.99), r.latency_us.size(), r.drained ? "yes" : "NO",
      r.passed() ? "pass" : "FAIL");
  return line;
}

}  // namespace

void run_live_ingest(const Args& args, Report& report) {
  // Slots in the traced stage-0 timestamp table: lo and hi at their rates
  // for a quarter of the run each, with Poisson headroom.
  const std::uint64_t capacity =
      args.trace ? static_cast<std::uint64_t>(
                       (kLo.items_per_s + kHi.items_per_s) * 0.25 * args.seconds * 1.5) +
                       100000
                 : 0;
  std::unique_ptr<Live> live;
  const double setup_s = setup_cpu_s(
      kSetups,
      [&] {
        if (live) live->shutdown();
        live.reset();
      },
      [&] { live = std::make_unique<Live>(capacity); });
  // Warm-up: one frame per session, drained, so each shard worker has run
  // (and published its CPU clock) before the first timed rung.
  for (std::size_t f = 0; f < kSessions; ++f) live->send_frame(f);
  if (!live->wait_drained(kDrainBoundMs)) {
    throw std::runtime_error("warm-up frames did not drain");
  }

  std::vector<RungResult> results;
  bool stuck = false;
  std::uint64_t rung_index = 0;
  const auto run = [&](const std::string& name, double rate, double seconds,
                       bool traced) {
    if (stuck) return false;
    results.push_back(
        run_rung(*live, name, rate, seconds, traced, args.seed, rung_index++));
    report.note(describe(results.back()));
    if (!results.back().drained) stuck = true;
    return results.back().passed();
  };

  // The ladder, untraced: over the whole run, or its first half when traced.
  const double ladder_s = args.trace ? args.seconds / 2 : args.seconds;
  const Clock::time_point ladder_start = Clock::now();
  const bool lo_passed = run(kLo.name, kLo.items_per_s, kLo.share * ladder_s, false);
  const bool hi_passed = run(kHi.name, kHi.items_per_s, kHi.share * ladder_s, false);
  // Memory while serving the named rungs; the knee search's length varies.
  const double rss_mb = peak_rss_mb();
  double sustained = hi_passed ? kHi.items_per_s : lo_passed ? kLo.items_per_s : 0.0;
  double failed_rate = 0.0;
  double rate = kKneeStart;
  for (int k = 0; hi_passed && k < kKneeRungs; ++k, rate *= kKneeStep) {
    if (!run(knee_name('k', rate), rate, kKneeShare * ladder_s, false)) {
      failed_rate = rate;
      break;
    }
    sustained = rate;
  }
  for (int k = 0; failed_rate > 0.0 && k < kRefineSteps; ++k) {
    const double mid = std::sqrt(sustained * failed_rate);
    if (run(knee_name('r', mid), mid, kKneeShare * ladder_s, false)) {
      sustained = mid;
    } else {
      failed_rate = mid;
    }
  }
  const double fill_s = kFillShare * ladder_s;
  while (!stuck && seconds_since(ladder_start) + 2 * fill_s < ladder_s) {
    run(kLo.name, kLo.items_per_s, fill_s, false);
    run(kHi.name, kHi.items_per_s, fill_s, false);
  }
  if (args.trace) {
    // The named rungs again, traced, over the second half.
    live->probe.stage0_base = live->next_seq;
    run(kLo.name, kLo.items_per_s, 0.25 * args.seconds, true);
    run(kHi.name, kHi.items_per_s, 0.25 * args.seconds, true);
  }

  // Conservation holds on every rung. Operations are the items offered at
  // lo, at hi and at every knee rung that passed; a failing knee rung is the
  // probe that locates the knee, so its refusals are reported in its rung
  // line rather than counted as failures. On lo and hi, refused items,
  // deadline misses and lost or miscounted outputs are failures, and a rung
  // over the latency limit or drain bound fails every item it offered.
  for (const RungResult& r : results) {
    const std::string rung_name = std::string("rung ") + r.name;
    if (r.offered != r.accepted + r.backpressure + r.shed) {
      report.fail_check(rung_name + ": offered != accepted + backpressure + shed");
    }
    if (r.accepted != r.executed) report.fail_check(rung_name + ": accepted != executed");
    const bool named = r.name == kLo.name || r.name == kHi.name;
    if (!named && !r.passed()) continue;
    report.attempted += r.offered;
    report.failed += r.failed_items();
    if (!r.passed()) report.note(rung_name + " missed its limits");
  }

  // Every rung at lo (or hi), traced or not, pooled into one.
  std::map<std::pair<std::string, bool>, RungResult> pooled;
  for (const RungResult& r : results) {
    const auto key = std::pair{r.name, r.traced};
    if (r.name != kLo.name && r.name != kHi.name) continue;
    auto [it, fresh] = pooled.try_emplace(key, r);
    if (!fresh) it->second.pool(r);
  }
  const auto rung = [&](const char* name, bool traced) -> const RungResult* {
    const auto it = pooled.find({name, traced});
    return it == pooled.end() ? nullptr : &it->second;
  };
  for (const char* name : {kLo.name, kHi.name}) {
    const RungResult* r = rung(name, false);
    if (r == nullptr) continue;
    report.figure(std::string("lat_p50_us.") + name, quantile(r->latency_us, 0.5), "us");
    report.figure(std::string("lat_p99_us.") + name, quantile(r->latency_us, 0.99), "us");
  }
  report.figure("sustained_items_per_s", sustained, "items/s");
  report.figure("failed_ratio", report.failed_ratio(), "ratio");

  if (stuck) {
    report.fail_check("a rung's backlog did not drain; service threads abandoned");
    report.abandon_threads = true;
    live.release();  // joining a spinning worker would hang the run
    return;
  }
  live->shutdown();
  const net::ServerStats net_stats = live->server->stats();
  if (net_stats.protocol_errors != 0) report.fail_check("net protocol errors");

  if (!args.trace) {
    // CPU of every thread but the client's per executed item, averaged over
    // lo (per-drain costs dominate) and hi (per-item costs dominate).
    double cpu_us = 0.0;
    for (const char* name : {kLo.name, kHi.name}) {
      const RungResult* r = rung(name, false);
      cpu_us += 0.5e6 * r->service_cpu_s / static_cast<double>(std::max<std::uint64_t>(1, r->executed));
    }
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("cpu_us_per_item", cpu_us, "us");
    return;
  }

  for (const char* name : {kLo.name, kHi.name}) {
    const RungResult* traced = rung(name, true);
    const RungResult* plain = rung(name, false);
    if (traced == nullptr || plain == nullptr) continue;
    add_rung_metrics(report, *traced);
    const std::string sfx = std::string(".") + name;
    const double untraced_p50 = quantile(plain->latency_us, 0.5);
    report.add("trace.untraced_lat_p50_us" + sfx, untraced_p50, "us");
    const auto cpu_per_item = [](const RungResult& r) {
      return r.service_cpu_s / static_cast<double>(std::max<std::uint64_t>(1, r.executed));
    };
    report.add("trace.overhead_ratio" + sfx, cpu_per_item(*traced) / cpu_per_item(*plain) - 1.0,
               "ratio");
    // Shard-worker CPU per item that no traced layer accounts for: drain,
    // sort, controller and executor machinery inside the service, which the
    // benchmark cannot time without tracing in the libraries.
    report.add("trace.unexplained_us" + sfx,
               1e6 * (traced->worker_cpu_s - traced->stage_s) /
                   static_cast<double>(std::max<std::uint64_t>(1, traced->executed)),
               "us");
  }
  std::uint64_t ticks = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    ticks += live->service->controller(s).stats().ticks;
  }
  std::uint64_t shed = 0, backpressure = 0, misses = 0, lost = 0;
  for (const RungResult& r : results) {
    shed += r.shed;
    backpressure += r.backpressure;
    misses += r.deadline_misses;
    lost += r.lost;
  }
  report.add("control.ticks", static_cast<double>(ticks), "count");
  report.add("net.items_rejected", static_cast<double>(net_stats.items_rejected), "count");
  report.add("net.protocol_errors", static_cast<double>(net_stats.protocol_errors), "count");
  report.add("service.shed", static_cast<double>(shed), "count");
  report.add("service.backpressure", static_cast<double>(backpressure), "count");
  report.add("service.deadline_misses", static_cast<double>(misses), "count");
  report.add("service.lost", static_cast<double>(lost), "count");
}

}  // namespace e2e
