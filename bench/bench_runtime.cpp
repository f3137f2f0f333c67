// Google-benchmark suite for the vector-wide pipeline executor
// (runtime/pipeline_executor.hpp): end-to-end mini-BLAST runs comparing the
// seed per-item engine (ReferenceExecutor), the adapter path, and the typed
// batch path; the counter false-sharing micro (BM_MetricsContention); plus
// per-ISA kernel microbenchmarks for the vectorized BLAST and cascade stage
// bodies: each micro emits one row per SimdLevel (scalar, neon, avx2,
// avx512), skipping levels this binary/host cannot run.
// scripts/run_bench_runtime.sh runs this suite, writes BENCH_runtime.json at
// the repo root, and prints the per-ISA speedup table.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "blast/batch_stages.hpp"
#include "blast/measure.hpp"
#include "blast/sequence.hpp"
#include "blast/simd_kernels.hpp"
#include "blast/stages.hpp"
#include "cascade/detector.hpp"
#include "cascade/features.hpp"
#include "cascade/image.hpp"
#include "cascade/simd_kernels.hpp"
#include "core/enforced_waits.hpp"
#include "device/dispatch.hpp"
#include "dist/rng.hpp"
#include "runtime/pipeline_executor.hpp"
#include "runtime/reference_executor.hpp"
#include "sdf/pipeline.hpp"

namespace {

using namespace ripple;
using device::SimdLevel;

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    device::set_simd_override(level);
  }
  ~ScopedSimdLevel() { device::set_simd_override(std::nullopt); }
};

/// Shared mini-BLAST workload, built once: the same sequences, measured
/// pipeline spec, and enforced-waits schedule the golden tests use
/// (tests/test_runtime_batch.cpp), at a bench-sized window count.
struct BlastWorkload {
  blast::SequencePair pair;
  blast::BlastStages::Config stage_config;
  blast::BlastStages stages;
  sdf::PipelineSpec spec;
  runtime::ExecutorConfig config;
  std::size_t windows = 12000;
  std::vector<runtime::Item> item_inputs;
  runtime::BatchInputs batch_inputs;

  static const BlastWorkload& instance() {
    static BlastWorkload workload;
    return workload;
  }

 private:
  BlastWorkload()
      : pair(make_pair()), stages(pair, stage_config), spec(make_spec()),
        batch_inputs(blast::make_batch_inputs(stages, windows)) {
    core::EnforcedWaitsStrategy strategy(
        spec, core::EnforcedWaitsConfig{{2.0, 4.0, 9.0, 6.0}});
    const double tau0 = spec.mean_service_per_input() * 4.0;
    const double deadline = 600.0 * spec.service_time(3);
    auto schedule = strategy.solve(tau0, deadline);
    config.firing_intervals = schedule.value().firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    config.max_collected_results = 256;
    item_inputs.reserve(windows);
    for (std::size_t w = 0; w < windows; ++w) {
      item_inputs.emplace_back(
          static_cast<std::uint32_t>(w % stages.input_count()));
    }
  }

  static blast::SequencePair make_pair() {
    dist::Xoshiro256 rng(404);
    blast::SequencePairConfig pair_config;
    pair_config.subject_length = 1 << 15;
    pair_config.query_length = 1 << 13;
    return blast::make_sequence_pair(pair_config, rng);
  }

  sdf::PipelineSpec make_spec() {
    blast::MeasureConfig measure_config;
    measure_config.window_count = 12000;
    const auto measurement = blast::measure_pipeline(stages, measure_config);
    return measurement.to_pipeline_spec(128).take();
  }
};

void report_window_rate(benchmark::State& state, std::size_t windows) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows));
  state.counters["windows_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(windows),
      benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// End-to-end mini-BLAST: one run = 12000 windows through all four stages
// under the virtual-time executor.
// ---------------------------------------------------------------------------

/// Seed per-item engine: one std::any at a time through std::function stages.
void BM_MiniBlastEndToEnd_Reference(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const runtime::ReferenceExecutor engine(w.spec,
                                          blast::make_item_stages(w.stages));
  for (auto _ : state) {
    auto result = engine.run(w.item_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_MiniBlastEndToEnd_Reference)->Unit(benchmark::kMillisecond);

/// Vector engine fed per-item StageFns through the adapter (std::any lanes).
void BM_MiniBlastEndToEnd_Adapter(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const runtime::PipelineExecutor engine(w.spec,
                                         blast::make_item_stages(w.stages));
  for (auto _ : state) {
    auto result = engine.run(w.item_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_MiniBlastEndToEnd_Adapter)->Unit(benchmark::kMillisecond);

/// Typed batch path with dispatch pinned to the scalar kernel bodies:
/// isolates the SoA-batching win from the instruction-set win.
void BM_MiniBlastEndToEnd_BatchScalar(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const runtime::PipelineExecutor engine(w.spec,
                                         blast::make_batch_stages(w.stages));
  ScopedSimdLevel pin(SimdLevel::kScalar);
  for (auto _ : state) {
    auto result = engine.run_batch(w.batch_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_MiniBlastEndToEnd_BatchScalar)->Unit(benchmark::kMillisecond);

/// Typed batch path at the host's best dispatch level (AVX-512 or AVX2 where
/// the build and CPU allow; identical to BatchScalar on forced-scalar
/// builds). The label records which level the registry resolved.
void BM_MiniBlastEndToEnd_BatchSimd(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const runtime::PipelineExecutor engine(w.spec,
                                         blast::make_batch_stages(w.stages));
  state.SetLabel(device::to_string(device::active_simd_level()));
  for (auto _ : state) {
    auto result = engine.run_batch(w.batch_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_MiniBlastEndToEnd_BatchSimd)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Counter false sharing: why sim::NodeMetrics and AdmissionLedger::Slot are
// alignas(64).
// ---------------------------------------------------------------------------

/// Packed layout: adjacent threads' counter blocks share cache lines, the
/// exact layout NodeMetrics had before the alignment fix.
struct PackedCounters {
  std::uint64_t firings = 0;
  std::uint64_t items = 0;
};
struct alignas(64) AlignedCounters {
  std::uint64_t firings = 0;
  std::uint64_t items = 0;
};

/// Each benchmark thread hammers its own slot of a shared contiguous array —
/// the access pattern of per-node metrics under shard workers (and the
/// admission ledger's per-shard slots). arg 0 = packed, arg 1 = cache-line
/// aligned; the gap between the two rows is the cross-core line bouncing the
/// alignas(64) on sim::NodeMetrics / AdmissionLedger::Slot removes.
template <typename Counters>
void hammer_counters(benchmark::State& state, Counters* slots) {
  Counters& mine = slots[state.thread_index()];
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      mine.firings += 1;
      mine.items += static_cast<std::uint64_t>(i);
      benchmark::DoNotOptimize(mine);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_MetricsContention(benchmark::State& state) {
  static PackedCounters packed[16];
  static AlignedCounters aligned[16];
  state.SetLabel(state.range(0) == 0 ? "packed" : "alignas64");
  if (state.range(0) == 0) {
    hammer_counters(state, packed);
  } else {
    hammer_counters(state, aligned);
  }
}
BENCHMARK(BM_MetricsContention)
    ->Arg(0)
    ->Arg(1)
    ->Threads(4)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Stage-kernel micros: one call = one dense batch, no executor around it.
// DenseRange(0, 3) pins one row per ISA: 0 scalar, 1 neon, 2 avx2, 3 avx512.
// ---------------------------------------------------------------------------

/// Pins dispatch to the exact SimdLevel named by Arg (0..3) and labels the
/// row with it. Returns false after flagging the run skipped when this
/// binary/host cannot execute that level: the registry's min-clamp would
/// otherwise silently re-measure a lower ISA under the wrong row name.
/// scripts/run_bench_runtime.sh drops skipped rows from the summary, so a
/// host missing an ISA simply shows '-' for that column.
bool pin_exact_level(benchmark::State& state,
                     std::optional<ScopedSimdLevel>& pin) {
  const auto want = static_cast<SimdLevel>(state.range(0));
  if (!device::level_supported(want)) {
    state.SkipWithError(
        (device::to_string(want) + std::string(" not supported here")).c_str());
    return false;
  }
  pin.emplace(want);
  state.SetLabel(device::to_string(want));
  return true;
}

/// Pure executor machinery: the same spec, schedule, and 12000 inputs, but
/// four pass-through typed stages with zero compute — isolates the
/// virtual-time engine (event loop, queues, compaction, accounting) from the
/// stage kernels.
void BM_ExecutorMachinery_Batch(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  std::vector<runtime::BatchStage> stages(4);
  const std::uint8_t arity[4][2] = {{1, 1}, {1, 2}, {2, 3}, {3, 3}};
  for (std::size_t s = 0; s < 4; ++s) {
    stages[s].input_fields = arity[s][0];
    stages[s].output_fields = arity[s][1];
    stages[s].fn = [](const runtime::LaneView& in,
                      runtime::BatchEmitter& out) {
      for (std::size_t lane = 0; lane < in.lanes; ++lane) {
        out.emit(lane, in.field[0] != nullptr ? in.field[0][lane] : 0,
                 in.field[1] != nullptr ? in.field[1][lane] : 0,
                 in.field[2] != nullptr ? in.field[2][lane] : 0);
      }
    };
  }
  const runtime::PipelineExecutor engine(w.spec, std::move(stages));
  for (auto _ : state) {
    auto result = engine.run_batch(w.batch_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_ExecutorMachinery_Batch)->Unit(benchmark::kMillisecond);

/// Same machinery probe through the seed per-item engine, for the overhead
/// ratio the SoA path is buying back.
void BM_ExecutorMachinery_Reference(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  std::vector<runtime::StageFn> fns;
  for (std::size_t s = 0; s < 4; ++s) {
    fns.push_back([](runtime::Item&& input,
                     std::vector<runtime::Item>& outputs) {
      outputs.push_back(std::move(input));
    });
  }
  const runtime::ReferenceExecutor engine(w.spec, std::move(fns));
  for (auto _ : state) {
    auto result = engine.run(w.item_inputs, w.config);
    benchmark::DoNotOptimize(result.ok());
  }
  report_window_rate(state, w.windows);
}
BENCHMARK(BM_ExecutorMachinery_Reference)->Unit(benchmark::kMillisecond);

void BM_SeedFilterKernel(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  std::optional<ScopedSimdLevel> pin;
  if (!pin_exact_level(state, pin)) return;
  std::vector<std::uint32_t> pos(w.windows);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<std::uint32_t>(i % w.stages.input_count());
  }
  runtime::BatchEmitter out;
  for (auto _ : state) {
    out.reset(pos.size(), 1, false);
    blast::simd::seed_filter_batch(w.stages, pos.data(), pos.size(), out);
    benchmark::DoNotOptimize(out.total());
  }
  report_window_rate(state, pos.size());
}
BENCHMARK(BM_SeedFilterKernel)->DenseRange(0, 3);

/// Upstream products shared by the extension micros: seed-filter survivors
/// and their expanded (subject, query) hit pairs for the bench workload.
struct ExtensionInputs {
  std::vector<std::uint32_t> sp;
  std::vector<std::uint32_t> qp;

  static const ExtensionInputs& instance() {
    static ExtensionInputs inputs;
    return inputs;
  }

 private:
  ExtensionInputs() {
    const BlastWorkload& w = BlastWorkload::instance();
    std::vector<std::uint32_t> pos(w.windows);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      pos[i] = static_cast<std::uint32_t>(i % w.stages.input_count());
    }
    runtime::BatchEmitter seeds;
    seeds.reset(pos.size(), 1, false);
    blast::simd::seed_filter_batch(w.stages, pos.data(), pos.size(), seeds);
    runtime::BatchEmitter hits;
    hits.reset(seeds.total(), 2, false);
    blast::simd::expand_seed_batch(w.stages, seeds.column(0), seeds.total(),
                                   hits);
    sp.assign(hits.column(0), hits.column(0) + hits.total());
    qp.assign(hits.column(1), hits.column(1) + hits.total());
  }
};

void BM_ExpandSeedKernel(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  std::vector<std::uint32_t> pos(w.windows);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<std::uint32_t>(i % w.stages.input_count());
  }
  runtime::BatchEmitter seeds;
  seeds.reset(pos.size(), 1, false);
  blast::simd::seed_filter_batch(w.stages, pos.data(), pos.size(), seeds);
  const std::vector<std::uint32_t> survivors(
      seeds.column(0), seeds.column(0) + seeds.total());

  std::optional<ScopedSimdLevel> pin;
  if (!pin_exact_level(state, pin)) return;
  runtime::BatchEmitter out;
  for (auto _ : state) {
    out.reset(survivors.size(), 2, false);
    blast::simd::expand_seed_batch(w.stages, survivors.data(),
                                   survivors.size(), out);
    benchmark::DoNotOptimize(out.total());
  }
  report_window_rate(state, survivors.size());
}
BENCHMARK(BM_ExpandSeedKernel)->DenseRange(0, 3);

void BM_UngappedExtendKernel(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const std::vector<std::uint32_t>& sp = ExtensionInputs::instance().sp;
  const std::vector<std::uint32_t>& qp = ExtensionInputs::instance().qp;

  std::optional<ScopedSimdLevel> pin;
  if (!pin_exact_level(state, pin)) return;
  runtime::BatchEmitter out;
  for (auto _ : state) {
    out.reset(sp.size(), 3, false);
    blast::simd::ungapped_extend_batch(w.stages, sp.data(), qp.data(),
                                       sp.size(), out);
    benchmark::DoNotOptimize(out.total());
  }
  report_window_rate(state, sp.size());
}
BENCHMARK(BM_UngappedExtendKernel)->DenseRange(0, 3);

/// Sink stage: banded gapped alignment of the ungapped survivors — the
/// dominant kernel of the end-to-end time budget. The AVX2 path runs 8
/// alignments lane-parallel over band-relative SoA rows.
void BM_GappedExtendKernel(benchmark::State& state) {
  const BlastWorkload& w = BlastWorkload::instance();
  const ExtensionInputs& hits = ExtensionInputs::instance();
  runtime::BatchEmitter extended;
  extended.reset(hits.sp.size(), 3, false);
  blast::simd::ungapped_extend_batch(w.stages, hits.sp.data(), hits.qp.data(),
                                     hits.sp.size(), extended);
  const std::vector<std::uint32_t> sp(extended.column(0),
                                      extended.column(0) + extended.total());
  const std::vector<std::uint32_t> qp(extended.column(1),
                                      extended.column(1) + extended.total());
  const std::vector<std::uint32_t> score(extended.column(2),
                                         extended.column(2) + extended.total());

  std::optional<ScopedSimdLevel> pin;
  if (!pin_exact_level(state, pin)) return;
  runtime::BatchEmitter out;
  for (auto _ : state) {
    out.reset(sp.size(), 3, false);
    blast::simd::gapped_extend_batch(w.stages, sp.data(), qp.data(),
                                     score.data(), sp.size(), out);
    benchmark::DoNotOptimize(out.total());
  }
  report_window_rate(state, sp.size());
}
BENCHMARK(BM_GappedExtendKernel)->DenseRange(0, 3);

void BM_HaarResponseKernel(benchmark::State& state) {
  static const cascade::Scene scene = [] {
    dist::Xoshiro256 rng(11);
    cascade::SceneConfig config;
    config.width = 512;
    config.height = 512;
    config.object_count = 8;
    return cascade::make_scene(config, rng);
  }();
  static const cascade::IntegralImage integral(scene.image);

  dist::Xoshiro256 rng(12);
  const std::size_t n = 8192;
  std::vector<std::uint32_t> wx(n), wy(n);
  for (std::size_t i = 0; i < n; ++i) {
    wx[i] = static_cast<std::uint32_t>(rng.uniform_below(512 - 24 + 1));
    wy[i] = static_cast<std::uint32_t>(rng.uniform_below(512 - 24 + 1));
  }
  const cascade::HaarFeature feature = cascade::random_feature(24, rng);
  std::vector<std::int64_t> responses(n);

  std::optional<ScopedSimdLevel> pin;
  if (!pin_exact_level(state, pin)) return;
  for (auto _ : state) {
    cascade::simd::haar_response_batch(feature, integral, wx.data(), wy.data(),
                                       n, responses.data());
    benchmark::DoNotOptimize(responses.data());
  }
  report_window_rate(state, n);
}
BENCHMARK(BM_HaarResponseKernel)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
