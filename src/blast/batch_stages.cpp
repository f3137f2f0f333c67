#include "blast/batch_stages.hpp"

#include "blast/simd_kernels.hpp"

namespace ripple::blast {

using runtime::BatchEmitter;
using runtime::BatchStage;
using runtime::Item;
using runtime::LaneView;
using runtime::StageFn;

std::vector<BatchStage> make_batch_stages(const BlastStages& stages) {
  std::vector<BatchStage> out(4);

  out[0].input_fields = 1;
  out[0].output_fields = 1;
  out[0].fn = [&stages](const LaneView& in, BatchEmitter& emit) {
    simd::seed_filter_batch(stages, in.field[0], in.lanes, emit);
  };

  out[1].input_fields = 1;
  out[1].output_fields = 2;
  out[1].fn = [&stages](const LaneView& in, BatchEmitter& emit) {
    simd::expand_seed_batch(stages, in.field[0], in.lanes, emit);
  };

  out[2].input_fields = 2;
  out[2].output_fields = 3;
  out[2].fn = [&stages](const LaneView& in, BatchEmitter& emit) {
    simd::ungapped_extend_batch(stages, in.field[0], in.field[1], in.lanes,
                                emit);
  };

  out[3].input_fields = 3;
  out[3].output_fields = 3;
  out[3].fn = [&stages](const LaneView& in, BatchEmitter& emit) {
    simd::gapped_extend_batch(stages, in.field[0], in.field[1], in.field[2],
                              in.lanes, emit);
  };
  out[3].materialize = [](const std::uint32_t* fields) {
    return Item(Alignment{fields[0], fields[1],
                          runtime::field_to_i32(fields[2])});
  };

  return out;
}

std::vector<StageFn> make_item_stages(const BlastStages& stages) {
  std::vector<StageFn> fns;
  fns.push_back([&stages](Item&& input, std::vector<Item>& outputs) {
    const auto pos = std::any_cast<std::uint32_t>(input);
    StageCost cost;
    if (stages.seed_match(pos, cost)) outputs.emplace_back(pos);
  });
  fns.push_back([&stages](Item&& input, std::vector<Item>& outputs) {
    const auto pos = std::any_cast<std::uint32_t>(input);
    StageCost cost;
    for (const HitItem& hit : stages.expand_seed(pos, cost)) {
      outputs.emplace_back(hit);
    }
  });
  fns.push_back([&stages](Item&& input, std::vector<Item>& outputs) {
    const auto hit = std::any_cast<HitItem>(input);
    StageCost cost;
    if (auto extended = stages.ungapped_extend(hit, cost)) {
      outputs.emplace_back(*extended);
    }
  });
  fns.push_back([&stages](Item&& input, std::vector<Item>& outputs) {
    const auto extended = std::any_cast<ExtendedHit>(input);
    StageCost cost;
    outputs.emplace_back(stages.gapped_extend(extended, cost));
  });
  return fns;
}

runtime::BatchInputs make_batch_inputs(const BlastStages& stages,
                                       std::size_t count) {
  runtime::BatchInputs inputs;
  const std::size_t windows = stages.input_count();
  for (std::size_t w = 0; w < count; ++w) {
    inputs.push(static_cast<std::uint32_t>(w % windows));
  }
  return inputs;
}

}  // namespace ripple::blast
