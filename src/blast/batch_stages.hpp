// Bindings from the mini-BLAST computation to the vector-wide pipeline
// executor: one BatchStage per paper stage, lanes carrying SoA columns
//
//   stage 0  (subject_pos)                    -> (subject_pos)
//   stage 1  (subject_pos)                    -> (subject_pos, query_pos)
//   stage 2  (subject_pos, query_pos)         -> (subject_pos, query_pos, score)
//   stage 3  (subject_pos, query_pos, score)  -> (subject_pos, query_pos, score)
//
// with scores bit-cast through the u32 column (runtime::field_from_i32).
// The stage bodies are the vectorized kernels of blast/simd_kernels.hpp, so
// a pipeline built from make_batch_stages() runs AVX2 when the host and the
// build allow it and the scalar fallbacks otherwise, producing identical
// results either way. make_item_stages() exposes the same computation as
// classic per-item StageFns for the reference engine and golden tests.
#pragma once

#include <vector>

#include "blast/stages.hpp"
#include "runtime/pipeline_executor.hpp"

namespace ripple::blast {

/// Vector-wide stages over `stages` (which must outlive the executor). The
/// sink materializes collected results as blast::Alignment.
std::vector<runtime::BatchStage> make_batch_stages(const BlastStages& stages);

/// The same computation as classic per-item StageFns (std::any payloads:
/// u32 -> HitItem -> ExtendedHit -> Alignment), for ReferenceExecutor runs
/// and adapter-path comparisons.
std::vector<runtime::StageFn> make_item_stages(const BlastStages& stages);

/// The first `count` subject windows as typed pipeline inputs (position
/// column only), wrapping around like the measurement pass when `count`
/// exceeds input_count().
runtime::BatchInputs make_batch_inputs(const BlastStages& stages,
                                       std::size_t count);

}  // namespace ripple::blast
