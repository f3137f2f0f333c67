// Event vocabulary shared by the chain engine (pipeline_executor.cpp) and
// the DAG engine (graph/graph_executor.cpp). A linear graph delegates to the
// chain engine, and its run_reference oracle replays the same event loop, so
// both must use the same event kinds and priorities for their event
// sequences (and hence results) to match bit for bit.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace ripple::runtime::detail {

enum EventPriority : int {
  kPriorityFireEnd = 0,
  // Priority 1 was the seed engine's arrival events; the vector engine
  // materializes arrivals lazily (they commute with fire-ends, which never
  // touch the source queue) so only fire events remain.
  kPriorityFireStart = 2,
};

struct EventPayload {
  enum class Kind : std::uint8_t { kFireEnd, kFireStart };
  Kind kind;
  NodeIndex node = 0;
};

}  // namespace ripple::runtime::detail
