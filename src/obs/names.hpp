// Well-known observability names: the catalog of every span, instant,
// counter-track, and registry-metric name the instrumented subsystems emit.
//
// Trace-event names must be string literals (obs/trace.hpp stores the
// pointer), so each subsystem already uses fixed names; this header is the
// single list of them. tools/trace_inspect validates traces against the
// catalog (--strict turns an unknown name into an error), which catches
// typos in new instrumentation and stale validators alike: adding an
// instrumentation point means adding its name here, or strict validation of
// its traces fails in CI.
//
// Header-only on purpose — trace_inspect links only ripple_util.
#pragma once

#include <string_view>

namespace ripple::obs::names {

// Span names ("B"/"E" pairs).
inline constexpr std::string_view kSpanNames[] = {
    "fire",           // enforced/greedy sim: one consuming firing (sim domain)
    "block",          // monolithic sim: one block run (sim domain)
    "service",        // runtime executor: one consuming firing (sim domain)
    "trial",          // trial_runner: one simulated trial (host domain)
    "cell_solve",     // sweep: one (tau0, D) cell solve (host domain)
    "tile",           // sweep: one traversal tile (host domain)
    "service.batch",  // service worker: one ingest batch execution (host)
    "control.replan", // controller: one enforced-waits re-solve (host)
    "journal.commit", // arrival journal: one group-commit write (host)
    "journal.snapshot", // arrival journal: one controller snapshot (host)
    "graph.fire",     // graph sim/executor: one SISO-node firing (sim domain)
    "graph.tee",      // graph sim/executor: one tee-node firing (sim domain)
    "graph.merge",    // graph sim/executor: one elementwise-merge firing
    "graph.sync",     // graph sim/executor: one synchronizer realign firing
};

// Instant names ("i").
inline constexpr std::string_view kInstantNames[] = {
    "empty_firing",   // sim/runtime: a vacuous firing (value = service time)
    "deadline_miss",  // sim/runtime: a late root input (value = slack, < 0)
    "control.shed",   // service worker: this tick is shedding (admission cut)
    "net.conn.open",  // ingest server: accepted a client connection
    "net.conn.close", // ingest server: closed a client connection
    "net.protocol_error",  // ingest server: malformed frame, connection dropped
};

// Counter-track names ("C").
inline constexpr std::string_view kCounterNames[] = {
    "queue_depth",        // sim/runtime: node input-queue depth at firing
    "block_items",        // monolithic sim: items per block
    "control.tau0_est",   // controller: EWMA inter-arrival estimate
    "service.failed_batches",  // service worker: the shard's cumulative
                               // failed executor batches (host)
    "graph.queue_depth",  // graph sim/executor: per-in-edge queue depth at
                          // firing (edge track id = node count + edge index;
                          // the source's arrival queue reports on its node
                          // track)
};

// Counter *families*: prefixes under which every name is considered known.
// The sharded service emits one counter track per shard worker; the events
// carry a fixed per-event name but the family groups them in the catalog:
//   service.shard.queue_depth  — items popped from the shard ring this drain
//   service.shard.admitted     — sessions admitted after the global apportion
inline constexpr std::string_view kCounterFamilies[] = {
    "service.shard.",
};

inline bool is_known_span(std::string_view name) {
  for (std::string_view known : kSpanNames) {
    if (name == known) return true;
  }
  return false;
}
inline bool is_known_instant(std::string_view name) {
  for (std::string_view known : kInstantNames) {
    if (name == known) return true;
  }
  return false;
}
inline bool is_known_counter(std::string_view name) {
  for (std::string_view known : kCounterNames) {
    if (name == known) return true;
  }
  for (std::string_view family : kCounterFamilies) {
    if (name.size() > family.size() &&
        name.substr(0, family.size()) == family) {
      return true;
    }
  }
  return false;
}

}  // namespace ripple::obs::names
