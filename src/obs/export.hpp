// Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing) for the
// device tracer merged with the causal recorder's transport spans, and
// plain-text / JSON dumps for the metrics registry.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ntbshmem::obs {

// Timeline layout of one simulated host's transport spans: a Perfetto
// process named `name` holding one track per resident PE ("pe<N>" for
// N in [first_pe, first_pe + pes)), then one "rx_service@<port>" and one
// "frames_<port>" track per port, in port-index order.
struct HostTracks {
  std::string name;
  int first_pe = 0;
  int pes = 0;
  std::vector<std::string> ports;
};

// Serializes the tracer plus the op, service and frame spans of `causal`
// as a Chrome trace-event JSON object
// {"traceEvents": [...], "displayTimeUnit": "ns"} (DESIGN.md §4c).
//
// Tracer tracks map to pids (per process name) and tids, records to "i",
// "C" and "b"/"e". Causal spans go on the tracks `hosts` names, indexed by
// span host: an op root becomes a "B"/"E" slice on its issuing PE's track
// with a flow start "s", a service span a "process_frame" slice on its
// port's rx-service track with a flow step "t" (flow id = trace id), and a
// frame span an async "frame_inflight" pair on its port's frame track.
// Timestamps are sim-time nanoseconds emitted in microseconds with 3
// decimals (the format's native unit), so 1 ns resolution survives.
void write_chrome_trace(const Tracer& tracer, const CausalRecorder& causal,
                        const std::vector<HostTracks>& hosts,
                        std::ostream& out);
// The tracer alone (bare-fabric benches, which run no transport).
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

// Metrics snapshot as a JSON object: {"metrics": {name: value-or-histogram}}.
void write_metrics_json(const Snapshot& snap, std::ostream& out,
                        int indent = 0);

// JSON string escaping (shared with bench JSON writers).
std::string json_escape(std::string_view s);

}  // namespace ntbshmem::obs
