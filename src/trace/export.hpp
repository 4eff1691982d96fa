// Flight-recorder exporter and loader.
//
// The on-disk form is Chrome trace-event JSON ("traceEvents" array),
// loadable in Perfetto / chrome://tracing.  Spans with a nonzero TraceId
// become async "b"/"e" events keyed by the id so one message's chain lines
// up on a single track; host-scoped spans (id 0) become per-pid "B"/"E";
// instants become "i".  Every record embeds the raw POD fields in args
// (64-bit fields as exact JSON integers) so the file round-trips losslessly
// back through load().
//
// Timestamps are *sim-time* microseconds (the deterministic clock the
// invariants are stated in); wall_ns rides along in args for wall-clock
// analysis.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace zmail::trace {

bool export_chrome(const std::string& path,
                   const std::vector<TraceEvent>& events,
                   std::string* error = nullptr);

// Convenience: collect() + export_chrome.
bool export_current(const std::string& path, std::string* error = nullptr);

// Loads a file written by export_chrome; events come back sorted by seq.
bool load(const std::string& path, std::vector<TraceEvent>* events,
          std::string* error = nullptr);

}  // namespace zmail::trace
