// Tracing core: thread-safe span collection with near-zero disabled cost.
//
// Model: a *span* is one timed interval on one thread — name (a string
// literal or an interned string), start, duration, and up to kTraceMaxArgs
// integer arguments. Spans are recorded through the RAII TraceScope (or the
// SPINFER_TRACE_SCOPE macros) into per-thread append-only buffers and
// serialized to Chrome trace-event JSON by ChromeTraceWriter
// (src/obs/chrome_trace.h), loadable in Perfetto / chrome://tracing.
//
// Cost contract:
//   * Tracing DISABLED (default): every instrumentation site costs exactly
//     one branch on a relaxed atomic flag (TracingEnabled()). Sites sit at
//     call or stage granularity, never inside a kernel's tile or task loop:
//     a kernel call (cpu_spmm, paged_attn, sim.run_encoded) has a fixed
//     number of sites whatever its size (tests/obs_bit_identity_test.cc).
//   * Tracing ENABLED: a span costs two Clock reads plus one write into the
//     recording thread's own buffer. The writer path is lock-free: each
//     thread appends to a chunked log it alone writes, publishing the event
//     count with a release store; no mutex, no CAS, no cross-thread cache
//     traffic on the hot path. (The only lock is a one-time registration per
//     thread.)
//
// Determinism contract: recording spans never touches instrumented
// computations — outputs and PerfCounters are bit-identical with tracing on
// or off (tests/obs_bit_identity_test.cc enforces this).
//
// Lifecycle: Tracer::Global().Start(clock) → instrumented code runs →
// Stop() → Drain() → ChromeTraceWriter. Drain() requires quiescence (no
// instrumented code in flight); Start/Stop must not race instrumented calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/clock.h"

namespace spinfer {
namespace obs {

// Maximum integer arguments attached to one span. Fixed so TraceEvent stays
// POD and recording never allocates.
inline constexpr int kTraceMaxArgs = 6;

struct TraceArg {
  const char* name = nullptr;  // static literal
  int64_t value = 0;
};

struct TraceEvent {
  const char* name = nullptr;  // static literal or Tracer::InternName result
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  // registration-order thread index, stable per thread
  uint32_t num_args = 0;
  TraceArg args[kTraceMaxArgs];
};

namespace trace_detail {
// Process-wide enable flag. Inline so every TU branches on the same atomic.
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace trace_detail

inline bool TracingEnabled() {
  return trace_detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  // The process-wide tracer every macro records into.
  static Tracer& Global();

  // Enables recording. `clock` is borrowed (caller keeps it alive until the
  // next Start/Reset); nullptr selects the built-in SteadyClock. Events
  // recorded in earlier Start/Stop windows are kept until Reset.
  void Start(Clock* clock = nullptr);
  void Stop();

  uint64_t NowNs();

  // Appends one finished span to the calling thread's buffer. No-op when
  // tracing is disabled. `args` is copied (at most kTraceMaxArgs entries).
  void Record(const char* name, uint64_t start_ns, uint64_t dur_ns,
              const TraceArg* args = nullptr, int num_args = 0);

  // Copies a dynamic name into tracer-owned storage and returns a pointer
  // valid until Reset(). For span names built at runtime (bench names);
  // static literals should be passed to Record/TraceScope directly. Takes a
  // mutex — do not call per-event in hot loops.
  const char* InternName(const std::string& name);

  // Snapshot of every recorded event, in (tid, append) order. Requires
  // quiescence: call after Stop(), with no instrumented code in flight.
  // Non-destructive; repeated calls return the same (or a grown) list.
  std::vector<TraceEvent> Drain();

  // Drops all events, interned names and thread buffers, and re-arms
  // per-thread registration. Requires quiescence. Primarily for tests.
  void Reset();

  ~Tracer();

 private:
  struct ThreadLog;
  struct Impl;
  Tracer();
  ThreadLog* LogForThisThread();

  Impl* impl_;
};

// RAII span: times its scope and records on destruction. Constructing while
// tracing is disabled costs the one-branch check and nothing else.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (!TracingEnabled()) {
      return;
    }
    name_ = name;
    start_ns_ = Tracer::Global().NowNs();
  }
  TraceScope(const char* name, const char* arg_name, int64_t arg_value)
      : TraceScope(name) {
    if (name_ != nullptr) {
      args_[0] = TraceArg{arg_name, arg_value};
      num_args_ = 1;
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      Tracer& t = Tracer::Global();
      t.Record(name_, start_ns_, t.NowNs() - start_ns_, args_, num_args_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Attach an argument after construction (e.g. a result computed in the
  // scope). Ignored when the scope is inactive or args are full.
  void AddArg(const char* arg_name, int64_t value) {
    if (name_ != nullptr && num_args_ < kTraceMaxArgs) {
      args_[num_args_++] = TraceArg{arg_name, value};
    }
  }

  bool active() const { return name_ != nullptr; }
  uint64_t start_ns() const { return start_ns_; }

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t num_args_ = 0;
  TraceArg args_[kTraceMaxArgs];
};

// Convenience: Start tracing now and, at process exit, Stop + write the
// Chrome trace JSON to `path` (prints the path written). Used by the bench
// harness's --trace flag.
void EnableTracingToFileAtExit(const std::string& path);

#define SPINFER_TRACE_CONCAT_INNER(a, b) a##b
#define SPINFER_TRACE_CONCAT(a, b) SPINFER_TRACE_CONCAT_INNER(a, b)

// One span covering the rest of the enclosing scope.
#define SPINFER_TRACE_SCOPE(name)                                    \
  ::spinfer::obs::TraceScope SPINFER_TRACE_CONCAT(spinfer_trace_ts_, \
                                                  __COUNTER__)(name)
// Same, with one integer argument (e.g. a layer index).
#define SPINFER_TRACE_SCOPE_ARG(name, arg_name, arg_value)           \
  ::spinfer::obs::TraceScope SPINFER_TRACE_CONCAT(spinfer_trace_ts_, \
                                                  __COUNTER__)(name, arg_name, \
                                                               arg_value)

}  // namespace obs
}  // namespace spinfer
