// Lightweight invariant-checking macros.
//
// SPINFER_CHECK aborts with a diagnostic when a precondition or internal
// invariant is violated. These are always on (also in release builds): the
// library manipulates hand-packed binary formats where silently continuing
// after a violated invariant would corrupt results.
#pragma once

#include <sstream>
#include <string>

namespace spinfer {

// Aborts the process after printing `msg` with source location context.
// Used by the SPINFER_CHECK family; not intended to be called directly.
// SPINFER_CHECK passes its literal message to the `const char*` overload, so
// the check site builds no std::string: a check inlined into a unit built
// with extra ISA flags then emits no weak string code the linker could keep
// for the portable path (DESIGN.md §5, "CPU backend v2", pillar 2).
[[noreturn]] void CheckFailed(const char* file, int line, const char* msg);
[[noreturn]] void CheckFailed(const char* file, int line, const std::string& msg);

// Hook invoked by CheckFailed after the diagnostic is printed and before
// abort(). The intended use is post-mortem state dumps — the flight recorder
// (src/obs/flight_recorder.h, installed via src/util/crash_dump.h) writes the
// last N scheduler iterations to stderr from here. Contract:
//   * The handler runs at most once per process: a SPINFER_CHECK failing
//     *inside* the handler (re-entrancy) skips straight to abort instead of
//     recursing, and a second thread failing concurrently does not run it
//     again. Handlers therefore need not be re-entrant themselves.
//   * The process still aborts after the handler returns; a handler cannot
//     rescue a failed check.
//   * nullptr uninstalls. Thread-safe; returns the previously installed
//     handler so callers can chain or restore it.
using CheckFailureHandler = void (*)();
CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler);

}  // namespace spinfer

#define SPINFER_CHECK(cond)                                                      \
  do {                                                                            \
    if (!(cond)) {                                                                \
      ::spinfer::CheckFailed(__FILE__, __LINE__, "check failed: " #cond);         \
    }                                                                             \
  } while (0)

#define SPINFER_CHECK_MSG(cond, msg)                                              \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::ostringstream spinfer_check_oss_;                                      \
      spinfer_check_oss_ << "check failed: " #cond ": " << msg;                   \
      ::spinfer::CheckFailed(__FILE__, __LINE__, spinfer_check_oss_.str());       \
    }                                                                             \
  } while (0)

#define SPINFER_CHECK_EQ(a, b)                                                    \
  do {                                                                            \
    auto spinfer_a_ = (a);                                                        \
    auto spinfer_b_ = (b);                                                        \
    if (!(spinfer_a_ == spinfer_b_)) {                                            \
      std::ostringstream spinfer_check_oss_;                                      \
      spinfer_check_oss_ << "check failed: " #a " == " #b " (" << spinfer_a_      \
                         << " vs " << spinfer_b_ << ")";                          \
      ::spinfer::CheckFailed(__FILE__, __LINE__, spinfer_check_oss_.str());       \
    }                                                                             \
  } while (0)

#define SPINFER_UNREACHABLE(msg) ::spinfer::CheckFailed(__FILE__, __LINE__, msg)
