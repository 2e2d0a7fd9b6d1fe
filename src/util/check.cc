#include "src/util/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace spinfer {

namespace {

std::atomic<CheckFailureHandler> g_check_failure_handler{nullptr};
// Flips to true on the first failure; later (or re-entrant) failures skip the
// handler and go straight to abort. Never reset: a process survives at most
// one CheckFailed.
std::atomic<bool> g_handler_fired{false};

}  // namespace

CheckFailureHandler SetCheckFailureHandler(CheckFailureHandler handler) {
  return g_check_failure_handler.exchange(handler, std::memory_order_acq_rel);
}

void CheckFailed(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "[spinfer] %s:%d: %s\n", file, line, msg);
  std::fflush(stderr);
  // exchange() makes the once-only guarantee atomic: whichever failing thread
  // gets here first runs the handler; a CHECK failing inside the handler
  // re-enters with the flag already set and aborts directly.
  if (!g_handler_fired.exchange(true, std::memory_order_acq_rel)) {
    CheckFailureHandler handler =
        g_check_failure_handler.load(std::memory_order_acquire);
    if (handler != nullptr) {
      handler();
      std::fflush(stderr);
    }
  }
  std::abort();
}

void CheckFailed(const char* file, int line, const std::string& msg) {
  CheckFailed(file, line, msg.c_str());
}

}  // namespace spinfer
