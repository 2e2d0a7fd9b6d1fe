// FunctionRef: a non-owning, never-allocating reference to a callable.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace spinfer {

template <typename Signature>
class FunctionRef;

// Called as ref(args...): an object pointer plus a trampoline that casts it
// back to its own type. Unlike std::function it never allocates, whatever
// the callable captures. The referenced callable must outlive the reference,
// which a temporary lambda passed straight to a FunctionRef parameter does.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // implicit: callers pass their lambda directly
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(&Trampoline<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Trampoline(void* obj, Args... args) {
    return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
  }

  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace spinfer
