// Small-buffer-optimized callable for the simulation hot path.
//
// Replaces std::function<void()> on every scheduled event: the captured
// state always lives in the 48-byte inline buffer, so scheduling an event
// never allocates. There is no heap fallback — a capture that does not fit
// (or whose move may throw) is a compile error at the scheduling site, so
// an allocation can never sneak back onto the per-event path. Bulky state
// (a packet in flight, an arrival) belongs in its owner, and the closure
// carries a pointer or a small index to it. Move-only by design — events
// are scheduled once and fired once, so copies would only hide accidental
// capture duplication.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace occamy::sim {

class Callback {
 public:
  // Inline storage for the captured state: a `this` pointer plus five
  // words of captures. Packets (64 bytes) never ride in a closure; the
  // host, switch port and network arrival slab keep them instead.
  static constexpr size_t kInlineBytes = 48;

 private:
  // The constructor's guard: D fits the buffer and relocates without
  // throwing. Declared ahead of it so its template arguments can name it.
  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 public:
  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&> && FitsInline<D>()>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  Callback(Callback&& other) noexcept { MoveFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs the callable from `from` into `to`, then destroys the
    // original (used when the Callback object itself is moved).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kOps = {
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* from, void* to) {
        D* f = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
  };

  void MoveFrom(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace occamy::sim
