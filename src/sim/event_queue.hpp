// Deterministic discrete-event scheduler.
//
// Events at equal timestamps execute in scheduling order (a monotone
// sequence number breaks ties), which makes every simulation bit-for-bit
// reproducible for a given seed — a property the tests rely on.
//
// The event path allocates nothing in steady state.  An event's action is
// an EventQueue::Action: a move-only callable that keeps a trivially
// copyable capture of up to Action::kInlineBytes (48 B) inline — room for
// a packet-path continuation such as (this, Packet*, node index, SimTime)
// — and boxes anything larger or not trivially copyable (cold control and
// migration closures) on the heap.  Pending events are {at, seq, slot}
// keys in a flat 4-ary min-heap over a free-listed vector of actions, so
// sifting moves 24-byte keys and a finished event's slot is reused by the
// next one scheduled.  The queue knows nothing about what its events do.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace pam {

class EventQueue {
 public:
  /// The DES kernel's type-erasure boundary: a move-only `void()` callable
  /// with 48 B of inline storage.  Invocable any number of times (periodic
  /// tasks reuse one); destroyed exactly once, run or not.
  class Action {
   public:
    static constexpr std::size_t kInlineBytes = 48;

    /// True when a callable of type F is stored inline (no allocation).
    template <class F>
    static constexpr bool kStoredInline = sizeof(F) <= kInlineBytes &&
                                          alignof(F) <= alignof(void*) &&
                                          std::is_trivially_copyable_v<F>;

    Action() noexcept = default;

    template <class F, class D = std::decay_t<F>>
      requires(!std::is_same_v<D, Action> && std::is_invocable_r_v<void, D&>)
    Action(F&& fn) {  // NOLINT(bugprone-forwarding-reference-overload): the constraint keeps copy/move reachable
      if constexpr (kStoredInline<D>) {
        std::construct_at(reinterpret_cast<D*>(storage_), std::forward<F>(fn));
        invoke_ = [](void* s) { (*std::launder(static_cast<D*>(s)))(); };
      } else {
        // pam-lint: allow(D005) cold closures only (over 48 B or not trivially copyable); destroy_ frees it once
        std::construct_at(reinterpret_cast<D**>(storage_), new D(std::forward<F>(fn)));
        invoke_ = [](void* s) { (*boxed<D>(s))(); };
        destroy_ = [](void* s) { delete boxed<D>(s); };  // pam-lint: allow(D005) the matching release of the boxed closure above
      }
    }

    Action(Action&& other) noexcept { steal(other); }
    Action& operator=(Action&& other) noexcept {
      if (this != &other) {
        reset();
        steal(other);
      }
      return *this;
    }
    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;
    ~Action() { reset(); }

    void operator()() { invoke_(storage_); }

   private:
    using Op = void (*)(void* storage);

    template <class D>
    static D* boxed(void* s) noexcept {
      return *std::launder(static_cast<D**>(s));
    }

    // Inline captures are trivially copyable and a boxed one is a pointer,
    // so moving is a fixed-size byte copy whatever the action holds.
    void steal(Action& other) noexcept {
      std::memcpy(storage_, other.storage_, kInlineBytes);
      invoke_ = std::exchange(other.invoke_, nullptr);
      destroy_ = std::exchange(other.destroy_, nullptr);
    }
    void reset() noexcept {
      if (destroy_ != nullptr) {
        destroy_(storage_);
      }
      invoke_ = nullptr;
      destroy_ = nullptr;
    }

    alignas(void*) unsigned char storage_[kInlineBytes] = {};
    Op invoke_ = nullptr;
    Op destroy_ = nullptr;  ///< null unless boxed
  };

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Timestamp of the earliest pending event.  Only meaningful when
  /// !empty(); the epoch loop uses it to fast-forward idle shards past
  /// empty barrier quanta without walking them one epoch at a time.
  [[nodiscard]] SimTime next_at() const noexcept { return heap_.front().at; }

  /// Schedules `action` at absolute time `at` (>= now, clamped otherwise).
  void schedule_at(SimTime at, Action action);

  /// Schedules `action` after `delay` from now.
  void schedule_after(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Runs the earliest event.  Returns false when the queue is empty.
  bool run_one();

  /// Runs events until simulated time exceeds `until` or the queue drains.
  /// The clock ends at exactly `until`.
  void run_until(SimTime until);

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into actions_
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::vector<Key> heap_;             ///< 4-ary min-heap on (at, seq)
  std::vector<Action> actions_;       ///< slot -> action; free slots are empty
  std::vector<std::uint32_t> free_;   ///< recycled slots, reused LIFO
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace pam
