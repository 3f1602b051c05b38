#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace pam {

namespace {
constexpr std::size_t kArity = 4;  // half the levels of a binary heap per sift
}

void EventQueue::schedule_at(SimTime at, Action action) {
  if (at < now_) {
    at = now_;  // clamp: scheduling in the past means "immediately"
  }
  std::uint32_t slot = 0;
  if (free_.empty()) {
    assert(actions_.size() < std::numeric_limits<std::uint32_t>::max());
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back(Key{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

bool EventQueue::run_one() {
  if (heap_.empty()) {
    return false;
  }
  const Key top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    sift_down(0);
  }
  // Move the action out before running it: it may schedule more events,
  // which can reuse its slot or grow actions_.
  Action action = std::move(actions_[top.slot]);
  free_.push_back(top.slot);
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    run_one();
  }
  if (now_ < until) {
    now_ = until;
  }
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const Key moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(moving, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Key moving = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!before(heap_[best], moving)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

}  // namespace pam
