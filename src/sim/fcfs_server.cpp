#include "sim/fcfs_server.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pam {

namespace {
constexpr std::size_t kFirstRingSlots = 8;
}

FcfsServer::FcfsServer(EventQueue& queue, std::string name, std::size_t queue_capacity)
    : queue_(queue), name_(std::move(name)), capacity_(queue_capacity) {
  assert(queue_capacity > 0);
}

void FcfsServer::set_speed(double speed) noexcept {
  assert(speed > 0.0);
  speed_ = speed;
}

bool FcfsServer::submit(SimTime service, Completion done) {
  assert(service >= SimTime::zero());
  if (speed_ != 1.0) {
    service = service * (1.0 / speed_);
  }
  if (!busy_) {
    start(service, std::move(done));
    return true;
  }
  if (waiting_ >= capacity_) {
    ++rejected_;
    return false;
  }
  if (waiting_ == ring_.size()) {
    grow_ring();
  }
  std::size_t tail = head_ + waiting_;
  if (tail >= ring_.size()) {
    tail -= ring_.size();
  }
  ring_[tail] = Job{service, std::move(done)};
  ++waiting_;
  max_queue_ = std::max(max_queue_, waiting_);
  return true;
}

void FcfsServer::start(SimTime service, Completion done) {
  busy_ = true;
  busy_time_ += service;
  in_service_ = std::move(done);
  queue_.schedule_after(service, [this] { complete(); });
}

void FcfsServer::complete() {
  ++completed_;
  // The completion may submit more work; start the next queued job before
  // running it so FIFO order among already-queued jobs is preserved (new
  // submissions land behind them).
  Completion done = std::move(in_service_);
  if (waiting_ > 0) {
    Job& next = ring_[head_];
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --waiting_;
    start(next.service, std::move(next.done));
  } else {
    busy_ = false;
  }
  done();
}

void FcfsServer::grow_ring() {
  // waiting_ < capacity_ here (drop-tail checked first), so the new ring
  // always has a free slot.
  const std::size_t slots =
      std::min(capacity_, std::max(kFirstRingSlots, ring_.size() * 2));
  std::vector<Job> grown(slots);
  for (std::size_t i = 0; i < waiting_; ++i) {
    grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
  }
  ring_ = std::move(grown);
  head_ = 0;
}

}  // namespace pam
