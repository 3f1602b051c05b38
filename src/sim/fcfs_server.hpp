// Single FCFS server with a drop-tail queue.
//
// Each physical resource in the simulated server — the SmartNIC's NPU
// complex, the CPU complex, the PCIe link — is one FcfsServer.  Jobs carry
// an explicit service time, so one server naturally realises the paper's
// resource model: a device is saturated exactly when the sum of
// (rate_i x service_i) across its resident NFs reaches 1.
//
// Allocation-free in steady state: the job in service is a member (its
// completion event captures only `this`), and waiting jobs sit in a ring
// that is allocated on the first job that has to wait and doubles, up to
// the queue capacity, when full.  A server that never queues holds no ring.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace pam {

class FcfsServer {
 public:
  using Completion = EventQueue::Action;

  FcfsServer(EventQueue& queue, std::string name, std::size_t queue_capacity);

  /// Enqueues a job needing `service` busy time; `done` runs at completion.
  /// Returns false (and runs nothing) when the drop-tail queue is full —
  /// the caller owns whatever the job carried.
  [[nodiscard]] bool submit(SimTime service, Completion done);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return waiting_; }
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool busy() const noexcept { return busy_; }
  /// Job slots the waiting ring holds (0 until a job first has to wait).
  [[nodiscard]] std::size_t ring_slots() const noexcept { return ring_.size(); }

  /// Service-rate multiplier for capacity fades (hostile-link scenarios):
  /// every subsequently submitted job's service time is divided by `speed`.
  /// 1.0 restores nominal capacity; values in (0, 1) slow the device down.
  void set_speed(double speed) noexcept;
  [[nodiscard]] double speed() const noexcept { return speed_; }

  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t jobs_rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::size_t max_queue_seen() const noexcept { return max_queue_; }
  [[nodiscard]] SimTime busy_time() const noexcept { return busy_time_; }

  /// Busy fraction over [0, elapsed].
  [[nodiscard]] double utilization(SimTime elapsed) const noexcept {
    return elapsed.ns() > 0
               ? static_cast<double>(busy_time_.ns()) / static_cast<double>(elapsed.ns())
               : 0.0;
  }

 private:
  struct Job {
    SimTime service;
    Completion done;
  };

  void start(SimTime service, Completion done);
  void complete();
  void grow_ring();

  EventQueue& queue_;
  std::string name_;
  std::size_t capacity_;
  Completion in_service_;
  std::vector<Job> ring_;    ///< waiting jobs, FIFO from head_
  std::size_t head_ = 0;
  std::size_t waiting_ = 0;
  bool busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t max_queue_ = 0;
  SimTime busy_time_ = SimTime::zero();
  double speed_ = 1.0;
};

}  // namespace pam
