// The datacenter tier of the control hierarchy.
//
// FleetController closes the scaling loop inside one rack; the
// DatacenterOrchestrator closes it across racks.  It reuses the SAME
// ControlPlane loop the per-server and per-rack controllers run — sense,
// trigger, plan, act — but its "act" is a cross-rack lease: a border NF of
// a chain homed on a saturated rack moves to the least-loaded slot of
// another rack (ControlEvent kind `cross_rack_move`), where packets reach
// it over the epoch-synchronized shard fabric.
//
// Determinism contract: the orchestrator runs only at epoch barriers (the
// DatacenterSimulator's barrier hook), when every shard kernel is parked at
// the same simulated time.  Decisions ride on lexicographically ordered
// (load, slot) scans of barrier-time state, so a run's lease history is
// identical for threads=1 and threads=N.  Lease commits are deferred by the
// migration cost, rounded up to at least one epoch, and applied at a later
// barrier — never mid-epoch, so no shard observes a placement change while
// running.
//
// Hierarchy etiquette: the orchestrator never races a rack controller on a
// chain.  Before sensing a chain it checks the home rack's control plane
// (busy or cooling → skip), and while one of its own leases is pending or
// cooling it holds the rack controller off through
// FleetController::set_external_hold — using only barrier-published state,
// so rack threads can evaluate the hold mid-epoch without ever touching
// another shard's clock.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/fleet_controller.hpp"
#include "sim/datacenter_simulator.hpp"

namespace pam {

struct DatacenterOrchestratorOptions : ControlPlaneOptions {
  /// A lease target qualifies only while its hottest device stays below
  /// this after absorbing the NF (same semantics as the rack controller's
  /// knob, applied fleet-wide).
  double target_max_load = 0.9;
};

class DatacenterOrchestrator final : private ControlPlane::Sensor,
                                     private ControlPlane::Actuator {
 public:
  /// `racks[r]` is rack r's FleetController (may hold fewer entries than
  /// racks; missing ones mean the rack runs uncontrolled).  Installs the
  /// mutual-hold predicate into every provided controller.
  DatacenterOrchestrator(DatacenterSimulator& dc,
                         std::vector<FleetController*> racks,
                         DatacenterOrchestratorOptions options = {});

  DatacenterOrchestrator(const DatacenterOrchestrator&) = delete;
  DatacenterOrchestrator& operator=(const DatacenterOrchestrator&) = delete;

  /// Barrier driver: wire into DatacenterSimulator::set_barrier_hook.
  /// Runs the periodic check at its own cadence (skipped while draining)
  /// and commits leases that have completed their migration cost.
  void on_barrier(SimTime t, bool draining);

  /// True while a lease is still pending commit — wire into
  /// DatacenterSimulator::set_drain_gate so the epoch loop keeps cycling
  /// until every decided move has landed.
  [[nodiscard]] bool has_pending() const noexcept { return !pending_.empty(); }

  /// Mutual-hold probe for rack controllers: true while chain `c` (global
  /// id) has a lease pending or is cooling down after one.  Reads only
  /// barrier-published state; callable from shard threads mid-epoch.
  [[nodiscard]] bool holds(std::size_t c) const;

  [[nodiscard]] const std::vector<ControlEvent>& events() const noexcept {
    return plane_.events();
  }
  /// Committed cross-rack leases.
  [[nodiscard]] std::size_t cross_rack_moves() const noexcept {
    return cross_rack_moves_;
  }
  [[nodiscard]] ControlPlane& plane() noexcept { return plane_; }

 private:
  struct PendingLease {
    std::size_t chain = 0;
    std::size_t node = 0;
    std::size_t target = 0;  ///< global slot
    SimTime commit_at;
  };

  // ControlPlane::Sensor
  [[nodiscard]] ControlPlane::Sample sense(std::size_t c) const override;
  [[nodiscard]] std::string describe_overload(
      std::size_t c, const ControlPlane::Sample& sample) const override;
  [[nodiscard]] ControlPlane::Planned plan(std::size_t c,
                                           const MigrationPolicy& policy,
                                           Gbps offered) const override;

  // ControlPlane::Actuator
  [[nodiscard]] bool in_flight(std::size_t c) const override;
  void execute(std::size_t c, const MigrationPlan& plan,
               std::function<void()> done) override;
  void scale_out(std::size_t c, const std::string& reason, Gbps offered) override;

  /// True when every alive slot of rack `r` has its hottest device at or
  /// above target_max_load — intra-rack scale-out can no longer relieve the
  /// rack, which is the orchestrator's trigger.
  [[nodiscard]] bool rack_pressured(std::size_t r) const;

  void commit_due(SimTime t);

  DatacenterSimulator& dc_;
  std::vector<FleetController*> racks_;
  DatacenterOrchestratorOptions options_;
  std::vector<PendingLease> pending_;     ///< barrier-mutated, in decide order
  std::vector<SimTime> cooling_until_;    ///< per chain; barrier-mutated
  SimTime last_barrier_ = SimTime::zero();
  SimTime next_check_;
  std::size_t cross_rack_moves_ = 0;
  ControlPlane plane_;  ///< last member: its Sensor/Actuator are *this
};

}  // namespace pam
