#include "control/orchestrator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "chain/border.hpp"
#include "common/strings.hpp"

namespace pam {

namespace {

/// Pause-to-commit cost of one cross-rack lease (state transfer over the
/// datacenter fabric); rounded up to at least one epoch so the commit
/// always lands on a barrier after the decision.
constexpr SimTime kLeaseCost = SimTime::milliseconds(1.0);

/// The orchestrator's ControlPlane needs *a* policy object (the shared loop
/// plans before falling back to scale-out), but cross-rack placement is not
/// a push-aside problem: every plan is reported infeasible so the loop
/// always routes into Actuator::scale_out, where the lease logic lives.
class CrossRackOnlyPolicy final : public MigrationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "CrossRackLease"; }
  [[nodiscard]] MigrationPlan plan(const ServiceChain& /*chain*/,
                                   const ChainAnalyzer& /*analyzer*/,
                                   Gbps /*ingress_rate*/) const override {
    MigrationPlan out;
    out.policy_name = name();
    out.feasible = false;
    out.infeasibility_reason =
        "home rack saturated; intra-rack placement cannot relieve it";
    return out;
  }
};

}  // namespace

DatacenterOrchestrator::DatacenterOrchestrator(
    DatacenterSimulator& dc, std::vector<FleetController*> racks,
    DatacenterOrchestratorOptions options)
    : dc_(dc),
      racks_(std::move(racks)),
      options_(options),
      cooling_until_(dc.num_chains(), SimTime::zero()),
      next_check_(options.first_check),
      plane_(dc.rack(0).kernel(), *this, *this, dc.num_chains(),
             std::make_unique<CrossRackOnlyPolicy>(), options) {
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    FleetController* controller = racks_[r];
    if (controller == nullptr) {
      continue;
    }
    controller->set_external_hold([this, r](std::size_t local) {
      // Rack-local chain id -> global id: rack r's chains were added in
      // order, so scan the global map for the local index.  Called from the
      // rack's shard thread; holds() reads only barrier-published state.
      for (std::size_t c = 0; c < dc_.num_chains(); ++c) {
        if (dc_.home_rack_of(c) == r && dc_.local_chain_of(c) == local) {
          return holds(c);
        }
      }
      return false;
    });
  }
}

bool DatacenterOrchestrator::holds(std::size_t c) const {
  for (const PendingLease& p : pending_) {
    if (p.chain == c) {
      return true;
    }
  }
  return cooling_until_[c] > last_barrier_;
}

bool DatacenterOrchestrator::rack_pressured(std::size_t r) const {
  bool any_alive = false;
  for (std::size_t slot = 0; slot < dc_.per_rack(); ++slot) {
    const std::size_t gs = dc_.global_server(r, slot);
    if (!dc_.server_alive(gs)) {
      continue;
    }
    any_alive = true;
    const double load = std::max(dc_.server_nic_load(gs), dc_.server_cpu_load(gs));
    if (load < options_.target_max_load) {
      return false;  // this slot can still absorb an intra-rack move
    }
  }
  return any_alive;
}

void DatacenterOrchestrator::on_barrier(SimTime t, bool draining) {
  last_barrier_ = t;
  commit_due(t);
  if (draining) {
    return;  // no new decisions after the horizon; only commits above
  }
  if (t >= next_check_) {
    plane_.check_all();
    while (next_check_ <= t) {
      next_check_ = next_check_ + options_.period;
    }
  }
}

ControlPlane::Sample DatacenterOrchestrator::sense(std::size_t c) const {
  ControlPlane::Sample sample;
  sample.server = dc_.home_server_of(c);
  const std::size_t r = dc_.home_rack_of(c);
  FleetController* rack_controller = r < racks_.size() ? racks_[r] : nullptr;
  if (rack_controller != nullptr &&
      rack_controller->plane().chain_busy_or_cooling(dc_.local_chain_of(c))) {
    sample.has_resident = false;  // the rack tier owns this chain right now
    return sample;
  }
  if (!rack_pressured(r)) {
    sample.has_resident = false;  // intra-rack placement can still help
    return sample;
  }
  sample.offered = dc_.chain_sim(c).observed_ingress_rate(options_.rate_window);
  sample.util.smartnic = dc_.server_nic_load(sample.server);
  sample.util.cpu = dc_.server_cpu_load(sample.server);
  sample.slot_hot = true;  // rack-wide pressure is the trigger
  return sample;
}

std::string DatacenterOrchestrator::describe_overload(
    std::size_t c, const ControlPlane::Sample& sample) const {
  return format(
      "rack %zu saturated (every alive slot >= %.2f); chain %zu home slot %zu "
      "at nic %.2f / cpu %.2f, offered %s",
      dc_.home_rack_of(c), options_.target_max_load, c, sample.server,
      sample.util.smartnic, sample.util.cpu, sample.offered.to_string().c_str());
}

ControlPlane::Planned DatacenterOrchestrator::plan(std::size_t /*c*/,
                                                   const MigrationPolicy& policy,
                                                   Gbps /*offered*/) const {
  // Always infeasible (CrossRackOnlyPolicy): the shared loop falls through
  // to scale_out, which is where cross-rack leases are decided.
  ControlPlane::Planned out;
  out.plan = policy.plan(ServiceChain{""}, ChainAnalyzer{dc_.rack(0).server(0),
                                                         dc_.rack(0).calibration()},
                         Gbps{0.0});
  return out;
}

bool DatacenterOrchestrator::in_flight(std::size_t c) const {
  for (const PendingLease& p : pending_) {
    if (p.chain == c) {
      return true;
    }
  }
  return false;
}

void DatacenterOrchestrator::execute(std::size_t /*c*/,
                                     const MigrationPlan& /*plan*/,
                                     std::function<void()> /*done*/) {
  assert(false && "orchestrator plans are always infeasible");
}

void DatacenterOrchestrator::scale_out(std::size_t c, const std::string& reason,
                                       Gbps offered) {
  ChainSimulator& sim = dc_.chain_sim(c);
  const std::size_t home_rack = dc_.home_rack_of(c);

  // Candidates: the chain's SmartNIC border NFs (crossing-safe, PAM Step 1)
  // that are not paused by another move and not already leased out.
  const BorderSets borders = find_borders(sim.chain());
  std::vector<std::size_t> candidates;
  for (const std::size_t idx : borders.all()) {
    if (!sim.paused(idx) && !sim.node_remote(idx)) {
      candidates.push_back(idx);
    }
  }
  if (candidates.empty()) {
    ControlEvent event;
    event.kind = ControlEvent::Kind::kInfeasible;
    event.chain = c;
    event.server = dc_.home_server_of(c);
    event.detail = format("cross-rack lease needed but no movable border NF: %s",
                          reason.c_str());
    plane_.emit(std::move(event));
    return;
  }

  // Fit-aware target scan over every slot outside the home rack, in global
  // slot order: qualify when the slot's hottest device stays below
  // target_max_load after absorbing the NF, prefer (load, slot)
  // lexicographically — a total order, so the choice is deterministic.
  std::size_t node = 0;
  std::size_t target = dc_.num_servers();
  double projected = 0.0;
  for (const std::size_t candidate : candidates) {
    const Gbps nf_capacity =
        sim.chain().node(candidate).spec.capacity.on(Location::kSmartNic);
    if (nf_capacity.value() <= 0.0) {
      continue;
    }
    const double contribution =
        sim.chain().offered_at(candidate, offered).value() / nf_capacity.value();
    double best_load = std::numeric_limits<double>::infinity();
    for (std::size_t gs = 0; gs < dc_.num_servers(); ++gs) {
      if (dc_.rack_of(gs) == home_rack || !dc_.server_alive(gs)) {
        continue;
      }
      const double nic = dc_.server_nic_load(gs);
      const double cpu = dc_.server_cpu_load(gs);
      const double fit = std::max(nic + contribution, cpu);
      const double load = std::max(nic, cpu);
      if (fit <= options_.target_max_load && load < best_load) {
        best_load = load;
        target = gs;
        projected = fit;
      }
    }
    if (target != dc_.num_servers()) {
      node = candidate;
      break;
    }
  }
  if (target == dc_.num_servers()) {
    ControlEvent event;
    event.kind = ControlEvent::Kind::kInfeasible;
    event.chain = c;
    event.server = dc_.home_server_of(c);
    event.detail = format(
        "cross-rack lease needed but no slot outside rack %zu can absorb a "
        "border NF under %.2f load: %s",
        home_rack, options_.target_max_load, reason.c_str());
    plane_.emit(std::move(event));
    return;
  }

  const std::string nf_name = sim.chain().node(node).spec.name;
  ControlEvent decided;
  decided.kind = ControlEvent::Kind::kScaleOut;
  decided.chain = c;
  decided.server = target;
  decided.moved_nfs.push_back(nf_name);
  decided.smartnic_utilization = projected;
  decided.detail = format(
      "%s -> cross-rack lease: moving %s to server %zu (rack %zu, projected "
      "load %.2f)",
      reason.c_str(), nf_name.c_str(), target, dc_.rack_of(target), projected);
  plane_.emit(std::move(decided));

  // Pause now; the lease commits at the first barrier after the migration
  // cost (at least one epoch), so no shard ever sees a mid-epoch rebind.
  sim.pause_node(node);
  PendingLease pending;
  pending.chain = c;
  pending.node = node;
  pending.target = target;
  pending.commit_at =
      plane_.now() + std::max(kLeaseCost, dc_.quantum());
  pending_.push_back(pending);
}

void DatacenterOrchestrator::commit_due(SimTime t) {
  std::vector<PendingLease> remaining;
  remaining.reserve(pending_.size());
  for (const PendingLease& p : pending_) {
    if (t < p.commit_at) {
      remaining.push_back(p);
      continue;
    }
    ChainSimulator& sim = dc_.chain_sim(p.chain);
    const std::string nf_name = sim.chain().node(p.node).spec.name;
    const std::size_t buffered = sim.buffered_at(p.node);
    if (!dc_.server_alive(p.target)) {
      // Target died while the lease was in flight: abort in place,
      // loss-free — buffered packets flush through the home binding.
      sim.resume_node(p.node);
      plane_.complete_action(p.chain);
      cooling_until_[p.chain] = t + options_.cooldown;
      ControlEvent aborted;
      aborted.kind = ControlEvent::Kind::kInfeasible;
      aborted.chain = p.chain;
      aborted.server = p.target;
      aborted.moved_nfs.push_back(nf_name);
      aborted.detail = format(
          "in-flight cross-rack lease of %s aborted: target server %zu died "
          "(%zu buffered flushed in place)",
          nf_name.c_str(), p.target, buffered);
      plane_.emit(std::move(aborted));
      continue;
    }
    const bool committed = dc_.commit_lease(p.chain, p.node, p.target);
    assert(committed);
    (void)committed;
    sim.resume_node(p.node);
    plane_.complete_action(p.chain);
    cooling_until_[p.chain] = t + options_.cooldown;
    ++cross_rack_moves_;
    ControlEvent done;
    done.kind = ControlEvent::Kind::kCrossRackMove;
    done.chain = p.chain;
    done.server = p.target;
    done.moved_nfs.push_back(nf_name);
    done.detail = format(
        "cross-rack lease committed: %s now on server %zu (rack %zu, %zu "
        "buffered flushed over the fabric)",
        nf_name.c_str(), p.target, dc_.rack_of(p.target), buffered);
    plane_.emit(std::move(done));
  }
  pending_ = std::move(remaining);
}

}  // namespace pam
