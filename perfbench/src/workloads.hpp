// The benchmark's four workloads, generated from a seed.
//
// Simulation workloads are emitted as scenario text (the experiment layer's
// .scn format) and run through ScenarioRunner, so they exercise the same
// public path as `pam_exp run`.  They are independent of the bundled
// presets under scenarios/.  plan-storm is a population of placed chains
// fed straight to the core policy API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/deployment.hpp"
#include "chain/service_chain.hpp"
#include "common/units.hpp"
#include "experiment/scenario_spec.hpp"

namespace perfbench {

enum class Workload { kChainSizes, kRackChurn, kDcSharded, kPlanStorm };

[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);
[[nodiscard]] const char* name_of(Workload w);

/// Scenario text of a simulation workload at simulated horizon
/// `duration_ms`.  Every time in the scenario scales with the horizon, so a
/// near-zero horizon gives the same inputs with (almost) nothing simulated:
/// that run is the set-up cost.  plan-storm's DES spot-check is the
/// Figure-1 chain compared under Original, Naive and PAM at 512 B.
[[nodiscard]] std::string scenario_text(Workload w, std::uint64_t seed, double duration_ms,
                                        std::size_t threads);

/// The measured horizon of each workload's scenario, in simulated ms.
[[nodiscard]] double measured_horizon_ms(Workload w);

/// The horizon used for set-up runs (nothing but set-up and teardown).
inline constexpr double kSetupHorizonMs = 0.001;

/// One control decision's input: a placed chain and the rate it is
/// planned at.
struct Decision {
  pam::ServiceChain chain;
  pam::Gbps rate;
};

/// The decisions a scenario's own chains pose: each chain (compare: the
/// one chain at the plan rate; fleet kinds: every chain at its peak
/// offered rate).
[[nodiscard]] std::vector<Decision> decisions_of(const pam::ScenarioSpec& spec);

/// plan-storm's population: `count` chains with lengths uniform in
/// [min_len, max_len], random NF kinds and placements, each offered between
/// 1.1x and 1.6x of what its SmartNIC-resident NFs can carry.
[[nodiscard]] std::vector<Decision> make_population(std::uint64_t seed, std::size_t count,
                                                    std::size_t min_len, std::size_t max_len);

/// Population size of plan-storm.
inline constexpr std::size_t kPopulation = 1200;

/// Consecutive decisions grouped into deployments of up to 4 chains, the
/// input of a MultiChainPam pass (its cost grows steeply with the group).
[[nodiscard]] std::vector<pam::Deployment> group_deployments(const std::vector<Decision>& d);

}  // namespace perfbench
