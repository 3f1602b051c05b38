// Per-layer replay: times calls into each layer's public functions, made
// from the benchmark's own code on a workload's generated inputs.  Nothing
// under src/ is instrumented.  Busy time of a layer in a run is its call
// count (taken from the run's own report) times its cost per call here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "chain/service_chain.hpp"
#include "nf/nf_spec.hpp"
#include "trafficgen/traffic_source_config.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr std::size_t kNfKinds = 8;

/// Length buckets of core.pam_plan_us.<bucket>.
struct LengthBucket {
  const char* name;
  std::size_t lo;
  std::size_t hi;
};
inline constexpr std::array<LengthBucket, 4> kLengthBuckets = {{
    {"len04-08", 4, 8}, {"len09-16", 9, 16}, {"len17-32", 17, 32}, {"len33-64", 33, 64}}};

/// What a replay needs from the workload.
struct ReplayInputs {
  std::uint64_t seed = 1;
  /// Traffic of the workload's representative chain (sizes, arrival
  /// process, flows, rate).
  pam::TrafficSourceConfig traffic;
  /// Representative chain for the sim-kernel replay (events per packet,
  /// allocations per event).
  pam::ServiceChain sim_chain;
  /// The decisions the workload poses (its chains, or plan-storm's
  /// population).
  const std::vector<Decision>* decisions = nullptr;
  std::size_t shards = 1;
  std::size_t threads = 1;
};

/// Cost per call of each layer (ns unless the name says otherwise).
struct LayerCosts {
  double draw_ns = 0.0;
  double build_ns = 0.0;
  double parse_ns = 0.0;
  double pool_acquire_ns = 0.0;
  std::array<double, kNfKinds> nf_process_ns{};  ///< indexed by pam::NfType
  double fcfs_submit_ns = 0.0;
  double event_ns = 0.0;
  double events_per_packet = 0.0;  ///< counted in the sim-kernel replay
  double allocs_per_event = 0.0;   ///< steady state, counted
  double bytes_per_alloc = 0.0;
  double pool_bytes = 0.0;         ///< one PacketPool of the kernel's default size
  double frame_ns = 0.0;
  double epoch_ns = 0.0;
  double analyze_ns = 0.0;
  double find_borders_ns = 0.0;
  double pam_plan_us = 0.0;
  std::array<double, kLengthBuckets.size()> pam_plan_bucket_us{};
  double naive_plan_us = 0.0;
  double multichain_plan_us = 0.0;  ///< per deployment of up to 4 chains
  double check_us = 0.0;            ///< per chain per control check
};

[[nodiscard]] LayerCosts replay_layers(const ReplayInputs& in);

/// Mean visits per injected packet of each NF kind in `chain` (pass ratios
/// thin the traffic behind each node).
[[nodiscard]] std::array<double, kNfKinds> nf_visits_per_packet(const pam::ServiceChain& chain);

}  // namespace perfbench
