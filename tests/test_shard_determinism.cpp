// The sharded-kernel contract: a datacenter run is bit-identical for any
// worker-thread count.  One scaled-down cluster-datacenter scenario runs
// at threads = 1, 2 and 8 and the full metrics JSON must match byte for
// byte — with at least one committed cross-rack lease in the log, so the
// equality covers the fabric path, the orchestrator and the report
// assembly, not just independent racks.  A metamorphic check pins the
// other axis: when no chain leaves its rack, every chain's metrics are the
// same at shards = 1 and shards = k.  Unit tests for the two pieces
// the contract rests on — EpochExecutor's slice/barrier protocol and
// ShardFabric's (dst, src, seq) exchange order — ride along.

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chain/chain_builder.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_library.hpp"
#include "experiment/scenario_runner.hpp"
#include "experiment/scenario_spec.hpp"
#include "sim/datacenter_simulator.hpp"
#include "sim/epoch_executor.hpp"
#include "sim/shard_fabric.hpp"

namespace pam {
namespace {

// cluster-datacenter.scn scaled down for unit-test time: 4 racks x 4
// servers, every slot of rack 0 saturated so intra-rack scale-out is
// infeasible and the orchestrator must lease across racks.
constexpr const char* kDatacenterScn = R"([scenario]
name = shard-determinism
kind = cluster
description = scaled-down sharded datacenter for the bit-identity gate
duration_ms = 60
warmup_ms = 10
seed = 7

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot-0
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 0

[chain]
name = hot-1
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 1

[chain]
name = hot-2
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.6
server = 2

[chain]
name = hot-3
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.6
server = 3

[chain]
name = web
spec = wire | S:Firewall S:LoadBalancer | host
offered_gbps = 1.0
server = 4

[chain]
name = spare
spec = wire | S:Firewall | wire
offered_gbps = 0.2
server = 9

[cluster]
servers = 16
rebalance = on
inter_server_us = 50
trigger_utilization = 1
target_max_load = 0.95
period_ms = 10
first_check_ms = 10
cooldown_ms = 20
shards = 4
threads = 1
cross_rack_us = 100
orchestrate = on
)";

RunResult run_at(const ScenarioSpec& spec, std::size_t threads) {
  const ScenarioRunner runner;
  auto result = runner.run(spec, threads);
  EXPECT_TRUE(result) << (result ? std::string{} : result.error().what());
  return std::move(result).value();
}

std::string to_json(const RunResult& result) {
  std::ostringstream out;
  write_metrics_json(result, out);
  return out.str();
}

TEST(ShardDeterminism, BitIdenticalJsonAcrossThreadCounts) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();

  const RunResult r1 = run_at(spec.value(), 1);
  const std::string j1 = to_json(r1);
  ASSERT_FALSE(j1.empty());

  // The run must exercise the cross-rack machinery, or the equality below
  // only proves that independent racks are independent.
  ASSERT_TRUE(r1.cluster.has_value());
  EXPECT_GE(r1.cluster->cross_rack_moves, 1u);
  EXPECT_GT(r1.cluster->cross_rack_frames, 0u);
  EXPECT_GT(r1.cluster->epochs, 0u);
  EXPECT_TRUE(r1.cluster->conserved);
  EXPECT_NE(j1.find("\"cross_rack_move\""), std::string::npos);

  EXPECT_EQ(j1, to_json(run_at(spec.value(), 2)));
  EXPECT_EQ(j1, to_json(run_at(spec.value(), 8)));
}

TEST(ShardDeterminism, InvariantsHoldOnShardedRun) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  const RunResult result = run_at(spec.value(), 2);
  const InvariantReport report = check_invariants(result);
  EXPECT_TRUE(report.ok()) << report.describe();
}

TEST(ShardDeterminism, ShardTotalsPartitionTheFleet) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  const RunResult result = run_at(spec.value(), 1);
  ASSERT_TRUE(result.cluster.has_value());
  const ClusterResult& cr = *result.cluster;
  ASSERT_EQ(cr.shard_totals.size(), cr.shards);
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight = 0;
  for (const ClusterShardResult& shard : cr.shard_totals) {
    injected += shard.injected;
    delivered += shard.delivered;
    dropped += shard.dropped;
    in_flight += shard.in_flight_at_end;
  }
  EXPECT_EQ(injected, cr.fleet.injected);
  EXPECT_EQ(delivered, cr.fleet.delivered);
  EXPECT_EQ(dropped, cr.fleet.dropped_total());
  EXPECT_EQ(in_flight, cr.fleet.in_flight_at_end);
}

TEST(ShardDeterminism, ThreadsFlagRejectedOnUnshardedSpec) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  ScenarioSpec single = spec.value();
  single.cluster.shards = 1;
  single.cluster.threads = 1;
  const ScenarioRunner runner;
  auto result = runner.run(single, 4);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error().what().find("--threads"), std::string::npos);
}

TEST(ShardDeterminism, UnshardedJsonCarriesNoShardFields) {
  auto spec = ScenarioSpec::parse(kDatacenterScn, "shard-determinism");
  ASSERT_TRUE(spec) << spec.error().what();
  ScenarioSpec single = spec.value();
  single.cluster.shards = 1;
  single.cluster.threads = 1;
  const std::string json = to_json(run_at(single, 0));
  // shards == 1 must stay byte-compatible with the pre-sharding schema.
  EXPECT_EQ(json.find("\"shard_totals\""), std::string::npos);
  EXPECT_EQ(json.find("\"epochs\""), std::string::npos);
  EXPECT_EQ(json.find("\"cross_rack_moves\""), std::string::npos);
  EXPECT_EQ(json.find("\"nodes_remote\""), std::string::npos);
}

TEST(ShardDeterminism, IdleRacksAllocateNoPackets) {
  // The benchmark datacenter's shape: 1024 servers in 64 racks with only a
  // few racks carrying traffic.  A rack's pool holds packets only once its
  // shard acquires them, so idle racks cost nothing at set-up or after.
  DatacenterSimulator::Options options;
  options.servers_total = 1024;
  options.shards = 64;
  DatacenterSimulator dc{options};
  TrafficSourceConfig traffic;
  traffic.rate = RateProfile::constant(Gbps{1.0});
  traffic.sizes = PacketSizeDistribution::fixed(512);
  traffic.seed = 11;
  dc.add_chain(paper_figure1_chain(), traffic, 0);
  traffic.seed = 12;
  dc.add_chain(paper_figure1_chain(), traffic, 5 * dc.per_rack());
  for (std::size_t r = 0; r < dc.num_racks(); ++r) {
    EXPECT_EQ(dc.rack(r).kernel().pool().capacity(), 0u) << "rack " << r;
  }

  const DatacenterReport report =
      dc.run(SimTime::milliseconds(2), SimTime::milliseconds(0.5), 2);
  EXPECT_GT(report.cluster.injected, 0u);
  EXPECT_TRUE(report.cluster.conserved());
  for (std::size_t r = 0; r < dc.num_racks(); ++r) {
    const PacketPool& pool = dc.rack(r).kernel().pool();
    if (r == 0 || r == 5) {
      EXPECT_GT(pool.capacity(), 0u) << "rack " << r;
    } else {
      EXPECT_EQ(pool.capacity(), 0u) << "rack " << r;
    }
    EXPECT_EQ(pool.in_use(), 0u) << "rack " << r;
  }
}

// Each chain's JSON entry, in chain order, without the sharded-only
// `nodes_remote` key.
std::vector<std::string> chain_entries(const std::string& json) {
  const std::size_t begin = json.find("\"chains\": [");
  const std::size_t end = json.find("\"control_events\"", begin);
  const std::string chains = std::regex_replace(
      json.substr(begin, end - begin),
      std::regex("\"nodes_remote\": [0-9]+,\\s*"), "");
  std::vector<std::string> entries;
  for (std::size_t at = chains.find("\"name\": "); at != std::string::npos;) {
    const std::size_t next = chains.find("\"name\": ", at + 1);
    entries.push_back(chains.substr(at, next - at));
    at = next;
  }
  return entries;
}

// Metamorphic check: with rebalancing and the orchestrator off no chain
// leaves its rack, so cutting the fleet into k racks must leave every
// chain's metrics exactly as the one-rack run reports them.
TEST(ShardDeterminism, ChainMetricsIndependentOfShardCount) {
  const std::pair<const char*, std::size_t> cases[] = {
      {"cluster-rack-16", 4},
      {"churn-diurnal-flashcrowd", 2},
      {"hostile-fabric-fade", 2},
  };
  for (const auto& [preset, k] : cases) {
    auto spec = load_bundled_scenario(preset);
    ASSERT_TRUE(spec) << spec.error().what();
    ScenarioSpec one = spec.value();
    one.cluster.rebalance = false;
    one.cluster.orchestrate = false;
    ScenarioSpec many = one;
    many.cluster.shards = k;
    const auto one_rack = chain_entries(to_json(run_at(one, 0)));
    const auto k_racks = chain_entries(to_json(run_at(many, 1)));
    ASSERT_EQ(one_rack.size(), spec.value().chains.size()) << preset;
    ASSERT_EQ(k_racks.size(), one_rack.size()) << preset;
    for (std::size_t c = 0; c < one_rack.size(); ++c) {
      EXPECT_EQ(one_rack[c], k_racks[c]) << preset << " chain " << c;
    }
  }
}

// --- EpochExecutor ------------------------------------------------------------

TEST(EpochExecutor, EveryShardRunsExactlyOncePerEpoch) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    EpochExecutor executor(threads, 5);
    std::vector<int> counts(5, 0);
    for (int epoch = 0; epoch < 50; ++epoch) {
      executor.run_epoch([&](std::size_t s) { ++counts[s]; });
    }
    for (std::size_t s = 0; s < counts.size(); ++s) {
      EXPECT_EQ(counts[s], 50) << "threads=" << threads << " shard=" << s;
    }
  }
}

TEST(EpochExecutor, SingleShardDegeneratesToInline) {
  EpochExecutor executor(8, 1);
  int runs = 0;
  executor.run_epoch([&](std::size_t s) {
    EXPECT_EQ(s, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

// --- ShardFabric --------------------------------------------------------------

TEST(ShardFabric, ExchangeDrainsInDstSrcSeqOrder) {
  ShardFabric fabric(3);
  // Interleave sends from several sources; per (src, dst) lane order must
  // survive, and the exchange must visit lanes dst-major, src-minor.
  for (int i = 0; i < 3; ++i) {
    FabricFrame f20 = fabric.acquire(2);
    f20.packet_id = 200 + i;
    fabric.send(2, 0, std::move(f20));
    FabricFrame f10 = fabric.acquire(1);
    f10.packet_id = 100 + i;
    fabric.send(1, 0, std::move(f10));
    FabricFrame f12 = fabric.acquire(1);
    f12.packet_id = 120 + i;
    fabric.send(1, 2, std::move(f12));
  }
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  fabric.exchange([&](std::size_t /*src*/, std::size_t dst, FabricFrame&& frame) {
    seen.emplace_back(dst, frame.packet_id);
    fabric.release(dst, std::move(frame));
  });
  const std::vector<std::pair<std::size_t, std::uint64_t>> expect = {
      {0, 100}, {0, 101}, {0, 102}, {0, 200}, {0, 201}, {0, 202},
      {2, 120}, {2, 121}, {2, 122},
  };
  EXPECT_EQ(seen, expect);
  EXPECT_TRUE(fabric.idle());
  EXPECT_EQ(fabric.frames_exchanged(), 9u);
  EXPECT_EQ(fabric.frames_from(1), 6u);
  EXPECT_EQ(fabric.frames_from(2), 3u);
}

TEST(ShardFabric, RecyclesFrameStorage) {
  ShardFabric fabric(2);
  // First round allocates; after release the second round must reuse the
  // same arena storage (capacity survives the recycle).
  FabricFrame a = fabric.acquire(0);
  a.bytes.assign(1500, 0xab);
  const void* storage = a.bytes.data();
  fabric.send(0, 1, std::move(a));
  fabric.exchange([&](std::size_t, std::size_t, FabricFrame&& frame) {
    fabric.release(0, std::move(frame));
  });
  FabricFrame b = fabric.acquire(0);
  EXPECT_GE(b.bytes.capacity(), 1500u);
  EXPECT_EQ(static_cast<const void*>(b.bytes.data()), storage);
  fabric.release(0, std::move(b));
}

}  // namespace
}  // namespace pam
