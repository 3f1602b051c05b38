#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "chain/chain_analyzer.hpp"
#include "chain/chain_spec.hpp"
#include "common/rng.hpp"
#include "device/server.hpp"

namespace perfbench {
namespace {

constexpr std::array<std::string_view, 4> kNames = {"chain-sizes", "rack-churn",
                                                    "dc-sharded", "plan-storm"};

// The paper's Figure-1 chain.
constexpr const char* kFigure1 = "wire | S:Firewall S:Monitor S:Logger@0.5 C:LoadBalancer | host";

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Seeds are kept below 2^31 so every consumer of the scenario seed sees
// the same value.
std::uint64_t scenario_seed(std::uint64_t seed, std::uint64_t stream) {
  return pam::Rng::derive(seed, stream) & 0x7fffffffULL;
}

std::string header(const char* name, const char* kind, double duration_ms, std::uint64_t seed) {
  return "[scenario]\nname = " + std::string(name) + "\nkind = " + kind +
         "\nduration_ms = " + num(duration_ms) + "\nwarmup_ms = " + num(0.2 * duration_ms) +
         "\nseed = " + std::to_string(seed) + "\n";
}

// The Figure-1 chain at the paper's overload rate of 2.2 Gbps, moved by up
// to 0.5% per seed so that each seed gives its own simulated outcome.
std::string compare_text(const char* name, std::uint64_t seed, double d, const char* sizes) {
  pam::Rng rng(pam::Rng::derive(seed, 6));
  std::string s = header(name, "compare", d, seed);
  s += "chain = " + std::string(kFigure1) + "\nplan_rate_gbps = " +
       num(2.2 * rng.uniform(0.995, 1.005)) + "\nmeasure = des\n";
  s += "\n[traffic]\narrival = cbr\nsizes = " + std::string(sizes) + "\n";
  for (const char* v : {"Original:none", "Naive:naive", "PAM:pam"}) {
    const std::string_view pair(v);
    const std::size_t colon = pair.find(':');
    s += "\n[variant]\nlabel = " + std::string(pair.substr(0, colon)) +
         "\npolicy = " + std::string(pair.substr(colon + 1)) + "\nmeasure_rate = plan\n";
  }
  return s;
}

std::string chain_block(const std::string& name, std::string_view spec, double gbps,
                        std::size_t server) {
  return "\n[chain]\nname = " + name + "\nspec = " + std::string(spec) +
         "\noffered_gbps = " + num(gbps) + "\nserver = " + std::to_string(server) + "\n";
}

// 16 servers on one kernel: a resident tenant per slot (half of them hit by
// a flash crowd) plus a tenant per slot that arrives and departs mid-run.
// The schedule is staggered by slot, not drawn: the seed moves the packets
// (Poisson gaps, imix sizes, flows), so the fleet-wide outcome stays
// comparable from seed to seed.
std::string rack_churn_text(std::uint64_t seed, double d) {
  constexpr std::array<std::string_view, 4> kTemplates = {
      kFigure1, "wire | S:Firewall S:DPI | host", "wire | S:NAT S:Monitor C:LoadBalancer | host",
      "wire | S:Firewall S:Monitor | host"};
  std::string s = header("rack-churn", "churn", d, scenario_seed(seed, 1));
  s += "\n[traffic]\narrival = poisson\nsizes = imix\n\n[policy]\nname = pam\n";
  for (std::size_t srv = 0; srv < 16; ++srv) {
    const double stagger = static_cast<double>(srv) / 16.0;
    const double base = 1.0 + 0.1 * static_cast<double>(srv % 3);
    s += chain_block("res-" + std::to_string(srv), kTemplates[srv % 4], base, srv);
    if (srv % 2 == 0) {
      s += "rate = flash " + num(base) + " 2.6 at_ms=" + num((0.2 + 0.1 * stagger) * d) +
           " for_ms=" + num(0.25 * d) + "\n";
    }
    const double arrive = (0.08 + 0.3 * stagger) * d;
    const double depart = arrive + (0.3 + 0.2 * (1.0 - stagger)) * d;
    s += chain_block("tenant-" + std::to_string(srv), kTemplates[(srv + 1) % 4], 0.9, srv);
    s += "arrive_ms = " + num(arrive) + "\ndepart_ms = " + num(depart) + "\n";
  }
  s += "\n[cluster]\nservers = 16\nrebalance = on\ninter_server_us = 50\n"
       "trigger_utilization = 0.95\ntarget_max_load = 0.9\nperiod_ms = 1\n"
       "first_check_ms = 1\ncooldown_ms = 2\n";
  return s;
}

// 1024 servers in 64 racks: rack 0 overloaded on every slot, two light
// background chains on each other rack.  Half of rack 0 runs the Figure-1
// chain, which push-aside can relieve in place (so PAM and Naive differ);
// the other half cannot be relieved inside the rack, so the orchestrator
// leases NFs across the shard fabric.
std::string dc_sharded_text(std::uint64_t seed, double d, std::size_t threads) {
  constexpr std::array<std::string_view, 3> kLight = {"wire | S:Firewall S:LoadBalancer | host",
                                                      "wire | S:Monitor S:NAT | host",
                                                      "wire | S:Firewall S:Monitor | host"};
  pam::Rng rng(pam::Rng::derive(seed, 3));
  std::string s = header("dc-sharded", "cluster", d, scenario_seed(seed, 1));
  s += "\n[traffic]\narrival = cbr\nsizes = fixed 512\n\n[policy]\nname = pam\n";
  for (std::size_t srv = 0; srv < 16; ++srv) {
    const bool figure1 = srv % 2 == 1;
    s += chain_block("hot-" + std::to_string(srv),
                     figure1 ? kFigure1 : "wire | S:Firewall S:Monitor C:DPI | host",
                     figure1 ? 2.2 : 2.8, srv);
  }
  for (std::size_t rack = 1; rack < 64; ++rack) {
    const std::size_t first = rng.bounded(16);
    const std::size_t second = (first + 1 + rng.bounded(15)) % 16;
    for (std::size_t slot : {first, second}) {
      s += chain_block("bg-" + std::to_string(rack) + "-" + std::to_string(slot),
                       kLight[rng.bounded(kLight.size())], 0.6 * rng.uniform(0.9, 1.1),
                       rack * 16 + slot);
    }
  }
  s += "\n[cluster]\nservers = 1024\nrebalance = on\ninter_server_us = 50\n"
       "trigger_utilization = 1\ntarget_max_load = 0.95\nperiod_ms = 5\n"
       "first_check_ms = 5\ncooldown_ms = 10\nshards = 64\nthreads = " +
       std::to_string(threads) + "\ncross_rack_us = 100\norchestrate = on\n";
  return s;
}

double peak_gbps(const pam::ChainDecl& decl) {
  if (!decl.has_rate) {
    return decl.offered_gbps;
  }
  switch (decl.rate.kind) {
    case pam::RateSpec::Kind::kConstant:
      return decl.rate.a;
    case pam::RateSpec::Kind::kSinusoid:
      return decl.rate.a + decl.rate.b;
    case pam::RateSpec::Kind::kStep:
    case pam::RateSpec::Kind::kFlash:
      return std::max(decl.rate.a, decl.rate.b);
  }
  return decl.offered_gbps;
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (kNames[i] == name) {
      return static_cast<Workload>(i);
    }
  }
  return std::nullopt;
}

const char* name_of(Workload w) { return kNames[static_cast<std::size_t>(w)].data(); }

double measured_horizon_ms(Workload w) {
  switch (w) {
    case Workload::kChainSizes:
      return 10.0;
    case Workload::kRackChurn:
      return 25.0;
    case Workload::kDcSharded:
      return 10.0;
    case Workload::kPlanStorm:
      return 10.0;
  }
  return 10.0;
}

std::string scenario_text(Workload w, std::uint64_t seed, double duration_ms,
                          std::size_t threads) {
  switch (w) {
    case Workload::kChainSizes:
      return compare_text("chain-sizes", scenario_seed(seed, 1), duration_ms, "sweep");
    case Workload::kRackChurn:
      return rack_churn_text(seed, duration_ms);
    case Workload::kDcSharded:
      return dc_sharded_text(seed, duration_ms, threads);
    case Workload::kPlanStorm:
      return compare_text("plan-storm-spot-check", scenario_seed(seed, 4), duration_ms,
                          "fixed 512");
  }
  return {};
}

std::vector<Decision> decisions_of(const pam::ScenarioSpec& spec) {
  std::vector<Decision> out;
  if (spec.kind == pam::ScenarioKind::kCompare) {
    auto chain = pam::parse_chain_spec(spec.chain);
    if (chain) {
      out.push_back({std::move(chain).value(), pam::Gbps{spec.plan_rate_gbps}});
    }
    return out;
  }
  out.reserve(spec.chains.size());
  for (const pam::ChainDecl& decl : spec.chains) {
    auto chain = pam::parse_chain_spec(decl.spec, decl.name);
    if (chain) {
      out.push_back({std::move(chain).value(), pam::Gbps{peak_gbps(decl)}});
    }
  }
  return out;
}

std::vector<Decision> make_population(std::uint64_t seed, std::size_t count,
                                      std::size_t min_len, std::size_t max_len) {
  constexpr std::array<std::string_view, 8> kKinds = {
      "Firewall", "Logger", "Monitor", "LoadBalancer", "NAT", "DPI", "RateLimiter", "Encryptor"};
  const pam::Server server = pam::Server::paper_testbed();
  const pam::ChainAnalyzer analyzer(server);
  pam::Rng rng(pam::Rng::derive(seed, 5));
  std::vector<Decision> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = min_len + rng.bounded(max_len - min_len + 1);
    std::string spec = "wire |";
    for (std::size_t n = 0; n < len; ++n) {
      // The first NF stays on the SmartNIC so every chain loads it.
      const bool on_nic = n == 0 || rng.chance(0.6);
      spec += on_nic ? " S:" : " C:";
      spec += kKinds[rng.bounded(kKinds.size())];
    }
    spec += " | host";
    auto chain = pam::parse_chain_spec(spec, "pop-" + std::to_string(i));
    if (!chain) {
      continue;
    }
    const double per_gbps = analyzer.utilization(chain.value(), pam::Gbps{1.0}).smartnic;
    const double overload = rng.uniform(1.1, 1.6);
    out.push_back({std::move(chain).value(), pam::Gbps{overload / per_gbps}});
  }
  return out;
}

std::vector<pam::Deployment> group_deployments(const std::vector<Decision>& d) {
  std::vector<pam::Deployment> out;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i % 4 == 0) {
      out.emplace_back();
    }
    out.back().add(d[i].chain, d[i].rate);
  }
  return out;
}

}  // namespace perfbench
