#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "chain/border.hpp"
#include "chain/chain_analyzer.hpp"
#include "chain/deployment.hpp"
#include "control/control_plane.hpp"
#include "core/multi_chain_pam.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "device/server.hpp"
#include "measure.hpp"
#include "nf/nf_factory.hpp"
#include "packet/packet_builder.hpp"
#include "packet/packet_pool.hpp"
#include "sim/chain_simulator.hpp"
#include "sim/epoch_executor.hpp"
#include "sim/fcfs_server.hpp"
#include "sim/shard_fabric.hpp"
#include "trafficgen/flow_generator.hpp"

namespace perfbench {
namespace {

// Results flow here so the optimizer cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 5;

// Median over kBatches of the host ns per call of `body(i)`, i in [0, calls).
template <class Body>
double ns_per_call(std::size_t calls, Body&& body) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      body(i);
    }
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

struct Frames {
  std::vector<std::size_t> sizes;
  std::vector<pam::FiveTuple> tuples;
};

Frames draw_frames(const pam::TrafficSourceConfig& traffic, std::uint64_t seed, std::size_t n) {
  pam::Rng rng(pam::Rng::derive(seed, 11));
  pam::FlowGenerator flows(traffic.flows, pam::Rng::derive(seed, 12));
  Frames f;
  for (std::size_t i = 0; i < n; ++i) {
    f.sizes.push_back(traffic.sizes.sample(rng));
    f.tuples.push_back(flows.next(rng));
  }
  return f;
}

std::vector<pam::Packet> build_packets(const Frames& f) {
  std::vector<pam::Packet> out(f.sizes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    pam::PacketBuilder().size(f.sizes[i]).flow(f.tuples[i]).payload_seed(i).build_into(out[i]);
  }
  return out;
}

// Sensor/Actuator pair that replays a fixed set of chains: sensing is the
// analytic view at the chain's rate, acting completes at once.
class ScriptedSensor final : public pam::ControlPlane::Sensor {
 public:
  ScriptedSensor(const std::vector<Decision>& d, const pam::ChainAnalyzer& a) : d_(d), a_(a) {}
  pam::ControlPlane::Sample sense(std::size_t c) const override {
    pam::ControlPlane::Sample s;
    s.offered = d_[c].rate;
    s.util = a_.utilization(d_[c].chain, d_[c].rate);
    return s;
  }
  std::string describe_overload(std::size_t,
                                const pam::ControlPlane::Sample& s) const override {
    return s.util.describe();
  }
  pam::ControlPlane::Planned plan(std::size_t c, const pam::MigrationPolicy& policy,
                                  pam::Gbps offered) const override {
    pam::ControlPlane::Planned p;
    p.plan = policy.plan(d_[c].chain, a_, offered);
    const pam::UtilizationReport after = a_.utilization(p.plan.apply_to(d_[c].chain), offered);
    p.projected_smartnic = after.smartnic;
    p.projected_cpu = after.cpu;
    return p;
  }

 private:
  const std::vector<Decision>& d_;
  const pam::ChainAnalyzer& a_;
};

class InstantActuator final : public pam::ControlPlane::Actuator {
 public:
  bool in_flight(std::size_t) const override { return false; }
  void execute(std::size_t, const pam::MigrationPlan&, std::function<void()> done) override {
    done();
  }
  void scale_out(std::size_t, const std::string&, pam::Gbps) override {}
};

// Events and allocations of a standalone ChainSimulator run of `horizon`.
struct KernelCount {
  std::uint64_t events = 0;
  std::uint64_t injected = 0;
  AllocCount allocs;
};

KernelCount count_kernel(const ReplayInputs& in, pam::SimTime horizon) {
  pam::Server server = pam::Server::paper_testbed();
  pam::ChainSimulator sim(in.sim_chain, server, in.traffic);
  const AllocCount before = alloc_count();
  set_alloc_counting(true);
  const pam::SimReport report = sim.run(horizon, pam::SimTime::zero());
  set_alloc_counting(false);
  const AllocCount after = alloc_count();
  return {sim.kernel().queue().executed(), report.injected,
          {after.allocs - before.allocs, after.bytes - before.bytes}};
}

}  // namespace

std::array<double, kNfKinds> nf_visits_per_packet(const pam::ServiceChain& chain) {
  std::array<double, kNfKinds> visits{};
  double reach = 1.0;
  for (const pam::ChainNode& node : chain.nodes()) {
    visits[static_cast<std::size_t>(node.spec.type)] += reach;
    reach *= node.spec.pass_ratio;
  }
  return visits;
}

LayerCosts replay_layers(const ReplayInputs& in) {
  LayerCosts c;
  constexpr std::size_t kFrames = 512;
  const Frames frames = draw_frames(in.traffic, in.seed, kFrames);

  {  // trafficgen: one arrival's draws (size, flow, Poisson gap)
    pam::Rng rng(pam::Rng::derive(in.seed, 13));
    pam::FlowGenerator flows(in.traffic.flows, pam::Rng::derive(in.seed, 14));
    c.draw_ns = ns_per_call(20000, [&](std::size_t) {
      g_sink = g_sink + in.traffic.sizes.sample(rng) + flows.next(rng).src_port +
               static_cast<std::uint64_t>(rng.exponential(1000.0));
    });
  }
  {  // packet: build, parse, pool acquire/release
    pam::Packet pkt;
    c.build_ns = ns_per_call(20000, [&](std::size_t i) {
      const std::size_t k = i % kFrames;
      pam::PacketBuilder().size(frames.sizes[k]).flow(frames.tuples[k]).payload_seed(i).build_into(
          pkt);
      g_sink = g_sink + pkt.size();
    });
    const std::vector<pam::Packet> packets = build_packets(frames);
    c.parse_ns = ns_per_call(50000, [&](std::size_t i) {
      const auto t = packets[i % kFrames].five_tuple();
      g_sink = g_sink + (t ? t->src_port : 0);
    });
    pam::PacketPool pool(4096);
    c.pool_acquire_ns = ns_per_call(50000, [&](std::size_t i) {
      pam::PacketPtr p = pool.acquire(frames.sizes[i % kFrames]);
      g_sink = g_sink + p->size();
    });
  }
  {  // nf: one handle() per packet, every kind
    for (std::size_t k = 0; k < kNfKinds; ++k) {
      auto nf = pam::make_network_function(static_cast<pam::NfType>(k), "replay");
      std::vector<pam::Packet> packets = build_packets(frames);
      c.nf_process_ns[k] = ns_per_call(8000, [&](std::size_t i) {
        const auto v = nf->handle(packets[i % kFrames],
                                  pam::SimTime::nanoseconds(static_cast<std::int64_t>(i) * 100));
        g_sink = g_sink + static_cast<std::uint64_t>(v);
      });
    }
  }
  {  // device: FcfsServer submit + completion (its event included)
    pam::EventQueue q;
    pam::FcfsServer server(q, "replay", 1 << 12);
    constexpr std::size_t kJobs = 256;
    c.fcfs_submit_ns = ns_per_call(100, [&](std::size_t) {
      for (std::size_t j = 0; j < kJobs; ++j) {
        (void)server.submit(pam::SimTime::nanoseconds(100), [&] { g_sink = g_sink + 1; });
      }
      while (q.run_one()) {
      }
    }) / static_cast<double>(kJobs);
  }
  {  // sim: one event of a 1024-deep queue, rescheduling itself.  The
     // capture is packet-path sized (object, packet, node, hop), too big
     // for std::function's inline buffer, as in the simulator.
    pam::EventQueue q;
    pam::Rng rng(pam::Rng::derive(in.seed, 15));
    struct Hop {
      void* self;
      void* packet;
      std::size_t node;
      std::size_t server;
    };
    std::function<void(Hop)> tick;
    tick = [&](Hop h) {
      g_sink = g_sink + h.node;
      q.schedule_after(pam::SimTime::nanoseconds(static_cast<std::int64_t>(rng.bounded(1000)) + 1),
                       [&tick, h] { tick(h); });
    };
    for (std::size_t i = 0; i < 1024; ++i) {
      const Hop h{&q, &rng, i, i};
      q.schedule_after(pam::SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                       [&tick, h] { tick(h); });
    }
    c.event_ns = ns_per_call(50000, [&](std::size_t) { (void)q.run_one(); });
  }
  {  // sim kernel: events/packet and steady-state allocations/event, from
     // the difference of a short and a longer run.
    const KernelCount a = count_kernel(in, pam::SimTime::milliseconds(2.0));
    const KernelCount b = count_kernel(in, pam::SimTime::milliseconds(6.0));
    const double events = static_cast<double>(b.events - a.events);
    const double allocs = static_cast<double>(b.allocs.allocs - a.allocs.allocs);
    c.events_per_packet =
        b.injected ? static_cast<double>(b.events) / static_cast<double>(b.injected) : 0.0;
    c.allocs_per_event = events > 0 ? allocs / events : 0.0;
    c.bytes_per_alloc =
        allocs > 0 ? static_cast<double>(b.allocs.bytes - a.allocs.bytes) / allocs : 0.0;
  }
  {  // packet pool: bytes one kernel-default pool allocates at construction
    const AllocCount before = alloc_count();
    set_alloc_counting(true);
    { pam::PacketPool pool(4096); }
    set_alloc_counting(false);
    c.pool_bytes = static_cast<double>(alloc_count().bytes - before.bytes);
  }
  {  // sim.fabric: acquire + send + barrier exchange + release, per frame
    pam::ShardFabric fabric(2);
    constexpr std::size_t kBurst = 256;
    c.frame_ns = ns_per_call(50, [&](std::size_t i) {
      for (std::size_t j = 0; j < kBurst; ++j) {
        pam::FabricFrame f = fabric.acquire(0);
        f.bytes.assign(frames.sizes[(i + j) % kFrames], 0xab);
        fabric.send(0, 1, std::move(f));
      }
      fabric.exchange([&](std::size_t, std::size_t dst, pam::FabricFrame&& f) {
        g_sink = g_sink + f.bytes.size();
        fabric.release(dst, std::move(f));
      });
    }) / static_cast<double>(kBurst);
  }
  {  // sim.fabric: one empty epoch barrier at the workload's shape
    pam::EpochExecutor executor(in.threads, in.shards);
    struct alignas(64) Slot {
      std::uint64_t n = 0;
    };
    std::vector<Slot> slots(in.shards);
    c.epoch_ns = ns_per_call(400, [&](std::size_t) {
      executor.run_epoch([&](std::size_t s) { ++slots[s].n; });
    });
  }

  // chain / core / control, on the workload's own decisions.
  const pam::Server server = pam::Server::paper_testbed();
  const pam::ChainAnalyzer analyzer(server);
  const std::vector<Decision>& d = *in.decisions;
  const std::size_t n = d.size();
  const std::size_t reps = std::max<std::size_t>(1, 2000 / n);
  c.analyze_ns = ns_per_call(n * reps, [&](std::size_t i) {
    g_sink = g_sink + static_cast<std::uint64_t>(
                          analyzer.utilization(d[i % n].chain, d[i % n].rate).smartnic * 1e3);
  });
  c.find_borders_ns = ns_per_call(n * reps, [&](std::size_t i) {
    g_sink = g_sink + pam::find_borders(d[i % n].chain).left.size();
  });
  const pam::PamPolicy pam_policy;
  const pam::NaiveBottleneckPolicy naive;
  const std::size_t plan_calls = std::max<std::size_t>(n, std::min<std::size_t>(n * reps, 400));
  c.pam_plan_us = ns_per_call(plan_calls, [&](std::size_t i) {
                    g_sink = g_sink +
                             pam_policy.plan(d[i % n].chain, analyzer, d[i % n].rate).steps.size();
                  }) / 1e3;
  c.naive_plan_us = ns_per_call(plan_calls, [&](std::size_t i) {
                      g_sink = g_sink +
                               naive.plan(d[i % n].chain, analyzer, d[i % n].rate).steps.size();
                    }) / 1e3;
  {
    const std::vector<pam::Deployment> deployments = group_deployments(d);
    const pam::MultiChainPam multi;
    c.multichain_plan_us = ns_per_call(deployments.size(), [&](std::size_t i) {
                             g_sink = g_sink + multi.plan(deployments[i], analyzer).steps.size();
                           }) / 1e3;
  }
  for (std::size_t b = 0; b < kLengthBuckets.size(); ++b) {
    const std::vector<Decision> pop = make_population(pam::Rng::derive(in.seed, 20 + b), 32,
                                                      kLengthBuckets[b].lo, kLengthBuckets[b].hi);
    c.pam_plan_bucket_us[b] = ns_per_call(pop.size(), [&](std::size_t i) {
                                g_sink = g_sink +
                                         pam_policy.plan(pop[i].chain, analyzer, pop[i].rate)
                                             .steps.size();
                              }) / 1e3;
  }
  {  // control: sense -> plan -> act over the workload's chains; the clock
     // advances past the cooldown between rounds so every round re-plans.
    pam::SimulationKernel kernel;
    ScriptedSensor sensor(d, analyzer);
    InstantActuator actuator;
    pam::ControlPlane plane(kernel, sensor, actuator, n, std::make_unique<pam::PamPolicy>());
    const pam::SimTime step = plane.options().cooldown + plane.options().period;
    const std::size_t rounds = std::max<std::size_t>(4, 400 / n);
    c.check_us = ns_per_call(rounds, [&](std::size_t) {
                   kernel.advance_until(kernel.now() + step);
                   plane.check_all();
                 }) / static_cast<double>(n) / 1e3;
  }
  return c;
}

}  // namespace perfbench
