// pam_perfbench: the repo benchmark.  One workload per process.
//
//   pam_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (replays, allocation counts, spans).  Human-readable
// lines go to stdout first; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for every metric, its unit and its clock.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chain/border.hpp"
#include "chain/chain_analyzer.hpp"
#include "chain/chain_spec.hpp"
#include "chain/deployment.hpp"
#include "core/multi_chain_pam.hpp"
#include "core/naive_policy.hpp"
#include "core/pam_policy.hpp"
#include "device/server.hpp"
#include "experiment/invariants.hpp"
#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_runner.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kChainSizes;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = workload_from_name(val);
      if (!w) {
        return std::nullopt;
      }
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      end = val == "0" || val == "1" ? nullptr : end;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0.0 || argc % 2 != 1) {
    return std::nullopt;
  }
  return a;
}

// Operations attempted and failed.  An operation is one simulation run
// (fails on an invariant violation, a report digest that differs from the
// first run of the same inputs, or a compare plan with the wrong PCIe
// crossing delta) or one PAM decision (fails if it adds a crossing).
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  ///< "host", "sim" or "count"
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit, std::string clock) {
    all_.push_back({std::move(name), value, std::move(unit), std::move(clock)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return all_; }

 private:
  std::vector<Metric> all_;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// "[min .. max] s" of a sample, for the human-readable summary.
std::string spread_of(const std::vector<double>& v) {
  if (v.empty()) {
    return "[]";
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.4g .. %.4g s]", *lo, *hi);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Simulation runs through the experiment layer's public API.

struct PipelineRun {
  double total_s = 0.0;  ///< parse + run + JSON report
  double parse_s = 0.0;
  double json_s = 0.0;
  std::size_t report_bytes = 0;
  std::string digest;
  AllocCount allocs;
  pam::RunResult result;
};

// Parses `text`, runs it (optionally re-pointed at `policy`), serializes the
// report, then audits it.  The audit and the digest are outside the timed
// region.  Exits on a configuration error: the workload cannot be measured.
PipelineRun run_pipeline(const std::string& text, std::size_t threads, SpanLog& log, Gate& gate,
                         const char* policy = nullptr) {
  PipelineRun out;
  const AllocCount a0 = alloc_count();
  ScopedSpan top(log, "pipeline");
  const auto t0 = Clock::now();
  std::optional<pam::ScenarioSpec> spec;
  {
    ScopedSpan s(log, "experiment.parse");
    auto parsed = pam::ScenarioSpec::parse(text, "perfbench");
    if (!parsed) {
      std::fprintf(stderr, "perfbench: scenario does not parse: %s\n",
                   parsed.error().what().c_str());
      std::exit(1);
    }
    spec = policy ? parsed.value().with_policy(pam::PolicyConfig{policy, {}})
                  : std::move(parsed).value();
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan s(log, "experiment.run");
    auto ran = pam::ScenarioRunner{}.run(*spec, threads);
    if (!ran) {
      std::fprintf(stderr, "perfbench: scenario does not run: %s\n", ran.error().what().c_str());
      std::exit(1);
    }
    out.result = std::move(ran).value();
  }
  const auto t2 = Clock::now();
  std::string report;
  {
    ScopedSpan s(log, "experiment.report_json");
    std::ostringstream json;
    pam::write_metrics_json(out.result, json);
    report = json.str();
  }
  const auto t3 = Clock::now();
  const AllocCount a1 = alloc_count();
  out.total_s = seconds_between(t0, t3);
  out.parse_s = seconds_between(t0, t1);
  out.json_s = seconds_between(t2, t3);
  out.report_bytes = report.size();
  out.allocs = {a1.allocs - a0.allocs, a1.bytes - a0.bytes};
  out.digest = sha256_hex(report);

  const pam::InvariantReport audit = pam::check_invariants(out.result);
  bool plans_ok = true;
  for (const pam::VariantResult& v : out.result.variants) {
    const int delta = v.plan.total_crossing_delta();
    if (v.policy.rfind("naive", 0) == 0) {
      plans_ok = plans_ok && delta == 2;  // the paper's naive migration: +2 crossings
    } else if (v.policy.rfind("pam", 0) == 0) {
      plans_ok = plans_ok && delta == 0;
    }
  }
  gate.check(audit.ok() && plans_ok,
             "simulation run: " + (audit.ok() ? std::string("crossing deltas") : audit.describe()));
  return out;
}

// Same inputs must give the same report: every run is compared with the
// first run of its text (and, on dc-sharded, across thread counts).
void check_digest(Gate& gate, std::optional<std::string>& reference, const std::string& digest,
                  const char* what) {
  if (!reference) {
    reference = digest;
    return;
  }
  gate.check(*reference == digest, std::string("report digest differs: ") + what);
}

// Simulated outcomes of one run.
struct SimOutcome {
  double p99_us = 0.0;
  double goodput_gbps = 0.0;
  double drop_ratio = 0.0;
  double naive_p99_us = 0.0;
  std::uint64_t injected = 0;
};

SimOutcome outcome_of(const pam::RunResult& r) {
  SimOutcome o;
  if (r.cluster) {
    const pam::MeasuredRun& f = r.cluster->fleet;
    o.p99_us = f.latency.p99_us;
    o.goodput_gbps = f.goodput_gbps;
    o.injected = f.injected;
    o.drop_ratio = f.injected ? static_cast<double>(f.dropped_total()) /
                                    static_cast<double>(f.injected)
                              : 0.0;
    return o;
  }
  // compare: PAM's mean over the sizes; drops over every variant.
  std::uint64_t dropped = 0;
  for (const pam::VariantResult& v : r.variants) {
    double p99 = 0.0;
    double goodput = 0.0;
    for (const pam::MeasuredRun& m : v.runs) {
      p99 += m.latency.p99_us / static_cast<double>(v.runs.size());
      goodput += m.goodput_gbps / static_cast<double>(v.runs.size());
      o.injected += m.injected;
      dropped += m.dropped_total();
    }
    if (v.policy.rfind("pam", 0) == 0) {
      o.p99_us = p99;
      o.goodput_gbps = goodput;
    } else if (v.policy.rfind("naive", 0) == 0) {
      o.naive_p99_us = p99;
    }
  }
  o.drop_ratio = o.injected ? static_cast<double>(dropped) / static_cast<double>(o.injected) : 0.0;
  return o;
}

// ---------------------------------------------------------------------------
// Decisions: ChainAnalyzer + find_borders + PamPolicy::plan, closed loop,
// one caller.

// Decision latencies: decide_p50_us is the mean over batches (kDecisionBatch
// decisions or more on simulation workloads, a pass of kPopulation on
// plan-storm) of the batch median.  A batch of the simulation workloads
// lasts a few milliseconds, shorter than most of the host's phases, so its
// median falls in one phase or the other (see iq_mean); the mean follows
// the share of slow phases with the least slope, and a batch median cannot
// be an outlier.  decide_p99_us is the p99 of every decision of the run: a
// thousand-decision batch would hold only ten samples beyond it, and
// whether one slow phase touched the batch would decide its value.
// decisions_per_s is the interquartile mean of the batch rates, so that a
// batch stretched by a preemption does not count.
constexpr std::size_t kDecisionBatch = 1000;
constexpr int kBatchesPerIteration = 4;
struct DecisionStats {
  std::vector<double> us;  ///< one sample per decision of the open batch
  double busy_s = 0.0;     ///< decision time of the open batch
  std::vector<double> p50_us;
  std::vector<double> per_s;   ///< decisions per second of each batch
  std::vector<double> all_us;  ///< every closed batch's samples

  void close_batch() {
    p50_us.push_back(quantile(us, 0.5));
    per_s.push_back(static_cast<double>(us.size()) / busy_s);
    all_us.insert(all_us.end(), us.begin(), us.end());
    us.clear();
    busy_s = 0.0;
  }
};

// `scale` is the run's SpeedProbe::scale().
void add_decision_metrics(Metrics& m, const DecisionStats& ds, double scale) {
  m.add("decide_p50_us", mean(ds.p50_us) * scale, "us", "host");
  m.add("decide_p99_us", quantile(ds.all_us, 0.99) * scale, "us", "host");
  m.add("decisions_per_s", iq_mean(ds.per_s) / scale, "1/s", "host");
}

// The human-readable summary of a run's host-speed scaling.
std::string probe_note(const SpeedProbe& probe) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ", probe %.3f ms (host times x %.3f)", probe.probe_s() * 1e3,
                probe.scale());
  return buf;
}

void decide_all(const std::vector<Decision>& decisions, const pam::ChainAnalyzer& analyzer,
                DecisionStats& stats, Gate& gate, SpanLog& log) {
  const pam::PamPolicy pam_policy;
  for (const Decision& d : decisions) {
    const auto t0 = Clock::now();
    pam::MigrationPlan plan;
    {
      ScopedSpan s(log, "decision");
      {
        ScopedSpan a(log, "chain.analyze");
        (void)analyzer.utilization(d.chain, d.rate);
      }
      {
        ScopedSpan b(log, "chain.find_borders");
        (void)pam::find_borders(d.chain);
      }
      ScopedSpan p(log, "core.pam_plan");
      plan = pam_policy.plan(d.chain, analyzer, d.rate);
    }
    const double s = seconds_between(t0, Clock::now());
    stats.us.push_back(s * 1e6);
    stats.busy_s += s;
    gate.check(plan.total_crossing_delta() <= 0, "PAM plan adds a PCIe crossing on " +
                                                     d.chain.name());
  }
}

// The comparison half of a plan-storm pass: Naive on every chain, then
// MultiChainPam over deployments of 4 chains.
void compare_pass(const std::vector<Decision>& decisions, const pam::ChainAnalyzer& analyzer,
                  const std::vector<pam::Deployment>& deployments, Gate& gate, SpanLog& log) {
  const pam::NaiveBottleneckPolicy naive;
  {
    ScopedSpan s(log, "core.naive_pass");
    for (const Decision& d : decisions) {
      (void)naive.plan(d.chain, analyzer, d.rate);
    }
  }
  ScopedSpan s(log, "core.multichain_pass");
  for (const pam::Deployment& dep : deployments) {
    const pam::MultiChainPlan plan = pam::MultiChainPam{}.plan(dep, analyzer);
    gate.check(plan.total_crossing_delta() <= 0, "MultiChainPam adds a PCIe crossing");
  }
}

// ---------------------------------------------------------------------------

// Host time budget of one run, split into phases by share of --seconds.
class Budget {
 public:
  explicit Budget(double seconds) : start_(Clock::now()), seconds_(seconds) {}
  [[nodiscard]] double elapsed() const { return seconds_between(start_, Clock::now()); }
  /// True if `next_s` more seconds still end within `share` of the budget.
  [[nodiscard]] bool room_for(double share, double next_s) const {
    return elapsed() + next_s <= share * seconds_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
};

pam::TrafficSourceConfig traffic_of(const pam::ScenarioSpec& spec, pam::Gbps rate) {
  pam::TrafficSourceConfig t;
  t.rate = pam::RateProfile::constant(rate);
  t.process = spec.traffic.arrival;
  t.seed = spec.seed;
  const pam::SizeSpec& s = spec.traffic.sizes;
  switch (s.kind) {
    case pam::SizeSpec::Kind::kFixed:
      t.sizes = pam::PacketSizeDistribution::fixed(s.fixed);
      break;
    case pam::SizeSpec::Kind::kImix:
      t.sizes = pam::PacketSizeDistribution::imix();
      break;
    case pam::SizeSpec::Kind::kUniform:
      t.sizes = pam::PacketSizeDistribution::uniform(s.lo, s.hi);
      break;
    case pam::SizeSpec::Kind::kPaperSweep: {
      // One run per size at a fixed bit rate: packets per size go as 1/size.
      std::vector<std::pair<std::size_t, double>> weighted;
      for (std::size_t size : pam::paper_size_sweep()) {
        weighted.emplace_back(size, 1.0 / static_cast<double>(size));
      }
      t.sizes = pam::PacketSizeDistribution::discrete(std::move(weighted));
      break;
    }
  }
  return t;
}

// Per-run work counts taken from a run's own report, for the busy ledger.
struct RunCounts {
  double packets = 0.0;
  double crossings = 0.0;
  std::array<double, kNfKinds> visits{};
  double events = 0.0;  ///< exact on sharded runs, else 0 (estimated later)
  double frames = 0.0;
  double epochs = 0.0;
  double imbalance = 1.0;
  double control_events = 0.0;
  double moves = 0.0;
  double checks = 0.0;
  double plans = 0.0;
};

RunCounts counts_of(const pam::ScenarioSpec& spec, const pam::RunResult& r) {
  RunCounts c;
  auto add_chain = [&](const std::string& chain_spec, const pam::MeasuredRun& m) {
    const auto chain = pam::parse_chain_spec(chain_spec);
    const double injected = static_cast<double>(m.injected);
    c.packets += injected;
    c.crossings += m.mean_crossings_per_packet * injected;
    if (chain) {
      const auto v = nf_visits_per_packet(chain.value());
      for (std::size_t k = 0; k < kNfKinds; ++k) {
        c.visits[k] += v[k] * injected;
      }
    }
  };
  if (!r.cluster) {
    for (const pam::VariantResult& v : r.variants) {
      for (const pam::MeasuredRun& m : v.runs) {
        add_chain(spec.chain, m);
      }
    }
    c.plans = static_cast<double>(r.variants.size());
    return c;
  }
  const pam::ClusterResult& cl = *r.cluster;
  for (const pam::ClusterChainResult& ch : cl.chains) {
    for (const pam::ChainDecl& decl : spec.chains) {
      if (decl.name == ch.name) {
        add_chain(decl.spec, ch.metrics);
      }
    }
  }
  double max_events = 0.0;
  for (const pam::ClusterShardResult& s : cl.shard_totals) {
    c.events += static_cast<double>(s.events_executed);
    max_events = std::max(max_events, static_cast<double>(s.events_executed));
  }
  if (!cl.shard_totals.empty() && c.events > 0) {
    c.imbalance = max_events / (c.events / static_cast<double>(cl.shard_totals.size()));
  }
  c.frames = static_cast<double>(cl.cross_rack_frames);
  c.epochs = static_cast<double>(cl.epochs);
  c.control_events = static_cast<double>(cl.events.size());
  c.moves = static_cast<double>(cl.migrations_executed + cl.scale_out_moves + cl.evacuations +
                                cl.cross_rack_moves);
  for (const pam::ControlEvent& e : cl.events) {
    if (e.kind == pam::ControlEvent::Kind::kTriggered) {
      c.plans += 1.0;
    }
  }
  // The fleet controller checks every chain once per period from
  // first_check to the horizon.
  const pam::ClusterSpec& k = spec.cluster;
  if (k.rebalance && spec.duration_ms >= k.first_check_ms && k.period_ms > 0) {
    const double ticks = std::floor((spec.duration_ms - k.first_check_ms) / k.period_ms) + 1.0;
    c.checks = ticks * static_cast<double>(spec.chains.size());
  }
  return c;
}

void emit(const Metrics& m, const Gate& gate, const char* workload, bool trace,
          const std::string& note) {
  std::printf("perfbench %s (%s): %s\n", workload, trace ? "per-layer, traced" : "end-to-end",
              note.c_str());
  for (const Metric& x : m.all()) {
    std::printf("  %-32s %22s %-8s [%s]\n", x.name.c_str(), fmt(x.value).c_str(),
                x.unit.c_str(), x.clock.c_str());
  }
  const double failed_ratio =
      gate.attempted ? static_cast<double>(gate.failed) / static_cast<double>(gate.attempted)
                     : 0.0;
  std::printf("  %-32s %22s %-8s [count]  (%llu of %llu operations)\n", "failed_ratio",
              fmt(failed_ratio).c_str(), "ratio", static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  std::string json = "{\"correct\": ";
  json += gate.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.all()) {
    json += (first ? "\"" : ", \"") + x.name + "\": {\"value\": " + fmt(x.value) +
            ", \"unit\": \"" + x.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Busy time per layer in one run: call counts from the run's report times
// cost per call from the replay.
struct Busy {
  std::string name;
  double seconds;
};

std::vector<Busy> sim_busy(const LayerCosts& c, const RunCounts& n, double experiment_s) {
  double nf_visits = 0.0;
  double nf_s = 0.0;
  for (std::size_t k = 0; k < kNfKinds; ++k) {
    nf_visits += n.visits[k];
    nf_s += n.visits[k] * c.nf_process_ns[k] * 1e-9;
  }
  // Every NF visit and every PCIe crossing is one FcfsServer job; its
  // completion event is priced in fcfs_submit_ns, not in event_ns.
  const double submits = nf_visits + n.crossings;
  return {
      {"trafficgen", n.packets * c.draw_ns * 1e-9},
      {"packet", (n.packets * (c.build_ns + c.pool_acquire_ns) + nf_visits * c.parse_ns) * 1e-9},
      {"nf", nf_s},
      {"device", submits * c.fcfs_submit_ns * 1e-9},
      {"sim", std::max(0.0, n.events - submits) * c.event_ns * 1e-9},
      {"fabric", (n.frames * c.frame_ns + n.epochs * c.epoch_ns) * 1e-9},
      {"chain", n.plans * (c.analyze_ns + c.find_borders_ns) * 1e-9},
      {"core", n.plans * c.pam_plan_us * 1e-6},
      {"control", n.checks * c.check_us * 1e-6},
      {"experiment", experiment_s},
  };
}

double total_busy(const std::vector<Busy>& busy) {
  double t = 0.0;
  for (const Busy& b : busy) {
    t += b.seconds;
  }
  return t;
}

// Per-layer figures that come from the run rather than from the replay.
struct LayerExtras {
  double speedup_vs_t1 = 1.0;
  double allocs_per_packet = 0.0;
  double setup_allocs = 0.0;
  double pools = 1.0;
  double parse_us = 0.0;
  double report_json_us = 0.0;
  double report_bytes = 0.0;
  double trace_overhead_s = 0.0;
  double unattributed_s = 0.0;
  std::vector<Busy> busy;
};

void add_per_layer(Metrics& m, const LayerCosts& c, const RunCounts& n, const LayerExtras& x) {
  m.add("trafficgen.draw_ns", c.draw_ns, "ns", "host");
  m.add("packet.build_ns", c.build_ns, "ns", "host");
  m.add("packet.parse_ns", c.parse_ns, "ns", "host");
  m.add("packet.pool_acquire_ns", c.pool_acquire_ns, "ns", "host");
  for (std::size_t k = 0; k < kNfKinds; ++k) {
    m.add("nf.process_ns." + std::string(pam::to_string(static_cast<pam::NfType>(k))),
          c.nf_process_ns[k], "ns", "host");
  }
  m.add("device.fcfs_submit_ns", c.fcfs_submit_ns, "ns", "host");
  m.add("sim.event_ns", c.event_ns, "ns", "host");
  m.add("sim.allocs_per_event", c.allocs_per_event, "count", "count");
  m.add("sim.bytes_per_alloc", c.bytes_per_alloc, "B", "count");
  m.add("sim.allocs_per_packet", x.allocs_per_packet, "count", "count");
  m.add("sim.events", n.events, "count", "count");
  m.add("sim.packets", n.packets, "count", "count");
  m.add("packet.pool_bytes", c.pool_bytes * x.pools, "B", "count");
  m.add("sim.setup_allocs", x.setup_allocs, "count", "count");
  m.add("fabric.frame_ns", c.frame_ns, "ns", "host");
  m.add("fabric.frames", n.frames, "count", "count");
  m.add("executor.epoch_ns", c.epoch_ns, "ns", "host");
  m.add("executor.epochs", n.epochs, "count", "count");
  m.add("shard.imbalance", n.imbalance, "ratio", "count");
  m.add("executor.speedup_vs_t1", x.speedup_vs_t1, "ratio", "host");
  m.add("chain.analyze_ns", c.analyze_ns, "ns", "host");
  m.add("chain.find_borders_ns", c.find_borders_ns, "ns", "host");
  m.add("core.pam_plan_us", c.pam_plan_us, "us", "host");
  for (std::size_t b = 0; b < kLengthBuckets.size(); ++b) {
    m.add("core.pam_plan_us." + std::string(kLengthBuckets[b].name), c.pam_plan_bucket_us[b],
          "us", "host");
  }
  m.add("core.naive_plan_us", c.naive_plan_us, "us", "host");
  m.add("core.multichain_plan_us", c.multichain_plan_us, "us", "host");
  m.add("control.checks", n.checks, "count", "count");
  m.add("control.check_us", c.check_us, "us", "host");
  m.add("control.events", n.control_events, "count", "count");
  m.add("migration.moves", n.moves, "count", "count");
  m.add("experiment.parse_us", x.parse_us, "us", "host");
  m.add("experiment.report_json_us", x.report_json_us, "us", "host");
  m.add("experiment.report_bytes", x.report_bytes, "B", "count");
  for (const Busy& b : x.busy) {
    m.add("busy." + b.name + "_s", b.seconds, "s", "host");
  }
  m.add("unattributed_s", x.unattributed_s, "s", "host");
  m.add("trace.overhead_s", x.trace_overhead_s, "s", "host");
}

// ---------------------------------------------------------------------------

// Shortest host time one set-up sample spans.
constexpr double kSetupSampleS = 0.05;

struct SimSamples {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> net_s;  ///< each run minus the set-up time of its iteration
  std::vector<double> parse_s;
  std::vector<double> json_s;
  std::vector<double> run_t1_s;  ///< dc-sharded, threads = 1
  std::optional<PipelineRun> last;
  std::optional<std::string> digest;
  std::optional<std::string> setup_digest;
};

// One measured iteration: set-up runs, then a full run of the same inputs,
// back to back so that both see the same host conditions.  A set-up run
// takes milliseconds on the small workloads, so the set-up sample repeats
// it for at least kSetupSampleS and spans the host's fast and slow phases
// alike (see iq_mean).  `probe`, if given, is sampled between the two.
void iterate(SimSamples& s, const std::string& setup, const std::string& full,
             std::size_t threads, SpanLog& log, Gate& gate, SpeedProbe* probe = nullptr) {
  double setup_total_s = 0.0;
  int setups = 0;
  do {
    const PipelineRun su = run_pipeline(setup, threads, log, gate);
    check_digest(gate, s.setup_digest, su.digest, "set-up run");
    setup_total_s += su.total_s;
    ++setups;
  } while (setup_total_s < kSetupSampleS);
  if (probe != nullptr) {
    probe->sample();
  }
  PipelineRun r = run_pipeline(full, threads, log, gate);
  check_digest(gate, s.digest, r.digest, "repeat");
  const double setup_s = setup_total_s / setups;
  s.setup_s.push_back(setup_s);
  s.run_s.push_back(r.total_s);
  s.net_s.push_back(r.total_s - setup_s);
  s.parse_s.push_back(r.parse_s);
  s.json_s.push_back(r.json_s);
  s.last = std::move(r);
}

int run_simulation_workload(const Args& args) {
  const bool sharded = args.workload == Workload::kDcSharded;
  const std::size_t threads =
      sharded ? std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4) : 0;
  const std::string full =
      scenario_text(args.workload, args.seed, measured_horizon_ms(args.workload), threads);
  const std::string setup = scenario_text(args.workload, args.seed, kSetupHorizonMs, threads);
  const auto spec = pam::ScenarioSpec::parse(full, "perfbench");
  if (!spec) {
    std::fprintf(stderr, "perfbench: %s\n", spec.error().what().c_str());
    return 1;
  }
  const pam::Server server = pam::Server::paper_testbed();
  const pam::ChainAnalyzer analyzer(server);
  const std::vector<Decision> decisions = decisions_of(spec.value());

  Gate gate;
  SpanLog quiet(false);
  SpanLog spans(args.trace);
  Budget budget(args.seconds);
  SimSamples s;
  {  // Warm-up, untimed: fills caches and allocator arenas, and sets the
     // digest every later run of these inputs must match.
    const PipelineRun warm = run_pipeline(full, threads, quiet, gate);
    check_digest(gate, s.digest, warm.digest, "warm-up");
  }
  auto iteration_s = [&] { return kSetupSampleS + median(s.setup_s) + median(s.run_s); };

  Metrics m;
  if (!args.trace) {
    // Each iteration also decides a batch of the decisions this workload's
    // chains pose.  dc-sharded keeps time for one threads=1 run and the
    // Naive companion, the other fleet kinds for the companion.
    DecisionStats ds;
    const double after = sharded ? 2.0 : pam::is_fleet_kind(spec.value().kind) ? 1.0 : 0.0;
    const double rss_mb = peak_rss_mb();  // the warm-up run's, before the probe's memory
    const CpuRotation cpus;
    SpeedProbe probe;
    while (s.run_s.size() < 3 || budget.room_for(1.0, iteration_s() + median(s.run_s) * after)) {
      cpus.pin(s.run_s.size());
      // The probe is sampled at three points of an iteration, so that its
      // samples see the host's short phases as often as the work does.
      probe.sample();
      for (int b = 0; b < kBatchesPerIteration; ++b) {
        while (ds.us.size() < kDecisionBatch) {
          decide_all(decisions, analyzer, ds, gate, quiet);
        }
        ds.close_batch();
      }
      probe.sample();
      if (sharded) {  // the shard worker threads, started by the run, need every CPU
        cpus.release();
      }
      iterate(s, setup, full, threads, quiet, gate, &probe);
    }
    if (sharded) {
      const PipelineRun t1 = run_pipeline(full, 1, quiet, gate);
      check_digest(gate, s.digest, t1.digest, "threads=1 vs threads=N");
    }
    const SimOutcome o = outcome_of(s.last->result);
    double naive_p99 = o.naive_p99_us;
    if (s.last->result.cluster) {
      const PipelineRun naive = run_pipeline(full, threads, quiet, gate, "naive");
      naive_p99 = outcome_of(naive.result).p99_us;
    }
    const double k = probe.scale();
    m.add("setup_s", iq_mean(s.setup_s) * k, "s", "host");
    m.add("run_s", iq_mean(s.run_s) * k, "s", "host");
    m.add("ns_per_packet", iq_mean(s.net_s) * k / static_cast<double>(o.injected) * 1e9, "ns",
          "host");
    m.add("peak_rss_mb", rss_mb, "MB", "host");
    add_decision_metrics(m, ds, k);
    m.add("sim_p99_us", o.p99_us, "us", "sim");
    m.add("sim_goodput_gbps", o.goodput_gbps, "Gbps", "sim");
    m.add("sim_drop_ratio", o.drop_ratio, "ratio", "sim");
    m.add("pam_vs_naive_p99", o.p99_us / naive_p99, "ratio", "sim");
    emit(m, gate, name_of(args.workload), false,
         std::to_string(s.run_s.size()) + " iterations, set-up " + spread_of(s.setup_s) +
             ", run " + spread_of(s.run_s) + ", " + std::to_string(ds.all_us.size()) +
             " decision samples" + probe_note(probe));
    return 0;
  }

  // --- traced run ---------------------------------------------------------
  // Pairs of an untraced iteration (dc-sharded adds a threads=1 run) and a
  // run with spans and allocation counting on; the tracing overhead is the
  // median difference within a pair.  The replays follow.
  set_alloc_counting(true);
  const PipelineRun traced_setup = run_pipeline(setup, threads, spans, gate);
  set_alloc_counting(false);
  check_digest(gate, s.setup_digest, traced_setup.digest, "traced set-up run");
  std::vector<double> traced_s;
  std::vector<double> overhead_s;
  std::vector<double> allocs_per_packet;
  while (traced_s.size() < 2 ||
         budget.room_for(0.70, iteration_s() + median(s.run_t1_s) + median(traced_s))) {
    iterate(s, setup, full, threads, quiet, gate);
    if (sharded) {
      const PipelineRun t1 = run_pipeline(full, 1, quiet, gate);
      check_digest(gate, s.digest, t1.digest, "threads=1 vs threads=N");
      s.run_t1_s.push_back(t1.total_s);
    }
    set_alloc_counting(true);
    const PipelineRun r = run_pipeline(full, threads, spans, gate);
    set_alloc_counting(false);
    check_digest(gate, s.digest, r.digest, "traced repeat");
    traced_s.push_back(r.total_s);
    overhead_s.push_back(r.total_s - s.run_s.back());
    allocs_per_packet.push_back(
        static_cast<double>(r.allocs.allocs - traced_setup.allocs.allocs) /
        static_cast<double>(outcome_of(r.result).injected));
  }

  ReplayInputs in;
  in.seed = spec.value().seed;
  in.traffic = traffic_of(spec.value(), decisions.front().rate);
  in.sim_chain = decisions.front().chain;
  in.decisions = &decisions;
  in.shards = spec.value().cluster.shards;
  in.threads = sharded ? threads : 1;
  const LayerCosts c = replay_layers(in);

  RunCounts n = counts_of(spec.value(), s.last->result);
  if (n.events == 0.0) {
    n.events = n.packets * c.events_per_packet;
  }
  const double run_s = iq_mean(s.run_s);
  LayerExtras x;
  x.speedup_vs_t1 = s.run_t1_s.empty() ? 1.0 : iq_mean(s.run_t1_s) / run_s;
  x.allocs_per_packet = median(allocs_per_packet);
  x.setup_allocs = static_cast<double>(traced_setup.allocs.allocs);
  x.pools = static_cast<double>(std::max<std::size_t>(1, in.shards));
  x.parse_us = median(s.parse_s) * 1e6;
  x.report_json_us = median(s.json_s) * 1e6;
  x.report_bytes = static_cast<double>(s.last->report_bytes);
  x.trace_overhead_s = median(overhead_s);
  x.busy = sim_busy(c, n, median(s.parse_s) + median(s.json_s));
  x.unattributed_s = run_s - total_busy(x.busy);
  add_per_layer(m, c, n, x);
  if (!args.spans_path.empty() && !spans.write_jsonl(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
  }
  emit(m, gate, name_of(args.workload), true,
       std::to_string(s.run_s.size()) + " untraced and " + std::to_string(traced_s.size()) +
           " traced runs");
  return 0;
}

// plan-storm: passes over a seeded population in a closed loop with one
// caller.  A pass is one PAM decision per chain, then Naive on every chain
// and MultiChainPam over deployments of 4.  A short DES spot-check of the
// Figure-1 chain supplies the simulated and per-packet metrics.
int run_plan_storm(const Args& args) {
  Gate gate;
  SpanLog quiet(false);
  SpanLog spans(args.trace);
  Budget budget(args.seconds);

  std::vector<double> setup_s;
  auto build_population = [&] {  // one set-up sample (see iterate)
    std::vector<Decision> p;
    int builds = 0;
    const auto t0 = Clock::now();
    do {
      p = make_population(args.seed, kPopulation, 4, 64);
      ++builds;
    } while (seconds_between(t0, Clock::now()) < kSetupSampleS);
    setup_s.push_back(seconds_between(t0, Clock::now()) / builds);
    return p;
  };
  const std::vector<Decision> population = build_population();
  const std::vector<pam::Deployment> deployments = group_deployments(population);
  const pam::Server server = pam::Server::paper_testbed();
  const pam::ChainAnalyzer analyzer(server);

  const double horizon = measured_horizon_ms(args.workload);
  const std::string full = scenario_text(args.workload, args.seed, horizon, 0);
  const std::string setup = scenario_text(args.workload, args.seed, kSetupHorizonMs, 0);
  SimSamples spot;
  {  // Warm-up, untimed (see run_simulation_workload).
    const PipelineRun warm = run_pipeline(full, 0, quiet, gate);
    check_digest(gate, spot.digest, warm.digest, "spot-check warm-up");
  }

  // One pass (one decision batch): returns its host seconds.
  auto pass = [&](DecisionStats& ds, SpanLog& log) {
    const auto t0 = Clock::now();
    decide_all(population, analyzer, ds, gate, log);
    compare_pass(population, analyzer, deployments, gate, log);
    const double s = seconds_between(t0, Clock::now());
    ds.close_batch();
    return s;
  };
  {  // Warm-up pass, untimed.
    DecisionStats warm;
    (void)pass(warm, quiet);
  }
  const double rss_mb = peak_rss_mb();  // before the probe's memory
  // Each iteration: a population build, a pass, a spot-check iteration.
  DecisionStats ds;
  std::vector<double> pass_s;
  const double share = args.trace ? 0.40 : 1.0;
  const CpuRotation cpus;
  SpeedProbe probe;
  while (pass_s.size() < 3 ||
         budget.room_for(share, 2 * kSetupSampleS + median(setup_s) + median(pass_s) +
                                    median(spot.setup_s) + median(spot.run_s))) {
    cpus.pin(pass_s.size());
    probe.sample();  // at three points, as in run_simulation_workload
    (void)build_population();
    pass_s.push_back(pass(ds, quiet));
    probe.sample();
    iterate(spot, setup, full, 0, quiet, gate, &probe);
  }
  const double run_s = iq_mean(pass_s);
  Metrics m;
  if (!args.trace) {
    const SimOutcome o = outcome_of(spot.last->result);
    const double k = probe.scale();
    m.add("setup_s", iq_mean(setup_s) * k, "s", "host");
    m.add("run_s", run_s * k, "s", "host");
    m.add("ns_per_packet", iq_mean(spot.net_s) * k / static_cast<double>(o.injected) * 1e9, "ns",
          "host");
    m.add("peak_rss_mb", rss_mb, "MB", "host");
    add_decision_metrics(m, ds, k);
    m.add("sim_p99_us", o.p99_us, "us", "sim");
    m.add("sim_goodput_gbps", o.goodput_gbps, "Gbps", "sim");
    m.add("sim_drop_ratio", o.drop_ratio, "ratio", "sim");
    m.add("pam_vs_naive_p99", o.p99_us / o.naive_p99_us, "ratio", "sim");
    emit(m, gate, name_of(args.workload), false,
         std::to_string(population.size()) + " chains, " + std::to_string(pass_s.size()) +
             " iterations, build " + spread_of(setup_s) + ", pass " + spread_of(pass_s) + ", " +
             std::to_string(ds.all_us.size()) + " decision samples" + probe_note(probe));
    return 0;
  }

  set_alloc_counting(true);
  const PipelineRun traced_setup = run_pipeline(setup, 0, spans, gate);
  check_digest(gate, spot.setup_digest, traced_setup.digest, "traced spot-check set-up run");
  const PipelineRun traced_spot = run_pipeline(full, 0, spans, gate);
  check_digest(gate, spot.digest, traced_spot.digest, "traced spot-check repeat");
  set_alloc_counting(false);
  // Pairs of an untraced and a traced pass; the overhead is the median
  // difference within a pair.
  std::vector<double> traced_s;
  std::vector<double> overhead_s;
  DecisionStats traced_ds;
  while (traced_s.size() < 2 || budget.room_for(0.70, run_s + median(traced_s))) {
    const double untraced = pass(ds, quiet);
    set_alloc_counting(true);
    traced_s.push_back(pass(traced_ds, spans));
    set_alloc_counting(false);
    overhead_s.push_back(traced_s.back() - untraced);
  }

  // The replays price chain/core/control on a slice of the population, so
  // the population's length mix carries over.
  const std::vector<Decision> slice(population.begin(),
                                    population.begin() + std::min<std::size_t>(300, population.size()));
  const auto spot_spec = pam::ScenarioSpec::parse(full, "perfbench");
  const std::vector<Decision> spot_chain = decisions_of(spot_spec.value());
  ReplayInputs in;
  in.seed = args.seed;
  in.traffic = traffic_of(spot_spec.value(), spot_chain.front().rate);
  in.sim_chain = spot_chain.front().chain;
  in.decisions = &slice;
  const LayerCosts c = replay_layers(in);

  // Counts of the DES layers come from the spot-check; a pass's busy time
  // is chain + core only.
  RunCounts n = counts_of(spot_spec.value(), spot.last->result);
  n.events = n.packets * c.events_per_packet;
  const double chains = static_cast<double>(population.size());
  LayerExtras x;
  x.allocs_per_packet =
      static_cast<double>(traced_spot.allocs.allocs - traced_setup.allocs.allocs) /
      static_cast<double>(outcome_of(traced_spot.result).injected);
  x.setup_allocs = static_cast<double>(traced_setup.allocs.allocs);
  x.parse_us = median(spot.parse_s) * 1e6;
  x.report_json_us = median(spot.json_s) * 1e6;
  x.report_bytes = static_cast<double>(spot.last->report_bytes);
  x.trace_overhead_s = median(overhead_s);
  x.busy = sim_busy(c, RunCounts{}, 0.0);
  for (Busy& b : x.busy) {
    if (b.name == "chain") {
      b.seconds = chains * (c.analyze_ns + c.find_borders_ns) * 1e-9;
    } else if (b.name == "core") {
      b.seconds = chains * (c.pam_plan_us + c.naive_plan_us) * 1e-6 +
                  static_cast<double>(deployments.size()) * c.multichain_plan_us * 1e-6;
    }
  }
  x.unattributed_s = run_s - total_busy(x.busy);
  add_per_layer(m, c, n, x);
  if (!args.spans_path.empty() && !spans.write_jsonl(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
  }
  emit(m, gate, name_of(args.workload), true,
       std::to_string(pass_s.size()) + " untraced and " + std::to_string(traced_s.size()) +
           " traced passes");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: pam_perfbench --workload chain-sizes|rack-churn|dc-sharded|plan-storm"
                 " --seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  return args->workload == perfbench::Workload::kPlanStorm
             ? perfbench::run_plan_storm(*args)
             : perfbench::run_simulation_workload(*args);
}
