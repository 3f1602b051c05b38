// Scenario-spec parser tests: grammar coverage, strict error reporting
// (malformed keys, missing required fields, duplicate sections/keys), and
// the round-trip property over every bundled preset.

#include <gtest/gtest.h>

#include <string>

#include "experiment/scenario_library.hpp"
#include "experiment/scenario_spec.hpp"

namespace pam {
namespace {

constexpr const char* kMinimalCompare = R"(
[scenario]
name = mini
kind = compare
chain = wire | S:Firewall C:LoadBalancer | host

[variant]
policy = pam
)";

TEST(ScenarioSpec, ParsesMinimalCompare) {
  const auto result = ScenarioSpec::parse(kMinimalCompare);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.kind, ScenarioKind::kCompare);
  ASSERT_EQ(spec.variants.size(), 1u);
  EXPECT_EQ(spec.variants[0].policy, (PolicyConfig{"pam", {}}));
  // Label defaults to the policy's text form.
  EXPECT_EQ(spec.variants[0].label, "pam");
  EXPECT_EQ(spec.variants[0].measure_rate.kind, MeasureRate::Kind::kPlanRate);
}

TEST(ScenarioSpec, ParsesAllScalarFields) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = full
kind = compare
description = the description
note = first note
note = second note
chain = wire | S:Monitor | wire
plan_rate_gbps = 3.5
measure = analytic
duration_ms = 25
warmup_ms = 5
seed = 77

[traffic]
arrival = poisson
sizes = uniform 100 900

[variant]
label = capped
policy = naive-min
measure_rate = cap x 1.25
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.description, "the description");
  ASSERT_EQ(spec.notes.size(), 2u);
  EXPECT_EQ(spec.notes[1], "second note");
  EXPECT_DOUBLE_EQ(spec.plan_rate_gbps, 3.5);
  EXPECT_EQ(spec.measure, MeasureMode::kAnalytic);
  EXPECT_DOUBLE_EQ(spec.duration_ms, 25.0);
  EXPECT_DOUBLE_EQ(spec.warmup_ms, 5.0);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_EQ(spec.traffic.arrival, ArrivalProcess::kPoisson);
  EXPECT_EQ(spec.traffic.sizes.kind, SizeSpec::Kind::kUniform);
  EXPECT_EQ(spec.traffic.sizes.lo, 100u);
  EXPECT_EQ(spec.traffic.sizes.hi, 900u);
  EXPECT_EQ(spec.variants[0].measure_rate.kind, MeasureRate::Kind::kCapTimes);
  EXPECT_DOUBLE_EQ(spec.variants[0].measure_rate.value, 1.25);
}

// --- error reporting ------------------------------------------------------

void expect_error(const std::string& text, const std::string& fragment) {
  const auto result = ScenarioSpec::parse(text, "err.scn");
  ASSERT_FALSE(result.has_value()) << "expected error containing '" << fragment
                                   << "'";
  EXPECT_NE(result.error().what().find(fragment), std::string::npos)
      << "error was: " << result.error().what();
}

TEST(ScenarioSpecErrors, MalformedKeyValueLine) {
  expect_error("[scenario]\nname mini\n", "expected 'key = value'");
}

TEST(ScenarioSpecErrors, KeyBeforeAnySection) {
  expect_error("name = mini\n", "before any [section]");
}

TEST(ScenarioSpecErrors, MalformedSectionHeader) {
  expect_error("[scenario\nname = x\n", "malformed section header");
}

TEST(ScenarioSpecErrors, UnknownSection) {
  expect_error("[scenario]\nname = x\nkind = compare\n[bogus]\nk = v\n",
               "unknown section [bogus]");
}

TEST(ScenarioSpecErrors, UnknownKey) {
  expect_error("[scenario]\nname = x\nkind = compare\nbogus_key = 1\n",
               "unknown key 'bogus_key'");
}

TEST(ScenarioSpecErrors, DuplicateScenarioSection) {
  expect_error("[scenario]\nname = x\nkind = compare\n[scenario]\nname = y\n",
               "duplicate [scenario] section");
}

TEST(ScenarioSpecErrors, DuplicateKeyInSection) {
  expect_error("[scenario]\nname = x\nname = y\nkind = compare\n",
               "duplicate key 'name'");
}

TEST(ScenarioSpecErrors, ErrorsCarryOriginAndLine) {
  const auto result =
      ScenarioSpec::parse("[scenario]\nname = x\nbad key line\n", "my.scn");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("my.scn:3:"), std::string::npos)
      << result.error().what();
}

TEST(ScenarioSpecErrors, MissingScenarioSection) {
  expect_error("[traffic]\narrival = cbr\n", "missing required [scenario]");
}

TEST(ScenarioSpecErrors, MissingName) {
  expect_error("[scenario]\nkind = compare\nchain = wire | S:Monitor | wire\n",
               "requires a 'name'");
}

TEST(ScenarioSpecErrors, MissingKind) {
  expect_error("[scenario]\nname = x\n", "requires a 'kind'");
}

TEST(ScenarioSpecErrors, UnknownKind) {
  expect_error("[scenario]\nname = x\nkind = frobnicate\n", "unknown scenario kind");
}

TEST(ScenarioSpecErrors, CompareNeedsChain) {
  expect_error("[scenario]\nname = x\nkind = compare\n[variant]\npolicy = pam\n",
               "requires [scenario] 'chain'");
}

TEST(ScenarioSpecErrors, CompareNeedsVariant) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n",
      "at least one [variant]");
}

TEST(ScenarioSpecErrors, InvalidChainSpecIsRejected) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | X:Nope | host\n"
      "[variant]\npolicy = pam\n",
      "invalid chain spec");
}

TEST(ScenarioSpecErrors, BadNumber) {
  expect_error("[scenario]\nname = x\nkind = compare\nplan_rate_gbps = fast\n",
               "expected a number");
}

TEST(ScenarioSpecErrors, NegativeUnsignedValuesRejected) {
  // strtoull would silently wrap these to huge values; the parser must not.
  expect_error("[scenario]\nname = x\nkind = compare\nseed = -5\n",
               "expected an unsigned integer");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = fixed -64\n[variant]\npolicy = pam\n",
      "bad fixed size");
}

TEST(ScenarioSpecErrors, SearchItersBounded) {
  const std::string prefix =
      "[scenario]\nname = x\nkind = capacity\n[capacity]\nnfs = Monitor\n";
  expect_error(prefix + "search_iters = 1e10\n", "integer in [1, 64]");
  expect_error(prefix + "search_iters = 0\n", "integer in [1, 64]");
  expect_error(prefix + "search_iters = -3\n", "integer in [1, 64]");
}

TEST(ScenarioSpecErrors, SweepSizesOnlyForCompare) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = sweep\nrate = constant 1\n",
      "sizes = sweep is only valid for kind = compare");
}

TEST(ScenarioSpecErrors, BadPolicy) {
  // Strict: an unknown policy is an error listing the registered names,
  // never a silent fallback to NoMigrationPolicy.
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = magic\n",
      "unknown policy 'magic'");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = magic\n",
      "registered: naive, naive-min, none, pam, scale-in");
}

TEST(ScenarioSpecErrors, BadPolicyParameter) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam:frobnicate=2\n",
      "unknown parameter 'frobnicate'");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam:utilization_limit=high\n",
      "expected key=NUMBER");
}

TEST(ScenarioSpecErrors, ControllerPolicyKeysMovedToPolicySection) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 1\n[controller]\npolicy = pam\n",
      "moved to the [policy] section");
}

TEST(ScenarioSpecErrors, PolicySectionOnlyForTimelineAndCluster) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\n[policy]\nname = pam\n",
      "[policy] is only valid for kind = timeline or cluster");
}

TEST(ScenarioSpec, PolicySectionParsesParamsRegardlessOfKeyOrder) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host

[traffic]
rate = constant 1

[policy]
param.utilization_limit = 0.9
name = pam
scale_in = scale-in
scale_in.param.smartnic_ceiling = 0.7
param.max_migrations = 8
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.policy.name, "pam");
  EXPECT_DOUBLE_EQ(spec.policy.get("utilization_limit", -1.0), 0.9);
  EXPECT_DOUBLE_EQ(spec.policy.get("max_migrations", -1.0), 8.0);
  EXPECT_EQ(spec.scale_in.name, "scale-in");
  EXPECT_DOUBLE_EQ(spec.scale_in.get("smartnic_ceiling", -1.0), 0.7);
}

TEST(ScenarioSpecRoundTrip, PolicyParamsRoundTripThroughText) {
  const auto first = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host

[traffic]
rate = constant 1

[policy]
name = pam:utilization_limit=0.85
param.max_migrations = 4
scale_in = scale-in:smartnic_ceiling=0.65
)");
  ASSERT_TRUE(first.has_value()) << first.error().what();
  // Inline and param.* spellings merge into one ordered parameter list…
  EXPECT_DOUBLE_EQ(first.value().policy.get("utilization_limit", -1.0), 0.85);
  EXPECT_DOUBLE_EQ(first.value().policy.get("max_migrations", -1.0), 4.0);
  // …and the canonical rendering parses back to an equal spec.
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value()) << first.value().to_text();
}

TEST(ScenarioSpec, ClusterChainPolicyOverrides) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[policy]
name = pam

[chain]
name = hot
spec = wire | S:Firewall | wire
policy = naive:utilization_limit=0.8

[chain]
name = calm
spec = wire | S:Monitor | wire

[cluster]
servers = 2
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.chains[0].policy.name, "naive");
  EXPECT_DOUBLE_EQ(spec.chains[0].policy.get("utilization_limit", -1.0), 0.8);
  EXPECT_TRUE(spec.chains[1].policy.empty());  // inherits [policy]
  // Round-trips with the override intact.
  const auto second = ScenarioSpec::parse(spec.to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(spec == second.value());
}

TEST(ScenarioSpecErrors, ClusterScaleInRejected) {
  // The fleet controller has no calm direction; silently accepting the key
  // would break the strict-parsing contract.
  expect_error(
      "[scenario]\nname = c\nkind = cluster\n"
      "[policy]\nname = pam\nscale_in = scale-in\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
      "[cluster]\nservers = 2\n",
      "'scale_in' is only used by timeline scenarios");
}

TEST(ScenarioSpecErrors, ChainPolicyOnlyForCluster) {
  expect_error(
      "[scenario]\nname = x\nkind = deployment\n"
      "[chain]\nname = a\nspec = wire | S:Firewall | wire\npolicy = pam\n",
      "[chain] 'policy' is only valid for kind = cluster");
}

TEST(ScenarioSpecErrors, BadSizes) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nsizes = jumbo\n[variant]\npolicy = pam\n",
      "sizes: expected");
}

TEST(ScenarioSpecErrors, BadMeasureRate) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\nmeasure_rate = cap times 2\n",
      "measure_rate: expected");
}

TEST(ScenarioSpecErrors, TimelineNeedsRate) {
  expect_error(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n",
      "requires [traffic] with a 'rate'");
}

TEST(ScenarioSpecErrors, RateOnlyForTimeline) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = constant 2\n[variant]\npolicy = pam\n",
      "only used by timeline");
}

TEST(ScenarioSpecErrors, CapacityNeedsNfs) {
  expect_error("[scenario]\nname = x\nkind = capacity\n",
               "requires [capacity] with a non-empty 'nfs'");
}

TEST(ScenarioSpecErrors, SectionKindMismatch) {
  expect_error(
      "[scenario]\nname = x\nkind = capacity\n[capacity]\nnfs = Monitor\n"
      "[variant]\npolicy = pam\n",
      "[variant] sections are only valid for kind = compare");
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "[variant]\npolicy = pam\n[controller]\nperiod_ms = 5\n",
      "[controller] is only valid for kind = timeline");
}

TEST(ScenarioSpecErrors, DeploymentNeedsChains) {
  expect_error("[scenario]\nname = x\nkind = deployment\n",
               "at least one [chain]");
}

TEST(ScenarioSpecErrors, DeploymentDuplicateChainNames) {
  expect_error(
      "[scenario]\nname = x\nkind = deployment\n"
      "[chain]\nname = web\nspec = wire | S:Monitor | wire\n"
      "[chain]\nname = web\nspec = wire | S:Logger | wire\n",
      "duplicate [chain] name 'web'");
}

TEST(ScenarioSpecErrors, WarmupMustBeShorterThanDuration) {
  expect_error(
      "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
      "duration_ms = 10\nwarmup_ms = 10\n[variant]\npolicy = pam\n",
      "duration_ms > warmup_ms");
}

// --- round trip -----------------------------------------------------------

TEST(ScenarioSpecRoundTrip, EveryBundledPresetRoundTrips) {
  const std::string dir = default_scenario_dir();
  const auto names = list_scenarios(dir);
  ASSERT_TRUE(names.has_value()) << names.error().what();
  // The repo bundles the six paper presets plus quickstart and the
  // walkthrough; fail loudly if the directory went missing or was emptied.
  EXPECT_GE(names.value().size(), 6u);
  for (const auto& name : names.value()) {
    SCOPED_TRACE(name);
    const auto first = load_bundled_scenario(name);
    ASSERT_TRUE(first.has_value()) << first.error().what();
    const std::string canonical = first.value().to_text();
    const auto second = ScenarioSpec::parse(canonical, name + " (canonical)");
    ASSERT_TRUE(second.has_value()) << second.error().what();
    EXPECT_TRUE(first.value() == second.value())
        << "canonical form did not round-trip:\n" << canonical;
  }
}

TEST(ScenarioSpecRoundTrip, SyntheticTimelineRoundTrips) {
  const auto first = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = timeline
chain = wire | S:Monitor C:Logger | host
duration_ms = 50
warmup_ms = 5

[traffic]
arrival = poisson
sizes = imix
rate = sinusoid 1.5 0.75 period_ms=40

[policy]
name = pam
scale_in = scale-in

[controller]
trigger_utilization = 0.95
scale_in_below = 0.4
)");
  ASSERT_TRUE(first.has_value()) << first.error().what();
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value());
}

constexpr const char* kClusterText = R"(
[scenario]
name = c
kind = cluster
duration_ms = 30
warmup_ms = 5
seed = 9

[traffic]
arrival = cbr
sizes = fixed 512

[chain]
name = hot
spec = wire | S:Firewall S:Monitor C:DPI | host
offered_gbps = 2.8
server = 0

[chain]
name = calm
spec = wire | S:Firewall | wire
offered_gbps = 0.5

[cluster]
servers = 4
rebalance = on
inter_server_us = 40
trigger_utilization = 0.95
target_max_load = 0.85
period_ms = 5
first_check_ms = 5
cooldown_ms = 15
)";

TEST(ScenarioSpec, ParsesClusterKind) {
  const auto result = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.kind, ScenarioKind::kCluster);
  EXPECT_EQ(spec.cluster.servers, 4u);
  EXPECT_TRUE(spec.cluster.rebalance);
  EXPECT_DOUBLE_EQ(spec.cluster.inter_server_us, 40.0);
  EXPECT_DOUBLE_EQ(spec.cluster.trigger_utilization, 0.95);
  EXPECT_DOUBLE_EQ(spec.cluster.target_max_load, 0.85);
  ASSERT_EQ(spec.chains.size(), 2u);
  EXPECT_EQ(spec.chains[0].server, 0);
  EXPECT_EQ(spec.chains[1].server, -1);  // round-robin default
}

TEST(ScenarioSpecRoundTrip, ClusterRoundTrips) {
  const auto first = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(first.has_value()) << first.error().what();
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value());
}

TEST(ScenarioSpec, ClusterRequiresClusterSection) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[chain]
name = a
spec = wire | S:Firewall | wire
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("[cluster]"), std::string::npos);
}

TEST(ScenarioSpec, ClusterRejectsServerOutOfRange) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = c
kind = cluster

[chain]
name = a
spec = wire | S:Firewall | wire
server = 2

[cluster]
servers = 2
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("out of range"), std::string::npos);
}

TEST(ScenarioSpec, ParsesShardedClusterKeys) {
  std::string text{kClusterText};
  text += "shards = 2\nthreads = 4\ncross_rack_us = 80\norchestrate = off\n";
  const auto result = ScenarioSpec::parse(text);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec& spec = result.value();
  EXPECT_EQ(spec.cluster.shards, 2u);
  EXPECT_EQ(spec.cluster.threads, 4u);
  EXPECT_DOUBLE_EQ(spec.cluster.cross_rack_us, 80.0);
  EXPECT_FALSE(spec.cluster.orchestrate);
}

TEST(ScenarioSpecRoundTrip, ShardedClusterRoundTrips) {
  std::string text{kClusterText};
  text += "shards = 4\nthreads = 2\ncross_rack_us = 120\n";
  const auto first = ScenarioSpec::parse(text);
  ASSERT_TRUE(first.has_value()) << first.error().what();
  const auto second = ScenarioSpec::parse(first.value().to_text());
  ASSERT_TRUE(second.has_value()) << second.error().what();
  EXPECT_TRUE(first.value() == second.value()) << first.value().to_text();
}

TEST(ScenarioSpec, UnshardedClusterTextOmitsShardKeys) {
  // shards == 1 specs must echo byte-compatibly with the pre-sharding
  // schema: no sharded keys in the canonical text.
  const auto spec = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(spec.has_value()) << spec.error().what();
  const std::string canonical = spec.value().to_text();
  EXPECT_EQ(canonical.find("shards"), std::string::npos);
  EXPECT_EQ(canonical.find("threads"), std::string::npos);
  EXPECT_EQ(canonical.find("cross_rack_us"), std::string::npos);
  EXPECT_EQ(canonical.find("orchestrate"), std::string::npos);
}

TEST(ScenarioSpec, ShardKeysRequireShardedCluster) {
  std::string text{kClusterText};
  text += "threads = 4\n";
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("shards > 1"), std::string::npos);
}

TEST(ScenarioSpec, ShardsMustDivideServers) {
  std::string text{kClusterText};
  text += "shards = 3\n";  // servers = 4
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("divide evenly"), std::string::npos);
}

TEST(ScenarioSpec, ChainServerKeyRejectedOutsideCluster) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = d
kind = deployment

[chain]
name = a
spec = wire | S:Firewall | wire
server = 0
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("only valid for kind = cluster"),
            std::string::npos);
}

TEST(ScenarioSpec, ClusterSectionRejectedOutsideClusterKind) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = t
kind = compare
chain = wire | S:Monitor | wire

[variant]
policy = pam

[cluster]
servers = 2
)");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().what().find("only valid for kind = cluster"),
            std::string::npos);
}

TEST(ScenarioSpec, ScaledMultipliesClusterChainRates) {
  const auto result = ScenarioSpec::parse(kClusterText);
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec scaled = result.value().scaled(1.5);
  EXPECT_NEAR(scaled.chains[0].offered_gbps, 4.2, 1e-12);
  EXPECT_NEAR(scaled.chains[1].offered_gbps, 0.75, 1e-12);
}

TEST(ScenarioSpec, ScaledMultipliesRates) {
  const auto result = ScenarioSpec::parse(R"(
[scenario]
name = s
kind = compare
chain = wire | S:Monitor | wire
plan_rate_gbps = 2

[variant]
policy = pam
measure_rate = 1.5

[variant]
policy = none
measure_rate = cap x 1.2
)");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  const ScenarioSpec scaled = result.value().scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled.plan_rate_gbps, 4.0);
  EXPECT_DOUBLE_EQ(scaled.variants[0].measure_rate.value, 3.0);
  // Capacity-relative rates follow the (scaled) capacity, not the factor.
  EXPECT_DOUBLE_EQ(scaled.variants[1].measure_rate.value, 1.2);
}

// A period shorter than one 1 ns tick re-armed its periodic event (or
// rate cycle) at the same instant forever; the parser must refuse it with
// the offending line.
constexpr const char* kBadPeriods[] = {"0", "-5", "1e-9"};

void expect_rejected_at(const std::string& text, int line,
                            const std::string& fragment) {
  const auto result = ScenarioSpec::parse(text);
  ASSERT_FALSE(result.has_value()) << text;
  const std::string& what = result.error().what();
  EXPECT_NE(what.find(":" + std::to_string(line) + ": "), std::string::npos)
      << "error was: " << what;
  EXPECT_NE(what.find(fragment), std::string::npos) << "error was: " << what;
}

TEST(ScenarioSpecErrors, ControllerPeriodBelowOneTickRejected) {
  for (const char* bad : kBadPeriods) {
    expect_rejected_at(
        std::string("[scenario]\nname = x\nkind = timeline\n"
                    "chain = wire | S:Monitor | wire\n"
                    "[traffic]\nrate = constant 2\n"
                    "[controller]\nperiod_ms = ") +
            bad + "\n",
        8, "period must be at least 1 ns");
  }
}

TEST(ScenarioSpecErrors, ClusterPeriodBelowOneTickRejected) {
  for (const char* bad : kBadPeriods) {
    expect_rejected_at(
        std::string("[scenario]\nname = c\nkind = cluster\n"
                    "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
                    "[cluster]\nservers = 2\nperiod_ms = ") +
            bad + "\n",
        9, "period must be at least 1 ns");
  }
}

TEST(ScenarioSpecErrors, SinusoidPeriodBelowOneTickRejected) {
  for (const char* bad : kBadPeriods) {
    expect_rejected_at(
        std::string("[scenario]\nname = x\nkind = timeline\n"
                    "chain = wire | S:Monitor | wire\n"
                    "[traffic]\nrate = sinusoid 2 0.5 period_ms=") +
            bad + "\n",
        6, "sinusoid period_ms must be at least 1 ns");
  }
}

TEST(ScenarioSpec, OneMicrosecondPeriodsAreAccepted) {
  const auto result = ScenarioSpec::parse(
      "[scenario]\nname = x\nkind = timeline\n"
      "chain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = sinusoid 2 0.5 period_ms=0.001\n"
      "[controller]\nperiod_ms = 0.001\n");
  ASSERT_TRUE(result.has_value()) << result.error().what();
  EXPECT_DOUBLE_EQ(result.value().controller.period_ms, 0.001);
}

// The cross-rack latency is the epoch quantum: below one 1 ns tick the
// epoch loop never advances its clock.
std::string sharded_cluster_text(const std::string& cross_rack_us) {
  return "[scenario]\nname = c\nkind = cluster\n"
         "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
         "[cluster]\nservers = 2\nshards = 2\ncross_rack_us = " +
         cross_rack_us + "\n";
}

TEST(ScenarioSpecErrors, CrossRackQuantumBelowOneTickRejected) {
  for (const char* bad : {"0.0005", "nan", "1e-300", "0", "-1"}) {
    expect_rejected_at(sharded_cluster_text(bad), 10,
                           "epoch quantum must be at least 1 ns");
  }
}

TEST(ScenarioSpec, OneNanosecondCrossRackQuantumIsAccepted) {
  const auto result = ScenarioSpec::parse(sharded_cluster_text("0.001"));
  ASSERT_TRUE(result.has_value()) << result.error().what();
  EXPECT_DOUBLE_EQ(result.value().cluster.cross_rack_us, 0.001);
}

// A negative latency would be clamped to "now" by the event queue and NaN
// has no clock value; both are refused with their line, while 0
// (immediate) stays valid.
std::string cluster_latency_text(const std::string& inter_server_us) {
  return "[scenario]\nname = c\nkind = cluster\n"
         "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
         "[cluster]\nservers = 2\ninter_server_us = " +
         inter_server_us + "\n";
}

std::string fabric_delay_text(const std::string& delay_us) {
  return "[scenario]\nname = h\nkind = hostile\n"
         "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
         "[cluster]\nservers = 2\n"
         "[link]\nfabric = at_ms=1 delay_us=" +
         delay_us + "\n";
}

TEST(ScenarioSpecErrors, NegativeOrNanLatencyRejected) {
  for (const char* bad : {"-50", "nan"}) {
    expect_rejected_at(cluster_latency_text(bad), 9,
                           "latency must be >= 0 us");
    expect_rejected_at(fabric_delay_text(bad), 10, "with D >= 0");
  }
}

TEST(ScenarioSpec, ZeroLatencyIsAccepted) {
  const auto cluster = ScenarioSpec::parse(cluster_latency_text("0"));
  ASSERT_TRUE(cluster.has_value()) << cluster.error().what();
  EXPECT_DOUBLE_EQ(cluster.value().cluster.inter_server_us, 0.0);
  const auto hostile = ScenarioSpec::parse(fabric_delay_text("0"));
  ASSERT_TRUE(hostile.has_value()) << hostile.error().what();
  ASSERT_EQ(hostile.value().link.fabric.size(), 1u);
  EXPECT_DOUBLE_EQ(hostile.value().link.fabric[0].delay_us, 0.0);
}

TEST(ScenarioSpecErrors, InfiniteOrHugeLatencyRejected) {
  for (const char* bad : {"inf", "1e300", "9223372036855000"}) {
    expect_rejected_at(cluster_latency_text(bad), 9, "must be finite and below 2^63 ns");
    expect_rejected_at(fabric_delay_text(bad), 10, "must be finite and below 2^63 ns");
    expect_rejected_at(sharded_cluster_text(bad), 10, "must be finite and below 2^63 ns");
  }
}

TEST(ScenarioSpec, LargestWholeMicrosecondLatencyIsAccepted) {
  for (const auto& text : {cluster_latency_text("9223372036854774"),
                           fabric_delay_text("9223372036854774"),
                           sharded_cluster_text("9223372036854774")}) {
    const auto result = ScenarioSpec::parse(text);
    EXPECT_TRUE(result.has_value()) << result.error().what();
  }
}

// Every time-valued key is converted to SimTime's int64 nanoseconds.  inf,
// NaN and values past 2^63 ns (about 292 years) made that conversion
// undefined behaviour: `duration_ms = inf` ran with no packets at all.  One
// representative key per section, with the line it sits on; '@' marks the
// value.  The churn, failure and link rows stretch duration_ms so that the
// largest valid time still lies inside the run.
struct TimeKeyCase {
  const char* key;
  const char* text;
  int line;
};

constexpr TimeKeyCase kTimeKeys[] = {
    {"[scenario] duration_ms",
     "[scenario]\nname = x\nkind = compare\nchain = wire | S:Monitor | wire\n"
     "duration_ms = @\n[variant]\npolicy = pam\n",
     5},
    {"[traffic] rate at_ms",
     "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
     "[traffic]\nrate = step 1 2 at_ms=@\n",
     6},
    {"[controller] cooldown_ms",
     "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
     "[traffic]\nrate = constant 2\n[controller]\ncooldown_ms = @\n",
     8},
    {"[chain] arrive_ms",
     "[scenario]\nname = c\nkind = churn\nduration_ms = 9223372036854.5\n"
     "[chain]\nname = a\nspec = wire | S:Firewall | wire\narrive_ms = @\n"
     "[cluster]\nservers = 2\n",
     8},
    {"[cluster] first_check_ms",
     "[scenario]\nname = c\nkind = cluster\n"
     "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
     "[cluster]\nservers = 2\nfirst_check_ms = @\n",
     9},
    {"[failure] at_ms",
     "[scenario]\nname = f\nkind = failure\nduration_ms = 9223372036854.5\n"
     "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
     "[cluster]\nservers = 2\nrebalance = on\n[failure]\nfail = 0 at_ms=@\n",
     12},
    {"[link] fade at_ms",
     "[scenario]\nname = h\nkind = hostile\nduration_ms = 9223372036854.5\n"
     "[chain]\nname = a\nspec = wire | S:Firewall | wire\n"
     "[cluster]\nservers = 2\n[link]\nfade = 0 at_ms=@ speed=0.5\n",
     11},
};

std::string with_value(const char* text, const std::string& value) {
  std::string out = text;
  out.replace(out.find('@'), 1, value);
  return out;
}

TEST(ScenarioSpecErrors, NonFiniteOrOutOfRangeTimesRejected) {
  for (const auto& c : kTimeKeys) {
    for (const char* bad :
         {"inf", "-inf", "1e300", "nan", "9223372036855", "-9223372036855"}) {
      SCOPED_TRACE(std::string(c.key) + " = " + bad);
      expect_rejected_at(with_value(c.text, bad), c.line,
                         "must be finite and below 2^63 ns");
    }
  }
}

TEST(ScenarioSpec, LargestWholeMillisecondTimeIsAccepted) {
  for (const auto& c : kTimeKeys) {
    const auto result = ScenarioSpec::parse(with_value(c.text, "9223372036854"));
    EXPECT_TRUE(result.has_value()) << c.key << ": " << result.error().what();
  }
}

// A flash crowd ends at at_ms + for_ms; each may fit while the sum does not.
TEST(ScenarioSpecErrors, FlashEndPastTheClockRangeRejected) {
  expect_rejected_at(
      "[scenario]\nname = x\nkind = timeline\nchain = wire | S:Monitor | wire\n"
      "[traffic]\nrate = flash 1 2 at_ms=5000000000000 for_ms=5000000000000\n",
      6, "must be finite and below 2^63 ns");
}

}  // namespace
}  // namespace pam
