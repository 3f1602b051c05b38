// Golden digests of every bundled preset's `pam_exp run --json` report.
//
// Each constant is FNV-1a (the hash test_determinism_digest pins the fuzz
// campaign with) over the exact bytes write_metrics_json emits for one
// preset under scenarios/.  A change meant only to make the simulator
// faster must leave every report byte-identical, so these must not move.
// If a change alters behaviour on purpose, re-pin the affected constants
// in the same commit and say why in CHANGES.md.
//
// To re-pin one preset:
//   pam_exp run scenarios/NAME.scn --quiet --json=NAME.json
// and hash the file with 64-bit FNV-1a (offset 0xcbf29ce484222325, prime
// 0x100000001b3); the failure message below also prints the new value.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "experiment/metrics_sink.hpp"
#include "experiment/scenario_library.hpp"
#include "experiment/scenario_runner.hpp"

namespace pam {
namespace {

struct Golden {
  const char* preset;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"churn-diurnal-flashcrowd", 0xbb9e108683f0eb0cULL},
    {"cluster-datacenter", 0x19ea7066f142c413ULL},
    {"cluster-hotspot-rebalance", 0x6d2a3fbcd72cfb82ULL},
    {"cluster-rack-16", 0x91743a2b2c9f6808ULL},
    {"failure-evacuation", 0xf93ca24271f70a44ULL},
    {"fig1-crossings", 0xfe4edfa808fd07bdULL},
    {"fig1-walkthrough", 0xc38249b2a80b636eULL},
    {"fig2-latency", 0xde4740bc5812b1c8ULL},
    {"fig2-throughput", 0x6c0760a1b2baf0a2ULL},
    {"hostile-fabric-fade", 0x0956cb6e41da95b0ULL},
    {"multi-tenant-burst", 0xcf94876888daf306ULL},
    {"policy-duel", 0x4ae534250be6e3eeULL},
    {"quickstart", 0x553a28491e2dca8fULL},
    {"scale-in-drain", 0xed55f8e372a10126ULL},
    {"table1-capacity", 0x88c313b13867ba34ULL},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char byte : bytes) {
    h ^= static_cast<unsigned char>(byte);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(PresetDigests, EveryBundledPresetIsPinned) {
  // A new preset must get a golden digest too.
  const auto names = list_scenarios(default_scenario_dir());
  ASSERT_TRUE(names.has_value()) << names.error().what();
  std::set<std::string> pinned;
  for (const Golden& g : kGolden) {
    pinned.insert(g.preset);
  }
  EXPECT_EQ(std::set<std::string>(names.value().begin(), names.value().end()), pinned);
}

class PresetDigest : public ::testing::TestWithParam<Golden> {};

TEST_P(PresetDigest, JsonReportMatchesGolden) {
  const Golden& g = GetParam();
  auto spec = load_bundled_scenario(g.preset);
  ASSERT_TRUE(spec.has_value()) << spec.error().what();
  auto result = ScenarioRunner{}.run(spec.value());
  ASSERT_TRUE(result.has_value()) << result.error().what();
  std::ostringstream json;
  write_metrics_json(result.value(), json);
  const std::uint64_t digest = fnv1a(json.str());
  EXPECT_EQ(digest, g.digest) << g.preset << ": report digest is now 0x" << std::hex
                              << digest << " — behaviour changed";
}

INSTANTIATE_TEST_SUITE_P(Bundled, PresetDigest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           std::string name = info.param.preset;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace pam
