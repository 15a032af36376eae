// Scenario-pack DSL tests: parse round-trip, eager malformed-spec
// rejection with origin:line positions (same exit-2 policy PR 3 set for
// --jammer= specs, here exercised through parse_suite_options), digest
// stability across engines, and the checked-in golden fixture
// under tests/data/.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/suite.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

ScenarioPack parse_ok(const std::string& text) {
  std::istringstream in(text);
  ScenarioPack pack;
  std::string error;
  EXPECT_TRUE(parse_scenario_pack(in, "test.pack", &pack, &error)) << error;
  return pack;
}

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  ScenarioPack pack;
  std::string error;
  EXPECT_FALSE(parse_scenario_pack(in, "test.pack", &pack, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

std::string golden_path(const std::string& name) {
  return std::string(LOWSENSE_TEST_DATA_DIR) + "/" + name;
}

// ------------------------------------------------------------ round-trip

TEST(ScenarioPackParse, RoundTripsEveryKey) {
  const ScenarioPack pack = parse_ok(
      "pack = round-trip\n"
      "description = every key once  # trailing comment\n"
      "\n"
      "[first]\n"
      "protocol = low-sensing\n"
      "arrivals = poisson:0.02,0\n"
      "jammer   = random:0.05,500\n"
      "jam-seed = 11\n"
      "seed     = 42\n"
      "budget   = 9000\n"
      "horizon  = 20000\n"
      "window   = 2000\n"
      "warmup   = 2\n"
      "digest   = 0123456789abcdef\n"
      "expect   = throughput >= 0.01\n"
      "expect   = steady_peak_backlog <= 64\n"
      "expect   = drained\n"
      "\n"
      "[second]\n"
      "protocol = beb\n"
      "arrivals = batch:32\n"
      "budget   = 5000\n");
  EXPECT_EQ(pack.name, "round-trip");
  EXPECT_EQ(pack.description, "every key once");
  ASSERT_EQ(pack.entries.size(), 2u);

  const PackEntry& e = pack.entries[0];
  EXPECT_EQ(e.name, "first");
  EXPECT_EQ(e.protocol, "low-sensing");
  EXPECT_EQ(e.arrivals, "poisson:0.02,0");
  EXPECT_EQ(e.jammer, "random:0.05,500");
  EXPECT_EQ(e.jam_seed, 11u);
  EXPECT_EQ(e.seed, 42u);
  EXPECT_EQ(e.budget, 9000u);
  EXPECT_EQ(e.horizon, 20000u);
  EXPECT_EQ(e.window, 2000u);
  EXPECT_EQ(e.warmup, 2u);
  EXPECT_EQ(e.digest, "0123456789abcdef");
  ASSERT_EQ(e.expects.size(), 3u);
  EXPECT_EQ(e.expects[0].metric, "throughput");
  EXPECT_EQ(e.expects[0].op, PackExpectation::Op::kGe);
  EXPECT_DOUBLE_EQ(e.expects[0].value, 0.01);
  EXPECT_EQ(e.expects[1].metric, "steady_peak_backlog");
  EXPECT_EQ(e.expects[1].op, PackExpectation::Op::kLe);
  EXPECT_DOUBLE_EQ(e.expects[1].value, 64.0);
  EXPECT_EQ(e.expects[2].metric, "drained");
  EXPECT_EQ(e.expects[2].op, PackExpectation::Op::kTruthy);

  // Unset keys keep their documented defaults.
  const PackEntry& e2 = pack.entries[1];
  EXPECT_EQ(e2.jammer, "none");
  EXPECT_EQ(e2.jam_seed, 0u);
  EXPECT_EQ(e2.seed, 1u);
  EXPECT_EQ(e2.horizon, 0u);
  EXPECT_EQ(e2.window, 0u);
  EXPECT_TRUE(e2.digest.empty());
  EXPECT_TRUE(e2.expects.empty());

  EXPECT_EQ(pack.find("second"), &pack.entries[1]);
  EXPECT_EQ(pack.find("nope"), nullptr);
  EXPECT_FALSE(make_pack_scenario(e).engine_locked);  // packs are engine-invariant
}

// ------------------------------------------------- eager rejection lanes

TEST(ScenarioPackReject, UnknownKeyCarriesOriginAndLine) {
  // `shards` pinned an intra-run shard count; a run is serial now.
  for (const std::string key : {"bogus", "shards"}) {
    const std::string err = parse_error(
        "[a]\n"
        "protocol = lsb\n" +
        key + " = 1\n");
    EXPECT_NE(err.find("test.pack:3"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown key '" + key + "'"), std::string::npos) << err;
  }
}

TEST(ScenarioPackReject, UnknownProtocol) {
  // aloha:<p> takes the whole field as p: trailing bytes, NaN and p
  // outside (0, 1] make it unknown.
  for (const char* proto : {"warp-drive", "aloha:0.5xyz", "aloha:nan", "aloha:1.5"}) {
    const std::string err = parse_error("[a]\nprotocol = " + std::string(proto) +
                                        "\narrivals = batch:8\nbudget = 100\n");
    EXPECT_NE(err.find("unknown protocol '" + std::string(proto) + "'"), std::string::npos) << err;
  }
}

TEST(ScenarioPackReject, MalformedArrivalsSpec) {
  for (const char* spec : {"poisson:not-a-rate", "batch:10abc", "poisson:0.5x,10"}) {
    const std::string err = parse_error("[a]\nprotocol = lsb\narrivals = " + std::string(spec) +
                                        "\nbudget = 100\n");
    EXPECT_NE(err.find("malformed arrivals spec"), std::string::npos) << spec << ": " << err;
  }
}

TEST(ScenarioPackReject, NanArrivalRate) {
  // Well-formed syntax, but values PoissonArrivals rejects: caught at
  // parse time, not as an abort or a hang when the entry runs.
  for (const char* rate : {"nan", "inf", "1e300"}) {
    const std::string err = parse_error("[a]\nprotocol = lsb\narrivals = poisson:" +
                                        std::string(rate) + ",10\nbudget = 100\n");
    EXPECT_NE(err.find("malformed arrivals spec"), std::string::npos) << rate << ": " << err;
  }
}

TEST(ScenarioPackReject, MalformedJammerSpec) {
  for (const char* spec : {"sometimes", "random:0.2x", "burst:100,10x"}) {
    const std::string err = parse_error("[a]\nprotocol = lsb\narrivals = batch:8\njammer = " +
                                        std::string(spec) + "\nbudget = 100\n");
    EXPECT_NE(err.find("malformed jammer spec"), std::string::npos) << spec << ": " << err;
  }
}

TEST(ScenarioPackReject, OpenEndedRunNeedsBudgetOrHorizon) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n");
  EXPECT_NE(err.find("needs a budget or a horizon"), std::string::npos) << err;
}

TEST(ScenarioPackReject, DigestMustBeSixteenLowercaseHex) {
  for (const char* bad : {"0123", "0123456789ABCDEF", "0123456789abcdefg"}) {
    const std::string err = parse_error(std::string("[a]\n"
                                                    "protocol = lsb\n"
                                                    "arrivals = batch:8\n"
                                                    "budget   = 100\n"
                                                    "digest   = ") +
                                        bad + "\n");
    EXPECT_NE(err.find("16 lowercase hex"), std::string::npos) << bad << ": " << err;
  }
}

TEST(ScenarioPackReject, SteadyExpectationNeedsWindow) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "expect   = steady_rate >= 0.1\n");
  EXPECT_NE(err.find("needs a window"), std::string::npos) << err;
}

TEST(ScenarioPackReject, WarmupWithoutWindow) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "warmup   = 2\n");
  EXPECT_NE(err.find("warmup without a window"), std::string::npos) << err;
}

TEST(ScenarioPackReject, UnknownExpectMetric) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "expect   = vibes >= 1\n");
  EXPECT_NE(err.find("unknown metric 'vibes'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, BadNumber) {
  for (const char* budget : {"lots", "+100", "1e3", "-1"}) {
    const std::string err =
        parse_error("[a]\nprotocol = lsb\narrivals = batch:8\nbudget = " + std::string(budget));
    EXPECT_NE(err.find("test.pack:4"), std::string::npos) << err;
    EXPECT_NE(err.find("bad number '" + std::string(budget) + "'"), std::string::npos) << err;
  }
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "expect   = throughput >= nan\n");
  EXPECT_NE(err.find("bad number 'nan'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, DuplicateScenarioName) {
  const std::string err = parse_error(
      "[a]\n"
      "protocol = lsb\n"
      "arrivals = batch:8\n"
      "budget   = 100\n"
      "[a]\n"
      "protocol = lsb\n");
  EXPECT_NE(err.find("duplicate scenario 'a'"), std::string::npos) << err;
}

TEST(ScenarioPackReject, KeyBeforeAnySection) {
  const std::string err = parse_error("protocol = lsb\n");
  EXPECT_NE(err.find("before any [scenario] section"), std::string::npos) << err;
}

TEST(ScenarioPackReject, EmptyPackHasNoScenarios) {
  const std::string err = parse_error("# just a comment\n");
  EXPECT_NE(err.find("no scenarios"), std::string::npos) << err;
}

// The suite runner rejects a bad --pack= at option-parse time: this is
// the path behind its exit-2-with-usage behavior.
TEST(ScenarioPackReject, SuiteOptionsRejectBadPackRefEagerly) {
  BenchDef def;
  def.id = "TX";
  def.default_reps = 1;
  def.default_seed = 1;
  def.body = [](BenchContext&) {};

  std::vector<const char*> argv = {"prog", "--pack=/no/such/file.pack"};
  const Args args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
  SuiteOptions opts;
  std::string error;
  EXPECT_FALSE(parse_suite_options(def, args, &opts, &error));
  EXPECT_NE(error.find("cannot open pack file"), std::string::npos) << error;

  std::vector<const char*> argv2 = {"prog", "--manifest=/tmp/x.jsonl"};
  const Args args2(static_cast<int>(argv2.size()), const_cast<char**>(argv2.data()));
  SuiteOptions opts2;
  std::string error2;
  EXPECT_FALSE(parse_suite_options(def, args2, &opts2, &error2));
  EXPECT_NE(error2.find("--pack="), std::string::npos) << error2;
}

// ---------------------------------------------- digest engine invariance

TEST(ScenarioPackDigest, StableAcrossEngines) {
  const ScenarioPack pack = parse_ok(
      "[probe]\n"
      "protocol = low-sensing\n"
      "arrivals = poisson:0.05,600\n"
      "jammer   = random:0.05,2000\n"
      "jam-seed = 7\n"
      "seed     = 12\n"
      "budget   = 30000\n"
      "window   = 4000\n"
      "warmup   = 1\n");
  const PackEntry& entry = pack.entries[0];

  std::vector<std::string> digests;
  std::vector<std::string> manifests;
  for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
    const PackEntryOutcome out = run_pack_entry(
        entry, [&](Scenario sc, std::uint64_t seed, const std::vector<Observer*>& obs) {
          if (!sc.engine_locked) sc.engine = engine;
          return run_scenario(sc, seed, obs);
        });
    EXPECT_GT(out.digest_events, 0u);
    EXPECT_TRUE(out.has_steady);
    digests.push_back(out.digest);
    manifests.push_back(out.manifest_line("grid"));
  }
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[1], digests[0]) << "event digest drifted from slot";
  // Manifest lines carry only engine-invariant fields, so they must match
  // byte for byte — the same property pack-verify CIs.
  EXPECT_EQ(manifests[1], manifests[0]) << "event manifest drifted from slot";
}

// ------------------------------------------------------- golden fixture

TEST(ScenarioPackGolden, CheckedInFixtureDigestHolds) {
  ScenarioPack pack;
  std::string error;
  ASSERT_TRUE(load_scenario_pack(golden_path("golden_scenario.pack"), &pack, &error)) << error;
  ASSERT_FALSE(pack.entries.empty());
  for (const PackEntry& entry : pack.entries) {
    ASSERT_FALSE(entry.digest.empty()) << entry.name << ": fixture entries must pin a digest";
    const PackEntryOutcome out = run_pack_entry(
        entry, [](Scenario sc, std::uint64_t seed, const std::vector<Observer*>& obs) {
          return run_scenario(sc, seed, obs);
        });
    EXPECT_TRUE(out.digest_ok) << entry.name << ": digest " << out.digest << " != pinned "
                               << out.expected_digest
                               << " (an intentional behavior change must re-pin the fixture)";
    EXPECT_TRUE(out.ok()) << entry.name;
    for (const auto& [text, pass] : out.expect_results) {
      EXPECT_TRUE(pass) << entry.name << ": expect " << text;
    }
  }
}

TEST(ScenarioPackGolden, RefFilterSelectsOneEntry) {
  ScenarioPack pack;
  std::string error;
  ASSERT_TRUE(
      load_scenario_pack_ref(golden_path("golden_scenario.pack") + ":golden-lsb", &pack, &error))
      << error;
  ASSERT_EQ(pack.entries.size(), 1u);
  EXPECT_EQ(pack.entries[0].name, "golden-lsb");

  ScenarioPack missing;
  EXPECT_FALSE(
      load_scenario_pack_ref(golden_path("golden_scenario.pack") + ":nope", &missing, &error));
  EXPECT_NE(error.find("no scenario 'nope'"), std::string::npos) << error;
}

}  // namespace
}  // namespace lowsense
