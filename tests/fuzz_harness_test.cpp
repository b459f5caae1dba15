// The fuzz loop end to end: the planted bug is found and minimized within
// a bounded deterministic budget, same-seed runs are byte-identical (the
// CI determinism gate), different seeds explore differently, and the
// registry protocols replay their starter seeds clean.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fuzz/harness.hpp"
#include "fuzz/selftest.hpp"
#include "fuzz/target.hpp"
#include "sim/registry.hpp"

namespace xchain::fuzz {
namespace {

FuzzOptions bounded(std::uint64_t seed, std::size_t runs) {
  FuzzOptions o;
  o.seed = seed;
  o.budget_runs = runs;
  return o;
}

TEST(FuzzHarness, FindsAndMinimizesThePlantedBug) {
  const TargetFuzzResult r =
      fuzz_target(selftest_target(), bounded(1, 400));
  EXPECT_EQ(r.runs, 400u);
  EXPECT_GT(r.violating_runs, 0u);
  ASSERT_FALSE(r.reproducers.empty());
  // Whatever found-form the mutation walk hit first, the recorded
  // reproducer is the pinned canonical one.
  EXPECT_EQ(r.reproducers.front().input, selftest_canonical_reproducer());
  EXPECT_FALSE(r.reproducers.front().violation.empty());
  EXPECT_FALSE(r.ok());
}

TEST(FuzzHarness, FindsThePlantedBugAcrossSeeds) {
  // The bug needs two cooperating entries, so no single starter seed hits
  // it — the mutation loop has to compose them. Any reasonable seed gets
  // there well within this budget; regressions in mutation coverage or
  // corpus admission show up here first.
  for (const std::uint64_t seed : {2u, 3u, 5u, 8u, 13u}) {
    const TargetFuzzResult r =
        fuzz_target(selftest_target(), bounded(seed, 1500));
    ASSERT_FALSE(r.reproducers.empty()) << "seed " << seed;
    EXPECT_EQ(r.reproducers.front().input, selftest_canonical_reproducer())
        << "seed " << seed;
  }
}

TEST(FuzzHarness, SameSeedSameReportByteForByte) {
  FuzzReport a, b;
  for (FuzzReport* rep : {&a, &b}) {
    rep->seed = 42;
    rep->budget_runs = 600;
    rep->targets.push_back(
        fuzz_target(selftest_target(), bounded(42, 600)));
    rep->targets.push_back(fuzz_target(FuzzTarget::from_registry("two-party"),
                                       bounded(42, 200)));
  }
  // Fixed stamp: the report body must then be byte-identical — no timing,
  // no iteration-order, no address-derived content anywhere.
  const BuildStamp stamp{"commit", "Release", "gcc"};
  EXPECT_EQ(fuzz_report_json(a, stamp), fuzz_report_json(b, stamp));
}

TEST(FuzzHarness, DifferentSeedsExploreDifferently) {
  const TargetFuzzResult a =
      fuzz_target(FuzzTarget::from_registry("two-party"), bounded(1, 300));
  const TargetFuzzResult b =
      fuzz_target(FuzzTarget::from_registry("two-party"), bounded(99, 300));
  EXPECT_EQ(a.runs, b.runs);
  // Corpus contents diverge even when summary counts happen to agree.
  EXPECT_NE(a.corpus, b.corpus);
}

TEST(FuzzHarness, ReplayOnlyRunsSeedsAndNothingElse) {
  FuzzOptions o = bounded(1, 10'000);
  o.replay_only = true;
  o.seeds.push_back(FuzzInput::parse("protocol two-party\nplan 1 halt@0\n"));
  const TargetFuzzResult r =
      fuzz_target(FuzzTarget::from_registry("two-party"), o);
  // Starter set (conforming + 2x halt + 2x boundary delay) + 1 seed, all
  // on the default-parameter instance.
  EXPECT_EQ(r.runs, 6u);
  EXPECT_EQ(r.instances, 1u);
  EXPECT_EQ(r.violating_runs, 0u);
  EXPECT_TRUE(r.ok());
}

TEST(FuzzHarness, RegistryProtocolsReplayTheirStarterSeedsClean) {
  // Every registered protocol's starter set (conforming, per-party halts
  // and boundary delays, every dishonesty variant) must satisfy the
  // hedging audit — the in-model floor of the paper's theorems.
  for (const std::string& name : sim::ProtocolRegistry::global().names()) {
    FuzzOptions o = bounded(1, 10'000);
    o.replay_only = true;
    const TargetFuzzResult r =
        fuzz_target(FuzzTarget::from_registry(name), o);
    EXPECT_GT(r.runs, 0u) << name;
    EXPECT_EQ(r.violating_runs, 0u) << name;
  }
}

TEST(FuzzHarness, SchemaInvalidSeedsAreSkippedNotFatal) {
  // Each seed passes its schema's per-key bounds but fails the factory:
  // purchase_price > sale_price violates the §8 spread precondition, and
  // CRR cannot price a zero-volatility market. The input is rejected by
  // canonicalization and counted, never executed.
  for (const auto& [protocol, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"broker", "protocol broker\nset purchase_price=9999\n"},
           {"crr-ladder", "protocol crr-ladder\nset volatility=0\n"}}) {
    FuzzOptions o = bounded(1, 10'000);
    o.replay_only = true;
    o.seeds.push_back(FuzzInput::parse(text));
    const TargetFuzzResult r =
        fuzz_target(FuzzTarget::from_registry(protocol), o);
    EXPECT_EQ(r.skipped_inputs, 1u) << protocol;
    EXPECT_GT(r.runs, 0u) << protocol;
    // The failed build left no entry behind: only the defaults instance.
    EXPECT_EQ(r.instances, 1u) << protocol;
    EXPECT_EQ(r.violating_runs, 0u) << protocol;
  }
}

TEST(InstancePool, FaultEnvironmentsShareTheOverrideSetsWorld) {
  // The chain environment is a per-run input: a bare input, the same input
  // under a squeeze with naive and then fee-escalating parties, and the
  // bare input again all run on the one defaults-instance world, the
  // faulted runs' faultless twins included.
  const FuzzTarget target = FuzzTarget::from_registry("two-party");
  InstancePool pool(target);
  const std::string squeeze =
      "protocol two-party\n"
      "fault banana squeeze@4-10,cap=1,spam=2,fee=3\n";
  const FuzzInput bare = FuzzInput::parse("protocol two-party\n");
  const FuzzInput naive = FuzzInput::parse(squeeze + "resilience naive\n");
  const FuzzInput escalate =
      FuzzInput::parse(squeeze + "resilience fee-escalate\n");

  const RunOutcome first = pool.run(bare);
  EXPECT_FALSE(first.violating());
  EXPECT_EQ(pool.size(), 1u);

  // FaultSweep.NaiveConformingPartyBreachesUnderSqueeze's breach: the
  // spam starves Alice's fee-0 banana traffic past her deadline. Her
  // floor breach and the liveness failure are fault-only, so the twin,
  // re-run on the same world under the empty environment, drops both.
  const RunOutcome starved = pool.run(naive);
  ASSERT_EQ(starved.outcomes.size(), 2u);
  EXPECT_EQ(starved.outcomes[0].name, "alice");
  EXPECT_TRUE(starved.outcomes[0].conforming);
  EXPECT_EQ(starved.outcomes[0].payoff.coin_delta, -2);
  EXPECT_EQ(starved.outcomes[0].bound.min_coin_delta, 1);
  EXPECT_FALSE(starved.violating());
  EXPECT_NE(starved.signature, first.signature);
  EXPECT_EQ(pool.size(), 1u);

  // Escalation outbids the spam, so the same world now audits clean.
  const RunOutcome escalated = pool.run(escalate);
  EXPECT_NE(escalated.outcomes, starved.outcomes);
  EXPECT_FALSE(escalated.violating());
  EXPECT_EQ(pool.size(), 1u);

  // Back on the reliable substrate, the world reports what it first did.
  const RunOutcome again = pool.run(bare);
  EXPECT_EQ(again.outcomes, first.outcomes);
  EXPECT_EQ(again.signature, first.signature);
  EXPECT_FALSE(again.violating());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(FuzzReport, JsonShapeAndTotals) {
  FuzzReport rep;
  rep.seed = 7;
  rep.budget_runs = 400;
  rep.targets.push_back(fuzz_target(selftest_target(), bounded(7, 400)));
  const std::string json = fuzz_report_json(rep, BuildStamp{"c", "b", "g"});
  EXPECT_NE(json.find("\"benchmark\": \"fuzz\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"protocol\": \"fuzz-selftest-trap\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reproducers\": ["), std::string::npos);
  // The parameterless trap's fault mutations all share its one world.
  const std::size_t instances = rep.targets.front().instances;
  EXPECT_EQ(instances, 1u);
  EXPECT_NE(json.find("\"instances\": " + std::to_string(instances) + ","),
            std::string::npos);
  // Violation text embeds newlines only in escaped form.
  EXPECT_EQ(json.find("halt@1\n\""), std::string::npos);
  EXPECT_EQ(rep.total_runs(), 400u);
  EXPECT_GT(rep.total_violating_runs(), 0u);
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace xchain::fuzz
