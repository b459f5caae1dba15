// The fuzz loop end to end: the planted bug is found and minimized within
// a bounded deterministic budget, same-seed runs are byte-identical (the
// CI determinism gate), different seeds explore differently, and the
// registry protocols replay their starter seeds clean.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fuzz/harness.hpp"
#include "fuzz/rng.hpp"
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

TEST(FuzzHarness, RegistryExplorationIsPinned) {
  // How the loop resolves, canonicalizes, admits and labels inputs may
  // get faster; what it explores may not change. Each registry protocol
  // at seed 1, 300 runs, no seed corpus: the report's counts and a digest
  // of the evolved corpus texts.
  struct Pin {
    std::string protocol;
    std::size_t runs, unique_signatures, corpus_entries, violating_runs,
        skipped_inputs, instances;
    std::uint64_t corpus_digest;
  };
  const std::vector<Pin> pins = {
      {"two-party", 300, 168, 168, 0, 0, 39, 0x30311168ab7fefaeull},
      {"multi-party-ring", 300, 176, 176, 0, 0, 31, 0x43235dc3822695e3ull},
      {"multi-party-fig3a", 300, 165, 165, 0, 0, 17, 0x72c40b14829b0d0full},
      {"auction-open", 300, 173, 173, 0, 0, 25, 0xc60f480f9084670eull},
      {"auction-sealed", 300, 171, 171, 0, 0, 32, 0x17893b4525d5bfc3ull},
      {"broker", 300, 184, 184, 0, 10, 20, 0x15855f334fa425eeull},
      {"bootstrap", 300, 153, 153, 0, 0, 42, 0x071745630a676b45ull},
      {"bridge-transfer", 300, 194, 194, 0, 0, 27, 0x49a0bb18f52b5442ull},
      {"bridge-account-create", 300, 179, 179, 0, 1, 28,
       0xfdafa5028f1b6016ull},
      {"crr-ladder", 300, 184, 184, 0, 0, 34, 0x4fcb428bc16d34f4ull},
  };
  ASSERT_EQ(pins.size(), sim::ProtocolRegistry::global().names().size());
  for (const Pin& pin : pins) {
    const TargetFuzzResult r =
        fuzz_target(FuzzTarget::from_registry(pin.protocol), bounded(1, 300));
    std::uint64_t digest = 0;
    for (const std::string& text : r.corpus) sig_mix(digest, fnv1a(text));
    EXPECT_EQ(r.runs, pin.runs) << pin.protocol;
    EXPECT_EQ(r.unique_signatures, pin.unique_signatures) << pin.protocol;
    EXPECT_EQ(r.corpus_entries, pin.corpus_entries) << pin.protocol;
    EXPECT_EQ(r.violating_runs, pin.violating_runs) << pin.protocol;
    EXPECT_EQ(r.skipped_inputs, pin.skipped_inputs) << pin.protocol;
    EXPECT_EQ(r.instances, pin.instances) << pin.protocol;
    EXPECT_EQ(digest, pin.corpus_digest) << pin.protocol;
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

TEST(InstancePool, SpellingsOfOneOverrideSetShareAnInstance) {
  // Two-party's delta defaults to 2. An override list resolves to the
  // instance of its ParamSet's overrides_str(), so every spelling of one
  // value, and a later assignment overriding an earlier one, lands on
  // one world.
  const FuzzTarget target = FuzzTarget::from_registry("two-party");
  InstancePool pool(target);
  const FuzzInput restated =
      FuzzInput::parse("protocol two-party\nset delta=2\n");
  const Instance& two = pool.instance_for(restated);
  EXPECT_EQ(&pool.instance_for(
                FuzzInput::parse("protocol two-party\nset delta=02\n")),
            &two);
  EXPECT_EQ(pool.size(), 1u);
  // A restated default canonicalizes away.
  EXPECT_TRUE(pool.canonical(restated).overrides.empty());

  const FuzzInput three_in =
      FuzzInput::parse("protocol two-party\nset delta=3\n");
  const Instance& three = pool.instance_for(three_in);
  for (const char* text : {"protocol two-party\nset delta=+3\n",
                           "protocol two-party\nset delta=5\nset delta=3\n"}) {
    EXPECT_EQ(&pool.instance_for(FuzzInput::parse(text)), &three) << text;
    // A second call resolves the same list again.
    EXPECT_EQ(&pool.instance_for(FuzzInput::parse(text)), &three) << text;
    EXPECT_EQ(pool.canonical(FuzzInput::parse(text)).str(),
              "protocol two-party\nset delta=3\n")
        << text;
  }
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(three.overrides_label, "delta=3");
  EXPECT_EQ(three.delta, 3);
}

TEST(InstancePool, RejectedOverridesThrowOnEveryCall) {
  // delta=0 fails the schema, purchase_price > sale_price the broker
  // factory. Neither is remembered: each call re-resolves the list and
  // throws again, before and after valid inputs resolved.
  for (const auto& [protocol, bad_text] :
       std::vector<std::pair<std::string, std::string>>{
           {"two-party", "protocol two-party\nset delta=0\n"},
           {"broker", "protocol broker\nset purchase_price=9999\n"}}) {
    const FuzzTarget target = FuzzTarget::from_registry(protocol);
    InstancePool pool(target);
    const FuzzInput bad = FuzzInput::parse(bad_text);
    FuzzInput good;
    good.protocol = protocol;
    FuzzInput tuned = good;
    tuned.overrides = {{"delta", "3"}};
    for (int round = 0; round < 2; ++round) {
      EXPECT_THROW(pool.instance_for(bad), sim::ParamError) << protocol;
      EXPECT_THROW(pool.canonical(bad), sim::ParamError) << protocol;
      EXPECT_THROW(pool.run(bad), sim::ParamError) << protocol;
      EXPECT_FALSE(pool.run(good).violating()) << protocol;
      EXPECT_FALSE(pool.run(tuned).violating()) << protocol;
      EXPECT_EQ(pool.size(), 2u) << protocol;
    }
  }
}

TEST(InstancePool, CanonicalMatchesCanonicalInput) {
  // The pool reads the override half from the instance; the result must
  // be what canonical_input() derives from scratch.
  const auto& reg = sim::ProtocolRegistry::global();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"two-party", "plan 1 d9+4\n"},
      {"two-party", "set delta=2\nset premium_b=3\nplan 0 conform\n"},
      {"two-party", "set premium_b=3\nset delta=04\nplan 1 x1.x2\n"},
      {"two-party",
       "set delta=3\nset delta=2\nfault banana drop@0-3,p=250,seed=2\n"
       "resilience rebroadcast\nplan 0 halt@1\n"},
      {"broker", "set premium_unit=1\nplan 2 x0\nplan 7 halt@0\n"},
      {"auction-open", "set bids=100, 80\nplan 0 v2:conform\n"},
      {"auction-open", "set bids=90,80,70\nplan 3 d0+5\n"},
      {"crr-ladder", "set volatility=0.80\nset rate=0.01\n"},
  };
  for (const auto& [protocol, body] : cases) {
    const FuzzTarget target = FuzzTarget::from_registry(protocol);
    InstancePool pool(target);
    const FuzzInput in = FuzzInput::parse("protocol " + protocol + "\n" + body);
    const FuzzInput want = canonical_input(
        in, *reg.make(protocol, in.params(target.schema)), target.schema);
    // Twice: the second call resolves through the memo.
    for (int round = 0; round < 2; ++round) {
      const FuzzInput got = pool.canonical(in);
      EXPECT_EQ(got.str(), want.str()) << body;
      EXPECT_EQ(got.overrides, want.overrides) << body;
      EXPECT_EQ(got.plans, want.plans) << body;
    }
  }
}

TEST(InstancePool, ViolationsCarryTheScheduleLabelWithTheEnvironment) {
  // Only a violating run builds its schedule label. The planted trap
  // violates under any environment (its outcomes ignore the chain), so
  // the faulted run's violation survives its faultless twin and must name
  // the environment it ran under, as schedule_of() labels it.
  const FuzzTarget target = selftest_target();
  InstancePool pool(target);
  const FuzzInput in = FuzzInput::parse(
      "protocol " + selftest_name() +
      "\nfault * outage@2-4\nresilience rebroadcast\nplan 1 x0\n"
      "plan 2 halt@1\n");
  ASSERT_TRUE(in.environment().active());
  const RunOutcome out = pool.run(in);
  ASSERT_TRUE(out.violating());
  const std::string want =
      schedule_of(in, *pool.instance_for(in).adapter, in.environment().str())
          .label;
  EXPECT_NE(want.find(in.environment().str()), std::string::npos);
  for (const sim::Violation& v : out.violations) {
    EXPECT_EQ(v.schedule, want);
    EXPECT_FALSE(v.fault_caused);
  }

  // The same plans on the reliable substrate carry no environment text.
  FuzzInput bare = in;
  bare.faults = {};
  bare.resilience = {};
  const RunOutcome clean_env = pool.run(bare);
  ASSERT_TRUE(clean_env.violating());
  EXPECT_EQ(clean_env.violations.front().schedule,
            schedule_of(bare, *pool.instance_for(bare).adapter, "").label);
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
