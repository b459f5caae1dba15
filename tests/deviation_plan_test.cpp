// The composable ActionPolicy deviation plan and its bounded strategy
// spaces: per-ordinal Perform/Delay/Drop semantics, the legacy halt
// encodings, label rendering, timeliness classification, and the
// ParamGrid-style capped plan-space generator.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/deviation.hpp"
#include "sim/plan_space.hpp"
#include "sim/strategy_space.hpp"

namespace xchain::sim {
namespace {

// ---------------------------------------------------------------------------
// Plan semantics
// ---------------------------------------------------------------------------

TEST(DeviationPlan, ConformingPerformsEverything) {
  const DeviationPlan p = DeviationPlan::conforming();
  EXPECT_TRUE(p.is_conforming());
  EXPECT_TRUE(p.conforms_within(1));
  for (int o = 0; o < 8; ++o) {
    EXPECT_EQ(p.policy(o).choice, ActionChoice::kPerform);
    EXPECT_TRUE(p.allows(o));
  }
  EXPECT_EQ(p.str(), "conform");
}

TEST(DeviationPlan, HaltIsTheSuffixOfDrops) {
  const DeviationPlan p = DeviationPlan::halt_after(2);
  EXPECT_FALSE(p.is_conforming());
  EXPECT_FALSE(p.conforms_within(100));
  EXPECT_TRUE(p.allows(0));
  EXPECT_TRUE(p.allows(1));
  EXPECT_FALSE(p.allows(2));
  EXPECT_FALSE(p.allows(7));
  EXPECT_EQ(p.halt_point(), 2);
  EXPECT_EQ(p.str(), "halt@2");
}

TEST(DeviationPlan, DelaysArePerOrdinal) {
  const DeviationPlan p =
      DeviationPlan::conforming().delayed(1, 3).delayed(0, 1);
  EXPECT_FALSE(p.is_conforming());
  EXPECT_EQ(p.policy(0).choice, ActionChoice::kDelay);
  EXPECT_EQ(p.policy(0).delay, 1);
  EXPECT_EQ(p.policy(1).delay, 3);
  EXPECT_EQ(p.policy(2).choice, ActionChoice::kPerform);
  EXPECT_TRUE(p.allows(0)) << "delayed actions are still performed";
  EXPECT_EQ(p.str(), "d0+1.d1+3");
}

TEST(DeviationPlan, ZeroDelayIsPerform) {
  EXPECT_EQ(DeviationPlan::conforming().delayed(0, 0),
            DeviationPlan::conforming());
}

TEST(DeviationPlan, NonSuffixDropsCompose) {
  const DeviationPlan p =
      DeviationPlan::conforming().dropped(0).delayed(2, 2);
  EXPECT_FALSE(p.allows(0));
  EXPECT_TRUE(p.allows(1));
  EXPECT_EQ(p.policy(2).choice, ActionChoice::kDelay);
  EXPECT_EQ(p.str(), "x0.d2+2");
}

TEST(DeviationPlan, TimelinessIsJudgedAgainstDelta) {
  const DeviationPlan timely = DeviationPlan::conforming().delayed(1, 1);
  EXPECT_TRUE(timely.conforms_within(2)) << "delay < delta is compliant";
  EXPECT_FALSE(timely.conforms_within(1)) << "delay >= delta is not";
  EXPECT_FALSE(
      DeviationPlan::conforming().dropped(0).conforms_within(100));
}

TEST(DeviationPlan, VariantTagsMarkProtocolSpecificDishonesty) {
  const DeviationPlan honest = DeviationPlan::conforming().with_variant(0);
  const DeviationPlan crooked = DeviationPlan::conforming().with_variant(3);
  EXPECT_TRUE(honest.is_conforming());
  EXPECT_FALSE(crooked.is_conforming());
  EXPECT_FALSE(crooked.conforms_within(100));
  EXPECT_EQ(crooked.variant(), 3);
  EXPECT_EQ(crooked.str(), "v3:conform");
}

TEST(DeviationPlan, MixedPlanRendersEveryModification) {
  const DeviationPlan p =
      DeviationPlan::halt_after(3).delayed(1, 2).dropped(0);
  EXPECT_EQ(p.str(), "x0.d1+2.halt@3");
}

// ---------------------------------------------------------------------------
// The legacy halt-only space is unchanged (the sweeps' halt-only default)
// ---------------------------------------------------------------------------

TEST(PlanSpace, HaltOnlyListMatchesTheHistoricalOrder) {
  const auto plans = plan_space(3);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0], DeviationPlan::conforming());
  EXPECT_EQ(plans[1], DeviationPlan::halt_after(0));
  EXPECT_EQ(plans[2], DeviationPlan::halt_after(1));
  EXPECT_EQ(plans[3], DeviationPlan::halt_after(2));
}

// ---------------------------------------------------------------------------
// Strategy spaces and the bounded generator
// ---------------------------------------------------------------------------

TEST(StrategySpaceTest, DelayMenusDeriveFromDelta) {
  StrategySpace halt{StrategySpace::Kind::kHaltOnly};
  EXPECT_TRUE(halt.delay_menu(4).empty());

  StrategySpace timely{StrategySpace::Kind::kTimelyDelays};
  EXPECT_EQ(timely.delay_menu(4), (std::vector<Tick>{3}));
  EXPECT_TRUE(timely.delay_menu(1).empty())
      << "at delta = 1 no non-zero delay stays inside the bound";

  StrategySpace late{StrategySpace::Kind::kLateDelays};
  EXPECT_EQ(late.delay_menu(2), (std::vector<Tick>{1, 2, 4}));
  EXPECT_EQ(late.delay_menu(1), (std::vector<Tick>{1, 2}));
}

TEST(StrategySpaceTest, ParseRoundTrips) {
  for (const char* name : {"halt-only", "timely-delays", "late-delays"}) {
    const auto parsed = StrategySpace::parse(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(parsed->name(), name);
  }
  EXPECT_FALSE(StrategySpace::parse("alt-only").has_value());
}

TEST(StrategySpaceTest, HaltOnlyPartySpaceIsTheLegacyList) {
  const PartyPlanSpace space =
      party_plan_space(3, 2, StrategySpace{StrategySpace::Kind::kHaltOnly});
  EXPECT_EQ(space.full_size, 4u);
  EXPECT_FALSE(space.truncated());
  EXPECT_EQ(space.plans, plan_space(3));
}

TEST(StrategySpaceTest, LateSpaceIsTheFullPerOrdinalCrossProduct) {
  // 3 ordinals x {Perform, Delay(1), Delay(2), Delay(4), Drop}: 5^3 plans.
  const PartyPlanSpace space =
      party_plan_space(3, 2, StrategySpace{StrategySpace::Kind::kLateDelays});
  EXPECT_EQ(space.full_size, 125u);
  ASSERT_EQ(space.plans.size(), 125u);
  EXPECT_FALSE(space.truncated());

  // The halt-only list leads (so truncation keeps it), and no plan repeats.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(space.plans[i], plan_space(3)[i]) << i;
  }
  std::set<std::string> labels;
  for (const DeviationPlan& p : space.plans) labels.insert(p.str());
  EXPECT_EQ(labels.size(), space.plans.size()) << "plans must be distinct";
}

TEST(StrategySpaceTest, CapTruncatesLoudly) {
  StrategySpace late{StrategySpace::Kind::kLateDelays};
  const PartyPlanSpace space = party_plan_space(3, 2, late, /*cap=*/10);
  EXPECT_EQ(space.plans.size(), 10u);
  EXPECT_EQ(space.full_size, 125u);
  EXPECT_TRUE(space.truncated());
  // conform + 3 halts survive at the front.
  EXPECT_EQ(space.plans[0], DeviationPlan::conforming());
  EXPECT_EQ(space.plans[3], DeviationPlan::halt_after(2));
}

TEST(StrategySpaceTest, TimelyAtDeltaOneDegradesToHaltOnly) {
  const PartyPlanSpace space = party_plan_space(
      4, 1, StrategySpace{StrategySpace::Kind::kTimelyDelays});
  EXPECT_EQ(space.plans, plan_space(4));
  EXPECT_FALSE(space.truncated());
}

}  // namespace
}  // namespace xchain::sim
