// Fuzz-input format: the DeviationPlan::str() grammar parser, the dense
// decode/encode canonicalization mutation and shrinking operate on, and
// the corpus-file text form with its adapter-anchored normal form.

#include <gtest/gtest.h>

#include "fuzz/input.hpp"
#include "sim/registry.hpp"

namespace xchain::fuzz {
namespace {

using sim::DeviationPlan;

TEST(ParsePlan, RoundTripsEveryGrammarShape) {
  const char* forms[] = {
      "conform",        "halt@0",           "halt@3",
      "d0+1",           "d2+5",             "x1",
      "x0.d1+2",        "d0+1.d2+3.halt@4", "v3:conform",
      "v1:halt@2",      "v2:x0.d3+7",       "d1+1.x2.halt@5",
  };
  for (const char* f : forms) {
    EXPECT_EQ(parse_plan(f).str(), f) << f;
  }
}

TEST(ParsePlan, RejectsWhatStrCannotPrint) {
  const char* bad[] = {
      "",          "conform.halt@1",  // "conform" only stands alone
      "d0+0",                         // zero delay is Perform, never printed
      "d0-1",      "x-1",     "halt@-2",
      "halt@1.d0+1",                  // halt must come last
      "d0+1.d0+2",                    // duplicate ordinal
      "x0.x0",     "v0:conform",      // variant 0 is never prefixed
      "vx:conform", "d0+1junk", "hold@1", "plan", "d+1", "x",
      // Values past their field's range are rejected, never wrapped.
      "halt@4294967296", "x2147483648", "d2147483648+1",
      "d0+9223372036854775808", "v4294967296:conform", "v-2147483649:x0",
  };
  for (const char* f : bad) {
    EXPECT_THROW(parse_plan(f), FuzzFormatError) << f;
  }
}

TEST(EncodePlan, TrailingDropsFoldIntoHalt) {
  // decode over 4 actions, drop the last two -> canonical halt@2.
  auto acts = decode_plan(DeviationPlan::conforming(), 4);
  acts[2] = {sim::ActionChoice::kDrop, 0};
  acts[3] = {sim::ActionChoice::kDrop, 0};
  EXPECT_EQ(encode_plan(acts, 0).str(), "halt@2");

  // An interior drop stays an x-mod.
  acts[3] = {sim::ActionChoice::kPerform, 0};
  EXPECT_EQ(encode_plan(acts, 0).str(), "x2");
}

TEST(CanonicalPlan, ClampsToActionCountAndKeepsVariant) {
  // Mods beyond the script length vanish; the variant survives.
  const DeviationPlan p =
      DeviationPlan::conforming().delayed(1, 2).delayed(7, 9).with_variant(2);
  EXPECT_EQ(canonical_plan(p, 3).str(), "v2:d1+2");
  // Fully out-of-range plans collapse to conform (variant kept).
  EXPECT_EQ(canonical_plan(DeviationPlan::conforming().delayed(5, 1), 2).str(),
            "conform");
}

TEST(FuzzInput, ParseStrRoundTrip) {
  const std::string text =
      "protocol two-party\n"
      "set delta=3\n"
      "set premium_a=4\n"
      "plan 0 d2+6\n"
      "plan 1 halt@2\n";
  const FuzzInput in = FuzzInput::parse(text);
  EXPECT_EQ(in.protocol, "two-party");
  ASSERT_EQ(in.overrides.size(), 2u);
  EXPECT_EQ(in.overrides[0].first, "delta");
  EXPECT_EQ(in.overrides[0].second, "3");
  ASSERT_EQ(in.plans.size(), 2u);
  EXPECT_EQ(in.plans[1].str(), "halt@2");
  EXPECT_EQ(in.str(), text);
}

TEST(FuzzInput, CommentsAndBlankLinesIgnoredConformingPlansElided) {
  const FuzzInput in = FuzzInput::parse(
      "# a comment\n\nprotocol broker\n\nplan 1 conform\nplan 2 x0\n");
  EXPECT_EQ(in.str(), "protocol broker\nplan 2 x0\n");
}

TEST(FuzzInput, MissingPlanMeansConforming) {
  const FuzzInput in = FuzzInput::parse("protocol two-party\nplan 1 halt@0\n");
  EXPECT_TRUE(in.plan_of(0).is_conforming());
  EXPECT_EQ(in.plan_of(1).str(), "halt@0");
  EXPECT_TRUE(in.plan_of(7).is_conforming());  // beyond plans.size()
}

TEST(FuzzInput, ParseErrors) {
  EXPECT_THROW(FuzzInput::parse(""), FuzzFormatError);  // no protocol line
  EXPECT_THROW(FuzzInput::parse("plan 0 halt@0\n"), FuzzFormatError);
  EXPECT_THROW(FuzzInput::parse("protocol a\nprotocol b\n"), FuzzFormatError);
  EXPECT_THROW(FuzzInput::parse("protocol a\nset deltaequals2\n"),
               FuzzFormatError);
  EXPECT_THROW(FuzzInput::parse("protocol a\nplan x conform\n"),
               FuzzFormatError);
  EXPECT_THROW(FuzzInput::parse("protocol a\nplan 0 conform\n"
                                "plan 0 halt@0\n"),
               FuzzFormatError);  // duplicate party
  EXPECT_THROW(FuzzInput::parse("protocol a\nfrobnicate 1\n"),
               FuzzFormatError);  // unknown directive
}

TEST(FuzzInput, ParamsAreSchemaChecked) {
  const sim::ParamSet schema = sim::ProtocolRegistry::global().defaults(
      "two-party");
  FuzzInput in = FuzzInput::parse("protocol two-party\nset delta=3\n");
  EXPECT_EQ(in.params(schema).get_int("delta"), 3);
  in.overrides = {{"no_such_key", "1"}};
  EXPECT_THROW(in.params(schema), sim::ParamError);
  in.overrides = {{"delta", "0"}};  // below the schema minimum
  EXPECT_THROW(in.params(schema), sim::ParamError);
}

TEST(CanonicalInput, DropsRestatedDefaultsAndNormalizesPlans) {
  const auto& reg = sim::ProtocolRegistry::global();
  const sim::ParamSet schema = reg.defaults("two-party");
  const auto adapter = reg.make("two-party");

  FuzzInput in = FuzzInput::parse(
      "protocol two-party\n"
      "set delta=2\n"       // restates the default: must disappear
      "set premium_b=3\n"   // a real override: must survive
      "plan 1 d9+4\n");     // beyond the 3-action script: must vanish
  const FuzzInput canon = canonical_input(in, *adapter, schema);
  EXPECT_EQ(canon.str(), "protocol two-party\nset premium_b=3\n");

  // Identical semantics in a different spelling canonicalize identically:
  // overrides in reverse order, an explicit conform, trailing drops.
  FuzzInput other = FuzzInput::parse(
      "protocol two-party\n"
      "set premium_b=3\n"
      "set delta=2\n"
      "plan 0 conform\n"
      "plan 1 x1.x2\n");  // trailing drops over 3 actions -> halt@1
  const FuzzInput canon2 = canonical_input(other, *adapter, schema);
  EXPECT_EQ(canon2.str(),
            "protocol two-party\nset premium_b=3\nplan 1 halt@1\n");
}

TEST(FuzzInput, FaultAndResilienceDirectivesRoundTrip) {
  const std::string text =
      "protocol two-party\n"
      "fault banana squeeze@4-10,cap=1,spam=2,fee=3\n"
      "fault * outage@5-5\n"
      "resilience fee-escalate\n"
      "plan 0 halt@1\n";
  const FuzzInput in = FuzzInput::parse(text);
  ASSERT_EQ(in.faults.entries.size(), 2u);
  EXPECT_EQ(in.faults.entries[0].first, "banana");
  EXPECT_EQ(in.faults.entries[1].first, "*");
  EXPECT_EQ(in.resilience.kind, chain::ResiliencePolicy::Kind::kFeeEscalate);
  EXPECT_TRUE(in.environment().active());
  EXPECT_EQ(in.str(), text);
}

TEST(FuzzInput, NaiveResilienceIsTheSilentDefault) {
  // "resilience naive" parses but prints nothing: the inactive policy has
  // exactly one spelling — absence — like every other default.
  const FuzzInput in =
      FuzzInput::parse("protocol two-party\nresilience naive\n");
  EXPECT_FALSE(in.environment().active());
  EXPECT_EQ(in.str(), "protocol two-party\n");
}

TEST(FuzzInput, FaultDirectiveErrors) {
  EXPECT_THROW(FuzzInput::parse("protocol a\nfault banana\n"),
               FuzzFormatError);  // clause missing
  EXPECT_THROW(FuzzInput::parse("protocol a\nfault banana frob@1-2\n"),
               FuzzFormatError);  // unknown clause kind
  EXPECT_THROW(
      FuzzInput::parse("protocol a\nfault b squeeze@1-2,cap=1,spam=0,fee=1\n"),
      FuzzFormatError);  // non-canonical spelling
  EXPECT_THROW(FuzzInput::parse("protocol a\nresilience burst\n"),
               FuzzFormatError);
  EXPECT_THROW(FuzzInput::parse("protocol a\nresilience naive\n"
                                "resilience rebroadcast\n"),
               FuzzFormatError);  // at most one resilience line
}

TEST(CanonicalInput, EnvironmentPassesThroughUnchanged) {
  const auto& reg = sim::ProtocolRegistry::global();
  const sim::ParamSet schema = reg.defaults("two-party");
  const auto adapter = reg.make("two-party");
  const FuzzInput in = FuzzInput::parse(
      "protocol two-party\n"
      "fault banana drop@0-3,p=250,seed=2\n"
      "resilience rebroadcast\n"
      "plan 1 x1.x2\n");
  const FuzzInput canon = canonical_input(in, *adapter, schema);
  EXPECT_EQ(canon.faults, in.faults);
  EXPECT_EQ(canon.resilience, in.resilience);
  EXPECT_EQ(canon.str(),
            "protocol two-party\n"
            "fault banana drop@0-3,p=250,seed=2\n"
            "resilience rebroadcast\n"
            "plan 1 halt@1\n");
}

TEST(ScheduleOf, PadsPlansAndLabelsLikeSweepReports) {
  const auto& reg = sim::ProtocolRegistry::global();
  const auto adapter = reg.make("broker");
  const FuzzInput in = FuzzInput::parse("protocol broker\nplan 2 x0\n");
  const sim::Schedule s = schedule_of(in, *adapter, "");
  ASSERT_EQ(s.plans.size(), 3u);
  EXPECT_TRUE(s.plans[0].is_conforming());
  EXPECT_EQ(s.plans[2].str(), "x0");
  EXPECT_EQ(s.label, "hedged-broker[conform,conform,x0]");
}

}  // namespace
}  // namespace xchain::fuzz
