#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/multi_party.hpp"
#include "core/two_party.hpp"
#include "graph/digraph.hpp"
#include "sim/plan_space.hpp"
#include "sim/reference_configs.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// Adapters come from the protocol registry; the few tests that drive the
// run_* free functions directly still fetch the matching config structs
// through reference_configs.hpp (itself a shim over the same registry
// defaults), so both paths always agree on the numbers.
std::unique_ptr<ProtocolAdapter> make_ref(const std::string& name) {
  return ProtocolRegistry::global().make(name);
}

// ---------------------------------------------------------------------------
// Enumeration shape
// ---------------------------------------------------------------------------

TEST(ScenarioEnumeration, TwoPartyCrossProduct) {
  const auto adapter = make_ref("two-party");
  ScenarioRunner runner(*adapter);
  // {conform, halt@0..2} per party: 4^2 distinct schedules.
  const auto schedules = runner.enumerate();
  EXPECT_EQ(schedules.size(), 16u);

  std::set<std::string> labels;
  for (const auto& s : schedules) labels.insert(s.label);
  EXPECT_EQ(labels.size(), schedules.size()) << "labels must be distinct";
}

TEST(ScenarioEnumeration, MaxDeviatorsBoundsTheSweep) {
  const auto adapter = make_ref("multi-party-fig3a");
  ScenarioRunner runner(*adapter);
  // Full cross product: (4 halt points + conform)^3.
  EXPECT_EQ(runner.enumerate().size(), 125u);
  // Single deviator: 1 all-conform + 3 parties * 4 halt points.
  EXPECT_EQ(runner.enumerate(1).size(), 13u);
  EXPECT_EQ(runner.enumerate(0).size(), 1u);
}

TEST(ScenarioEnumeration, AuctionVariantsMultiply) {
  const auto adapter = make_ref("auction-open");
  ScenarioRunner runner(*adapter);
  // 7 auctioneer strategies x {conform, halt@0, halt@1}^2 bidders.
  EXPECT_EQ(runner.enumerate().size(), 63u);
  // A dishonest variant counts as the deviator: with max_deviators=1 only
  // the honest variant may combine with a single bidder deviation.
  // honest * (1 + 2*2) + 6 dishonest * all-conform = 5 + 6.
  EXPECT_EQ(runner.enumerate(1).size(), 11u);
}

// Halt-only spaces are never trimmed, so the product of per-party plan
// counts must not wrap: 38 bidders give exactly 7 * 3^38 schedules, and
// the 7 * 3^39 of 39 bidders exceed a 64-bit count.
TEST(ScenarioEnumeration, ScheduleCountRefusesToOverflow) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  const auto adapter_with = [&](std::size_t bidders) {
    std::string bids = "1";
    for (std::size_t i = 1; i < bidders; ++i) bids += ",1";
    ParamSet params = reg.defaults("auction-open");
    params.set("bids", bids);
    return reg.make("auction-open", params);
  };
  EXPECT_EQ(ScenarioRunner(*adapter_with(38)).schedule_count(SweepOptions{}),
            std::size_t{9455962023710944623u});
  EXPECT_THROW(
      ScenarioRunner(*adapter_with(39)).schedule_count(SweepOptions{}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The tentpole property: the hedging bound holds on EVERY schedule.
// ---------------------------------------------------------------------------

TEST(ScenarioSweep, TwoPartyHedgedBoundHoldsOnAllSchedules) {
  const auto adapter = make_ref("two-party");
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 16u);
  EXPECT_GT(report.conforming_audited, 0u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, Figure3aHedgedBoundHoldsOnAllSchedules) {
  // Exhaustive: every party may halt at every phase simultaneously —
  // 125 schedules, far beyond the single/paired-deviator lemma sweeps.
  const auto adapter = make_ref("multi-party-fig3a");
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 125u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, CycleFourHedgedBoundHolds) {
  ParamSet ring = ProtocolRegistry::global().defaults("multi-party-ring");
  ring.set("n", "4");
  const auto adapter = ProtocolRegistry::global().make("multi-party-ring",
                                                       ring);
  // 5^4 = 625 schedules; keep runtime sane with the full product anyway.
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 625u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, OpenAuctionBoundHoldsOnAllSchedules) {
  const auto adapter = make_ref("auction-open");
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 63u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, SealedAuctionBoundHoldsOnAllSchedules) {
  const auto adapter = make_ref("auction-sealed");
  const auto report = ScenarioRunner(*adapter).sweep();
  // 7 strategies x {conform, halt@0..2}^2 bidders.
  EXPECT_EQ(report.schedules_run, 112u);
  EXPECT_TRUE(report.ok()) << report.str();
}

// A sealed bid above the collateral has its reveal rejected and its
// collateral refunded, and only revealed bidders are paid premiums, so a
// killed auction owes that bidder nothing (the fuzz find in
// tests/fuzz_corpus/auction_sealed_bid_over_collateral.fuzz).
TEST(ScenarioSweep, SealedBidOverCollateralIsOwedNoPremium) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  ParamSet params = reg.defaults("auction-sealed");
  params.set("bids", "100,80,121");
  params.set("collateral", "110");
  const auto adapter = reg.make("auction-sealed", params);
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 448u);
  EXPECT_TRUE(report.ok()) << report.str();

  // Declare-loser against three conforming bidders. Bidder 1 keeps its
  // premium floor and is paid it; bidder 2, the lowest revealed bid and so
  // the declared winner, keeps its floor of tickets within its bid; bidder
  // 3, whose bid exceeds the collateral, has no floor and loses nothing.
  Schedule s;
  s.plans.assign(4, DeviationPlan::conforming());
  s.plans[0] = DeviationPlan::conforming().with_variant(3);
  const std::vector<PartyOutcome> out = adapter->run(s);
  ASSERT_EQ(out.size(), 4u);
  const Amount premium = params.get_amount("premium_unit");
  EXPECT_EQ(out[1].bound.min_coin_delta, premium);
  EXPECT_GE(out[1].payoff.coin_delta, premium);
  EXPECT_TRUE(out[2].bound.goods_received);
  EXPECT_EQ(out[2].bound.spend_allowance, 80);
  EXPECT_GE(out[2].payoff.coin_delta, -80);
  EXPECT_EQ(out[3].bound.min_coin_delta, 0);
  EXPECT_EQ(out[3].payoff.coin_delta, 0);
}

// An auction in which no bid can count (no open budget above zero, or
// every sealed bid above the collateral) settles by refunding everyone, so
// its all-conforming run completes (the fuzz find in
// tests/fuzz_corpus/auction_sealed_no_admissible_bid.fuzz). One admissible
// bid puts the contract's own settlement verdict back in charge.
TEST(ScenarioSweep, AuctionWithNoAdmissibleBidCompletes) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  struct Case {
    const char* protocol;
    const char* bids;
    std::size_t schedules;
  };
  for (const Case& c : {Case{"auction-open", "0,0", 63},
                        Case{"auction-sealed", "100,100", 112}}) {
    ParamSet params = reg.defaults(c.protocol);
    params.set("bids", c.bids);
    params.set("collateral", "97");
    const auto adapter = reg.make(c.protocol, params);
    const auto report = ScenarioRunner(*adapter).sweep();
    EXPECT_EQ(report.schedules_run, c.schedules) << c.protocol;
    EXPECT_TRUE(report.ok()) << report.str();

    Schedule s;
    s.plans.assign(3, DeviationPlan::conforming());
    for (const PartyOutcome& o : adapter->run(s)) {
      EXPECT_TRUE(o.bound.completed) << c.protocol << ' ' << o.name;
      EXPECT_EQ(o.payoff.coin_delta, 0) << c.protocol << ' ' << o.name;
    }
  }

  ParamSet params = reg.defaults("auction-sealed");
  params.set("bids", "100,90");
  params.set("collateral", "97");
  const auto adapter = reg.make("auction-sealed", params);
  Schedule s;
  s.plans.assign(3, DeviationPlan::conforming());
  s.plans[0] = DeviationPlan::conforming().with_variant(2);  // abandon
  for (const PartyOutcome& o : adapter->run(s)) {
    EXPECT_FALSE(o.bound.completed) << o.name;
  }
}

TEST(ScenarioSweep, BrokerHedgedBoundHoldsOnAllSchedules) {
  // Exhaustive over all three parties' halt points — 5^3 schedules, far
  // beyond the single-deviator §8.2 walkthroughs in broker_test.cpp.
  const auto adapter = make_ref("broker");
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 125u);
  EXPECT_EQ(report.conforming_audited, 75u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, BootstrapLadderBoundHoldsOnAllSchedules) {
  // r = 2 rounds: {conform, halt@0..3}^2 = 25 schedules through the
  // LadderContract pair.
  const auto adapter = make_ref("bootstrap");
  const auto report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 25u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(ScenarioSweep, CrrLadderBoundHoldsOnAllSchedules) {
  // Single-rung ladder with CRR-priced premiums (§4): the floor a locked
  // conforming party must earn is the option-priced premium itself.
  const BootstrapSwapAdapter adapter =
      make_crr_ladder_adapter(reference_crr_ladder_config());
  EXPECT_GT(adapter.config().apricot_premiums.at(0), 0);
  const auto report = ScenarioRunner(adapter).sweep();
  EXPECT_EQ(report.schedules_run, 16u);
  EXPECT_TRUE(report.ok()) << report.str();
}

// ---------------------------------------------------------------------------
// Unhedged baselines: stripping the premiums out of the new protocols must
// make the hedged floor fail somewhere — the audit has teeth on every
// engine, and the premium machinery is what earns the 0-violation sweeps.
// ---------------------------------------------------------------------------

TEST(ScenarioSweep, UnhedgedBrokerViolatesTheHedgedFloor) {
  // §8.2 machinery present, but premiums are zero — expressed as a registry
  // parameter override, the same way a campaign would sweep it.
  ParamSet params = ProtocolRegistry::global().defaults("broker");
  params.set("premium_unit", "0");
  const core::BrokerConfig cfg = broker_config_from(params);
  const auto adapter = ProtocolRegistry::global().make("broker", params);
  ScenarioRunner runner(*adapter);

  // With p = 0 the adapter's own floor degrades to break-even, so its
  // sweep stays clean...
  const auto report = runner.sweep();
  EXPECT_TRUE(report.ok()) << report.str();

  // ...but auditing the same outcomes against the hedged expectation (a
  // locked-and-refunded seller earns at least one premium unit) must fail:
  // without premiums, lock-ups go uncompensated.
  std::vector<Violation> violations;
  for (const Schedule& s : runner.enumerate()) {
    const auto r =
        core::run_broker_deal(cfg, s.plans[0], s.plans[1], s.plans[2]);
    std::vector<PartyOutcome> outcomes;
    outcomes.push_back({"alice", s.plans[0].is_conforming(), r.alice, {}});
    outcomes.push_back({"bob", s.plans[1].is_conforming(), r.bob, {}});
    if (r.bob_lockup > 0) outcomes.back().bound.min_coin_delta = 1;
    outcomes.push_back({"carol", s.plans[2].is_conforming(), r.carol, {}});
    if (r.carol_lockup > 0) outcomes.back().bound.min_coin_delta = 1;
    audit_schedule(s.label, outcomes, violations);
  }
  EXPECT_FALSE(violations.empty())
      << "premium-free broker lock-ups should breach the hedged floor";
}

// One run of §5.1's premium-free base swap, as audit_schedule sees it:
// the hedged expectation (a locked-and-refunded principal earns at least
// one premium) plus the safety and liveness flags every adapter sets.
std::vector<PartyOutcome> base_two_party_outcomes(
    const core::TwoPartyConfig& cfg, const DeviationPlan& pa,
    const DeviationPlan& pb) {
  const auto r = core::run_base_two_party(cfg, pa, pb);
  std::vector<PartyOutcome> outcomes;
  outcomes.push_back({"alice", pa.is_conforming(), r.alice, {}});
  if (r.alice_lockup > 0) outcomes.back().bound.min_coin_delta = 1;
  outcomes.back().bound.principal_lost =
      lost_principal(r.alice, "apricot", "banana");
  outcomes.push_back({"bob", pb.is_conforming(), r.bob, {}});
  if (r.bob_lockup > 0) outcomes.back().bound.min_coin_delta = 1;
  outcomes.back().bound.principal_lost =
      lost_principal(r.bob, "banana", "apricot");
  for (PartyOutcome& o : outcomes) o.bound.completed = r.swapped;
  return outcomes;
}

TEST(ScenarioSweep, UnhedgedBaseSwapViolatesTheLadderFloor) {
  // The ladder protocols' baseline is §5.1's premium-free atomic swap:
  // audited against the hedged expectation (any locked-and-refunded
  // principal earns at least one premium), it must produce violations —
  // that sore-loser exposure is what §6's ladder exists to hedge. It must
  // fail only there: the base swap is still safe and live, so an asset-
  // safety or liveness violation would mean the protocol itself is broken.
  const core::TwoPartyConfig cfg = reference_two_party_config();
  std::vector<Violation> violations;
  for (const DeviationPlan& pa : plan_space(core::kBaseTwoPartyActions)) {
    for (const DeviationPlan& pb : plan_space(core::kBaseTwoPartyActions)) {
      audit_schedule("base-two-party[" + pa.str() + "," + pb.str() + "]",
                     base_two_party_outcomes(cfg, pa, pb), violations);
    }
  }
  EXPECT_FALSE(violations.empty())
      << "the unhedged base swap should breach the premium floor somewhere";
  for (const Violation& v : violations) {
    EXPECT_EQ(v.detail, "lost more than earned premiums") << v.str();
  }
}

// ---------------------------------------------------------------------------
// Model checking (§10): sweeping a whole strategy space under the shared
// audit checks the hedged property, asset safety and liveness at once.
// ---------------------------------------------------------------------------

TEST(ModelChecker, BaseTwoPartyExposesSoreLoser) {
  // The negative control: the §5.1 base protocol fails the hedged property,
  // and only through the sore-loser attack — each violation belongs to a
  // conforming party whose counterparty deviated and left its principal
  // escrowed for nothing. Both parties are exposed: Alice when Bob never
  // escrows, Bob when Alice never redeems.
  core::TwoPartyConfig cfg;
  cfg.delta = 2;
  std::set<std::string> exposed;
  for (const DeviationPlan& pa : plan_space(core::kBaseTwoPartyActions)) {
    for (const DeviationPlan& pb : plan_space(core::kBaseTwoPartyActions)) {
      std::vector<Violation> violations;
      audit_schedule("base-two-party[" + pa.str() + "," + pb.str() + "]",
                     base_two_party_outcomes(cfg, pa, pb), violations);
      for (const Violation& v : violations) {
        const bool alice = v.party == "alice";
        EXPECT_TRUE(alice || v.party == "bob") << v.str();
        EXPECT_TRUE((alice ? pa : pb).is_conforming()) << v.str();
        EXPECT_FALSE((alice ? pb : pa).is_conforming()) << v.str();
        exposed.insert(v.party);
      }
    }
  }
  EXPECT_EQ(exposed, (std::set<std::string>{"alice", "bob"}));
}

TEST(ModelChecker, MultiPartyTwoVerticesClean) {
  // The smallest digraph: two vertices with an arc each way, every
  // combination of (4 halt points + conform) per vertex.
  core::MultiPartyConfig cfg;
  cfg.g = graph::Digraph::two_party();
  cfg.delta = 1;
  MultiPartySwapAdapter adapter(cfg);
  const auto report = ScenarioRunner(adapter).sweep();
  EXPECT_EQ(report.schedules_run, 25u);
  EXPECT_GT(report.conforming_audited, 0u);
  EXPECT_TRUE(report.ok()) << report.str();
}

// ---------------------------------------------------------------------------
// Whole-fleet coverage: every protocol engine is swept, and the combined
// schedule space has real breadth.
// ---------------------------------------------------------------------------

TEST(ScenarioSweep, AllRegisteredProtocolEnginesSweptCleanly) {
  // Every protocol the registry knows — the seven reference families plus
  // any future registration — sweeps its default configuration clean.
  std::size_t total = 0;
  for (const std::string& name : ProtocolRegistry::global().names()) {
    const auto engine = ProtocolRegistry::global().make(name);
    const auto report = ScenarioRunner(*engine).sweep();
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_GT(report.conforming_audited, 0u) << name;
    total += report.schedules_run;
  }
  EXPECT_GE(total, 350u);
}

TEST(ScenarioSweep, AtLeastAHundredSchedulesAcrossThreeProtocols) {
  // The acceptance criterion of the sweep engine, asserted end-to-end.
  std::size_t total = 0;
  for (const char* name : {"two-party", "multi-party-fig3a", "auction-open"}) {
    const auto adapter = make_ref(name);
    const auto report = ScenarioRunner(*adapter).sweep();
    EXPECT_TRUE(report.ok()) << report.str();
    total += report.schedules_run;
  }
  EXPECT_GE(total, 100u);
}

// ---------------------------------------------------------------------------
// The audit itself: it must actually catch uncompensated losses.
// ---------------------------------------------------------------------------

TEST(PayoffAudit, FlagsConformingPartyBelowFloor) {
  PartyOutcome victim{"victim", true, {}, {}};
  victim.payoff.coin_delta = 0;
  victim.bound.min_coin_delta = 1;  // locked up: entitled to a premium
  PartyOutcome deviator{"deviator", false, {}, {}};

  std::vector<Violation> violations;
  const auto audited =
      audit_schedule("test", {victim, deviator}, violations,
                     /*check_conservation=*/false);
  EXPECT_EQ(audited, 1u);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].party, "victim");
  EXPECT_EQ(violations[0].required_min, 1);
}

TEST(PayoffAudit, FlagsCoinNegativeWithoutGoods) {
  // Even if an adapter under-reports the entitlement with a negative
  // floor, a conforming party that received no goods must never end
  // coin-negative: the defence-in-depth branch catches it.
  PartyOutcome victim{"victim", true, {}, {}};
  victim.payoff.coin_delta = -5;
  victim.bound.min_coin_delta = -10;

  std::vector<Violation> violations;
  audit_schedule("test", {victim}, violations, /*check_conservation=*/false);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].detail, "coin-negative without goods");
}

TEST(PayoffAudit, AllowsSpendAgainstGoods) {
  PartyOutcome winner{"winner", true, {}, {}};
  winner.payoff.coin_delta = -100;
  winner.bound.goods_received = true;
  winner.bound.spend_allowance = 100;

  std::vector<Violation> violations;
  audit_schedule("test", {winner}, violations, /*check_conservation=*/false);
  EXPECT_TRUE(violations.empty());

  // Paying more than the allowance is theft again.
  winner.payoff.coin_delta = -101;
  audit_schedule("test", {winner}, violations, /*check_conservation=*/false);
  EXPECT_EQ(violations.size(), 1u);
}

TEST(PayoffAudit, DeviatorsAreNotAudited) {
  PartyOutcome deviator{"deviator", false, {}, {}};
  deviator.payoff.coin_delta = -42;

  std::vector<Violation> violations;
  const auto audited = audit_schedule("test", {deviator}, violations,
                                      /*check_conservation=*/false);
  EXPECT_EQ(audited, 0u);
  EXPECT_TRUE(violations.empty());
}

TEST(PayoffAudit, LivenessFiresOncePerAllConformingIncompleteRun) {
  PartyOutcome a{"a", true, {}, {}};
  PartyOutcome b{"b", true, {}, {}};
  PartyOutcome c{"c", true, {}, {}};
  b.bound.completed = false;

  std::vector<Violation> violations;
  EXPECT_EQ(audit_schedule("test", {a, b, c}, violations), 3u);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].party, "<all>");
  EXPECT_EQ(violations[0].detail, "all-conforming run did not complete");

  // Every outcome incomplete is still one run, one violation.
  a.bound.completed = c.bound.completed = false;
  violations.clear();
  audit_schedule("test", {a, b, c}, violations);
  EXPECT_EQ(violations.size(), 1u);

  // A deviator anywhere excuses the run: liveness is promised only to
  // all-conforming runs.
  for (PartyOutcome* deviator : {&a, &b, &c}) {
    deviator->conforming = false;
    violations.clear();
    audit_schedule("test", {a, b, c}, violations);
    EXPECT_TRUE(violations.empty()) << deviator->name;
    deviator->conforming = true;
  }
}

TEST(PayoffAudit, AssetSafetyFiresOnlyForConformingParties) {
  PartyOutcome victim{"victim", true, {}, {}};
  victim.bound.principal_lost = true;
  PartyOutcome deviator{"deviator", false, {}, {}};
  deviator.bound.principal_lost = true;

  std::vector<Violation> violations;
  audit_schedule("test", {victim, deviator}, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].party, "victim");
  EXPECT_EQ(violations[0].detail, "lost principal without the counter-asset");
}

TEST(PayoffAudit, LostPrincipalNeedsTheCounterAssetMissing) {
  core::PayoffDelta d;
  EXPECT_FALSE(lost_principal(d, "apricot", "banana"));
  d.by_symbol["apricot"] = -100;
  EXPECT_TRUE(lost_principal(d, "apricot", "banana"));
  d.by_symbol["banana"] = 0;
  EXPECT_TRUE(lost_principal(d, "apricot", "banana"));
  d.by_symbol["banana"] = 100;  // the swap went through
  EXPECT_FALSE(lost_principal(d, "apricot", "banana"));
  d.by_symbol["apricot"] = 0;
  EXPECT_FALSE(lost_principal(d, "apricot", "banana"));
}

TEST(PayoffAudit, ConservationCheckCatchesStrandedCoins) {
  PartyOutcome a{"a", false, {}, {}};
  a.payoff.coin_delta = -3;  // nobody received these 3 coins

  std::vector<Violation> violations;
  audit_schedule("test", {a}, violations, /*check_conservation=*/true);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].party, "<all>");
}

// Sweeps, fuzzing and load share one attribution rule: a violation is the
// faults' doing exactly when its party is clean on the faultless twin,
// whatever the twin reports for other parties.
TEST(PayoffAudit, FaultAttributionMatchesTheTwinByParty) {
  const std::vector<Violation> twin = {{"twin", "bob", -1, 0, "x"},
                                       {"twin", "<all>", 0, 0, "y"}};
  Violation alice{"s", "alice", -2, 0, "z"};
  Violation bob{"s", "bob", -2, 0, "z"};
  Violation all{"s", "<all>", 0, 0, "z"};
  EXPECT_TRUE(attribute_fault(alice, twin));
  EXPECT_TRUE(alice.fault_caused);
  EXPECT_FALSE(attribute_fault(bob, twin));
  EXPECT_FALSE(bob.fault_caused);
  EXPECT_FALSE(attribute_fault(all, twin));
  EXPECT_TRUE(attribute_fault(all, {}));
  EXPECT_NE(all.str().find("[chain-fault]"), std::string::npos);
}

// The tree executor answers most swept schedules from one AuditVerdict per
// distinct leaf outcome instead of auditing them. Over every conformance mask of
// outcome vectors that exercise every check, audit_party plus the
// verdict's conservation and liveness bits must give audit_schedule's
// audited count and violation count, and the verdict must say whether the
// audit reports anything.
TEST(PayoffAudit, VerdictMatchesAuditUnderEveryConformanceMask) {
  // One party per per-party check, one failing two of them, one clean.
  PartyOutcome floor{"below-floor", true, {}, {}};
  floor.payoff.coin_delta = 1;
  floor.bound.min_coin_delta = 2;
  PartyOutcome allowance{"over-allowance", true, {}, {}};
  allowance.payoff.coin_delta = -6;
  allowance.bound.goods_received = true;
  allowance.bound.spend_allowance = 5;
  PartyOutcome negative{"coin-negative", true, {}, {}};
  negative.payoff.coin_delta = -1;
  negative.bound.min_coin_delta = -3;
  PartyOutcome lost{"lost-principal", true, {}, {}};
  lost.payoff.coin_delta = 4;
  lost.bound.principal_lost = true;
  PartyOutcome floor_and_lost{"below-floor-and-lost", true, {}, {}};
  floor_and_lost.bound.min_coin_delta = 1;
  floor_and_lost.bound.principal_lost = true;
  PartyOutcome clean{"clean", true, {}, {}};
  clean.payoff.coin_delta = 2;

  // Zero-sum and complete; then incomplete; then stranding a coin; then
  // both, with no per-party failure left to hide behind.
  const std::vector<PartyOutcome> conserving = {
      floor, allowance, negative, lost, floor_and_lost, clean};
  std::vector<PartyOutcome> incomplete = conserving;
  incomplete[5].bound.completed = false;
  std::vector<PartyOutcome> stranding = conserving;
  stranding[5].payoff.coin_delta = 3;
  PartyOutcome incomplete_clean = clean;
  incomplete_clean.bound.completed = false;
  const std::vector<PartyOutcome> incomplete_stranding = {clean,
                                                          incomplete_clean};

  std::set<std::string> details;
  for (std::vector<PartyOutcome> outcomes :
       {conserving, incomplete, stranding, incomplete_stranding}) {
    const AuditVerdict verdict = audit_verdict(outcomes);
    const std::uint64_t all = (std::uint64_t{1} << outcomes.size()) - 1;
    for (std::uint64_t mask = 0; mask <= all; ++mask) {
      SCOPED_TRACE(outcomes.size());
      SCOPED_TRACE(mask);
      std::size_t expected = 0;
      std::vector<Violation> scratch;
      for (std::size_t p = 0; p < outcomes.size(); ++p) {
        outcomes[p].conforming = (mask >> p & 1) != 0;
        const std::size_t failed = audit_party("test", outcomes[p], scratch);
        EXPECT_EQ((verdict.fails_if_conforming >> p & 1) != 0, failed > 0);
        if (outcomes[p].conforming) expected += failed;
      }
      if (!verdict.conserved) ++expected;
      if (!verdict.completed && mask == all) ++expected;

      std::vector<Violation> violations;
      EXPECT_EQ(audit_schedule("test", outcomes, violations),
                static_cast<std::size_t>(std::popcount(mask)));
      EXPECT_EQ(violations.size(), expected);
      EXPECT_EQ(verdict.violates(mask, all), !violations.empty());
      for (const Violation& v : violations) details.insert(v.detail);
    }
  }
  EXPECT_EQ(details, (std::set<std::string>{
                         "lost more than earned premiums",
                         "spent more than allowance over premium floor",
                         "coin-negative without goods",
                         "lost principal without the counter-asset",
                         "native-coin flows not zero-sum across parties",
                         "all-conforming run did not complete"}));

  // A conformance mask holds 64 parties.
  EXPECT_THROW((void)audit_verdict(std::vector<PartyOutcome>(65)),
               std::invalid_argument);
}

// The base (unhedged) multi-party protocol is the paper's counterexample:
// it must NOT pass a premium-floor audit — compliant parties get locked up
// with zero compensation. The sweep proves the audit has teeth on a real
// protocol, not just on synthetic outcomes.
TEST(ScenarioSweep, BaseProtocolLockupIsVisibleInSweep) {
  // The unhedged baseline as a registry override (`hedged=0`), the same
  // assignment a campaign grid would use.
  ParamSet params = ProtocolRegistry::global().defaults("multi-party-fig3a");
  params.set("hedged", "0");
  const core::MultiPartyConfig cfg =
      multi_party_config_from(params, graph::Digraph::figure3a());
  const auto adapter =
      ProtocolRegistry::global().make("multi-party-fig3a", params);
  ScenarioRunner runner(*adapter);

  // The base adapter's floor is 0 (no premiums exist to earn), so the
  // audit passes vacuously...
  const auto report = runner.sweep();
  EXPECT_EQ(report.schedules_run, 27u);  // (2 halt points + conform)^3
  EXPECT_TRUE(report.ok()) << report.str();

  // ...but running the base outcomes against the hedged floor (premium per
  // refunded asset) must produce violations: that asymmetry IS the paper's
  // motivation, mechanically checked.
  std::vector<Violation> violations;
  for (const Schedule& s : runner.enumerate()) {
    const auto r = core::run_multi_party_swap(cfg, s.plans);
    std::vector<PartyOutcome> outcomes;
    for (std::size_t v = 0; v < cfg.g.size(); ++v) {
      PartyOutcome o{"party-" + std::to_string(v),
                     s.plans[v].is_conforming(), r.payoffs[v], {}};
      o.bound.min_coin_delta = cfg.premium_unit * r.assets_refunded[v];
      outcomes.push_back(std::move(o));
    }
    audit_schedule(s.label, outcomes, violations);
  }
  EXPECT_FALSE(violations.empty())
      << "the unhedged baseline should violate the hedged floor somewhere";
}

}  // namespace
}  // namespace xchain::sim
