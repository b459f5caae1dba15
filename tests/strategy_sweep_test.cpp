// Strategy-space sweeps, end to end:
//  * halt-only mode reproduces the historical 1107-schedule reference
//    reports BYTE-IDENTICALLY (pinned strings — campaign and CLI output
//    are built from SweepReport::line(), so this is the back-compat
//    contract);
//  * timely-delays (last-moment-but-compliant lateness) must sweep clean,
//    and a timely-delayed conforming counterparty is never flagged;
//  * late-delays (delays at and past the synchrony bound, plus selective
//    drops) audits thousands of new timing schedules across every
//    registry protocol with zero hedging-bound violations;
//  * the unhedged baselines breach the hedged floor under LATE-DELAY
//    schedules, not just under halts — the timing-griefing axis has teeth;
//  * violation labels render the full policy (delays included).

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/fault.hpp"
#include "core/broker.hpp"
#include "core/two_party.hpp"
#include "sim/campaign.hpp"
#include "sim/reference_configs.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

std::vector<std::unique_ptr<ProtocolAdapter>> reference_adapters() {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  std::vector<std::unique_ptr<ProtocolAdapter>> out;
  out.push_back(reg.make("two-party"));
  out.push_back(reg.make("multi-party-fig3a"));
  ParamSet ring = reg.defaults("multi-party-ring");
  ring.set("n", "4");
  out.push_back(reg.make("multi-party-ring", ring));
  out.push_back(reg.make("auction-open"));
  out.push_back(reg.make("auction-sealed"));
  out.push_back(reg.make("broker"));
  out.push_back(reg.make("bootstrap"));
  out.push_back(reg.make("crr-ladder"));
  return out;
}

SweepOptions with_strategies(StrategySpace::Kind kind) {
  SweepOptions opts;
  opts.strategies.kind = kind;
  return opts;
}

// ---------------------------------------------------------------------------
// Back-compat: the halt-only reports, byte for byte.
// ---------------------------------------------------------------------------

TEST(StrategySweep, HaltOnlyReproducesTheReferenceReportsByteIdentically) {
  const char* kPinned[] = {
      "hedged-two-party: 16 schedules, 8 conforming-party audits, "
      "0 violations",
      "hedged-multi-party-n3: 125 schedules, 75 conforming-party audits, "
      "0 violations",
      "hedged-multi-party-n4: 625 schedules, 500 conforming-party audits, "
      "0 violations",
      "ticket-auction: 63 schedules, 51 conforming-party audits, "
      "0 violations",
      "sealed-ticket-auction: 112 schedules, 72 conforming-party audits, "
      "0 violations",
      "hedged-broker: 125 schedules, 75 conforming-party audits, "
      "0 violations",
      "bootstrap-ladder-r2: 25 schedules, 10 conforming-party audits, "
      "0 violations",
      "crr-ladder: 16 schedules, 8 conforming-party audits, 0 violations",
  };
  const auto adapters = reference_adapters();
  ASSERT_EQ(adapters.size(), std::size(kPinned));
  std::size_t total = 0;
  for (std::size_t i = 0; i < adapters.size(); ++i) {
    const SweepReport report = ScenarioRunner(*adapters[i]).sweep();
    EXPECT_EQ(report.line(), kPinned[i]);
    EXPECT_TRUE(report.truncations.empty())
        << "halt-only sweeps are never truncated";
    total += report.schedules_run;
  }
  EXPECT_EQ(total, 1107u);
}

// Both auctions' delay sweeps at the registry defaults and the CLI's
// 1,000,000-schedule budget, pinned report line, tree statistics and
// truncation notices included: the open and sealed variants share one
// contract and one actor set, and each keeps its own schedule space.
TEST(StrategySweep, AuctionDelaySweepsArePinned) {
  struct Pin {
    const char* protocol;
    StrategySpace::Kind kind;
    const char* line;
    std::size_t nodes_executed;
    std::size_t dedup_hits;
    std::size_t truncated_parties;
  };
  const Pin kPinned[] = {
      {"auction-open", StrategySpace::Kind::kTimelyDelays,
       "ticket-auction: 567 schedules, 585 conforming-party audits, "
       "0 violations",
       215, 352, 0},
      {"auction-open", StrategySpace::Kind::kLateDelays,
       "ticket-auction: 4375 schedules, 2025 conforming-party audits, "
       "0 violations",
       1015, 3360, 0},
      {"auction-sealed", StrategySpace::Kind::kTimelyDelays,
       "sealed-ticket-auction: 5103 schedules, 3753 conforming-party audits, "
       "0 violations",
       1511, 3592, 0},
      {"auction-sealed", StrategySpace::Kind::kLateDelays,
       "sealed-ticket-auction: 28672 schedules, 11264 conforming-party "
       "audits, 0 violations",
       6755, 21917, 2},
  };
  for (const Pin& pin : kPinned) {
    const auto adapter = ProtocolRegistry::global().make(pin.protocol);
    SweepOptions opts = with_strategies(pin.kind);
    opts.strategies.max_schedules = 1000000;
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    SCOPED_TRACE(pin.line);
    EXPECT_EQ(report.line(), pin.line);
    EXPECT_EQ(report.nodes_executed, pin.nodes_executed);
    EXPECT_EQ(report.dedup_hits, pin.dedup_hits);
    ASSERT_EQ(report.truncations.size(), pin.truncated_parties);
    for (std::size_t i = 0; i < pin.truncated_parties; ++i) {
      // Appended in steps (GCC 12 -Wrestrict, PR 105651).
      std::string notice =
          "sealed-ticket-auction: strategy space 'late-delays' truncated: "
          "party ";
      notice += std::to_string(i + 1);
      notice += " sweeping 64 of 125 plans (caps: 64 plans/party, 1000000 "
                "schedules)";
      EXPECT_EQ(report.truncations[i], notice);
    }
  }
}

// The §7 premium lattice's protocols, pinned the same way: the ARC swap on
// the 3-ring and on Figure 3a, the §8 broker, and the unhedged ring. Each
// hedged one is truncated to 64 of its 256 late-delay plans per party.
// Under a cap-1 squeeze on every chain the halt-only broker and Figure 3a
// sweeps breach (ROADMAP item 7): those runs exercise the premium award
// paths, so their violations are pinned verbatim.
TEST(StrategySweep, ArcLatticeSweepsArePinned) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  struct Pin {
    const char* protocol;
    bool hedged;
    const char* line;
    std::size_t nodes_executed;
    std::size_t dedup_hits;
  };
  const Pin kLateDelays[] = {
      {"multi-party-ring", true,
       "hedged-multi-party-n3: 262144 schedules, 12288 conforming-party "
       "audits, 0 violations",
       1195, 260949},
      {"multi-party-fig3a", true,
       "hedged-multi-party-n3: 262144 schedules, 12288 conforming-party "
       "audits, 0 violations",
       1638, 260506},
      {"broker", true,
       "hedged-broker: 262144 schedules, 12288 conforming-party audits, "
       "0 violations",
       3219, 258925},
      {"multi-party-ring", false,
       "base-multi-party-n3: 4096 schedules, 768 conforming-party audits, "
       "0 violations",
       205, 3891},
  };
  for (const Pin& pin : kLateDelays) {
    ParamSet params = reg.defaults(pin.protocol);
    if (!pin.hedged) params.set("hedged", "0");
    const auto adapter = reg.make(pin.protocol, params);
    SweepOptions opts = with_strategies(StrategySpace::Kind::kLateDelays);
    opts.strategies.max_schedules = 1000000;
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    SCOPED_TRACE(pin.line);
    EXPECT_EQ(report.line(), pin.line);
    EXPECT_EQ(report.nodes_executed, pin.nodes_executed);
    EXPECT_EQ(report.dedup_hits, pin.dedup_hits);
    ASSERT_EQ(report.truncations.size(), pin.hedged ? 3u : 0u);
    for (std::size_t i = 0; i < report.truncations.size(); ++i) {
      // Appended in steps (a GCC 12 -Wrestrict false positive, bug 105651).
      std::string notice = adapter->name();
      notice += ": strategy space 'late-delays' truncated: party ";
      notice += std::to_string(i);
      notice += " sweeping 64 of 256 plans (caps: 64 plans/party, 1000000 "
                "schedules)";
      EXPECT_EQ(report.truncations[i], notice);
    }
  }

  struct FaultPin {
    const char* protocol;
    const char* line;
    std::vector<std::string> violations;
  };
  const FaultPin kSqueezed[] = {
      {"broker",
       "hedged-broker: 125 schedules, 75 conforming-party audits, "
       "3 violations",
       {"hedged-broker[conform,conform,conform]: bob ended at -1 coins, "
        "floor 0 (lost more than earned premiums) [chain-fault]",
        "hedged-broker[conform,conform,conform]: carol ended at -1 coins, "
        "floor 0 (lost more than earned premiums) [chain-fault]",
        "hedged-broker[conform,conform,conform]: <all> ended at 0 coins, "
        "floor 0 (all-conforming run did not complete) [chain-fault]"}},
      {"multi-party-fig3a",
       "hedged-multi-party-n3: 125 schedules, 75 conforming-party audits, "
       "1 violations",
       {"hedged-multi-party-n3[conform,conform,conform]: <all> ended at 0 "
        "coins, floor 0 (all-conforming run did not complete) "
        "[chain-fault]"}},
  };
  for (const FaultPin& pin : kSqueezed) {
    const auto adapter = reg.make(pin.protocol);
    adapter->set_environment(
        {chain::FaultPlan::parse("*:squeeze@0-1000,cap=1"),
         chain::ResiliencePolicy::parse("fee-escalate")});
    const SweepReport report = ScenarioRunner(*adapter).sweep();
    SCOPED_TRACE(pin.line);
    EXPECT_EQ(report.line(), pin.line);
    EXPECT_EQ(report.nodes_executed, 125u);
    EXPECT_EQ(report.dedup_hits, 0u);
    ASSERT_EQ(report.violations.size(), pin.violations.size());
    for (std::size_t i = 0; i < pin.violations.size(); ++i) {
      EXPECT_EQ(report.violations[i].str(), pin.violations[i]);
    }
  }
}

// The protocols the pins above leave out, at the CLI's default budget of
// 20,000 schedules: the two witness bridges (unbounded and at two
// deviators, where the tree explores deviator-set sub-spaces), the
// two-party swap and both ladders. nodes_executed and dedup_hits say how
// the tree explored, so an executor change that runs more or fewer nodes
// fails here even when every report stays the same.
TEST(StrategySweep, LateDelaySweepsArePinned) {
  struct Pin {
    const char* protocol;
    int max_deviators;
    const char* line;
    std::size_t nodes_executed;
    std::size_t dedup_hits;
  };
  const Pin kPinned[] = {
      {"bridge-transfer", -1,
       "bridge-transfer: 14641 schedules, 21296 conforming-party audits, "
       "0 violations",
       1630, 13011},
      {"bridge-transfer", 2,
       "bridge-transfer: 641 schedules, 1696 conforming-party audits, "
       "0 violations",
       135, 506},
      {"bridge-account-create", -1,
       "bridge-account-create: 14641 schedules, 21296 conforming-party "
       "audits, 0 violations",
       1830, 12811},
      {"bridge-account-create", 2,
       "bridge-account-create: 641 schedules, 1696 conforming-party audits, "
       "0 violations",
       142, 499},
      {"two-party", -1,
       "hedged-two-party: 4096 schedules, 1024 conforming-party audits, "
       "0 violations",
       641, 3455},
      {"crr-ladder", -1,
       "crr-ladder: 4096 schedules, 1024 conforming-party audits, "
       "0 violations",
       641, 3455},
      {"bootstrap", -1,
       "bootstrap-ladder-r2: 4096 schedules, 1152 conforming-party audits, "
       "0 violations",
       737, 3359},
  };
  for (const Pin& pin : kPinned) {
    const auto adapter = ProtocolRegistry::global().make(pin.protocol);
    SweepOptions opts = with_strategies(StrategySpace::Kind::kLateDelays);
    opts.max_deviators = pin.max_deviators;
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    SCOPED_TRACE(pin.line);
    EXPECT_EQ(report.line(), pin.line);
    EXPECT_EQ(report.nodes_executed, pin.nodes_executed);
    EXPECT_EQ(report.dedup_hits, pin.dedup_hits);
  }
}

TEST(StrategySweep, SweepReportLineFormatIsPinned) {
  SweepReport r;
  r.protocol = "demo";
  r.schedules_run = 12;
  r.conforming_audited = 7;
  r.violations.resize(1);
  EXPECT_EQ(r.line(),
            "demo: 12 schedules, 7 conforming-party audits, 1 violations");
}

// ---------------------------------------------------------------------------
// Timely delays: still conforming, still clean, still audited.
// ---------------------------------------------------------------------------

TEST(StrategySweep, TimelyDelaysSweepCleanOnEveryReferenceAdapter) {
  const SweepOptions opts = with_strategies(StrategySpace::Kind::kTimelyDelays);
  std::size_t total = 0;
  for (const auto& adapter : reference_adapters()) {
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    SCOPED_TRACE(adapter->name());
    EXPECT_TRUE(report.ok()) << report.str();
    total += report.schedules_run;
  }
  EXPECT_GE(total, 3 * 1107u)
      << "the timely space alone should be >= 3x the halt-only space";
}

TEST(StrategySweep, TimelyDelayedConformingCounterpartyIsNeverFlagged) {
  // A timely delay (delta - 1 ticks) keeps the party CONFORMING: it is
  // still audited against its hedged floor — more conforming audits than
  // the halt-only space, zero violations. If the adapter ever classified
  // timely-delayed parties as deviators, the audit count would collapse
  // back; if the protocol ever mistreated them, a violation would name
  // them. Both stay pinned here on the two-party swap, where every
  // schedule and party is easy to account for: 27 plans per party (conform
  // + 3 halts + 23 delay/drop combinations), 8 of them conforming (conform
  // + the 7 pure timely-delay combinations over 3 ordinals).
  const auto adapter = ProtocolRegistry::global().make("two-party");
  const SweepReport report = ScenarioRunner(*adapter).sweep(
      with_strategies(StrategySpace::Kind::kTimelyDelays));
  EXPECT_EQ(report.schedules_run, 729u);  // 27^2
  EXPECT_TRUE(report.ok()) << report.str();
  // Each of the 27 counterparty plans meets 8 conforming plans of the
  // other party: 2 * 8 * 27 = 432 conforming-party audits.
  EXPECT_EQ(report.conforming_audited, 432u);
}

// ---------------------------------------------------------------------------
// Late delays: timing-griefing swept across the whole registry.
// ---------------------------------------------------------------------------

TEST(StrategySweep, LateDelaySpaceAuditsCleanAcrossAllRegistryProtocols) {
  const SweepOptions opts = with_strategies(StrategySpace::Kind::kLateDelays);
  std::size_t total = 0;
  bool any_truncated = false;
  for (const auto& adapter : reference_adapters()) {
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    SCOPED_TRACE(adapter->name());
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_GT(report.schedules_run, 0u);
    EXPECT_LE(report.schedules_run, opts.strategies.max_schedules);
    any_truncated |= !report.truncations.empty();
    total += report.schedules_run;
  }
  EXPECT_GE(total, 3 * 1107u)
      << "the late-delay space must be >= 3x the 1107 halt-only schedules";
  EXPECT_TRUE(any_truncated)
      << "the full per-ordinal cross products exceed the caps somewhere — "
         "truncation must be reported, never silent";
}

TEST(StrategySweep, ScheduleLabelsRenderDelaysAndVariants) {
  const auto two_party = ProtocolRegistry::global().make("two-party");
  std::set<std::string> labels;
  for (const Schedule& s : ScenarioRunner(*two_party).enumerate(
           with_strategies(StrategySpace::Kind::kTimelyDelays))) {
    labels.insert(s.label);
  }
  EXPECT_EQ(labels.count("hedged-two-party[d0+1,conform]"), 1u);
  EXPECT_EQ(labels.count("hedged-two-party[conform,d0+1.d1+1.d2+1]"), 1u);

  const auto auction = ProtocolRegistry::global().make("auction-open");
  std::set<std::string> auction_labels;
  for (const Schedule& s : ScenarioRunner(*auction).enumerate(
           with_strategies(StrategySpace::Kind::kTimelyDelays))) {
    auction_labels.insert(s.label);
  }
  EXPECT_EQ(auction_labels.count("ticket-auction[no-setup,conform,conform]"),
            1u);
  EXPECT_EQ(auction_labels.count("ticket-auction[honest,d0+1,conform]"), 1u);
}

/// Synthetic adapter whose victim (party 0) loses a coin whenever party 1
/// delays anything — a violation factory for label plumbing.
class GrudgeAdapter final : public ProtocolAdapter {
 public:
  std::string name() const override { return "grudge"; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override { return 1; }
  Tick delta() const override { return 2; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<GrudgeAdapter>(*this);
  }
  std::vector<PartyOutcome> run(const Schedule& s) const override {
    const bool grudge = s.plans[1].has_mods();
    PartyOutcome victim{"victim", true, {}, {}};
    victim.payoff.coin_delta = grudge ? -1 : 0;
    PartyOutcome thief{"thief", false, {}, {}};
    thief.payoff.coin_delta = grudge ? 1 : 0;
    return {std::move(victim), std::move(thief)};
  }
};

TEST(StrategySweep, ViolationLabelsCarryTheFullPolicy) {
  GrudgeAdapter adapter;
  const SweepReport report = ScenarioRunner(adapter).sweep(
      with_strategies(StrategySpace::Kind::kLateDelays));
  ASSERT_FALSE(report.violations.empty());
  std::set<std::string> schedules;
  for (const Violation& v : report.violations) {
    schedules.insert(v.schedule);
  }
  EXPECT_EQ(schedules.count("grudge[conform,d0+1]"), 1u);
  EXPECT_EQ(schedules.count("grudge[conform,d0+4]"), 1u);
  EXPECT_EQ(schedules.count("grudge[halt@0,d0+2]"), 1u);
}

TEST(StrategySweep, DelayPastTheLastTickNeverComesDue) {
  // A delayed action comes due at now + d, saturated: d = int64 max must
  // play like any delay past the horizon (d = 1000 here), never wrap into
  // the past and play like a timely action.
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  for (const std::string& name : ProtocolRegistry::global().names()) {
    const auto adapter = ProtocolRegistry::global().make(name);
    const std::size_t n = adapter->party_count();
    for (std::size_t p = 0; p < n; ++p) {
      const int actions = adapter->action_count(static_cast<PartyId>(p));
      for (int o = 0; o < actions; ++o) {
        SCOPED_TRACE(name + " party " + std::to_string(p) + " d" +
                     std::to_string(o));
        Schedule late, never;
        late.plans.assign(n, DeviationPlan::conforming());
        never.plans = late.plans;
        late.plans[p] = DeviationPlan::conforming().delayed(o, 1000);
        never.plans[p] = DeviationPlan::conforming().delayed(o, kMax);
        EXPECT_EQ(adapter->run(never), adapter->run(late));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Negative regressions: the unhedged baselines breach the hedged floor
// under LATE-DELAY schedules — not just under halts.
// ---------------------------------------------------------------------------

TEST(StrategySweep, UnhedgedTwoPartyBreachesHedgedFloorUnderLateDelay) {
  const core::TwoPartyConfig cfg = reference_two_party_config();
  // Bob delays his principal escrow past the contract deadline (2 * delta
  // past enablement): Alice's escrowed principal sits locked until her
  // timelock refund, with no premium machinery to compensate her.
  const DeviationPlan alice = DeviationPlan::conforming();
  const DeviationPlan bob =
      DeviationPlan::conforming().delayed(0, 2 * cfg.delta);
  const auto r = core::run_base_two_party(cfg, alice, bob);
  EXPECT_FALSE(r.swapped);
  ASSERT_GT(r.alice_lockup, 0) << "Alice must have been locked and refunded";

  std::vector<PartyOutcome> outcomes;
  outcomes.push_back({"alice", alice.conforms_within(cfg.delta), r.alice, {}});
  outcomes.back().bound.min_coin_delta = 1;  // the hedged expectation
  outcomes.push_back({"bob", bob.conforms_within(cfg.delta), r.bob, {}});
  EXPECT_FALSE(outcomes[1].conforming)
      << "a past-the-bound delay is a deviation";

  std::vector<Violation> violations;
  audit_schedule("base-two-party[conform," + bob.str() + "]", outcomes,
                 violations);
  ASSERT_EQ(violations.size(), 1u)
      << "the premium-free baseline must breach the hedged floor";
  EXPECT_EQ(violations[0].party, "alice");
  EXPECT_EQ(violations[0].schedule, "base-two-party[conform,d0+4]");
}

TEST(StrategySweep, PremiumFreeBrokerBreachesHedgedFloorUnderLateDelay) {
  ParamSet params = ProtocolRegistry::global().defaults("broker");
  params.set("premium_unit", "0");
  const core::BrokerConfig cfg = broker_config_from(params);
  // Alice (the broker) delays her trades past the trading deadline: the
  // sellers' principals were locked the whole time and come back
  // uncompensated — with p = 0 there is nothing to award them.
  const DeviationPlan honest = DeviationPlan::conforming();
  const DeviationPlan late_alice =
      DeviationPlan::conforming().delayed(2, 4 * cfg.delta);
  const auto r = core::run_broker_deal(cfg, late_alice, honest, honest);
  ASSERT_TRUE(r.bob_lockup > 0 || r.carol_lockup > 0);

  std::vector<PartyOutcome> outcomes;
  outcomes.push_back(
      {"alice", late_alice.conforms_within(cfg.delta), r.alice, {}});
  outcomes.push_back({"bob", true, r.bob, {}});
  if (r.bob_lockup > 0) outcomes.back().bound.min_coin_delta = 1;
  outcomes.push_back({"carol", true, r.carol, {}});
  if (r.carol_lockup > 0) outcomes.back().bound.min_coin_delta = 1;

  std::vector<Violation> violations;
  audit_schedule("p0-broker[" + late_alice.str() + ",conform,conform]",
                 outcomes, violations);
  EXPECT_FALSE(violations.empty())
      << "premium-free broker lock-ups under a late-delay schedule must "
         "breach the hedged floor";
}

// ---------------------------------------------------------------------------
// Campaign plumbing: dry-run counts, strategy-space options validation.
// ---------------------------------------------------------------------------

TEST(StrategySweep, DryRunCountsMatchTheActualSweep) {
  CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.entries.push_back({"bootstrap", {}, {}});
  spec.sweep.strategies.kind = StrategySpace::Kind::kLateDelays;

  const Campaign campaign(spec);
  const DryRunReport preview = campaign.dry_run();
  const CampaignReport actual = campaign.run();
  ASSERT_EQ(preview.configs.size(), actual.configs.size());
  for (std::size_t i = 0; i < preview.configs.size(); ++i) {
    EXPECT_EQ(preview.configs[i].schedules,
              actual.configs[i].report.schedules_run)
        << preview.configs[i].line();
  }
  EXPECT_EQ(preview.total_schedules(), actual.total_schedules());
  EXPECT_TRUE(actual.ok()) << actual.str();
  // The late-delay spaces overflow their caps here; BOTH reports must
  // surface the truncation notices — a dry run has to be as loud about
  // capping as the run it previews.
  EXPECT_FALSE(actual.truncations.empty());
  EXPECT_EQ(preview.truncations, actual.truncations);
  // The report records its own strategy space, so serialization can never
  // mislabel the coverage (campaign_json reads it from the report).
  EXPECT_EQ(actual.strategies.name(), "late-delays");
  EXPECT_NE(campaign_json(actual).find("\"strategies\": \"late-delays\""),
            std::string::npos);
}

TEST(StrategySweep, ZeroStrategyCapsAreRejected) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  SweepOptions opts;
  opts.strategies.max_plans_per_party = 0;
  EXPECT_THROW(ScenarioRunner(*adapter).sweep(opts), std::invalid_argument);
  opts.strategies.max_plans_per_party = 64;
  opts.strategies.max_schedules = 0;
  EXPECT_THROW(ScenarioRunner(*adapter).sweep(opts), std::invalid_argument);
}

}  // namespace
}  // namespace xchain::sim
