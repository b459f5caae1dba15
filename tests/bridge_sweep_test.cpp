// Sweep-level acceptance pins for the witness-bridge family: both
// registered variants sweep clean over the full halt-only and late-delay
// strategy spaces, the unhedged baseline demonstrably breaches the
// payoff floor under witness stalls, bridge sweeps are bit-identical
// serial vs sharded and tree vs brute (both variants), and the
// quorum-signed claim path composes with attestation-chain squeezes —
// fee-escalating witnesses keep the envelope, naive ones breach with
// [chain-fault] attribution.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/fault.hpp"
#include "core/bridge.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

std::unique_ptr<ProtocolAdapter> make_ref(const std::string& name) {
  return ProtocolRegistry::global().make(name);
}

const std::vector<std::string>& bridge_names() {
  static const std::vector<std::string> names = {"bridge-transfer",
                                                 "bridge-account-create"};
  return names;
}

void expect_identical(const SweepReport& a, const SweepReport& b) {
  EXPECT_EQ(b.protocol, a.protocol);
  EXPECT_EQ(b.schedules_run, a.schedules_run);
  EXPECT_EQ(b.conforming_audited, a.conforming_audited);
  EXPECT_EQ(b.truncations, a.truncations);
  ASSERT_EQ(b.violations.size(), a.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(b.violations[i].schedule, a.violations[i].schedule)
        << "violation " << i << " out of order";
    EXPECT_EQ(b.violations[i].party, a.violations[i].party);
    EXPECT_EQ(b.violations[i].coin_delta, a.violations[i].coin_delta);
    EXPECT_EQ(b.violations[i].required_min, a.violations[i].required_min);
  }
}

// ---------------------------------------------------------------------------
// Full strategy spaces sweep clean for both hedged variants
// ---------------------------------------------------------------------------

TEST(BridgeSweep, HaltOnlySpaceSweepsClean) {
  for (const std::string& name : bridge_names()) {
    SCOPED_TRACE(name);
    const auto adapter = make_ref(name);
    const SweepReport report = ScenarioRunner(*adapter).sweep();
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_GT(report.conforming_audited, 0u);
    // 4 parties, user with 3 (transfer) or 2 (account-create) ordinals,
    // witnesses with 3: (ordinals+1) halts + conform per party.
    EXPECT_EQ(report.schedules_run,
              name == "bridge-transfer" ? 256u : 192u);
  }
}

TEST(BridgeSweep, LateDelaySpaceSweepsClean) {
  // The acceptance bar from the issue: the full late-delay space — delays
  // of D-1, D, and 2D ticks plus selective drops, over the user AND all
  // witnesses — stays violation-free for the hedged defaults.
  for (const std::string& name : bridge_names()) {
    SCOPED_TRACE(name);
    const auto adapter = make_ref(name);
    SweepOptions opts;
    opts.strategies.kind = StrategySpace::Kind::kLateDelays;
    const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
    EXPECT_TRUE(report.ok()) << report.str();
    EXPECT_GT(report.schedules_run, 10000u);
  }
}

// ---------------------------------------------------------------------------
// The unhedged baseline breaches exactly where the hedge pays out
// ---------------------------------------------------------------------------

TEST(BridgeSweep, UnhedgedBaselineBreachesUnderWitnessStall) {
  // premium_unit=0 is unreachable through the registry schema (>= 1) by
  // design — the fuzzer must not wander into the known-broken baseline —
  // so the breach is pinned on a directly-constructed adapter: the same
  // halt-only space that sweeps clean hedged produces conforming-user
  // floor violations unhedged, none of them chain-fault attributable.
  core::BridgeConfig cfg;
  cfg.premium_unit = 0;
  const BridgeAdapter adapter(cfg);
  const SweepReport report = ScenarioRunner(adapter).sweep();
  EXPECT_FALSE(report.ok());
  bool user_breached = false;
  for (const Violation& v : report.violations) {
    EXPECT_FALSE(v.fault_caused) << v.str();
    if (v.party == "user" && v.coin_delta < 0) user_breached = true;
  }
  EXPECT_TRUE(user_breached)
      << "expected a conforming user below the floor: " << report.str();
}

// ---------------------------------------------------------------------------
// Executor equivalences
// ---------------------------------------------------------------------------

TEST(BridgeSweep, SerialMatchesShardedOnBothVariants) {
  for (const std::string& name : bridge_names()) {
    const auto adapter = make_ref(name);
    ScenarioRunner runner(*adapter);
    const SweepReport serial = runner.sweep();
    for (const unsigned threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(name + " @ " + std::to_string(threads) + " threads");
      SweepOptions opts;
      opts.threads = threads;
      expect_identical(serial, runner.sweep(opts));
    }
  }
}

// Tree ≡ brute on one variant, over all three strategy spaces. The tree
// executor must actually share prefixes: fewer world executions than
// schedules, every schedule still covered.
void expect_tree_matches_brute(const std::string& name) {
  const auto adapter = make_ref(name);
  ScenarioRunner runner(*adapter);
  for (const StrategySpace::Kind kind : {StrategySpace::Kind::kHaltOnly,
                                         StrategySpace::Kind::kTimelyDelays,
                                         StrategySpace::Kind::kLateDelays}) {
    SCOPED_TRACE(name + " / " + StrategySpace::kind_name(kind));
    SweepOptions brute;
    brute.strategies.kind = kind;
    brute.executor = SweepExecutor::kBrute;
    SweepOptions tree = brute;
    tree.executor = SweepExecutor::kTree;
    const SweepReport b = runner.sweep(brute);
    const SweepReport t = runner.sweep(tree);
    expect_identical(b, t);
    EXPECT_LT(t.nodes_executed, t.schedules_run);
    EXPECT_EQ(t.nodes_executed + t.dedup_hits, t.schedules_run);
  }
}

TEST(BridgeSweep, TreeMatchesBruteOnTransferPath) {
  expect_tree_matches_brute("bridge-transfer");
}

TEST(BridgeSweep, TreeMatchesBruteOnAccountCreatePath) {
  // Account-create pays rewards through the door at settle; its world
  // runs through the same frame as the transfer path.
  expect_tree_matches_brute("bridge-account-create");
}

// ---------------------------------------------------------------------------
// Composition with the chain-fault substrate
// ---------------------------------------------------------------------------

chain::ChainEnvironment attestation_squeeze(const std::string& resilience) {
  // Fee-1 spam crowds the issuing chain's cap-1 blocks through the whole
  // attestation window (ticks 3..8 at delta=2).
  return {chain::FaultPlan::parse("issuing:squeeze@3-8,cap=1,spam=2,fee=1"),
          chain::ResiliencePolicy::parse(resilience)};
}

TEST(BridgeFaults, NaiveWitnessesBreachUnderAttestationSqueezeAttributed) {
  // Everyone conforms, but naive fee-0 attestations never outbid the
  // spam: the quorum starves, the claim fails, and the bonded witnesses
  // cannot report an attestation that never landed — their bonds
  // forfeit. The faultless twin runs clean, so every violation carries
  // the [chain-fault] attribution instead of blaming the witnesses.
  const auto adapter = make_ref("bridge-transfer");
  ASSERT_TRUE(
      attestation_squeeze("naive").faults.within_tolerance(adapter->delta()));
  adapter->set_environment(attestation_squeeze("naive"));
  SweepOptions opts;
  opts.max_deviators = 0;
  const SweepReport report = ScenarioRunner(*adapter).sweep(opts);
  EXPECT_EQ(report.schedules_run, 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.fault_caused, report.violations.size());
  for (const Violation& v : report.violations) {
    EXPECT_TRUE(v.fault_caused) << v.str();
    EXPECT_NE(v.str().find("[chain-fault]"), std::string::npos) << v.str();
  }
}

TEST(BridgeFaults, FeeEscalatingWitnessesKeepTheEnvelope) {
  // Same within-envelope squeeze, adequate policy: escalated attestation
  // fees land the k-of-n quorum (and the own-vote-final settle reports)
  // before the inclusive deadlines lapse — across the full halt-only
  // deviation sweep, not just the all-conforming schedule.
  const auto adapter = make_ref("bridge-transfer");
  adapter->set_environment(attestation_squeeze("fee-escalate"));
  const SweepReport report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 256u);
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_EQ(report.fault_caused, 0u);
}

}  // namespace
}  // namespace xchain::sim
