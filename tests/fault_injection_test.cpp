#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "sim/campaign.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"

namespace xchain {
namespace {

using chain::ChainEnvironment;
using chain::ChainFaults;
using chain::FaultClause;
using chain::FaultPlan;
using chain::ResiliencePolicy;
using chain::Transaction;
using chain::TxStatus;

std::unique_ptr<sim::ProtocolAdapter> make_ref(const std::string& name) {
  return sim::ProtocolRegistry::global().make(name);
}

Transaction noop_tx(PartyId sender, Amount fee, bool track = true) {
  Transaction tx;
  tx.sender = sender;
  tx.effect = [](chain::TxContext&) {};
  tx.fee = fee;
  tx.track = track;
  return tx;
}

// ---------------------------------------------------------------------------
// Grammar: parse/str round-trips, one spelling per plan
// ---------------------------------------------------------------------------

TEST(FaultGrammar, PlanRoundTrips) {
  for (const std::string spec : {
           "banana:outage@3-5",
           "*:outage@5-5",
           "banana:squeeze@4-10,cap=1,spam=2,fee=3",
           "apricot:squeeze@0-2,cap=0",
           "apricot:squeeze@1-2,cap=2,mem=3",
           "apricot:squeeze@1-2,cap=2,spam=1,fee=0,mem=0",
           "apricot:drop@0-3,p=500",
           "apricot:drop@0-3,p=1000,seed=9",
           "apricot:outage@1-1;banana:drop@2-4,p=250",
       }) {
    EXPECT_EQ(FaultPlan::parse(spec).str(), spec);
  }
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_EQ(FaultPlan{}.str(), "");
}

TEST(FaultGrammar, PlanRejectsMalformedSpecs) {
  for (const std::string spec : {
           "banana",                               // no clause
           ":outage@1-2",                          // empty chain name
           "a:outage@5-3",                         // inverted window
           "a:outage@1",                           // no window end
           "a:squeeze@1-2",                        // missing cap
           "a:squeeze@1-2,spam=1,fee=0,cap=1",     // keys out of order
           "a:squeeze@1-2,cap=1,spam=0,fee=1",     // spam=0 is implicit
           "a:squeeze@1-2,cap=1,spam=1",           // spam without fee
           "a:drop@1-2",                           // missing p
           "a:drop@1-2,p=0",                       // permille out of range
           "a:drop@1-2,p=1001",                    // permille out of range
           "a:drop@1-2,p=5,seed=0",                // seed=0 is implicit
           "a:outage@1-2,cap=1",                   // trailing junk
           "a:frob@1-2",                           // unknown kind
           "*:drop@0-5,p=4294968296",              // p wraps to 1000 as int
           "a:squeeze@0-1,cap=2147483648",         // cap past INT_MAX
           "a:squeeze@0-1,cap=1,mem=2147483648",   // mem past INT_MAX
           "a:squeeze@0-1,cap=1,spam=2147483648,fee=1",  // spam past INT_MAX
           "a:squeeze@0-9999999999999999999999,cap=1",   // overflows 64 bits
           "a:outage@99999999999999999999-99999999999999999999",
           "a:drop@0-1,p=5,seed=99999999999999999999",  // seed past 2^64
       }) {
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultGrammar, ResilienceRoundTripsAndRejects) {
  for (const std::string text :
       {"naive", "rebroadcast", "fee-escalate", "fee-escalate:2,3,9",
        "fee-escalate:0,1,16"}) {
    EXPECT_EQ(ResiliencePolicy::parse(text).str(), text);
  }
  // The default knobs have exactly one spelling: the bare form.
  EXPECT_THROW(ResiliencePolicy::parse("fee-escalate:0,1,64"),
               std::invalid_argument);
  EXPECT_THROW(ResiliencePolicy::parse("burst"), std::invalid_argument);
  EXPECT_THROW(ResiliencePolicy::parse("fee-escalate:"),
               std::invalid_argument);
  // Knobs past their field's range are rejected, never wrapped.
  EXPECT_THROW(ResiliencePolicy::parse("fee-escalate:99999999999999999999,1,2"),
               std::invalid_argument);
  EXPECT_THROW(
      ResiliencePolicy::parse("fee-escalate:0,1,99999999999999999999999"),
      std::invalid_argument);
  // A base above the ceiling would never be paid: fee_at() clamps the
  // first submission to the max. The default ceiling counts too.
  EXPECT_THROW(ResiliencePolicy::parse("fee-escalate:5,1,2"),
               std::invalid_argument);
  EXPECT_THROW(ResiliencePolicy::parse("fee-escalate:65"),
               std::invalid_argument);
  EXPECT_EQ(ResiliencePolicy::parse("fee-escalate:2,1,2").fee_at(0, 0), 2);

  const ResiliencePolicy esc = ResiliencePolicy::parse("fee-escalate:2,3,9");
  EXPECT_EQ(esc.fee_at(5, 5), 2);   // no wait -> base fee
  EXPECT_EQ(esc.fee_at(5, 7), 8);   // 2 + 3*2
  EXPECT_EQ(esc.fee_at(5, 50), 9);  // clamped at max
  EXPECT_FALSE(ResiliencePolicy{}.active());
  EXPECT_TRUE(esc.active());
}

TEST(FaultGrammar, ToleranceEnvelope) {
  const Tick delta = 2;
  // Outages strictly shorter than Delta are recoverable slack.
  EXPECT_TRUE(FaultPlan::parse("*:outage@5-5").within_tolerance(delta));
  EXPECT_FALSE(FaultPlan::parse("*:outage@5-6").within_tolerance(delta));
  // Squeezes stay in the envelope while at least one tx lands per block.
  EXPECT_TRUE(FaultPlan::parse("a:squeeze@0-9,cap=1,spam=5,fee=7")
                  .within_tolerance(delta));
  EXPECT_FALSE(FaultPlan::parse("a:squeeze@0-0,cap=0").within_tolerance(delta));
  // Drops are never within tolerance: no fee outbids a discard.
  EXPECT_FALSE(FaultPlan::parse("a:drop@0-0,p=1").within_tolerance(delta));
  EXPECT_TRUE(FaultPlan{}.within_tolerance(delta));
}

TEST(FaultGrammar, ToleranceBoundaryWindows) {
  const Tick delta = 3;
  // Delta-1 ticks of outage is the longest recoverable window; a window of
  // exactly Delta swallows a full synchrony period and leaves the envelope.
  EXPECT_TRUE(FaultPlan::parse("a:outage@4-5").within_tolerance(delta));
  EXPECT_FALSE(FaultPlan::parse("a:outage@4-6").within_tolerance(delta));
  // cap=1 is the thinnest tolerated squeeze (one tx still lands per
  // block); cap=0 is an unbounded outage in disguise, whatever the window.
  EXPECT_TRUE(
      FaultPlan::parse("a:squeeze@0-99,cap=1").within_tolerance(delta));
  EXPECT_FALSE(
      FaultPlan::parse("a:squeeze@0-0,cap=0").within_tolerance(delta));
  // The grammar has no spelling for a no-op drop (p=0 is rejected at
  // parse) ...
  EXPECT_THROW(FaultPlan::parse("a:drop@0-0,p=0"), std::invalid_argument);
  // ... and even a hand-built zero-probability drop clause is out of
  // tolerance: the envelope keys on the clause kind, not on its odds.
  FaultClause drop;
  drop.kind = FaultClause::Kind::kDrop;
  drop.permille = 0;
  FaultPlan hand;
  hand.entries.emplace_back("a", drop);
  EXPECT_FALSE(hand.within_tolerance(delta));
}

TEST(FaultGrammar, ForChainMatchesNameAndStar) {
  const FaultPlan plan =
      FaultPlan::parse("apricot:outage@1-1;*:drop@2-4,p=250;banana:outage@3-3");
  EXPECT_EQ(plan.for_chain("apricot").clauses.size(), 2u);
  EXPECT_EQ(plan.for_chain("banana").clauses.size(), 2u);
  EXPECT_EQ(plan.for_chain("cherry").clauses.size(), 1u);  // '*' only
}

TEST(FaultGrammar, DropDecisionIsStatelessAndSeeded) {
  const ChainFaults f = FaultPlan::parse("a:drop@0-9,p=500").for_chain("a");
  // Pure function of (seed, chain, height, seq): identical on replay.
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    EXPECT_EQ(f.should_drop(0, 3, seq), f.should_drop(0, 3, seq));
  }
  // p=1000 drops everything in-window, nothing outside it.
  const ChainFaults all = FaultPlan::parse("a:drop@0-9,p=1000").for_chain("a");
  EXPECT_TRUE(all.should_drop(0, 0, 0));
  EXPECT_FALSE(all.should_drop(0, 10, 0));
  // A different seed selects a different stream somewhere in 32 draws.
  const ChainFaults seeded =
      FaultPlan::parse("a:drop@0-9,p=500,seed=9").for_chain("a");
  bool differs = false;
  for (std::uint64_t seq = 0; seq < 32 && !differs; ++seq) {
    differs = f.should_drop(0, 3, seq) != seeded.should_drop(0, 3, seq);
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Mempool mechanics under faults
// ---------------------------------------------------------------------------

TEST(FaultMempool, SqueezeSelectsByFeeThenCarriesOver) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(FaultPlan::parse("apricot:squeeze@0-1,cap=1").for_chain(
      "apricot"));
  const std::uint64_t low = bc.submit(noop_tx(0, 1));
  const std::uint64_t high = bc.submit(noop_tx(1, 5));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(high), TxStatus::kIncluded) << "higher fee wins";
  EXPECT_EQ(bc.tx_status(low), TxStatus::kPending) << "crowded out, carried";
  bc.produce_block(1);
  EXPECT_EQ(bc.tx_status(low), TxStatus::kIncluded);
  EXPECT_EQ(bc.applied_tx_count(), 2u);
}

TEST(FaultMempool, TiesBreakBySubmissionOrder) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(
      FaultPlan::parse("apricot:squeeze@0-0,cap=1").for_chain("apricot"));
  const std::uint64_t first = bc.submit(noop_tx(0, 2));
  const std::uint64_t second = bc.submit(noop_tx(1, 2));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(first), TxStatus::kIncluded) << "older tx wins ties";
  EXPECT_EQ(bc.tx_status(second), TxStatus::kPending);
}

TEST(FaultMempool, SpamOutbidsLowFeeTraffic) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(FaultPlan::parse("apricot:squeeze@0-0,cap=1,spam=2,fee=3")
                    .for_chain("apricot"));
  const std::uint64_t cheap = bc.submit(noop_tx(0, 0));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(cheap), TxStatus::kPending) << "fee-3 spam outbids";
  bc.produce_block(1);  // squeeze over, spam does not carry over
  EXPECT_EQ(bc.tx_status(cheap), TxStatus::kIncluded);
}

TEST(FaultMempool, MemLimitEvictsLowestFee) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(FaultPlan::parse("apricot:squeeze@0-0,cap=0,mem=1")
                    .for_chain("apricot"));
  const std::uint64_t poor = bc.submit(noop_tx(0, 1));
  const std::uint64_t rich = bc.submit(noop_tx(1, 4));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(poor), TxStatus::kEvicted);
  EXPECT_EQ(bc.tx_status(rich), TxStatus::kPending);
  bc.produce_block(1);
  EXPECT_EQ(bc.tx_status(rich), TxStatus::kIncluded);
}

TEST(FaultMempool, OutageParksSubmissions) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(
      FaultPlan::parse("apricot:outage@0-1").for_chain("apricot"));
  const std::uint64_t id = bc.submit(noop_tx(0, 0));
  bc.produce_block(0);
  bc.produce_block(1);
  EXPECT_EQ(bc.tx_status(id), TxStatus::kPending) << "parked through outage";
  EXPECT_EQ(bc.applied_tx_count(), 0u);
  bc.produce_block(2);
  EXPECT_EQ(bc.tx_status(id), TxStatus::kIncluded);
}

TEST(FaultMempool, DropDiscardsFreshSubmissions) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(
      FaultPlan::parse("apricot:drop@0-9,p=1000").for_chain("apricot"));
  const std::uint64_t id = bc.submit(noop_tx(0, 0));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(id), TxStatus::kDropped);
  // bump_fee cannot resurrect a dropped tx; resubmission is the only cure.
  EXPECT_FALSE(bc.bump_fee(id, 9));
}

TEST(FaultMempool, BumpFeeReordersPendingTx) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.set_faults(
      FaultPlan::parse("apricot:squeeze@0-1,cap=1").for_chain("apricot"));
  const std::uint64_t low = bc.submit(noop_tx(0, 1));
  const std::uint64_t mid = bc.submit(noop_tx(1, 2));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(mid), TxStatus::kIncluded);
  EXPECT_EQ(bc.tx_status(low), TxStatus::kPending);
  const std::uint64_t rival = bc.submit(noop_tx(2, 3));
  EXPECT_TRUE(bc.bump_fee(low, 5));
  bc.produce_block(1);
  EXPECT_EQ(bc.tx_status(low), TxStatus::kIncluded) << "bumped past rival";
  EXPECT_EQ(bc.tx_status(rival), TxStatus::kPending);
}

TEST(FaultMempool, ResetRestoresReliableSubstrateState) {
  // Rewinding to the post-setup slot 0 restarts the run: the carried-over
  // mempool, tracked statuses and submission ordinals are all forgotten.
  chain::MultiChain mc;
  mc.set_trace(chain::TraceMode::kOff);
  chain::Blockchain& bc = mc.add_chain("apricot");
  mc.snap_push();
  bc.set_faults(
      FaultPlan::parse("apricot:squeeze@0-9,cap=0").for_chain("apricot"));
  const std::uint64_t id = bc.submit(noop_tx(0, 0));
  bc.produce_block(0);
  EXPECT_EQ(bc.tx_status(id), TxStatus::kPending);
  mc.snap_rewind(0);
  EXPECT_EQ(bc.tx_status(id), TxStatus::kUnknown) << "statuses are per-run";
  EXPECT_EQ(bc.applied_tx_count(), 0u);
  EXPECT_FALSE(bc.bump_fee(id, 5)) << "the carried-over tx is gone";
  EXPECT_EQ(bc.submit(noop_tx(0, 0)), id) << "submission ordinals restart";
}

// ---------------------------------------------------------------------------
// Satellite: submitting past the end of the timeline is a loud caller bug
// ---------------------------------------------------------------------------

TEST(SubmitGuards, SubmitAfterFinalizeThrows) {
  chain::MultiChain mc;
  mc.set_trace(chain::TraceMode::kOff);
  chain::Blockchain& bc = mc.add_chain("apricot");
  mc.snap_push();
  mc.finalize_all();
  try {
    bc.submit(noop_tx(0, 0));
    FAIL() << "submit on a finalized chain must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("finalized"), std::string::npos)
        << e.what();
  }
  // Rewinding to slot 0 re-opens the chain for the next run.
  mc.snap_rewind(0);
  EXPECT_NO_THROW(bc.submit(noop_tx(0, 0)));
}

TEST(SubmitGuards, SubmitToHaltedChainThrows) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.halt();
  try {
    bc.submit(noop_tx(0, 0));
    FAIL() << "submit on a halted chain must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("halted"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Satellite: deadline-ladder validation against the timing contract
// ---------------------------------------------------------------------------

class LadderContract : public chain::Contract {
 public:
  explicit LadderContract(std::vector<Tick> ladder)
      : ladder_(std::move(ladder)) {}
  std::vector<Tick> deadline_schedule() const override { return ladder_; }

 private:
  std::vector<Tick> ladder_;
};

TEST(DeadlineValidation, WellSpacedLadderPasses) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.deploy<LadderContract>(std::vector<Tick>{2, 4, 6});
  sim::Scheduler sched(mc);
  EXPECT_NO_THROW(sched.validate_deadlines(2));
  // The same ladder is too tight for Delta=3.
  EXPECT_THROW(sched.validate_deadlines(3), std::logic_error);
}

TEST(DeadlineValidation, PackedLadderThrowsDescriptively) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("banana");
  bc.deploy<LadderContract>(std::vector<Tick>{2, 3});
  sim::Scheduler sched(mc);
  try {
    sched.validate_deadlines(2);
    FAIL() << "a 1-tick gap must fail Delta=2 validation";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("validate_deadlines"), std::string::npos) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
    EXPECT_NE(what.find("step 1"), std::string::npos) << what;
  }
}

TEST(DeadlineValidation, EmptyLadderMakesNoClaim) {
  chain::MultiChain mc;
  chain::Blockchain& bc = mc.add_chain("apricot");
  bc.deploy<LadderContract>(std::vector<Tick>{});
  EXPECT_NO_THROW(sim::Scheduler(mc).validate_deadlines(100));
}

// ---------------------------------------------------------------------------
// Tentpole: sweep-level fault injection, attribution, and resilience
// ---------------------------------------------------------------------------

ChainEnvironment squeeze_env(const std::string& resilience = "naive") {
  return {FaultPlan::parse("banana:squeeze@4-10,cap=1,spam=2,fee=3"),
          ResiliencePolicy::parse(resilience)};
}

/// The audit's liveness violation, blamed on the chain faults: every
/// party conformed, the run did not complete, and the faultless twin did.
void expect_liveness_fault(const sim::Violation& v) {
  EXPECT_EQ(v.party, "<all>") << v.str();
  EXPECT_EQ(v.detail, "all-conforming run did not complete") << v.str();
  EXPECT_TRUE(v.fault_caused) << v.str();
  EXPECT_NE(v.str().find("[chain-fault]"), std::string::npos) << v.str();
}

TEST(FaultSweep, NaiveConformingPartyBreachesUnderSqueeze) {
  // The regression pin for the fault layer's raison d'etre: both parties
  // conform, but fee-3 spam crowds Alice's fee-0 banana traffic out of
  // cap-1 blocks until her inclusive deadline lapses — a sore-loser loss
  // with no deviator anywhere, attributed to the chain fault. The swap
  // never completes, so liveness fails too.
  const auto adapter = make_ref("two-party");
  adapter->set_environment(squeeze_env());
  sim::SweepOptions opts;
  opts.max_deviators = 0;
  const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep(opts);
  EXPECT_EQ(report.schedules_run, 1u);
  ASSERT_EQ(report.violations.size(), 2u) << report.str();
  const sim::Violation& v = report.violations.front();
  EXPECT_EQ(v.party, "alice");
  EXPECT_EQ(v.coin_delta, -2);
  EXPECT_EQ(v.required_min, 1);
  EXPECT_TRUE(v.fault_caused);
  EXPECT_EQ(report.fault_caused, 2u);
  EXPECT_NE(v.str().find("[chain-fault]"), std::string::npos) << v.str();
  expect_liveness_fault(report.violations.back());
}

TEST(FaultSweep, FeeEscalationRestoresFloorsUnderSqueeze) {
  // Same within-envelope squeeze (cap >= 1), adequate policy: escalation
  // outbids the bounded spam before any deadline lapses.
  const auto adapter = make_ref("two-party");
  ASSERT_TRUE(squeeze_env().faults.within_tolerance(adapter->delta()));
  adapter->set_environment(squeeze_env("fee-escalate"));
  sim::SweepOptions opts;
  opts.max_deviators = 0;
  const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep(opts);
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_EQ(report.fault_caused, 0u);
}

TEST(FaultSweep, FeeEscalationHoldsAcrossFullDeviationSweep) {
  // The envelope promise quantifies over deviation schedules too: with
  // faults in-envelope and an adequate policy, the full halt-only sweep
  // stays violation-free just like the reliable substrate's.
  const auto adapter = make_ref("two-party");
  adapter->set_environment(squeeze_env("fee-escalate"));
  const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.schedules_run, 16u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(FaultSweep, WithinEnvelopeOutageIsHarmlessEvenForNaiveParties) {
  // A sub-Delta outage only consumes provisioned slack: transactions park
  // one tick and land before any inclusive deadline, whatever the policy.
  for (const std::string policy : {"naive", "rebroadcast"}) {
    const auto adapter = make_ref("two-party");
    const FaultPlan plan = FaultPlan::parse("*:outage@5-5");
    ASSERT_TRUE(plan.within_tolerance(adapter->delta()));
    adapter->set_environment({plan, ResiliencePolicy::parse(policy)});
    const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep();
    EXPECT_TRUE(report.ok()) << policy << ": " << report.str();
  }
}

TEST(FaultSweep, InactiveEnvironmentIsByteIdenticalToHistoricalSweep) {
  const auto plain = make_ref("two-party");
  const sim::SweepReport before = sim::ScenarioRunner(*plain).sweep();
  const auto wired = make_ref("two-party");
  wired->set_environment(ChainEnvironment{});
  const sim::SweepReport after = sim::ScenarioRunner(*wired).sweep();
  EXPECT_EQ(before.str(), after.str());
  EXPECT_EQ(before.schedules_run, after.schedules_run);
  EXPECT_EQ(after.fault_caused, 0u);
}

TEST(FaultSweep, ActiveEnvironmentRequiresBruteReusableWorlds) {
  const auto adapter = make_ref("two-party");
  adapter->set_environment(squeeze_env());
  sim::SweepOptions tree;
  tree.executor = sim::SweepExecutor::kTree;
  EXPECT_THROW(sim::ScenarioRunner(*adapter).sweep(tree),
               std::invalid_argument);
}

TEST(FaultSweep, CloneCarriesTheEnvironment) {
  const auto adapter = make_ref("two-party");
  adapter->set_environment(squeeze_env());
  const auto clone = adapter->clone();
  EXPECT_EQ(clone->environment(), adapter->environment());
  sim::SweepOptions opts;
  opts.max_deviators = 0;
  const sim::SweepReport report = sim::ScenarioRunner(*clone).sweep(opts);
  ASSERT_EQ(report.violations.size(), 2u) << report.str();
  expect_liveness_fault(report.violations.back());
}

TEST(FaultSweep, DroppedTrafficFailsLivenessOnEveryProtocol) {
  // Every submission is dropped, so no conforming run gets anywhere: no
  // principal moves and no floor is owed, but no protocol completes. The
  // liveness check is the only one that can see it, and the faultless
  // twin (which completes) blames the drops.
  for (const std::string& name : sim::ProtocolRegistry::global().names()) {
    const auto adapter = make_ref(name);
    adapter->set_environment(
        {FaultPlan::parse("*:drop@0-1000,p=1000"),
         ResiliencePolicy::parse("naive")});
    sim::SweepOptions opts;
    opts.max_deviators = 0;
    const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep(opts);
    EXPECT_EQ(report.schedules_run, 1u) << name;
    ASSERT_EQ(report.violations.size(), 1u) << name << ": " << report.str();
    expect_liveness_fault(report.violations.front());
  }
}

TEST(FaultSweep, OutageStrandsAConformingPrincipal) {
  // An apricot outage over Bob's redemption window: Bob's banana is
  // redeemed by Alice, but his claim on the apricot escrow never lands
  // before it refunds. Both parties conform, so the asset-safety check
  // fires next to the floor breach and the liveness failure.
  const auto adapter = make_ref("two-party");
  adapter->set_environment({FaultPlan::parse("apricot:outage@4-12"),
                            ResiliencePolicy::parse("naive")});
  sim::SweepOptions opts;
  opts.max_deviators = 0;
  const sim::SweepReport report = sim::ScenarioRunner(*adapter).sweep(opts);
  ASSERT_EQ(report.violations.size(), 3u) << report.str();
  EXPECT_EQ(report.fault_caused, 3u);
  const sim::Violation& floor = report.violations[0];
  EXPECT_EQ(floor.party, "bob") << floor.str();
  EXPECT_EQ(floor.detail, "lost more than earned premiums") << floor.str();
  const sim::Violation& safety = report.violations[1];
  EXPECT_EQ(safety.party, "bob") << safety.str();
  EXPECT_EQ(safety.detail, "lost principal without the counter-asset")
      << safety.str();
  EXPECT_TRUE(safety.fault_caused);
  expect_liveness_fault(report.violations[2]);
}

// ---------------------------------------------------------------------------
// Campaign plumbing: the --faults= axis and its JSON artifact
// ---------------------------------------------------------------------------

TEST(FaultCampaign, EnvironmentRidesCampaignsAndJson) {
  sim::CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.sweep.max_deviators = 0;
  spec.environment = squeeze_env();
  const sim::CampaignReport report = sim::Campaign(spec).run();
  EXPECT_EQ(report.total_violations(), 2u);
  EXPECT_EQ(report.total_fault_caused(), 2u);
  ASSERT_EQ(report.configs.size(), 1u);
  ASSERT_EQ(report.configs[0].report.violations.size(), 2u);
  expect_liveness_fault(report.configs[0].report.violations.back());
  const std::string json = sim::campaign_json(report);
  EXPECT_NE(json.find("\"faults\": \"banana:squeeze@4-10,cap=1,spam=2,fee=3\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"resilience\": \"naive\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_caused\": 2"), std::string::npos) << json;
}

TEST(FaultCampaign, FaultFreeJsonOmitsFaultFields) {
  sim::CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.sweep.max_deviators = 0;
  const std::string json = sim::campaign_json(sim::Campaign(spec).run());
  EXPECT_EQ(json.find("fault"), std::string::npos) << json;
  EXPECT_EQ(json.find("resilience"), std::string::npos) << json;
}

}  // namespace
}  // namespace xchain
