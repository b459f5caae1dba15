#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::sim {
namespace {

using chain::MultiChain;
using chain::TxContext;

/// Writes one marker transaction on `src` at tick 0, then relays it to
/// `dst` one tick after observing it land — the minimal cross-chain data
/// flow parties perform in every protocol.
class RelayParty : public Party {
 public:
  RelayParty(PartyId id, ChainId src, ChainId dst)
      : Party(id, "relay-" + std::to_string(id)), src_(src), dst_(dst) {}

  void step(MultiChain& chains, Tick now) override {
    if (now == 0) {
      chains.at(src_).submit({id(), "mark", [this](TxContext& ctx) {
                                ctx.ledger().mint(address(), "mark", 1);
                              }});
    }
    // Observe the source chain; relay once the marker is visible.
    if (!relayed_ &&
        chains.at(src_).ledger().balance(address(), "mark") > 0) {
      relay_tick = now;
      relayed_ = true;
      chains.at(dst_).submit({id(), "relay", [this](TxContext& ctx) {
                                ctx.ledger().mint(address(), "relayed", 1);
                              }});
    }
    if (dst_seen_tick < 0 &&
        chains.at(dst_).ledger().balance(address(), "relayed") > 0) {
      dst_seen_tick = now;
    }
  }

  Tick relay_tick = -1;     ///< tick the marker became observable on src
  Tick dst_seen_tick = -1;  ///< tick the relay became observable on dst

 private:
  ChainId src_, dst_;
  bool relayed_ = false;
};

// Delta >= 1 propagation: state committed in block t is invisible during
// tick t and observable from tick t+1 — on the same chain and, via a party
// relay, on another chain one further tick later.
TEST(SchedulerPropagation, CrossChainDataTakesOneTickPerHop) {
  MultiChain chains;
  chains.add_chain("src");
  chains.add_chain("dst");
  RelayParty p(0, 0, 1);
  Scheduler sched(chains);
  sched.add_party(p);
  sched.run_until(5);

  // Submitted at tick 0 -> lands in block 0 -> observed at tick 1.
  EXPECT_EQ(p.relay_tick, 1);
  // Relayed at tick 1 -> lands in dst block 1 -> observed at tick 2.
  EXPECT_EQ(p.dst_seen_tick, 2);
}

TEST(SchedulerPropagation, NothingIsObservableWithinTheSubmittingTick) {
  MultiChain chains;
  auto& bc = chains.add_chain("only");

  class SameTickProbe : public Party {
   public:
    using Party::Party;
    void step(MultiChain& chains, Tick now) override {
      if (now == 0) {
        chains.at(0).submit({id(), "mint", [this](TxContext& ctx) {
                               ctx.ledger().mint(address(), "x", 7);
                             }});
        // The ledger must not reflect the queued transaction yet.
        balance_during_submit = chains.at(0).ledger().balance(address(), "x");
      }
    }
    Amount balance_during_submit = -1;
  };

  SameTickProbe p(0, "probe");
  Scheduler sched(chains);
  sched.add_party(p);
  sched.run_until(1);
  EXPECT_EQ(p.balance_during_submit, 0);
  EXPECT_EQ(bc.ledger().balance(p.address(), "x"), 7);
}

// Same-tick submission ordering irrelevance: submissions from different
// parties in one tick land in the same block, so the parties' step order
// must not change any observable outcome. Two parties race to transfer the
// same escrowed funds; we run both registration orders and require
// identical final state.
class RacingParty : public Party {
 public:
  RacingParty(PartyId id, std::string name) : Party(id, std::move(name)) {}

  void step(MultiChain& chains, Tick now) override {
    if (now != 1) return;  // tick 0 funds; tick 1 both parties race
    chains.at(0).submit({id(), name() + ": grab", [this](TxContext& ctx) {
                           // First transaction in the block wins the pot;
                           // the second sees an empty pot and no-ops.
                           const Amount pot = ctx.ledger().balance(
                               chain::Address::contract(99), "pot");
                           if (pot > 0) {
                             ctx.ledger().transfer(
                                 chain::Address::contract(99), address(),
                                 "pot", pot);
                           }
                         }});
  }
};

TEST(SchedulerOrdering, RegistrationOrderDoesNotChangeBlockContents) {
  // Both orders: the same single block 1 contains both transactions, and
  // exactly one grab succeeds. Which party wins is decided by submission
  // order *within the block* — a chain-level rule — but the block contents
  // and total conservation are identical, and no submission is ever lost.
  for (bool reversed : {false, true}) {
    MultiChain chains;
    auto& bc = chains.add_chain("apricot");
    bc.ledger_for_setup().mint(chain::Address::contract(99), "pot", 10);

    RacingParty a(0, "a"), b(1, "b");
    Scheduler sched(chains);
    if (reversed) {
      sched.add_party(b);
      sched.add_party(a);
    } else {
      sched.add_party(a);
      sched.add_party(b);
    }
    sched.run_until(3);

    const Amount a_won = bc.ledger().balance(a.address(), "pot");
    const Amount b_won = bc.ledger().balance(b.address(), "pot");
    EXPECT_EQ(a_won + b_won, 10) << "pot conserved, reversed=" << reversed;
    EXPECT_EQ(bc.ledger().balance(chain::Address::contract(99), "pot"), 0);
    EXPECT_EQ(bc.applied_tx_count(), 2u) << "no submission dropped";
  }
}

// The protocol engines never rely on intra-block priority: a conforming
// party acting at its deadline tick always has its transaction included in
// that tick's block, whatever other parties submit in the same tick. This
// pins the "order within a tick never matters" contract the engines and
// the scenario sweep assume.
TEST(SchedulerOrdering, AllSameTickSubmissionsShareOneBlock) {
  MultiChain chains;
  auto& bc = chains.add_chain("only");

  class OneShot : public Party {
   public:
    using Party::Party;
    void step(MultiChain& chains, Tick now) override {
      if (now == 0) {
        chains.at(0).submit({id(), "mint", [this](TxContext& ctx) {
                               ctx.ledger().mint(address(), "t", 1);
                             }});
      }
    }
  };

  OneShot p0(0, "p0"), p1(1, "p1"), p2(2, "p2");
  Scheduler sched(chains);
  sched.add_party(p2);  // deliberately scrambled registration order
  sched.add_party(p0);
  sched.add_party(p1);
  sched.run_until(1);

  EXPECT_EQ(bc.height(), 0);  // a single block was produced...
  EXPECT_EQ(bc.applied_tx_count(), 3u);  // ...containing all three
  for (const auto* p : {&p0, &p1, &p2}) {
    EXPECT_EQ(bc.ledger().balance(p->address(), "t"), 1);
  }
}

TEST(SchedulerPropagation, DeltaTimeoutsFireExactlyAtExpiry) {
  // A contract with a deadline at tick D refunds in block D's timeout
  // sweep, not a tick earlier or later — the engines' timelock arithmetic
  // (multiples of Delta) depends on this.
  MultiChain chains;
  auto& bc = chains.add_chain("only");

  class DeadlineContract : public chain::Contract {
   public:
    explicit DeadlineContract(Tick deadline) : deadline_(deadline) {}
    void on_block(TxContext& ctx) override {
      if (fired_at < 0 && ctx.now() >= deadline_) {
        fired_at = ctx.now();
        ctx.emit(id(), "expired");
      }
    }
    // Block D is the first one past D - 1.
    std::vector<Tick> timeouts() const override { return {deadline_ - 1}; }
    Tick fired_at = -1;

   private:
    Tick deadline_;
  };

  auto& contract = bc.deploy<DeadlineContract>(3);
  Scheduler sched(chains);
  sched.run_until(6);
  EXPECT_EQ(contract.fired_at, 3);
}

}  // namespace
}  // namespace xchain::sim
