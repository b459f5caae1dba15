#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "chain/snapshot.hpp"

namespace xchain::chain {
namespace {

TEST(Ledger, MintAndBalance) {
  Ledger l;
  const Address a = Address::party(0);
  EXPECT_EQ(l.balance(a, "apricot"), 0);
  l.mint(a, "apricot", 50);
  EXPECT_EQ(l.balance(a, "apricot"), 50);
  l.mint(a, "apricot", 25);
  EXPECT_EQ(l.balance(a, "apricot"), 75);
}

TEST(Ledger, TransferMovesFunds) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 10);
  EXPECT_TRUE(l.transfer(a, b, "x", 4));
  EXPECT_EQ(l.balance(a, "x"), 6);
  EXPECT_EQ(l.balance(b, "x"), 4);
}

TEST(Ledger, TransferRejectsInsufficient) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 3);
  EXPECT_FALSE(l.transfer(a, b, "x", 4));
  EXPECT_EQ(l.balance(a, "x"), 3);
  EXPECT_EQ(l.balance(b, "x"), 0);
}

TEST(Ledger, TransferRejectsNegative) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 3);
  EXPECT_FALSE(l.transfer(a, b, "x", -1));
}

TEST(Ledger, ZeroTransferIsNoopSuccess) {
  Ledger l;
  EXPECT_TRUE(l.transfer(Address::party(0), Address::party(1), "x", 0));
}

TEST(Ledger, DistinctSymbolsIndependent) {
  Ledger l;
  const Address a = Address::party(0);
  l.mint(a, "x", 5);
  EXPECT_EQ(l.balance(a, "y"), 0);
}

TEST(Ledger, HoldingsSortedAndNonzero) {
  Ledger l;
  l.mint(Address::party(1), "b", 2);
  l.mint(Address::party(0), "a", 1);
  l.mint(Address::contract(0), "c", 3);
  l.mint(Address::party(1), "z", 4);
  l.transfer(Address::party(1), Address::party(0), "z", 4);  // drains to 0
  const auto h = l.holdings();
  ASSERT_EQ(h.size(), 4u);  // the zero balance entry is dropped
  EXPECT_EQ(std::get<0>(h[0]), Address::party(0));
}

TEST(Address, Identity) {
  EXPECT_EQ(Address::party(3), Address::party(3));
  EXPECT_NE(Address::party(3), Address::contract(3));
  EXPECT_EQ(Address::party(3).str(), "party:3");
  EXPECT_EQ(Address::contract(7).str(), "contract:7");
}

// A trivial contract for framework tests: accepts deposits and counts
// the blocks in which its deadlines expire. Its sweep obeys the on_block
// rule — it acts only in the first block past one of its deadlines, once
// however many came due — and logs that block's height in `fired`.
class CounterContract : public SnapshotState<CounterContract> {
 public:
  explicit CounterContract(std::vector<Tick> deadlines = {})
      : deadlines_(std::move(deadlines)) {}

  void deposit(TxContext& ctx, Amount amt) {
    if (ctx.ledger().transfer(Address::party(ctx.sender()), address(),
                              ctx.native(), amt)) {
      ctx.emit(id(), "deposit", std::to_string(amt));
      order.push_back(ctx.sender());
    }
  }
  void on_block(TxContext& ctx) override {
    const std::size_t passed = passed_;
    while (passed_ < deadlines_.size() && ctx.now() > deadlines_[passed_]) {
      ++passed_;
    }
    if (passed_ == passed) return;
    fired.push_back(ctx.now());
    ctx.emit(id(), "expired");
  }
  std::vector<Tick> timeouts() const override { return deadlines_; }

  std::vector<PartyId> order;
  std::vector<Tick> fired;

 private:
  std::vector<Tick> deadlines_;  ///< ascending
  std::size_t passed_ = 0;       ///< deadlines_[0, passed_) have expired

  auto state_tie() { return std::tie(order, fired, passed_); }
  friend SnapshotState<CounterContract>;
};

// Under-declares: its sweep acts past tick 2, but timeouts() names none.
class UndeclaredContract : public SnapshotState<UndeclaredContract> {
 public:
  void on_block(TxContext& ctx) override {
    if (ctx.now() > 2) expired_ = true;
  }

 private:
  bool expired_ = false;

  auto state_tie() { return std::tie(expired_); }
  friend SnapshotState<UndeclaredContract>;
};

// Appends its id to a shared log in the first block past its deadline, so
// the log outlives the contract: a retired one must never write to it.
class LoggedTimeout : public SnapshotState<LoggedTimeout> {
 public:
  LoggedTimeout(Tick deadline, std::vector<ContractId>& log)
      : deadline_(deadline), log_(&log) {}

  void on_block(TxContext& ctx) override {
    if (fired_ || ctx.now() <= deadline_) return;
    fired_ = true;
    log_->push_back(id());
  }
  std::vector<Tick> timeouts() const override { return {deadline_}; }

 private:
  Tick deadline_;
  std::vector<ContractId>* log_;
  bool fired_ = false;

  auto state_tie() { return std::tie(fired_); }
  friend SnapshotState<LoggedTimeout>;
};

void produce_through(MultiChain& chains, Tick from, Tick to) {
  for (Tick t = from; t <= to; ++t) chains.produce_all(t);
}

TEST(Blockchain, TxAppliedAtBlockProduction) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();

  bc.submit({0, "deposit", [&](TxContext& ctx) { c.deposit(ctx, 5); }});
  // Nothing moves until the block is produced.
  EXPECT_EQ(bc.ledger().balance(c.address(), bc.native()), 0);
  chains.produce_all(0);
  EXPECT_EQ(bc.ledger().balance(c.address(), bc.native()), 5);
  EXPECT_EQ(bc.height(), 0);
  EXPECT_EQ(bc.applied_tx_count(), 1u);
}

TEST(Blockchain, TxOrderPreserved) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  bc.ledger_for_setup().mint(Address::party(1), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();
  bc.submit({1, "p1", [&](TxContext& ctx) { c.deposit(ctx, 1); }});
  bc.submit({0, "p0", [&](TxContext& ctx) { c.deposit(ctx, 1); }});
  chains.produce_all(0);
  EXPECT_EQ(c.order, (std::vector<PartyId>{1, 0}));
}

TEST(Blockchain, TimeoutFiresInFirstBlockPastIt) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  auto& c = bc.deploy<CounterContract>(std::vector<Tick>{2, 5});
  produce_through(chains, 0, 2);
  EXPECT_TRUE(c.fired.empty()) << "a deadline is inclusive: block 2 is timely";
  chains.produce_all(3);
  EXPECT_EQ(c.fired, (std::vector<Tick>{3}));
  produce_through(chains, 4, 9);
  EXPECT_EQ(c.fired, (std::vector<Tick>{3, 6}));
  EXPECT_EQ(bc.height(), 9);
}

TEST(Blockchain, OutageOverTwoTimeoutsFiresOnce) {
  // The outage freezes the height at 1, so the first block after it covers
  // both deadlines and the contract runs once for the pair.
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.set_faults(FaultPlan::parse("test:outage@2-6").for_chain("test"));
  auto& c = bc.deploy<CounterContract>(std::vector<Tick>{2, 4});
  produce_through(chains, 0, 6);
  EXPECT_TRUE(c.fired.empty());
  EXPECT_EQ(bc.height(), 1);
  produce_through(chains, 7, 9);
  EXPECT_EQ(c.fired, (std::vector<Tick>{7}));
  ASSERT_EQ(bc.events().size(), 1u);
}

TEST(Blockchain, DueContractsRunInIdOrder) {
  // The wake ticks sort as contract 1 (3), 2 (4), 0 (5); one block after
  // an outage makes all three due, and they run in id order, each once.
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.set_faults(FaultPlan::parse("test:outage@3-5").for_chain("test"));
  bc.deploy<CounterContract>(std::vector<Tick>{4});
  bc.deploy<CounterContract>(std::vector<Tick>{2, 3});
  bc.deploy<CounterContract>(std::vector<Tick>{3});
  produce_through(chains, 0, 6);
  ASSERT_EQ(bc.events().size(), 3u);
  for (ContractId i = 0; i < 3; ++i) {
    EXPECT_EQ(bc.events()[i].contract, i);
    EXPECT_EQ(bc.events()[i].tick, 6);
  }
}

TEST(Blockchain, MidDepthRewindFiresLaterTimeoutAgain) {
  MultiChain chains;
  chains.set_trace(TraceMode::kOff);
  Blockchain& bc = chains.add_chain("test");
  auto& c = bc.deploy<CounterContract>(std::vector<Tick>{1, 4});
  chains.snap_push();  // slot 0: height -1
  produce_through(chains, 0, 2);
  chains.snap_push();  // slot 1: height 2, the first timeout fired
  produce_through(chains, 3, 6);
  EXPECT_EQ(c.fired, (std::vector<Tick>{2, 5}));

  chains.snap_rewind(1);
  EXPECT_EQ(c.fired, (std::vector<Tick>{2}));
  produce_through(chains, 3, 6);
  EXPECT_EQ(c.fired, (std::vector<Tick>{2, 5})) << "fires again";

  chains.snap_rewind(0);
  EXPECT_TRUE(c.fired.empty());
  produce_through(chains, 0, 6);
  EXPECT_EQ(c.fired, (std::vector<Tick>{2, 5}));
}

TEST(Blockchain, ContractDeployedMidRunFires) {
  // A load instance deploys on a chain that is already producing. A
  // deadline already past at deploy fires in the next block.
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  produce_through(chains, 0, 3);
  auto& later = bc.deploy<CounterContract>(std::vector<Tick>{6});
  auto& past = bc.deploy<CounterContract>(std::vector<Tick>{1});
  produce_through(chains, 4, 9);
  EXPECT_EQ(later.fired, (std::vector<Tick>{7}));
  EXPECT_EQ(past.fired, (std::vector<Tick>{4}));
}

TEST(Blockchain, ProduceBlockMustAdvanceHeight) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  chains.produce_all(0);
  chains.produce_all(2);
  EXPECT_THROW(bc.produce_block(2), std::logic_error);
  EXPECT_THROW(bc.produce_block(1), std::logic_error);
  EXPECT_NO_THROW(bc.produce_block(3));
}

TEST(Blockchain, DebugSweepCatchesUndeclaredTimeout) {
#ifdef NDEBUG
  GTEST_SKIP() << "the skipped-call cross-check runs in debug builds only";
#else
  MultiChain chains;
  Blockchain& bc = chains.add_chain("witness");
  bc.deploy<CounterContract>(std::vector<Tick>{1});
  bc.deploy<UndeclaredContract>();
  produce_through(chains, 0, 2);
  try {
    chains.produce_all(3);
    FAIL() << "a state change the index skipped must throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contract 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'witness'"), std::string::npos) << what;
    EXPECT_NE(what.find("block 3"), std::string::npos) << what;
  }
#endif
}

TEST(BlockchainRetire, RetiredTimeoutNeverRunsAndEscrowStays) {
  // Three contracts wake in block 4. Contract 0 is retired first: its
  // timeout never runs and its escrow row keeps its balance, while the
  // two deployed after it still fire, in id order.
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  std::vector<ContractId> log;
  bc.deploy<LoggedTimeout>(3, log);
  bc.deploy<LoggedTimeout>(3, log);
  bc.deploy<LoggedTimeout>(3, log);
  const Address escrow = Address::contract(0);
  bc.ledger_for_setup().mint(escrow, bc.native(), 4);
  produce_through(chains, 0, 1);

  bc.retire(0, 1);
  EXPECT_EQ(bc.contract_count(), 3u) << "retired slots keep their ids";
  EXPECT_THROW(bc.contract_at(0), std::logic_error);
  EXPECT_EQ(bc.contract_at(1).id(), 1u);
  produce_through(chains, 2, 6);
  EXPECT_EQ(log, (std::vector<ContractId>{1, 2}));
  EXPECT_EQ(bc.ledger().balance(escrow, bc.native()), 4);

  bc.retire(1, 3);
  EXPECT_THROW(bc.contract_at(2), std::logic_error);
  EXPECT_THROW(bc.contract_at(3), std::out_of_range);
  EXPECT_THROW(bc.retire(2, 4), std::out_of_range);
  EXPECT_THROW(bc.retire(2, 1), std::out_of_range);
  produce_through(chains, 7, 9);
  EXPECT_EQ(log, (std::vector<ContractId>{1, 2}));
}

TEST(BlockchainRetire, RetirementAndSnapshotsExcludeEachOther) {
  MultiChain stacked;
  stacked.set_trace(TraceMode::kOff);
  Blockchain& a = stacked.add_chain("test");
  a.deploy<CounterContract>();
  stacked.snap_push();
  EXPECT_THROW(a.retire(0, 1), std::logic_error);
  EXPECT_EQ(a.contract_at(0).id(), 0u) << "a refused retire frees nothing";

  MultiChain retired;
  retired.set_trace(TraceMode::kOff);
  Blockchain& b = retired.add_chain("test");
  b.deploy<CounterContract>();
  b.deploy<CounterContract>();
  b.retire(0, 1);
  EXPECT_THROW(retired.snap_push(), std::logic_error);
  EXPECT_EQ(b.snap_depth(), 0u);
  EXPECT_THROW(retired.state_hash(), std::logic_error);
}

TEST(BlockchainRetire, PendingTransactionsByAccountRange) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.submit({4, "p4", [](TxContext&) {}});
  EXPECT_TRUE(bc.has_pending(4, 6));
  EXPECT_TRUE(bc.has_pending(0, 5));
  EXPECT_FALSE(bc.has_pending(0, 4));
  EXPECT_FALSE(bc.has_pending(5, 9));
  chains.produce_all(0);
  EXPECT_FALSE(bc.has_pending(4, 6));
}

TEST(BlockchainRetire, DebugSweepSkipsRetiredSlots) {
#ifdef NDEBUG
  GTEST_SKIP() << "the skipped-call cross-check runs in debug builds only";
#else
  // The same pair DebugSweepCatchesUndeclaredTimeout throws on, with the
  // under-declaring contract retired: the cross-check must not visit it.
  MultiChain chains;
  Blockchain& bc = chains.add_chain("witness");
  bc.deploy<CounterContract>(std::vector<Tick>{1});
  bc.deploy<UndeclaredContract>();
  bc.retire(1, 2);
  EXPECT_NO_THROW(produce_through(chains, 0, 5));
#endif
}

TEST(Blockchain, EventsRecorded) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();
  bc.submit({0, "d", [&](TxContext& ctx) { c.deposit(ctx, 2); }});
  chains.produce_all(0);
  ASSERT_EQ(bc.events().size(), 1u);
  EXPECT_EQ(bc.events()[0].kind, "deposit");
  EXPECT_EQ(bc.events()[0].tick, 0);
  EXPECT_FALSE(bc.events()[0].str().empty());
}

TEST(MultiChain, ChainsAreIndependent) {
  MultiChain chains;
  Blockchain& a = chains.add_chain("alpha");
  Blockchain& b = chains.add_chain("beta");
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), 1u);
  EXPECT_EQ(a.native(), "alpha-coin");
  EXPECT_EQ(b.native(), "beta-coin");
  a.ledger_for_setup().mint(Address::party(0), "alpha-coin", 5);
  EXPECT_EQ(b.ledger().balance(Address::party(0), "alpha-coin"), 0);
}

TEST(MultiChain, AllEventsMergedSorted) {
  MultiChain chains;
  Blockchain& a = chains.add_chain("alpha");
  Blockchain& b = chains.add_chain("beta");
  auto& ca = a.deploy<CounterContract>();
  auto& cb = b.deploy<CounterContract>();
  a.ledger_for_setup().mint(Address::party(0), a.native(), 10);
  b.ledger_for_setup().mint(Address::party(0), b.native(), 10);
  chains.produce_all(0);
  b.submit({0, "d", [&](TxContext& ctx) { cb.deposit(ctx, 1); }});
  chains.produce_all(1);
  a.submit({0, "d", [&](TxContext& ctx) { ca.deposit(ctx, 1); }});
  chains.produce_all(2);
  const auto events = chains.all_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tick, 1);
  EXPECT_EQ(events[0].chain, 1u);
  EXPECT_EQ(events[1].tick, 2);
  EXPECT_EQ(events[1].chain, 0u);
}

}  // namespace
}  // namespace xchain::chain
