// The interned-ID chain substrate: SymbolTable round-trips, the dense
// Ledger book preserves the map-era holdings() order, the (address, symbol)
// keying that the old XOR/shift KeyHash used to (weakly) hash stays
// collision-free by construction, and the snapshot stack — the one
// rollback primitive of a reused world — rolls balances back exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/ledger.hpp"
#include "chain/snapshot.hpp"
#include "common/symbol.hpp"
#include "sim/scheduler.hpp"

namespace xchain {
namespace {

using chain::Address;
using chain::Ledger;

TEST(SymbolTable, RoundTripAndUniqueness) {
  const SymbolId a = SymbolTable::intern("symtest-apricot");
  const SymbolId b = SymbolTable::intern("symtest-banana");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  EXPECT_EQ(SymbolTable::name(a), "symtest-apricot");
  EXPECT_EQ(SymbolTable::name(b), "symtest-banana");

  // Interning is idempotent: same name, same id, no growth.
  const std::size_t size_before = SymbolTable::size();
  EXPECT_EQ(SymbolTable::intern("symtest-apricot"), a);
  EXPECT_EQ(SymbolTable::intern("symtest-banana"), b);
  EXPECT_EQ(SymbolTable::size(), size_before);
}

TEST(SymbolTable, DefaultIdIsInvalid) {
  const SymbolId none;
  EXPECT_FALSE(none.valid());
}

TEST(SymbolTable, DistinctNamesGetDistinctDenseIds) {
  std::set<std::uint32_t> ids;
  for (int i = 0; i < 64; ++i) {
    const SymbolId id =
        SymbolTable::intern("symtest-unique-" + std::to_string(i));
    EXPECT_TRUE(id.valid());
    EXPECT_LT(id.value(), SymbolTable::size());
    ids.insert(id.value());
  }
  EXPECT_EQ(ids.size(), 64u);
}

TEST(SymbolTable, ConcurrentInterningIsConsistent) {
  // Worker threads intern chain symbols while building per-worker worlds;
  // racing interns of the same name must agree on one id.
  constexpr int kThreads = 8;
  std::vector<SymbolId> ids(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&ids, t] {
      ids[t] = SymbolTable::intern("symtest-racing");
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  EXPECT_EQ(SymbolTable::name(ids[0]), "symtest-racing");
}

// ---------------------------------------------------------------------------
// Dense ledger
// ---------------------------------------------------------------------------

TEST(DenseLedger, SymbolIdAndStringApisAgree) {
  Ledger l;
  const SymbolId apple = SymbolTable::intern("dl-apple");
  l.mint(Address::party(1), apple, 10);
  EXPECT_EQ(l.balance(Address::party(1), "dl-apple"), 10);
  EXPECT_EQ(l.balance(Address::party(1), apple), 10);
  EXPECT_TRUE(l.transfer(Address::party(1), Address::party(2), "dl-apple", 4));
  EXPECT_EQ(l.balance(Address::party(2), apple), 4);
  EXPECT_EQ(l.balance(Address::party(1), apple), 6);
}

TEST(DenseLedger, HoldingsOrderMatchesMapEraContract) {
  // holdings() must stay sorted by (kind, id, symbol name) — the exact
  // order the pre-dense map-and-sort implementation produced, which payoff
  // accounting and traces rely on. Interning order is deliberately
  // shuffled relative to name order.
  Ledger l;
  l.mint(Address::contract(0), "dl-zeta", 1);
  l.mint(Address::party(2), "dl-zeta", 2);
  l.mint(Address::party(2), "dl-alpha", 3);
  l.mint(Address::party(0), "dl-mid", 4);
  l.mint(Address::party(2), "dl-mid", 5);

  const auto h = l.holdings();
  ASSERT_EQ(h.size(), 5u);
  // Parties first (id ascending), contracts after; names ascending within.
  EXPECT_EQ(h[0], std::make_tuple(Address::party(0), std::string("dl-mid"),
                                  Amount{4}));
  EXPECT_EQ(h[1], std::make_tuple(Address::party(2), std::string("dl-alpha"),
                                  Amount{3}));
  EXPECT_EQ(h[2], std::make_tuple(Address::party(2), std::string("dl-mid"),
                                  Amount{5}));
  EXPECT_EQ(h[3], std::make_tuple(Address::party(2), std::string("dl-zeta"),
                                  Amount{2}));
  EXPECT_EQ(h[4], std::make_tuple(Address::contract(0),
                                  std::string("dl-zeta"), Amount{1}));
}

TEST(DenseLedger, KeyCollisionRegressionGrid) {
  // Regression for the deleted KeyHash: hash(who) ^ (hash(sym) << 1)
  // XOR-folded address and symbol hashes, so (party i, sym j) families
  // could collide structurally (e.g. addresses differing only in the bit
  // the shifted symbol hash cancelled). The dense book keys cells by
  // (kind, id, column) directly — a grid of near-identical keys must stay
  // perfectly separated.
  Ledger l;
  constexpr int kAddrs = 32;
  constexpr int kSyms = 8;
  for (int a = 0; a < kAddrs; ++a) {
    for (int s = 0; s < kSyms; ++s) {
      const Amount amount = a * 100 + s + 1;
      l.mint(Address::party(a), "grid-" + std::to_string(s), amount);
      l.mint(Address::contract(a), "grid-" + std::to_string(s), amount + 7);
    }
  }
  for (int a = 0; a < kAddrs; ++a) {
    for (int s = 0; s < kSyms; ++s) {
      const Amount amount = a * 100 + s + 1;
      EXPECT_EQ(l.balance(Address::party(a), "grid-" + std::to_string(s)),
                amount);
      EXPECT_EQ(l.balance(Address::contract(a), "grid-" + std::to_string(s)),
                amount + 7);
    }
  }
  EXPECT_EQ(l.holdings().size(),
            static_cast<std::size_t>(2 * kAddrs * kSyms));
}

std::uint64_t hash_of(const Ledger& l) {
  std::uint64_t h = chain::kStateHashSeed;
  l.state_hash(h);
  return h;
}

TEST(DenseLedger, CheckpointRestoreRollsBackExactly) {
  Ledger l;
  l.mint(Address::party(0), "cr-token", 100);
  l.mint(Address::party(1), "cr-coin", 50);
  l.snap_push();  // slot 0: the post-setup book
  const std::uint64_t setup_hash = hash_of(l);

  EXPECT_TRUE(l.transfer(Address::party(0), Address::party(1), "cr-token",
                         60));
  l.mint(Address::party(2), "cr-late-symbol", 9);  // row AND column growth
  EXPECT_EQ(l.balance(Address::party(0), "cr-token"), 40);
  EXPECT_EQ(l.balance(Address::party(1), "cr-token"), 60);

  l.snap_rewind(0);
  EXPECT_EQ(l.snap_depth(), 1u);
  EXPECT_EQ(l.balance(Address::party(0), "cr-token"), 100);
  EXPECT_EQ(l.balance(Address::party(1), "cr-token"), 0);
  EXPECT_EQ(l.balance(Address::party(1), "cr-coin"), 50);
  EXPECT_EQ(l.balance(Address::party(2), "cr-late-symbol"), 0);
  EXPECT_EQ(l.holdings().size(), 2u);
  EXPECT_EQ(hash_of(l), setup_hash) << "grown rows must shrink back too";

  // The rewind is repeatable (rewind-per-schedule semantics).
  EXPECT_TRUE(l.transfer(Address::party(1), Address::party(0), "cr-coin", 50));
  l.snap_rewind(0);
  EXPECT_EQ(l.balance(Address::party(1), "cr-coin"), 50);
  EXPECT_EQ(hash_of(l), setup_hash);

  // Nested depths: a rewind to slot 1 restores exactly slot 1's state, and
  // slot 0 stays reachable below it.
  EXPECT_TRUE(l.transfer(Address::party(0), Address::party(3), "cr-token",
                         10));
  l.snap_push();  // slot 1
  const std::uint64_t slot1_hash = hash_of(l);
  l.snap_push();  // slot 2
  EXPECT_TRUE(l.transfer(Address::party(3), Address::party(4), "cr-token", 4));
  l.mint(Address::party(5), "cr-coin", 1);
  EXPECT_EQ(l.snap_depth(), 3u);
  l.snap_rewind(1);
  EXPECT_EQ(l.snap_depth(), 2u);
  EXPECT_EQ(hash_of(l), slot1_hash);
  EXPECT_EQ(l.balance(Address::party(3), "cr-token"), 10);
  EXPECT_EQ(l.balance(Address::party(4), "cr-token"), 0);
  l.snap_rewind(0);
  EXPECT_EQ(hash_of(l), setup_hash);
  EXPECT_EQ(l.balance(Address::party(0), "cr-token"), 100);
}

// ---------------------------------------------------------------------------
// TraceMode
// ---------------------------------------------------------------------------

TEST(TraceMode, OffSuppressesEventsAndNotes) {
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::Blockchain& bc = chains.add_chain("traceless");
  EXPECT_FALSE(bc.tracing());

  bc.ledger_for_setup().mint(Address::party(0), "traceless-coin", 10);
  bc.submit({0, "", [](chain::TxContext& ctx) {
               EXPECT_FALSE(ctx.tracing());
               ctx.emit(0, "should_be_dropped");
               ctx.ledger().transfer(Address::party(0), Address::party(1),
                                     ctx.native_id(), 3);
             }});
  bc.produce_block(0);

  EXPECT_TRUE(bc.events().empty());
  EXPECT_EQ(bc.ledger().balance(Address::party(1), "traceless-coin"), 3);
  EXPECT_EQ(bc.applied_tx_count(), 1u);
}

TEST(TraceMode, FullKeepsEvents) {
  chain::MultiChain chains;  // default kFull
  chain::Blockchain& bc = chains.add_chain("traced");
  EXPECT_TRUE(bc.tracing());
  bc.submit({0, "note", [](chain::TxContext& ctx) {
               ctx.emit(0, "kept", "detail");
             }});
  bc.produce_block(0);
  ASSERT_EQ(bc.events().size(), 1u);
  EXPECT_EQ(bc.events()[0].kind, "kept");
}

TEST(TraceMode, SchedulerConstructorAppliesModeToAllChains) {
  chain::MultiChain chains;
  chain::Blockchain& bc = chains.add_chain("sched-trace");
  EXPECT_TRUE(bc.tracing());
  // The convenience constructor for driving existing chains traceless:
  // it switches the whole MultiChain (a deliberate, persistent side
  // effect — the mode outlives the Scheduler).
  const sim::Scheduler sched(chains, chain::TraceMode::kOff);
  EXPECT_EQ(sched.now(), 0);
  EXPECT_FALSE(bc.tracing());
  EXPECT_EQ(chains.trace(), chain::TraceMode::kOff);
  // Chains added later inherit the mode too.
  EXPECT_FALSE(chains.add_chain("sched-trace-late").tracing());
}

TEST(TraceMode, MultiChainResetClearsRunState) {
  // Rewinding a traceless world to its post-setup slot 0 clears every
  // piece of run state: balances, height, and the applied-tx count.
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::Blockchain& bc = chains.add_chain("resettable");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 100);
  chains.snap_push();

  bc.submit({0, "spend", [](chain::TxContext& ctx) {
               ctx.ledger().transfer(Address::party(0), Address::party(1),
                                     ctx.native_id(), 25);
             }});
  chains.produce_all(0);
  EXPECT_EQ(bc.ledger().balance(Address::party(1), bc.native()), 25);
  EXPECT_EQ(bc.height(), 0);
  EXPECT_EQ(bc.applied_tx_count(), 1u);

  chains.snap_rewind(0);
  EXPECT_EQ(bc.ledger().balance(Address::party(0), bc.native()), 100);
  EXPECT_EQ(bc.ledger().balance(Address::party(1), bc.native()), 0);
  EXPECT_EQ(bc.height(), -1);
  EXPECT_EQ(bc.applied_tx_count(), 0u);
  EXPECT_EQ(chains.snap_depth(), 1u);
}

TEST(TraceMode, SnapPushRefusesTracedChainsAndPendingMempools) {
  // A snapshot holds neither the event log nor the mempool, so it may
  // only be taken at a tick boundary of a traceless chain.
  chain::MultiChain traced;
  traced.add_chain("snap-traced");
  EXPECT_THROW(traced.snap_push(), std::logic_error);

  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::Blockchain& bc = chains.add_chain("snap-pending");
  bc.submit({0, "", [](chain::TxContext&) {}});
  EXPECT_THROW(chains.snap_push(), std::logic_error);
  chains.produce_all(0);  // block production drains the mempool
  EXPECT_NO_THROW(chains.snap_push());
}

}  // namespace
}  // namespace xchain
