#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "contracts/broker.hpp"
#include "core/premiums.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {
namespace {

using chain::Address;
using chain::MultiChain;
using chain::TxContext;
using graph::Digraph;
using graph::Path;
using Which = BrokerChainContract::Which;

constexpr PartyId kA = 0;  // Alice, the broker
constexpr PartyId kB = 1;  // Bob, paid on this chain's trading arc
constexpr PartyId kC = 2;  // Carol, who escrows the coins

// The coin chain of the §8 broker deal: escrow arc (C, A) funded with 101
// coins, trading arc (A, B) carrying 100 of them toward Bob. Every party
// leads (one hashlock each), p = 1, Delta = 1. Schedule: escrow premium by
// 1, trading premium by 2, redemption premiums by 2 + |q| (and 5), escrow
// by 5, trade by 6, hashkeys from 6; diam = 2, so a key with |q| hops is
// timely until 8 + |q| and unredeemed buckets refund at 12.
//
// `Base` is the instance's party_base: contract-local ids are 0..2 and
// every sender and payout is translated by it.
template <PartyId Base>
class BrokerContractFixtureT : public ::testing::Test {
 protected:
  BrokerContractFixtureT()
      : bc_(chains_.add_chain("coinchain")),
        secrets_{crypto::Secret::from_label("kA"),
                 crypto::Secret::from_label("kB"),
                 crypto::Secret::from_label("kC")},
        keys_{crypto::keygen("alice"), crypto::keygen("bob"),
              crypto::keygen("carol")} {
    g_.add_arc(kA, kB);
    g_.add_arc(kA, kC);
    g_.add_arc(kB, kA);
    g_.add_arc(kC, kA);
    BrokerChainContract::Params p;
    p.g = g_;
    p.diameter = g_.diameter();
    p.party_base = Base;
    p.escrow_arc = {kC, kA};
    p.trading_arc = {kA, kB};
    p.symbol = "coin";
    p.escrow_amount = 101;
    p.trading_amount = 100;
    p.premium_unit = 1;
    p.escrow_premium = 8;
    p.trading_premium = 4;
    for (PartyId v = 0; v < 3; ++v) {
      p.hashlocks.push_back({v, secrets_[v].hashlock()});
      p.party_keys.push_back(keys_[v].pub);
    }
    p.delta = 1;
    p.escrow_premium_deadline = 1;
    p.trading_premium_deadline = 2;
    p.premium_base = 2;
    p.redemption_premium_deadline = 5;
    p.escrow_deadline = 5;
    p.trading_deadline = 6;
    p.hashkey_base = 6;
    c_ = &bc_.deploy<BrokerChainContract>(p);
    bc_.ledger_for_setup().mint(Address::party(Base + kC), "coin", 101);
    for (PartyId v = 0; v < 3; ++v) {
      bc_.ledger_for_setup().mint(Address::party(Base + v), bc_.native(),
                                  100);
    }
  }

  void produce_until(Tick t) {
    for (Tick now = bc_.height() + 1; now <= t; ++now) {
      chains_.produce_all(now);
    }
  }
  /// `who` is contract-local; the transaction is sent from its global id.
  void submit(PartyId who, std::function<void(TxContext&)> fn, Tick t) {
    bc_.submit({Base + who, "tx", std::move(fn)});
    produce_until(t);
  }
  Amount coins(PartyId who) {
    return bc_.ledger().balance(Address::party(Base + who), bc_.native());
  }
  Amount asset(PartyId who) {
    return bc_.ledger().balance(Address::party(Base + who), "coin");
  }

  /// Equation 1's amount for a premium with path `q` on an arc from `from`.
  Amount eq1(const Path& q, PartyId from) const {
    return core::redemption_premium(g_, q, from, 1);
  }

  void deposit_redemption(Which arc, PartyId leader, const Path& q, Tick t) {
    const PartyId depositor = q.front();
    const auto sig = crypto::sign_premium_path(keys_[depositor], leader, q);
    submit(depositor, [this, arc, leader, q, sig](TxContext& c) {
      c_->deposit_redemption_premium(c, arc, leader, q, sig);
    }, t);
  }
  /// Activates the trading arc (A, B): Bob deposits every leader's
  /// premium, each on its shortest path from B and within its window.
  void activate_trading_arc() {
    deposit_redemption(Which::kTradingArc, kB, {kB}, 3);
    deposit_redemption(Which::kTradingArc, kA, {kB, kA}, 4);
    deposit_redemption(Which::kTradingArc, kC, {kB, kA, kC}, 5);
  }

  void deposit_trading_premium(Tick t) {
    submit(kA, [this](TxContext& c) { c_->deposit_trading_premium(c); }, t);
  }
  void escrow(Tick t) {
    submit(kC, [this](TxContext& c) { c_->escrow(c); }, t);
  }
  void trade(Tick t) {
    submit(kA, [this](TxContext& c) { c_->trade(c); }, t);
  }

  /// Presents every leader's hashkey on the escrow arc (C, A), each
  /// relayed to its presenter A along a shortest path.
  void open_escrow_arc(Tick t) {
    const crypto::Hashkey own =
        crypto::make_leader_hashkey(secrets_[kA].value(), kA, keys_[kA]);
    const crypto::Hashkey via_b = crypto::extend_hashkey(
        crypto::make_leader_hashkey(secrets_[kB].value(), kB, keys_[kB]), kA,
        keys_[kA]);
    const crypto::Hashkey via_c = crypto::extend_hashkey(
        crypto::make_leader_hashkey(secrets_[kC].value(), kC, keys_[kC]), kA,
        keys_[kA]);
    const crypto::Hashkey* by_leader[3] = {&own, &via_b, &via_c};
    for (PartyId leader = 0; leader < 3; ++leader) {
      const crypto::Hashkey key = *by_leader[leader];
      bc_.submit({Base + kA, "tx", [this, leader, key](TxContext& c) {
                    c_->present_hashkey(c, Which::kEscrowArc, leader, key);
                  }});
    }
    produce_until(t);
  }

  MultiChain chains_;
  Digraph g_{3};
  chain::Blockchain& bc_;
  crypto::Secret secrets_[3];
  crypto::KeyPair keys_[3];
  BrokerChainContract* c_ = nullptr;
};

using BrokerContractFixture = BrokerContractFixtureT<0>;
using BasedBrokerContractFixture = BrokerContractFixtureT<10>;

TEST_F(BrokerContractFixture, TradingPremiumRefundedOnTrade) {
  deposit_trading_premium(1);
  ASSERT_TRUE(c_->trading_premium_deposited());
  EXPECT_EQ(coins(kA), 96);
  escrow(3);
  trade(4);
  EXPECT_TRUE(c_->traded());
  EXPECT_TRUE(c_->trading_premium_refunded());
  EXPECT_FALSE(c_->trading_premium_awarded());
  EXPECT_EQ(coins(kA), 100);
  EXPECT_EQ(c_->escrow_bucket(), 1);
  EXPECT_EQ(c_->trading_bucket(), 100);
}

TEST_F(BrokerContractFixture, ActivatedTradingPremiumAwardedToYWithoutTrade) {
  deposit_trading_premium(1);
  activate_trading_arc();
  ASSERT_TRUE(c_->premium_activated(Which::kTradingArc));
  const Amount bob_paid = eq1({kB}, kA) + eq1({kB, kA}, kA) +
                          eq1({kB, kA, kC}, kA);
  EXPECT_EQ(coins(kB), 100 - bob_paid);
  produce_until(6);  // trading deadline 6 (inclusive)
  EXPECT_FALSE(c_->trading_premium_awarded());
  produce_until(7);
  EXPECT_TRUE(c_->trading_premium_awarded());
  EXPECT_FALSE(c_->trading_premium_refunded());
  EXPECT_EQ(coins(kB), 100 - bob_paid + 4);
  EXPECT_EQ(coins(kA), 96);
}

TEST_F(BrokerContractFixture, UnactivatedTradingPremiumRefunded) {
  deposit_trading_premium(1);
  deposit_redemption(Which::kTradingArc, kB, {kB}, 3);  // one of three
  EXPECT_FALSE(c_->premium_activated(Which::kTradingArc));
  produce_until(7);
  EXPECT_TRUE(c_->trading_premium_refunded());
  EXPECT_FALSE(c_->trading_premium_awarded());
  EXPECT_EQ(coins(kA), 100);
}

TEST_F(BrokerContractFixture, TradeRefusedWhileEscrowBucketUnderfunded) {
  trade(3);  // nothing escrowed yet
  EXPECT_FALSE(c_->traded());
  EXPECT_EQ(c_->trading_bucket(), 0);
  escrow(4);
  trade(5);
  EXPECT_TRUE(c_->traded());
  EXPECT_EQ(c_->escrow_bucket(), 1);
  EXPECT_EQ(c_->trading_bucket(), 100);
}

TEST_F(BrokerContractFixture, SpreadLeftInEscrowBucketRedeemsToA) {
  escrow(3);
  trade(4);
  open_escrow_arc(7);
  EXPECT_TRUE(c_->bucket_redeemed(Which::kEscrowArc));
  EXPECT_FALSE(c_->bucket_redeemed(Which::kTradingArc));
  EXPECT_EQ(c_->escrow_bucket(), 0);
  EXPECT_EQ(asset(kA), 1);
  EXPECT_EQ(c_->trading_bucket(), 100);
}

TEST_F(BrokerContractFixture, UnredeemedBucketsRefundToXAtFinalDeadline) {
  escrow(3);
  trade(4);
  EXPECT_EQ(c_->path_deadline(3), 11);
  produce_until(11);
  EXPECT_FALSE(c_->refunded());
  produce_until(12);
  EXPECT_TRUE(c_->refunded());
  EXPECT_EQ(asset(kC), 101);
  EXPECT_EQ(c_->escrow_bucket(), 0);
  EXPECT_EQ(c_->trading_bucket(), 0);
}

TEST_F(BrokerContractFixture, TradingArcPremiumAwardedToAWhenKeyNeverComes) {
  deposit_redemption(Which::kTradingArc, kB, {kB}, 3);
  ASSERT_TRUE(c_->redemption_premium_deposited(Which::kTradingArc, kB));
  const Amount r = c_->redemption_premium_amount(Which::kTradingArc, kB);
  EXPECT_EQ(r, eq1({kB}, kA));
  EXPECT_EQ(coins(kB), 100 - r);
  // Path (B) has deadline 6 + (2 + 1) = 9; the award fires at 10.
  produce_until(9);
  EXPECT_EQ(coins(kA), 100);
  produce_until(10);
  EXPECT_EQ(coins(kA), 100 + r);
  EXPECT_EQ(coins(kB), 100 - r);
}

TEST_F(BasedBrokerContractFixture, PartyBaseTranslatesSendersAndPayouts) {
  // A local id sent as a global sender is a foreign account: refused.
  bc_.submit({kC, "tx", [this](TxContext& c) { c_->escrow(c); }});
  produce_until(1);
  EXPECT_FALSE(c_->escrowed());
  deposit_redemption(Which::kTradingArc, kB, {kB}, 2);
  const Amount r = c_->redemption_premium_amount(Which::kTradingArc, kB);
  ASSERT_GT(r, 0);
  EXPECT_EQ(coins(kB), 100 - r);
  escrow(3);  // from global 10 + C
  ASSERT_TRUE(c_->escrowed());
  EXPECT_EQ(asset(kC), 0);
  produce_until(12);
  // The trading-arc premium pays global 10 + A; the bucket refunds to
  // global 10 + C.
  EXPECT_EQ(coins(kA), 100 + r);
  EXPECT_TRUE(c_->refunded());
  EXPECT_EQ(asset(kC), 101);
  EXPECT_EQ(bc_.ledger().balance(Address::party(kC), "coin"), 0);
}

}  // namespace
}  // namespace xchain::contracts
