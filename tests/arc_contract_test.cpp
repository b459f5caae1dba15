#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "contracts/arc_contract.hpp"
#include "core/premiums.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {
namespace {

using chain::Address;
using chain::MultiChain;
using chain::TxContext;
using graph::Digraph;
using graph::Path;

// Figure 3a digraph, arc (B, A) = (1, 0), single leader A = 0, p = 1.
// Schedule (Delta = 1, n = 3): phase ends at 3/6/9; hashkey_base = 9.
class ArcFixture : public ::testing::Test {
 protected:
  ArcFixture()
      : g_(Digraph::figure3a()),
        bc_(chains_.add_chain("chain-1")),
        secret_(crypto::Secret::from_label("kA")),
        keys_{crypto::keygen("party-0"), crypto::keygen("party-1"),
              crypto::keygen("party-2")} {
    MultiPartyArcContract::Params p;
    p.g = g_;
    p.diameter = g_.diameter();
    p.arc = {1, 0};  // B -> A
    p.asset_symbol = "token-1";
    p.asset_amount = 100;
    p.premium_unit = 1;
    p.escrow_premium = 5;  // E(B,A) from Equation 2
    p.hashlocks = {{0, secret_.hashlock()}};
    p.party_keys = {keys_[0].pub, keys_[1].pub, keys_[2].pub};
    p.delta = 1;
    p.redemption_premium_deadline = 6;
    p.escrow_deadline = 9;
    p.hashkey_base = 9;
    arc_ = &bc_.deploy<MultiPartyArcContract>(p);
    bc_.ledger_for_setup().mint(Address::party(1), "token-1", 100);
    bc_.ledger_for_setup().mint(Address::party(1), bc_.native(), 100);
    bc_.ledger_for_setup().mint(Address::party(0), bc_.native(), 100);
  }

  void produce_until(Tick t) {
    for (Tick now = bc_.height() + 1; now <= t; ++now) {
      chains_.produce_all(now);
    }
  }
  void submit(PartyId who, std::function<void(TxContext&)> fn, Tick t) {
    bc_.submit({who, "tx", std::move(fn)});
    produce_until(t);
  }
  Amount coins(PartyId p) {
    return bc_.ledger().balance(Address::party(p), bc_.native());
  }

  /// The redemption premium A deposits on (B, A): path (A), amount 2.
  void deposit_redemption(Tick t) {
    const Path q{0};
    const auto sig = crypto::sign_premium_path(keys_[0], 0, q);
    submit(0, [this, q, sig](TxContext& c) {
      arc_->deposit_redemption_premium(c, 0, q, sig);
    }, t);
  }

  MultiChain chains_;
  Digraph g_;
  chain::Blockchain& bc_;
  crypto::Secret secret_;
  crypto::KeyPair keys_[3];
  MultiPartyArcContract* arc_ = nullptr;
};

TEST_F(ArcFixture, RedemptionPremiumAmountDictatedByEquationOne) {
  deposit_redemption(0);
  ASSERT_TRUE(arc_->redemption_premium_deposited(0));
  // R((A), B) = 2 (premiums_test cross-checks Equation 1 directly).
  EXPECT_EQ(arc_->redemption_premium_amount(0), 2);
  EXPECT_EQ(coins(0), 98);
}

TEST_F(ArcFixture, ActivationRequiresAllPremiums) {
  EXPECT_FALSE(arc_->escrow_premium_activated());
  deposit_redemption(0);
  EXPECT_TRUE(arc_->escrow_premium_activated());  // single leader
}

TEST_F(ArcFixture, RejectsBadPath) {
  // Path must start at the recipient (A=0) and end at the leader.
  const Path q{2, 0};  // starts at C
  const auto sig = crypto::sign_premium_path(keys_[0], 0, q);
  submit(0, [this, q, sig](TxContext& c) {
    arc_->deposit_redemption_premium(c, 0, q, sig);
  }, 0);
  EXPECT_FALSE(arc_->redemption_premium_deposited(0));
}

TEST_F(ArcFixture, RejectsForgedPathSignature) {
  const Path q{0};
  const auto sig = crypto::sign_premium_path(keys_[2], 0, q);  // wrong key
  submit(0, [this, q, sig](TxContext& c) {
    arc_->deposit_redemption_premium(c, 0, q, sig);
  }, 0);
  EXPECT_FALSE(arc_->redemption_premium_deposited(0));
}

TEST_F(ArcFixture, RejectsLatePremium) {
  produce_until(6);
  deposit_redemption(7);  // deadline 6
  EXPECT_FALSE(arc_->redemption_premium_deposited(0));
}

TEST_F(ArcFixture, EscrowPremiumRefundedOnEscrow) {
  submit(1, [this](TxContext& c) { arc_->deposit_escrow_premium(c); }, 0);
  EXPECT_TRUE(arc_->escrow_premium_deposited());
  EXPECT_EQ(coins(1), 95);
  submit(1, [this](TxContext& c) { arc_->escrow_asset(c); }, 1);
  EXPECT_TRUE(arc_->escrowed());
  EXPECT_TRUE(arc_->escrow_premium_refunded());
  EXPECT_EQ(coins(1), 100);
}

TEST_F(ArcFixture, ActivatedEscrowPremiumAwardedWhenAssetMissing) {
  submit(1, [this](TxContext& c) { arc_->deposit_escrow_premium(c); }, 0);
  deposit_redemption(1);  // activates
  produce_until(10);      // escrow deadline 9; sweep at 10
  EXPECT_TRUE(arc_->escrow_premium_awarded());
  EXPECT_EQ(coins(0), 98 + 5);  // A paid 2 premium, received 5 award
}

TEST_F(ArcFixture, UnactivatedEscrowPremiumRefunded) {
  submit(1, [this](TxContext& c) { arc_->deposit_escrow_premium(c); }, 0);
  produce_until(10);  // never activated
  EXPECT_TRUE(arc_->escrow_premium_refunded());
  EXPECT_EQ(coins(1), 100);
}

TEST_F(ArcFixture, HashkeyRedeemsAssetAndRefundsPremium) {
  deposit_redemption(0);
  submit(1, [this](TxContext& c) { arc_->escrow_asset(c); }, 1);
  const auto key =
      crypto::make_leader_hashkey(secret_.value(), 0, keys_[0]);
  produce_until(9);
  submit(0, [this, key](TxContext& c) { arc_->present_hashkey(c, 0, key); },
         10);  // path length 1: deadline 9 + (2+1)*1 = 12
  EXPECT_TRUE(arc_->redeemed());
  EXPECT_TRUE(arc_->redemption_premium_refunded(0));
  EXPECT_EQ(bc_.ledger().balance(Address::party(0), "token-1"), 100);
  EXPECT_EQ(coins(0), 100);
}

TEST_F(ArcFixture, HashkeyPastPathDeadlineRejected) {
  deposit_redemption(0);
  submit(1, [this](TxContext& c) { arc_->escrow_asset(c); }, 1);
  const auto key =
      crypto::make_leader_hashkey(secret_.value(), 0, keys_[0]);
  produce_until(12);  // deadline for |q|=1 is 12 (inclusive)
  submit(0, [this, key](TxContext& c) { arc_->present_hashkey(c, 0, key); },
         13);
  EXPECT_FALSE(arc_->redeemed());
  EXPECT_FALSE(arc_->hashlock_open(0));
}

TEST_F(ArcFixture, LongerPathGetsLongerDeadline) {
  // (diam + |q|) * Delta: diam = 2, so |q|=1 -> 12, |q|=3 -> 14.
  EXPECT_EQ(arc_->path_deadline(1), 12);
  EXPECT_EQ(arc_->path_deadline(3), 14);
}

TEST_F(ArcFixture, HashkeyWithWrongPresenterRejected) {
  deposit_redemption(0);
  submit(1, [this](TxContext& c) { arc_->escrow_asset(c); }, 1);
  // A hashkey extended by C has presenter C, not this arc's recipient A.
  auto key = crypto::make_leader_hashkey(secret_.value(), 0, keys_[0]);
  key = crypto::extend_hashkey(key, 2, keys_[2]);
  produce_until(9);
  submit(2, [this, key](TxContext& c) { arc_->present_hashkey(c, 0, key); },
         10);
  EXPECT_FALSE(arc_->hashlock_open(0));
}

TEST_F(ArcFixture, UnredeemedAssetRefundsAtMaxDeadline) {
  submit(1, [this](TxContext& c) { arc_->escrow_asset(c); }, 1);
  // Max deadline: hashkey_base + (diam + n) * Delta = 9 + 5 = 14.
  produce_until(14);
  EXPECT_FALSE(arc_->refunded());
  produce_until(15);
  EXPECT_TRUE(arc_->refunded());
  EXPECT_EQ(bc_.ledger().balance(Address::party(1), "token-1"), 100);
}

TEST_F(ArcFixture, RedemptionPremiumAwardedWhenHashkeyNeverArrives) {
  deposit_redemption(0);
  // Path (A) has deadline 12; at 13 the premium goes to the arc sender B.
  produce_until(13);
  EXPECT_TRUE(arc_->redemption_premium_awarded(0));
  EXPECT_EQ(coins(1), 102);
  EXPECT_EQ(coins(0), 98);
}

}  // namespace
}  // namespace xchain::contracts
