#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "contracts/ladder.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {
namespace {

using chain::Address;
using chain::MultiChain;
using chain::TxContext;
using RS = LadderContract::RungState;

constexpr PartyId kAlice = 0;
constexpr PartyId kBob = 1;

// A 2-round apricot-side ladder (Figure 2): rung 0 = Alice's principal
// 10000 apricot, rung 1 = Bob's premium 100, rung 2 = Alice's premium 1.
// Deadlines (Delta = 2): rung 2 at 4, rung 1 at 8, rung 0 at 10;
// redemption at 16.
class LadderFixture : public ::testing::Test {
 protected:
  LadderFixture()
      : bc_(chains_.add_chain("apricot")),
        secret_(crypto::Secret::from_label("s")),
        ladder_(bc_.deploy<LadderContract>(LadderContract::Params{
            {{kAlice, 10'000, 10, {}, false},
             {kBob, 100, 8, {}, false},
             // A^(2): released by the principal, forfeited on its default.
             {kAlice, 1, 4, /*released_by=*/std::size_t{0},
              /*guards_principal=*/true}},
            kBob,
            "apricot",
            secret_.hashlock(),
            16})) {
    bc_.ledger_for_setup().mint(Address::party(kAlice), "apricot", 10'000);
    bc_.ledger_for_setup().mint(Address::party(kAlice), bc_.native(), 1);
    bc_.ledger_for_setup().mint(Address::party(kBob), bc_.native(), 100);
  }

  void deposit(PartyId who, std::size_t rung, Tick t) {
    bc_.submit({who, "deposit",
                [this, rung](TxContext& c) { ladder_.deposit(c, rung); }});
    produce_until(t);
  }
  void redeem(PartyId who, Tick t, const crypto::Bytes& preimage) {
    bc_.submit({who, "redeem", [this, preimage](TxContext& c) {
                  ladder_.redeem(c, preimage);
                }});
    produce_until(t);
  }
  void produce_until(Tick t) {
    for (Tick now = bc_.height() + 1; now <= t; ++now) {
      chains_.produce_all(now);
    }
  }
  Amount coins(PartyId p) {
    return bc_.ledger().balance(Address::party(p), bc_.native());
  }
  Amount tokens(PartyId p) {
    return bc_.ledger().balance(Address::party(p), "apricot");
  }

  MultiChain chains_;
  chain::Blockchain& bc_;
  crypto::Secret secret_;
  LadderContract& ladder_;
};

TEST_F(LadderFixture, HappyPathDepositsGuardReleaseAndRedeem) {
  deposit(kAlice, 2, 0);
  EXPECT_EQ(ladder_.rung_state(2), RS::kHeld);
  deposit(kBob, 1, 1);
  EXPECT_EQ(ladder_.rung_state(1), RS::kHeld);
  // Depositing rung 0 releases its guard, rung 2.
  deposit(kAlice, 0, 2);
  EXPECT_EQ(ladder_.rung_state(0), RS::kHeld);
  EXPECT_EQ(ladder_.rung_state(2), RS::kRefunded);
  EXPECT_EQ(coins(kAlice), 1);
  // Redemption pays Bob and refunds his premium (rung 1).
  redeem(kBob, 3, secret_.value());
  EXPECT_TRUE(ladder_.principal_redeemed());
  EXPECT_EQ(ladder_.rung_state(1), RS::kRefunded);
  EXPECT_EQ(tokens(kBob), 10'000);
  EXPECT_EQ(coins(kBob), 100);
  EXPECT_FALSE(ladder_.dead());
}

TEST_F(LadderFixture, OutOfOrderDepositRejected) {
  deposit(kBob, 1, 0);  // rung 2 not yet deposited
  EXPECT_EQ(ladder_.rung_state(1), RS::kEmpty);
  EXPECT_EQ(coins(kBob), 100);
}

TEST_F(LadderFixture, WrongDepositorRejected) {
  bc_.submit({kBob, "deposit",
              [this](TxContext& c) { ladder_.deposit(c, 2); }});
  chains_.produce_all(0);
  EXPECT_EQ(ladder_.rung_state(2), RS::kEmpty);
}

TEST_F(LadderFixture, MissedFirstRungKillsQuietly) {
  // Nobody deposits rung 2: at its deadline the ladder dies with nothing
  // held and nothing forfeited (the unprotected step).
  produce_until(5);
  EXPECT_TRUE(ladder_.dead());
  EXPECT_EQ(coins(kAlice), 1);
  EXPECT_EQ(coins(kBob), 100);
}

TEST_F(LadderFixture, MissedMiddleRungRefundsHeld) {
  deposit(kAlice, 2, 0);
  // Bob never deposits rung 1 (deadline 8): guard of rung 1 would be rung
  // 3 (absent), so Alice's rung 2 is simply refunded.
  produce_until(9);
  EXPECT_TRUE(ladder_.dead());
  EXPECT_EQ(ladder_.rung_state(2), RS::kRefunded);
  EXPECT_EQ(coins(kAlice), 1);
}

TEST_F(LadderFixture, MissedPrincipalForfeitsGuardToCounterparty) {
  deposit(kAlice, 2, 0);
  deposit(kBob, 1, 1);
  // Alice never escrows the principal (deadline 10): her guard (rung 2) is
  // forfeited to Bob — "If Alice does not deposit her principal, Bob
  // receives A^(2) as compensation for locking up A^(1)" — and Bob's rung
  // 1 is refunded.
  produce_until(11);
  EXPECT_TRUE(ladder_.dead());
  EXPECT_EQ(ladder_.rung_state(2), RS::kForfeited);
  EXPECT_EQ(ladder_.rung_state(1), RS::kRefunded);
  EXPECT_EQ(coins(kBob), 101);  // his 100 back plus Alice's 1
  EXPECT_EQ(coins(kAlice), 0);
}

TEST_F(LadderFixture, UnredeemedPrincipalAwardsRungOneToOwner) {
  deposit(kAlice, 2, 0);
  deposit(kBob, 1, 1);
  deposit(kAlice, 0, 2);
  // Nobody redeems: at the redemption deadline the principal refunds to
  // Alice and Bob's premium (rung 1) is awarded to her.
  produce_until(17);
  EXPECT_EQ(ladder_.rung_state(0), RS::kRefunded);
  EXPECT_EQ(ladder_.rung_state(1), RS::kForfeited);
  EXPECT_EQ(tokens(kAlice), 10'000);
  // Her guard (rung 2, 1 coin) was refunded when she escrowed the
  // principal; Bob's rung 1 (100) is awarded on top: 101 total.
  EXPECT_EQ(coins(kAlice), 101);
  EXPECT_EQ(coins(kBob), 0);
}

TEST_F(LadderFixture, LateRedeemRejected) {
  deposit(kAlice, 2, 0);
  deposit(kBob, 1, 1);
  deposit(kAlice, 0, 2);
  produce_until(16);
  redeem(kBob, 17, secret_.value());
  EXPECT_FALSE(ladder_.principal_redeemed());
  EXPECT_EQ(ladder_.rung_state(0), RS::kRefunded);
}

TEST_F(LadderFixture, WrongPreimageRejected) {
  deposit(kAlice, 2, 0);
  deposit(kBob, 1, 1);
  deposit(kAlice, 0, 2);
  redeem(kBob, 3, crypto::Secret::from_label("wrong").value());
  EXPECT_FALSE(ladder_.principal_redeemed());
}

TEST_F(LadderFixture, LateDepositRejected) {
  produce_until(4);  // rung 2 deadline is 4
  deposit(kAlice, 2, 5);
  EXPECT_EQ(ladder_.rung_state(2), RS::kEmpty);
  EXPECT_TRUE(ladder_.dead());
}

TEST_F(LadderFixture, DepositAfterDeathRejected) {
  produce_until(5);  // ladder dead (rung 2 missed)
  ASSERT_TRUE(ladder_.dead());
  deposit(kAlice, 2, 6);
  EXPECT_EQ(ladder_.rung_state(2), RS::kEmpty);
}

TEST(LadderContractValidation, RejectsEmptyAndBadDeadlines) {
  EXPECT_THROW(LadderContract(LadderContract::Params{
                   {}, kBob, "x", crypto::Digest{}, 10}),
               std::invalid_argument);
  // Deadlines must strictly decrease with rung index.
  EXPECT_THROW(LadderContract(LadderContract::Params{
                   {{kAlice, 10, 4, {}, false}, {kBob, 1, 8, {}, false}},
                   kBob,
                   "x",
                   crypto::Digest{},
                   10}),
               std::invalid_argument);
}

// The one-rung ladder is the §5.2 hedged contract (the apricot side of
// Figure 1, Delta = 2): rung 1 is Bob's premium 5 (deadline 4), rung 0
// Alice's principal 100 apricot (deadline 6), redemption at 12.
// HedgedFixture checks that contract's rules on it, one case each.
struct OneRungSwap {
  OneRungSwap()
      : bc(chains.add_chain("apricot")),
        secret(crypto::Secret::from_label("s")),
        ladder(bc.deploy<LadderContract>(LadderContract::Params{
            {{kAlice, 100, 6, {}, false}, {kBob, 5, 4, {}, false}},
            kBob,
            "apricot",
            secret.hashlock(),
            12})) {
    bc.ledger_for_setup().mint(Address::party(kAlice), "apricot", 100);
    bc.ledger_for_setup().mint(Address::party(kBob), bc.native(), 5);
  }

  void submit_premium(Tick t, PartyId who = kBob) {
    bc.submit({who, "premium", [this](TxContext& c) { ladder.deposit(c, 1); }});
    idle_until(t);
  }
  void submit_escrow(Tick t, PartyId who = kAlice) {
    bc.submit({who, "escrow", [this](TxContext& c) { ladder.deposit(c, 0); }});
    idle_until(t);
  }
  void submit_redeem(Tick t) {
    bc.submit({kBob, "redeem", [this](TxContext& c) {
                 ladder.redeem(c, secret.value());
               }});
    idle_until(t);
  }
  void idle_until(Tick t) {
    for (Tick now = bc.height() + 1; now <= t; ++now) chains.produce_all(now);
  }

  Amount coins(PartyId p) {
    return bc.ledger().balance(Address::party(p), bc.native());
  }
  Amount tokens(PartyId p) {
    return bc.ledger().balance(Address::party(p), "apricot");
  }

  MultiChain chains;
  chain::Blockchain& bc;
  crypto::Secret secret;
  LadderContract& ladder;
};

class HedgedFixture : public ::testing::Test, protected OneRungSwap {};

TEST_F(HedgedFixture, HappyPathRefundsPremium) {
  submit_premium(0);
  submit_escrow(1);
  submit_redeem(2);
  EXPECT_TRUE(ladder.principal_redeemed());
  EXPECT_EQ(ladder.rung_state(1), RS::kRefunded);
  EXPECT_EQ(tokens(kBob), 100);  // principal to redeemer
  EXPECT_EQ(coins(kBob), 5);     // premium back
}

TEST_F(HedgedFixture, PrincipalNeverEscrowedRefundsPremiumAtDeadline) {
  submit_premium(0);
  idle_until(7);  // principal deadline 6; sweep at 7
  EXPECT_TRUE(ladder.dead());
  EXPECT_EQ(ladder.rung_state(1), RS::kRefunded);
  EXPECT_EQ(ladder.rung_resolved_at(1), 7);
  EXPECT_EQ(coins(kBob), 5);
}

TEST_F(HedgedFixture, UnredeemedPrincipalAwardsPremiumToOwner) {
  submit_premium(0);
  submit_escrow(1);
  idle_until(13);  // redemption deadline 12; sweep at 13
  EXPECT_EQ(ladder.rung_state(0), RS::kRefunded);
  EXPECT_EQ(ladder.rung_state(1), RS::kForfeited);
  EXPECT_EQ(tokens(kAlice), 100);  // principal back
  EXPECT_EQ(coins(kAlice), 5);     // Bob's premium compensates Alice
  EXPECT_EQ(coins(kBob), 0);
}

TEST_F(HedgedFixture, LatePremiumRejected) {
  idle_until(4);
  submit_premium(5);  // premium deadline 4
  EXPECT_FALSE(ladder.rung_deposited(1));
  EXPECT_EQ(coins(kBob), 5);
}

TEST_F(HedgedFixture, LateEscrowRejected) {
  submit_premium(0);
  idle_until(6);
  submit_escrow(7);  // principal deadline 6
  EXPECT_FALSE(ladder.rung_deposited(0));
  EXPECT_EQ(tokens(kAlice), 100);
  // The premium was refunded by the sweep at tick 7.
  EXPECT_EQ(ladder.rung_state(1), RS::kRefunded);
}

TEST_F(HedgedFixture, RedeemAtBoundaryTimely) {
  submit_premium(0);
  submit_escrow(1);
  idle_until(11);
  submit_redeem(12);  // inclusive deadline
  EXPECT_TRUE(ladder.principal_redeemed());
  EXPECT_EQ(ladder.rung_state(1), RS::kRefunded);
}

TEST_F(HedgedFixture, LateRedeemLosesToSweep) {
  submit_premium(0);
  submit_escrow(1);
  idle_until(12);
  submit_redeem(13);
  EXPECT_FALSE(ladder.principal_redeemed());
  EXPECT_EQ(ladder.rung_state(0), RS::kRefunded);
  EXPECT_EQ(ladder.rung_state(1), RS::kForfeited);
}

TEST_F(HedgedFixture, WrongSenderPremiumIgnored) {
  submit_premium(0, /*who=*/kAlice);
  EXPECT_FALSE(ladder.rung_deposited(1));
}

TEST_F(HedgedFixture, WrongSenderEscrowIgnored) {
  submit_premium(0);
  submit_escrow(1, /*who=*/kBob);
  EXPECT_FALSE(ladder.rung_deposited(0));
  EXPECT_EQ(tokens(kAlice), 100);
}

TEST_F(HedgedFixture, RedeemWithoutEscrowIsNoop) {
  submit_premium(0);
  submit_redeem(1);
  EXPECT_FALSE(ladder.principal_redeemed());
  EXPECT_FALSE(ladder.revealed_preimage().has_value());
  EXPECT_EQ(ladder.rung_state(1), RS::kHeld);
}

TEST_F(HedgedFixture, ConservationAcrossOutcomes) {
  // Every outcome (redeemed, unredeemed, principal missing, premium
  // missing) keeps all coins and tokens between the parties and the
  // contract.
  const auto conserved = [](OneRungSwap& s) {
    EXPECT_EQ(s.coins(kAlice) + s.coins(kBob) +
                  s.bc.ledger().balance(s.ladder.address(), s.bc.native()),
              5);
    EXPECT_EQ(s.tokens(kAlice) + s.tokens(kBob) +
                  s.bc.ledger().balance(s.ladder.address(), "apricot"),
              100);
  };
  submit_premium(0);
  submit_escrow(1);
  idle_until(13);
  conserved(*this);
  {
    OneRungSwap redeemed;
    redeemed.submit_premium(0);
    redeemed.submit_escrow(1);
    redeemed.submit_redeem(2);
    redeemed.idle_until(13);
    conserved(redeemed);
  }
  {
    OneRungSwap no_principal;
    no_principal.submit_premium(0);
    no_principal.idle_until(13);
    conserved(no_principal);
  }
  {
    OneRungSwap no_premium;
    no_premium.idle_until(13);
    conserved(no_premium);
  }
}

TEST(LadderSingleRound, MatchesHedgedSwapSemantics) {
  // rounds = 1 ladder: rung 0 principal (deadline 6), rung 1 premium
  // (deadline 4), redemption 12 — exactly a §5.2 contract.
  MultiChain chains;
  auto& bc = chains.add_chain("apricot");
  const auto s = crypto::Secret::from_label("s");
  auto& ladder = bc.deploy<LadderContract>(LadderContract::Params{
      {{kAlice, 500, 6, {}, false}, {kBob, 5, 4, {}, false}}, kBob, "apricot", s.hashlock(), 12});
  bc.ledger_for_setup().mint(Address::party(kAlice), "apricot", 500);
  bc.ledger_for_setup().mint(Address::party(kBob), bc.native(), 5);

  bc.submit({kBob, "premium", [&](TxContext& c) { ladder.deposit(c, 1); }});
  chains.produce_all(0);
  bc.submit({kAlice, "escrow", [&](TxContext& c) { ladder.deposit(c, 0); }});
  chains.produce_all(1);
  // Unredeemed: premium awarded to Alice at redemption deadline.
  for (Tick t = 2; t <= 13; ++t) chains.produce_all(t);
  EXPECT_EQ(ladder.rung_state(0), RS::kRefunded);
  EXPECT_EQ(ladder.rung_state(1), RS::kForfeited);
  EXPECT_EQ(bc.ledger().balance(Address::party(kAlice), bc.native()), 5);
}

}  // namespace
}  // namespace xchain::contracts
