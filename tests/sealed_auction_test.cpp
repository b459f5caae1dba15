#include <gtest/gtest.h>

#include "contracts/auction.hpp"
#include "core/auction.hpp"
#include "crypto/secret.hpp"

namespace xchain::core {
namespace {

AuctionConfig config() {
  AuctionConfig cfg;
  cfg.ticket_count = 10;
  cfg.bids = {100, 80};
  cfg.premium_unit = 2;
  cfg.delta = 2;
  cfg.collateral = 150;
  return cfg;
}

std::vector<BidderStrategy> conform(std::size_t n) {
  return std::vector<BidderStrategy>(n, BidderStrategy::kConform);
}

TEST(SealedAuction, CommitmentDigestBindsBidAndNonce) {
  using contracts::CoinAuctionContract;
  const auto nonce = crypto::Secret::from_label("n").value();
  const auto c1 = CoinAuctionContract::commitment_of(100, nonce);
  EXPECT_EQ(c1, CoinAuctionContract::commitment_of(100, nonce));
  EXPECT_NE(c1, CoinAuctionContract::commitment_of(101, nonce));
  EXPECT_NE(c1, CoinAuctionContract::commitment_of(
                    100, crypto::Secret::from_label("m").value()));
}

TEST(SealedAuction, HonestRunMatchesOpenAuction) {
  const auto sealed = run_sealed_auction(
      config(), AuctioneerStrategy::kHonest, conform(2));
  const auto open =
      run_auction(config(), AuctioneerStrategy::kHonest, conform(2));
  EXPECT_TRUE(sealed.completed);
  EXPECT_EQ(sealed.tickets_to, open.tickets_to);
  EXPECT_EQ(sealed.auctioneer.coin_delta, open.auctioneer.coin_delta);
  EXPECT_EQ(sealed.bidders[0].coin_delta, open.bidders[0].coin_delta);
  EXPECT_EQ(sealed.bidders[1].coin_delta, open.bidders[1].coin_delta);
}

TEST(SealedAuction, ExcessCollateralRefundedAtReveal) {
  const auto r = run_sealed_auction(config(), AuctioneerStrategy::kHonest,
                                    conform(2));
  // Bob paid exactly his 100 bid, not the 150 collateral.
  EXPECT_EQ(r.bidders[0].coin_delta, -100);
  EXPECT_EQ(r.bidders[1].coin_delta, 0);
}

TEST(SealedAuction, CommitWithoutRevealDropsOutSafely) {
  // Carol commits but never opens: she is treated as a non-bidder and her
  // collateral comes back in full; the auction completes with Bob alone.
  const auto r = run_sealed_auction(
      config(), AuctioneerStrategy::kHonest,
      {BidderStrategy::kConform, BidderStrategy::kCommitNoReveal});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tickets_to, 1u);
  EXPECT_EQ(r.bidders[1].coin_delta, 0);  // collateral refunded
}

TEST(SealedAuction, AbandonStillCompensatesRevealedBidders) {
  const auto r = run_sealed_auction(config(), AuctioneerStrategy::kAbandon,
                                    conform(2));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.auctioneer.coin_delta, -4);
  EXPECT_EQ(r.bidders[0].coin_delta, 2);
  EXPECT_EQ(r.bidders[1].coin_delta, 2);
}

TEST(SealedAuction, CheatingDeclarationStillCaught) {
  const auto r = run_sealed_auction(
      config(), AuctioneerStrategy::kDeclareLoser, conform(2));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.bidders[0].coin_delta, 2);
  EXPECT_EQ(r.bidders[1].coin_delta, 2);
  EXPECT_EQ(r.auctioneer.coin_delta, -4);
}

TEST(SealedAuction, OneSidedDeclarationFixedByChallenge) {
  const auto r = run_sealed_auction(config(), AuctioneerStrategy::kCoinOnly,
                                    conform(2));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tickets_to, 1u);
}

// Lemma 8 carries over to the sealed variant.
class SealedSweep : public ::testing::TestWithParam<AuctioneerStrategy> {};

TEST_P(SealedSweep, CompliantBidsCannotBeStolen) {
  const auto r = run_sealed_auction(config(), GetParam(), conform(2));
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& d = r.bidders[i];
    if (d.coin_delta < 0) {
      ASSERT_TRUE(d.by_symbol.count("ticket"))
          << "bidder " << i << " paid without tickets";
      EXPECT_GT(d.by_symbol.at("ticket"), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SealedSweep,
    ::testing::Values(AuctioneerStrategy::kHonest,
                      AuctioneerStrategy::kNoSetup,
                      AuctioneerStrategy::kAbandon,
                      AuctioneerStrategy::kDeclareLoser,
                      AuctioneerStrategy::kCoinOnly,
                      AuctioneerStrategy::kTicketOnly,
                      AuctioneerStrategy::kSplit));

TEST(SealedAuction, WorksAtDeltaOne) {
  AuctionConfig cfg = config();
  cfg.delta = 1;
  const auto r = run_sealed_auction(cfg, AuctioneerStrategy::kHonest,
                                    conform(2));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tickets_to, 1u);
}

}  // namespace
}  // namespace xchain::core
