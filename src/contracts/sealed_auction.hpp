#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "contracts/auction.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {

/// Sealed-bid variant of the coin-chain auction contract — the two-round
/// commit-reveal scheme the paper's footnote 8 names as the realistic
/// extension ("the bidders might use a two-round commit-reveal scheme to
/// keep their bids secret from one another, a topic beyond this paper's
/// scope").
///
/// Phases (each Delta, prepended to the §9 schedule):
///   commit:  each bidder escrows a fixed collateral M alongside
///            H(bid || nonce) — the uniform collateral hides the bid;
///   reveal:  each bidder opens (bid, nonce); bid must be in (0, M];
///            the unbid excess M - bid is refunded immediately;
///   then declaration / challenge / commit proceed exactly as in the open
///   auction over the *revealed* bids.
///
/// A bidder who commits but never reveals simply drops out: its collateral
/// is refunded at settlement (it cannot lock anyone else up, so §9.2's
/// "bidders pay no premiums" reasoning still applies — withholding a
/// reveal is like withholding a bid).
class SealedCoinAuctionContract
    : public chain::SnapshotState<SealedCoinAuctionContract> {
 public:
  struct Params {
    AuctionTerms terms;             ///< commit ends at terms.bid_deadline
    Amount premium_per_bidder = 0;  ///< p
    Amount collateral = 0;          ///< M, escrowed with each commitment
    Tick reveal_deadline = 0;       ///< end of the reveal phase
  };

  explicit SealedCoinAuctionContract(Params p);

  /// Auctioneer deposits n * p before commitments can be accepted.
  void endow_premium(chain::TxContext& ctx);

  /// Bidder escrows the collateral M and records H(bid || nonce).
  void commit_bid(chain::TxContext& ctx, const crypto::Digest& commitment);

  /// Bidder opens its commitment; the excess collateral refunds at once.
  void reveal_bid(chain::TxContext& ctx, Amount bid,
                  const crypto::Bytes& nonce);

  /// Same as the open auction (hashkeys identify the declared winner).
  void present_hashkey(chain::TxContext& ctx, std::size_t i,
                       const crypto::Hashkey& key);

  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.terms.commit_time};
  }

  // -- Public state -----------------------------------------------------------
  const Params& params() const { return p_; }
  bool premium_endowed() const { return premium_endowed_; }
  bool committed(std::size_t i) const { return commitments_[i].has_value(); }
  std::optional<Amount> revealed_bid(std::size_t i) const {
    return revealed_[i];
  }
  bool hashkey_received(std::size_t i) const { return keys_[i].has_value(); }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return keys_[i];
  }
  bool settled() const { return settled_; }
  bool completed_cleanly() const { return clean_; }
  /// Highest *revealed* bidder.
  std::optional<std::size_t> winner() const;

  /// The canonical commitment digest: SHA-256(bid_be64 || nonce).
  static crypto::Digest commitment_of(Amount bid,
                                      const crypto::Bytes& nonce);

 private:
  Params p_;
  crypto::VerifyCache vcache_;
  bool premium_endowed_ = false;
  std::vector<std::optional<crypto::Digest>> commitments_;
  std::vector<std::optional<Amount>> revealed_;
  std::vector<std::optional<crypto::Hashkey>> keys_;
  bool settled_ = false;
  bool clean_ = false;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(premium_endowed_, commitments_, revealed_, keys_,
                    settled_, clean_);
  }
  friend chain::SnapshotState<SealedCoinAuctionContract>;
};

}  // namespace xchain::contracts
