#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/bytes.hpp"
#include "crypto/hashkey.hpp"

namespace xchain::contracts {

/// Shared pieces of the §9 auction's contracts: the coin-chain auction
/// (open or sealed-bid) and the ticket-chain escrow.
///
/// The auctioneer generates one secret per bidder; the hashkey k_i
/// identifies bidder i as the winner. A hashkey with path q times out
/// |q| * Delta after the declaration phase starts, so a key published on
/// one chain can always be forwarded to the other within the 3-Delta
/// challenge window (Lemma 7), but stale keys die.
struct AuctionTerms {
  PartyId auctioneer = kNoParty;
  std::vector<PartyId> bidders;
  /// hashlocks[i] commits to the secret identifying bidders[i] as winner.
  std::vector<crypto::Digest> hashlocks;
  std::vector<crypto::PublicKey> party_keys;  ///< by PartyId
  Tick delta = 1;
  Tick bid_deadline = 0;        ///< end of the bidding phase
  Tick declaration_start = 0;   ///< hashkey timeouts count from here
  Tick commit_time = 0;         ///< settlement sweeps fire past this
};

/// The hashkey intake both chains' contracts share: one slot per bidder,
/// which takes the first hashkey valid for that bidder and keeps it. A
/// key is valid when its signature chain verifies, its path ends at the
/// auctioneer, and it arrives within |path| * Delta of the declaration
/// phase's start. The slots are the owning contract's snapshot state: it
/// ties slots() into its state_tie().
class HashkeyIntake {
 public:
  explicit HashkeyIntake(std::size_t bidders) : keys_(bidders) {}

  /// Anyone presents bidder `i`'s hashkey to contract `self` under
  /// `terms`. The signature-chain check is memoized: reused sweep worlds
  /// re-see identical hashkeys every schedule.
  void present(chain::TxContext& ctx, ContractId self,
               const AuctionTerms& terms, std::size_t i,
               const crypto::Hashkey& key);

  std::size_t size() const { return keys_.size(); }
  bool received(std::size_t i) const { return keys_[i].has_value(); }
  const std::optional<crypto::Hashkey>& key(std::size_t i) const {
    return keys_[i];
  }
  std::vector<std::optional<crypto::Hashkey>>& slots() { return keys_; }

 private:
  std::vector<std::optional<crypto::Hashkey>> keys_;
  crypto::VerifyCache vcache_;
};

/// Coin-chain auction contract: takes bids, collects hashkeys, settles.
///
/// Bids come in one of two ways. Open (paper §9): each bidder escrows its
/// bid with place_bid. Sealed (the two-round commit-reveal scheme the
/// paper's footnote 8 names as the realistic extension): in the commit
/// phase each bidder escrows a fixed collateral M alongside
/// H(bid || nonce), the uniform collateral hiding the bid; in the reveal
/// phase it opens (bid, nonce), the bid must lie in (0, M], and the unbid
/// excess M - bid is refunded at once. Either way the bids taken so far
/// are the ones the winner rule and settlement below read.
///
/// Settlement (paper §9, commit phase): if exactly the true winner's
/// hashkey arrived, the winning bid goes to the auctioneer, losers are
/// refunded, and the auctioneer's premium endowment (n * p) is returned.
/// Otherwise the auctioneer cheated or abandoned: every bid is refunded
/// and every bidder who bid receives premium p; the remainder of the
/// endowment returns to the auctioneer. A sealed bidder who committed but
/// never revealed simply drops out: its collateral is refunded in full
/// whatever the outcome (it cannot lock anyone else up, so §9.2's
/// "bidders pay no premiums" reasoning still applies).
class CoinAuctionContract : public chain::SnapshotState<CoinAuctionContract> {
 public:
  struct Params {
    AuctionTerms terms;
    Amount premium_per_bidder = 0;  ///< p
  };

  /// Sealed-bid intake; the commit phase ends at terms.bid_deadline.
  struct Sealed {
    Amount collateral = 0;     ///< M, escrowed with each commitment
    Tick reveal_deadline = 0;  ///< end of the reveal phase
  };

  /// Open bids (place_bid) without `sealed`, sealed ones (commit_bid,
  /// reveal_bid) with it.
  explicit CoinAuctionContract(Params p,
                               std::optional<Sealed> sealed = std::nullopt);

  /// Auctioneer deposits n * p before bids can be accepted.
  void endow_premium(chain::TxContext& ctx);

  /// Open auction: the bidder escrows `amount` native coins. Requires the
  /// premium endowment (so bidders are never exposed unhedged) and the
  /// bidding deadline.
  void place_bid(chain::TxContext& ctx, Amount amount);

  /// Sealed auction: the bidder escrows the collateral M and records
  /// H(bid || nonce). Same preconditions as place_bid.
  void commit_bid(chain::TxContext& ctx, const crypto::Digest& commitment);

  /// Sealed auction: the bidder opens its commitment; the excess
  /// collateral refunds at once.
  void reveal_bid(chain::TxContext& ctx, Amount bid,
                  const crypto::Bytes& nonce);

  /// Anyone presents bidder `i`'s hashkey (timeliness per path length).
  void present_hashkey(chain::TxContext& ctx, std::size_t i,
                       const crypto::Hashkey& key);

  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.terms.commit_time};
  }

  // -- Public state -----------------------------------------------------------
  const Params& params() const { return p_; }
  bool sealed() const { return sealed_.has_value(); }
  bool premium_endowed() const { return premium_endowed_; }
  /// Bidder `i`'s bid: placed (open) or revealed (sealed).
  std::optional<Amount> bid_of(std::size_t i) const { return bids_[i]; }
  bool committed(std::size_t i) const {
    return i < commitments_.size() && commitments_[i].has_value();
  }
  bool hashkey_received(std::size_t i) const { return keys_.received(i); }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return keys_.key(i);
  }
  bool settled() const { return settled_; }
  /// True iff settlement concluded the auctioneer behaved (winner paid).
  bool completed_cleanly() const { return clean_; }
  /// Index of the highest bidder (first wins ties); nullopt if no bids.
  std::optional<std::size_t> winner() const;

  /// The canonical commitment digest: SHA-256(bid_be64 || nonce).
  static crypto::Digest commitment_of(Amount bid, const crypto::Bytes& nonce);

 private:
  /// The bidder index of `sender`; nullopt for anyone else.
  std::optional<std::size_t> bidder_index(PartyId sender) const;

  Params p_;
  std::optional<Sealed> sealed_;
  bool premium_endowed_ = false;
  std::vector<std::optional<crypto::Digest>> commitments_;  ///< sealed only
  std::vector<std::optional<Amount>> bids_;
  HashkeyIntake keys_;
  bool settled_ = false;
  bool clean_ = false;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(premium_endowed_, commitments_, bids_, keys_.slots(),
                    settled_, clean_);
  }
  friend chain::SnapshotState<CoinAuctionContract>;
};

/// Ticket-chain auction contract: holds the tickets, collects hashkeys.
/// Settlement: exactly one hashkey -> tickets to the matching bidder;
/// zero or more than one -> tickets back to the auctioneer.
class TicketAuctionContract
    : public chain::SnapshotState<TicketAuctionContract> {
 public:
  struct Params {
    AuctionTerms terms;
    chain::Symbol symbol;  ///< "ticket"
    Amount amount = 0;
  };

  explicit TicketAuctionContract(Params p);

  /// Auctioneer escrows the tickets before bidding ends.
  void escrow_tickets(chain::TxContext& ctx);

  void present_hashkey(chain::TxContext& ctx, std::size_t i,
                       const crypto::Hashkey& key);

  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.terms.commit_time};
  }

  // -- Public state -----------------------------------------------------------
  const Params& params() const { return p_; }
  bool escrowed() const { return escrowed_; }
  bool hashkey_received(std::size_t i) const { return keys_.received(i); }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return keys_.key(i);
  }
  bool settled() const { return settled_; }
  /// The bidder the tickets went to, if any.
  std::optional<PartyId> awarded_to() const { return awarded_to_; }

 private:
  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.symbol);
  bool escrowed_ = false;
  HashkeyIntake keys_;
  bool settled_ = false;
  std::optional<PartyId> awarded_to_;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(escrowed_, keys_.slots(), settled_, awarded_to_);
  }
  friend chain::SnapshotState<TicketAuctionContract>;
};

}  // namespace xchain::contracts
