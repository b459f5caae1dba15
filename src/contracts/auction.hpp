#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/hashkey.hpp"

namespace xchain::contracts {

/// Shared pieces of the two auction contracts (paper §9).
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

/// Validates a hashkey for bidder index `i` under `terms` at time `now`:
/// crypto chain, distinct path ending at the auctioneer, |q|-scaled
/// timeout. `vcache`, when given, memoizes the signature-chain check
/// (reused sweep worlds re-see identical hashkeys every schedule).
bool auction_hashkey_valid(const AuctionTerms& terms, std::size_t i,
                           const crypto::Hashkey& key, Tick now,
                           crypto::VerifyCache* vcache = nullptr);

/// Coin-chain auction contract: records bids, collects hashkeys, settles.
///
/// Settlement (paper §9, commit phase): if exactly the true winner's
/// hashkey arrived, the winning bid goes to the auctioneer, losers are
/// refunded, and the auctioneer's premium endowment (n * p) is returned.
/// Otherwise the auctioneer cheated or abandoned: every bid is refunded
/// and every bidder who bid receives premium p; the remainder of the
/// endowment returns to the auctioneer.
class CoinAuctionContract : public chain::SnapshotState<CoinAuctionContract> {
 public:
  struct Params {
    AuctionTerms terms;
    Amount premium_per_bidder = 0;  ///< p
  };

  explicit CoinAuctionContract(Params p);

  /// Auctioneer deposits n * p before bids can be accepted.
  void endow_premium(chain::TxContext& ctx);

  /// Bidder escrows `amount` native coins. Requires the premium endowment
  /// (so bidders are never exposed unhedged) and the bidding deadline.
  void place_bid(chain::TxContext& ctx, Amount amount);

  /// Anyone presents bidder `i`'s hashkey (timeliness per path length).
  void present_hashkey(chain::TxContext& ctx, std::size_t i,
                       const crypto::Hashkey& key);

  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.terms.commit_time};
  }

  // -- Public state -----------------------------------------------------------
  const Params& params() const { return p_; }
  bool premium_endowed() const { return premium_endowed_; }
  std::optional<Amount> bid_of(std::size_t i) const { return bids_[i]; }
  bool hashkey_received(std::size_t i) const {
    return keys_[i].has_value();
  }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return keys_[i];
  }
  bool settled() const { return settled_; }
  /// True iff settlement concluded the auctioneer behaved (winner paid).
  bool completed_cleanly() const { return clean_; }
  /// Index of the highest bidder (first wins ties); nullopt if no bids.
  std::optional<std::size_t> winner() const;

 private:
  Params p_;
  crypto::VerifyCache vcache_;
  bool premium_endowed_ = false;
  std::vector<std::optional<Amount>> bids_;
  std::vector<std::optional<crypto::Hashkey>> keys_;
  bool settled_ = false;
  bool clean_ = false;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(premium_endowed_, bids_, keys_, settled_, clean_);
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
  bool hashkey_received(std::size_t i) const {
    return keys_[i].has_value();
  }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return keys_[i];
  }
  bool settled() const { return settled_; }
  /// The bidder the tickets went to, if any.
  std::optional<PartyId> awarded_to() const { return awarded_to_; }

 private:
  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.symbol);
  crypto::VerifyCache vcache_;
  bool escrowed_ = false;
  std::vector<std::optional<crypto::Hashkey>> keys_;
  bool settled_ = false;
  std::optional<PartyId> awarded_to_;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(escrowed_, keys_, settled_, awarded_to_);
  }
  friend chain::SnapshotState<TicketAuctionContract>;
};

}  // namespace xchain::contracts
