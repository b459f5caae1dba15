#include "contracts/sealed_auction.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace xchain::contracts {

SealedCoinAuctionContract::SealedCoinAuctionContract(Params p)
    : p_(std::move(p)),
      commitments_(p_.terms.bidders.size()),
      revealed_(p_.terms.bidders.size()),
      keys_(p_.terms.bidders.size()) {}

crypto::Digest SealedCoinAuctionContract::commitment_of(
    Amount bid, const crypto::Bytes& nonce) {
  crypto::Sha256 h;
  crypto::Bytes msg;
  crypto::append_u64(msg, static_cast<std::uint64_t>(bid));
  crypto::append(msg, nonce);
  h.update(msg);
  return h.finish();
}

std::optional<std::size_t> SealedCoinAuctionContract::winner() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < revealed_.size(); ++i) {
    if (revealed_[i] && (!best || *revealed_[i] > *revealed_[*best])) {
      best = i;
    }
  }
  return best;
}

void SealedCoinAuctionContract::endow_premium(chain::TxContext& ctx) {
  if (ctx.sender() != p_.terms.auctioneer || premium_endowed_) return;
  if (ctx.now() > p_.terms.bid_deadline) return;
  const Amount total =
      p_.premium_per_bidder * static_cast<Amount>(commitments_.size());
  if (!ctx.ledger().transfer(chain::Address::party(p_.terms.auctioneer),
                             address(), ctx.native_id(), total)) {
    return;
  }
  premium_endowed_ = true;
  if (ctx.tracing()) ctx.emit(id(), "premium_endowed", std::to_string(total));
}

void SealedCoinAuctionContract::commit_bid(chain::TxContext& ctx,
                                           const crypto::Digest& commitment) {
  if (!premium_endowed_) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "no premium endowment");
    return;
  }
  if (ctx.now() > p_.terms.bid_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "past commit phase");
    return;
  }
  const auto it = std::find(p_.terms.bidders.begin(), p_.terms.bidders.end(),
                            ctx.sender());
  if (it == p_.terms.bidders.end()) return;
  const std::size_t i =
      static_cast<std::size_t>(it - p_.terms.bidders.begin());
  if (commitments_[i]) return;
  if (!ctx.ledger().transfer(chain::Address::party(ctx.sender()), address(),
                             ctx.native_id(), p_.collateral)) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "insufficient collateral");
    return;
  }
  commitments_[i] = commitment;
  if (ctx.tracing()) {
    ctx.emit(id(), "bid_committed", "bidder " + std::to_string(i));
  }
}

void SealedCoinAuctionContract::reveal_bid(chain::TxContext& ctx, Amount bid,
                                           const crypto::Bytes& nonce) {
  const auto it = std::find(p_.terms.bidders.begin(), p_.terms.bidders.end(),
                            ctx.sender());
  if (it == p_.terms.bidders.end()) return;
  const std::size_t i =
      static_cast<std::size_t>(it - p_.terms.bidders.begin());
  if (!commitments_[i] || revealed_[i]) return;
  if (ctx.now() > p_.reveal_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "reveal_rejected", "past reveal phase");
    return;
  }
  if (bid <= 0 || bid > p_.collateral ||
      commitment_of(bid, nonce) != *commitments_[i]) {
    if (ctx.tracing()) ctx.emit(id(), "reveal_rejected", "bad opening");
    return;
  }
  revealed_[i] = bid;
  // The uniform collateral hid the bid; refund the excess now.
  ctx.ledger().transfer(address(), chain::Address::party(ctx.sender()),
                        ctx.native_id(), p_.collateral - bid);
  if (ctx.tracing()) {
    ctx.emit(id(), "bid_revealed",
             "bidder " + std::to_string(i) + " bid " + std::to_string(bid));
  }
}

void SealedCoinAuctionContract::present_hashkey(chain::TxContext& ctx,
                                                std::size_t i,
                                                const crypto::Hashkey& key) {
  if (i >= keys_.size() || keys_[i] || settled_) return;
  if (!auction_hashkey_valid(p_.terms, i, key, ctx.now(), &vcache_)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "hashkey_rejected", "bidder " + std::to_string(i));
    }
    return;
  }
  keys_[i] = key;
  if (ctx.tracing()) {
    ctx.emit(id(), "hashkey_presented", "bidder " + std::to_string(i));
  }
}

void SealedCoinAuctionContract::on_block(chain::TxContext& ctx) {
  if (settled_ || ctx.now() <= p_.terms.commit_time) return;
  settled_ = true;

  const auto win = winner();
  bool only_winner_key = win.has_value() && keys_[*win].has_value();
  for (std::size_t i = 0; only_winner_key && i < keys_.size(); ++i) {
    if (i != *win && keys_[i]) only_winner_key = false;
  }

  // Unrevealed commitments drop out: their collateral is refunded in full
  // regardless of the outcome below.
  for (std::size_t i = 0; i < commitments_.size(); ++i) {
    if (commitments_[i] && !revealed_[i]) {
      ctx.ledger().transfer(address(),
                            chain::Address::party(p_.terms.bidders[i]),
                            ctx.native_id(), p_.collateral);
    }
  }

  if (only_winner_key) {
    clean_ = true;
    for (std::size_t i = 0; i < revealed_.size(); ++i) {
      if (!revealed_[i]) continue;
      const PartyId to =
          i == *win ? p_.terms.auctioneer : p_.terms.bidders[i];
      ctx.ledger().transfer(address(), chain::Address::party(to),
                            ctx.native_id(), *revealed_[i]);
    }
    if (premium_endowed_) {
      ctx.ledger().transfer(
          address(), chain::Address::party(p_.terms.auctioneer),
          ctx.native_id(),
          p_.premium_per_bidder * static_cast<Amount>(commitments_.size()));
    }
    if (ctx.tracing()) ctx.emit(id(), "settled", "winner paid");
    return;
  }

  Amount endowment_left =
      premium_endowed_
          ? p_.premium_per_bidder * static_cast<Amount>(commitments_.size())
          : 0;
  for (std::size_t i = 0; i < revealed_.size(); ++i) {
    if (!revealed_[i]) continue;
    ctx.ledger().transfer(address(),
                          chain::Address::party(p_.terms.bidders[i]),
                          ctx.native_id(), *revealed_[i]);
    if (endowment_left >= p_.premium_per_bidder) {
      ctx.ledger().transfer(address(),
                            chain::Address::party(p_.terms.bidders[i]),
                            ctx.native_id(), p_.premium_per_bidder);
      endowment_left -= p_.premium_per_bidder;
    }
  }
  if (endowment_left > 0) {
    ctx.ledger().transfer(address(),
                          chain::Address::party(p_.terms.auctioneer),
                          ctx.native_id(), endowment_left);
  }
  if (ctx.tracing()) {
    ctx.emit(id(), "settled", "bids refunded with premiums");
  }
}

}  // namespace xchain::contracts
