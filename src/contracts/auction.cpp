#include "contracts/auction.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace xchain::contracts {

void HashkeyIntake::present(chain::TxContext& ctx, ContractId self,
                            const AuctionTerms& terms, std::size_t i,
                            const crypto::Hashkey& key) {
  if (i >= keys_.size() || keys_[i]) return;
  const auto key_of = [&terms](PartyId p) { return terms.party_keys[p]; };
  // Timeout: |q| * Delta after the declaration phase starts; the chain of
  // custody must originate at the auctioneer.
  const bool valid =
      ctx.now() <= terms.declaration_start +
                       static_cast<Tick>(key.path.size()) * terms.delta &&
      key.leader() == terms.auctioneer &&
      vcache_.verify_hashkey(key, terms.hashlocks[i], key_of);
  if (!valid) {
    if (ctx.tracing()) {
      ctx.emit(self, "hashkey_rejected", "bidder " + std::to_string(i));
    }
    return;
  }
  keys_[i] = key;
  if (ctx.tracing()) {
    ctx.emit(self, "hashkey_presented", "bidder " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Coin chain
// ---------------------------------------------------------------------------

CoinAuctionContract::CoinAuctionContract(Params p,
                                         std::optional<Sealed> sealed)
    : p_(std::move(p)),
      sealed_(sealed),
      commitments_(sealed_ ? p_.terms.bidders.size() : 0),
      bids_(p_.terms.bidders.size()),
      keys_(p_.terms.bidders.size()) {}

crypto::Digest CoinAuctionContract::commitment_of(Amount bid,
                                                  const crypto::Bytes& nonce) {
  crypto::Sha256 h;
  crypto::Bytes msg;
  crypto::append_u64(msg, static_cast<std::uint64_t>(bid));
  crypto::append(msg, nonce);
  h.update(msg);
  return h.finish();
}

std::optional<std::size_t> CoinAuctionContract::winner() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < bids_.size(); ++i) {
    if (bids_[i] && (!best || *bids_[i] > *bids_[*best])) best = i;
  }
  return best;
}

std::optional<std::size_t> CoinAuctionContract::bidder_index(
    PartyId sender) const {
  const auto it =
      std::find(p_.terms.bidders.begin(), p_.terms.bidders.end(), sender);
  if (it == p_.terms.bidders.end()) return std::nullopt;
  return static_cast<std::size_t>(it - p_.terms.bidders.begin());
}

void CoinAuctionContract::endow_premium(chain::TxContext& ctx) {
  if (ctx.sender() != p_.terms.auctioneer || premium_endowed_) return;
  if (ctx.now() > p_.terms.bid_deadline) return;
  const Amount total =
      p_.premium_per_bidder * static_cast<Amount>(bids_.size());
  if (!ctx.ledger().transfer(chain::Address::party(p_.terms.auctioneer),
                             address(), ctx.native_id(), total)) {
    return;
  }
  premium_endowed_ = true;
  if (ctx.tracing()) ctx.emit(id(), "premium_endowed", std::to_string(total));
}

void CoinAuctionContract::place_bid(chain::TxContext& ctx, Amount amount) {
  if (!premium_endowed_) {
    if (ctx.tracing()) ctx.emit(id(), "bid_rejected", "no premium endowment");
    return;
  }
  if (ctx.now() > p_.terms.bid_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "bid_rejected", "past bidding phase");
    return;
  }
  const auto i = bidder_index(ctx.sender());
  if (!i || sealed_ || bids_[*i] || amount <= 0) return;
  if (!ctx.ledger().transfer(chain::Address::party(ctx.sender()), address(),
                             ctx.native_id(), amount)) {
    if (ctx.tracing()) ctx.emit(id(), "bid_rejected", "insufficient balance");
    return;
  }
  bids_[*i] = amount;
  if (ctx.tracing()) {
    ctx.emit(id(), "bid_placed",
             "bidder " + std::to_string(*i) + " amount " +
                 std::to_string(amount));
  }
}

void CoinAuctionContract::commit_bid(chain::TxContext& ctx,
                                     const crypto::Digest& commitment) {
  if (!premium_endowed_) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "no premium endowment");
    return;
  }
  if (ctx.now() > p_.terms.bid_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "past commit phase");
    return;
  }
  const auto i = bidder_index(ctx.sender());
  if (!i || !sealed_ || commitments_[*i]) return;
  if (!ctx.ledger().transfer(chain::Address::party(ctx.sender()), address(),
                             ctx.native_id(), sealed_->collateral)) {
    if (ctx.tracing()) ctx.emit(id(), "commit_rejected", "insufficient collateral");
    return;
  }
  commitments_[*i] = commitment;
  if (ctx.tracing()) {
    ctx.emit(id(), "bid_committed", "bidder " + std::to_string(*i));
  }
}

void CoinAuctionContract::reveal_bid(chain::TxContext& ctx, Amount bid,
                                     const crypto::Bytes& nonce) {
  const auto i = bidder_index(ctx.sender());
  if (!i || !committed(*i) || bids_[*i]) return;
  if (ctx.now() > sealed_->reveal_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "reveal_rejected", "past reveal phase");
    return;
  }
  if (bid <= 0 || bid > sealed_->collateral ||
      commitment_of(bid, nonce) != *commitments_[*i]) {
    if (ctx.tracing()) ctx.emit(id(), "reveal_rejected", "bad opening");
    return;
  }
  bids_[*i] = bid;
  // The uniform collateral hid the bid; refund the excess now.
  ctx.ledger().transfer(address(), chain::Address::party(ctx.sender()),
                        ctx.native_id(), sealed_->collateral - bid);
  if (ctx.tracing()) {
    ctx.emit(id(), "bid_revealed",
             "bidder " + std::to_string(*i) + " bid " + std::to_string(bid));
  }
}

void CoinAuctionContract::present_hashkey(chain::TxContext& ctx,
                                          std::size_t i,
                                          const crypto::Hashkey& key) {
  if (!settled_) keys_.present(ctx, id(), p_.terms, i, key);
}

void CoinAuctionContract::on_block(chain::TxContext& ctx) {
  if (settled_ || ctx.now() <= p_.terms.commit_time) return;
  settled_ = true;

  const auto win = winner();
  bool only_winner_key = win.has_value() && keys_.received(*win);
  for (std::size_t i = 0; only_winner_key && i < keys_.size(); ++i) {
    if (i != *win && keys_.received(i)) only_winner_key = false;
  }

  // Unrevealed commitments drop out: their collateral is refunded in full
  // regardless of the outcome below.
  for (std::size_t i = 0; i < commitments_.size(); ++i) {
    if (commitments_[i] && !bids_[i]) {
      ctx.ledger().transfer(address(),
                            chain::Address::party(p_.terms.bidders[i]),
                            ctx.native_id(), sealed_->collateral);
    }
  }

  const Amount endowment =
      premium_endowed_
          ? p_.premium_per_bidder * static_cast<Amount>(bids_.size())
          : 0;
  if (only_winner_key) {
    // All is well: winning bid to the auctioneer, losers refunded,
    // premium endowment returned.
    clean_ = true;
    for (std::size_t i = 0; i < bids_.size(); ++i) {
      if (!bids_[i]) continue;
      const PartyId to =
          i == *win ? p_.terms.auctioneer : p_.terms.bidders[i];
      ctx.ledger().transfer(address(), chain::Address::party(to),
                            ctx.native_id(), *bids_[i]);
    }
    if (premium_endowed_) {
      ctx.ledger().transfer(address(),
                            chain::Address::party(p_.terms.auctioneer),
                            ctx.native_id(), endowment);
    }
    if (ctx.tracing()) ctx.emit(id(), "settled", "winner paid");
    return;
  }

  // The auctioneer cheated or walked away: refund every bid, and award
  // premium p to every bidder whose coins were locked up; the rest of the
  // endowment goes back to the auctioneer.
  Amount endowment_left = endowment;
  for (std::size_t i = 0; i < bids_.size(); ++i) {
    if (!bids_[i]) continue;
    ctx.ledger().transfer(address(),
                          chain::Address::party(p_.terms.bidders[i]),
                          ctx.native_id(), *bids_[i]);
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

// ---------------------------------------------------------------------------
// Ticket chain
// ---------------------------------------------------------------------------

TicketAuctionContract::TicketAuctionContract(Params p)
    : p_(std::move(p)), keys_(p_.terms.bidders.size()) {}

void TicketAuctionContract::escrow_tickets(chain::TxContext& ctx) {
  if (ctx.sender() != p_.terms.auctioneer || escrowed_) return;
  if (ctx.now() > p_.terms.bid_deadline) return;
  if (!ctx.ledger().transfer(chain::Address::party(p_.terms.auctioneer),
                             address(), sym_, p_.amount)) {
    return;
  }
  escrowed_ = true;
  if (ctx.tracing()) {
    ctx.emit(id(), "escrowed", p_.symbol + ":" + std::to_string(p_.amount));
  }
}

void TicketAuctionContract::present_hashkey(chain::TxContext& ctx,
                                            std::size_t i,
                                            const crypto::Hashkey& key) {
  if (!settled_) keys_.present(ctx, id(), p_.terms, i, key);
}

void TicketAuctionContract::on_block(chain::TxContext& ctx) {
  if (settled_ || ctx.now() <= p_.terms.commit_time) return;
  settled_ = true;
  if (!escrowed_) return;

  std::optional<std::size_t> sole;
  int count = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_.received(i)) {
      ++count;
      sole = i;
    }
  }
  if (count == 1) {
    awarded_to_ = p_.terms.bidders[*sole];
    ctx.ledger().transfer(address(), chain::Address::party(*awarded_to_),
                          sym_, p_.amount);
    if (ctx.tracing()) {
      ctx.emit(id(), "settled", "tickets to bidder " + std::to_string(*sole));
    }
  } else {
    ctx.ledger().transfer(address(),
                          chain::Address::party(p_.terms.auctioneer), sym_,
                          p_.amount);
    if (ctx.tracing()) ctx.emit(id(), "settled", "tickets refunded");
  }
}

}  // namespace xchain::contracts
