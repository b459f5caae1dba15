#include "contracts/broker.hpp"

namespace xchain::contracts {

BrokerChainContract::BrokerChainContract(Params p)
    : p_(std::move(p)),
      escrow_arc_(*this, p_,
                  {.arc = p_.escrow_arc,
                   .party_base = p_.party_base,
                   .premium = p_.escrow_premium,
                   .premium_deadline = p_.escrow_premium_deadline,
                   .move_deadline = p_.escrow_deadline,
                   .premium_label = "escrow_premium",
                   .tag = "arc 0 "}),
      trading_arc_(*this, p_,
                   {.arc = p_.trading_arc,
                    .party_base = p_.party_base,
                    .premium = p_.trading_premium,
                    .premium_deadline = p_.trading_premium_deadline,
                    .move_deadline = p_.trading_deadline,
                    .premium_label = "trading_premium",
                    .tag = "arc 1 "}) {}

void BrokerChainContract::escrow(chain::TxContext& ctx) {
  if (local_sender(ctx) != p_.escrow_arc.from || escrowed_at_) return;
  if (ctx.now() > p_.escrow_deadline) return;
  if (!ctx.ledger().transfer(acct(p_.escrow_arc.from),
                             address(), sym_, p_.escrow_amount)) {
    return;
  }
  escrowed_at_ = ctx.now();
  escrow_bucket_ = p_.escrow_amount;
  if (ctx.tracing()) {
    ctx.emit(id(), "escrowed",
             p_.symbol + ":" + std::to_string(p_.escrow_amount));
  }
  escrow_arc_.principal_moved(ctx);
}

void BrokerChainContract::trade(chain::TxContext& ctx) {
  if (local_sender(ctx) != p_.trading_arc.from || traded_at_) return;
  if (ctx.now() > p_.trading_deadline) return;
  if (escrow_bucket_ < p_.trading_amount) {
    if (ctx.tracing()) {
      ctx.emit(id(), "trade_rejected", "escrow bucket underfunded");
    }
    return;
  }
  escrow_bucket_ -= p_.trading_amount;
  trading_bucket_ += p_.trading_amount;
  traded_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "traded", std::to_string(p_.trading_amount));
  }
  trading_arc_.principal_moved(ctx);
}

void BrokerChainContract::present_hashkey(chain::TxContext& ctx, Which arc,
                                          std::size_t leader_index,
                                          const crypto::Hashkey& key) {
  if (arc_of(arc).present_hashkey(ctx, leader_index, key)) {
    try_redeem(ctx, arc);
  }
}

void BrokerChainContract::try_redeem(chain::TxContext& ctx, Which arc) {
  if (refunded_ || !hedged(arc).all_open()) return;
  if (arc == Which::kEscrowArc && !escrow_redeemed_ && escrowed_at_) {
    escrow_redeemed_ = true;
    if (escrow_bucket_ > 0) {
      ctx.ledger().transfer(address(), acct(p_.escrow_arc.to),
                            sym_, escrow_bucket_);
      escrow_bucket_ = 0;
    }
    if (ctx.tracing()) ctx.emit(id(), "redeemed", "escrow arc");
  }
  if (arc == Which::kTradingArc && !trading_redeemed_ && traded_at_) {
    trading_redeemed_ = true;
    ctx.ledger().transfer(address(), acct(p_.trading_arc.to),
                          sym_, trading_bucket_);
    trading_bucket_ = 0;
    if (ctx.tracing()) ctx.emit(id(), "redeemed", "trading arc");
  }
}

void BrokerChainContract::on_block(chain::TxContext& ctx) {
  // Each arc's premium at its move deadline, then redemption premiums
  // past their per-path deadlines.
  escrow_arc_.resolve_premium(ctx, escrowed());
  trading_arc_.resolve_premium(ctx, traded());
  escrow_arc_.award_expired(ctx);
  trading_arc_.award_expired(ctx);
  // Final refund of whatever assets remain, to the original owner.
  if (!refunded_ && escrowed_at_ &&
      ctx.now() > path_deadline(p_.g.size())) {
    const Amount remainder = escrow_bucket_ + trading_bucket_;
    if (remainder > 0) {
      ctx.ledger().transfer(address(), acct(p_.escrow_arc.from),
                            sym_, remainder);
      escrow_bucket_ = trading_bucket_ = 0;
      refunded_ = true;
      if (ctx.tracing()) {
        ctx.emit(id(), "refunded",
                 "to " + std::to_string(p_.escrow_arc.from));
      }
    }
  }
}

}  // namespace xchain::contracts
