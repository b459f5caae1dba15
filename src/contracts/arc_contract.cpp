#include "contracts/arc_contract.hpp"

namespace xchain::contracts {

MultiPartyArcContract::MultiPartyArcContract(Params p)
    : p_(std::move(p)),
      arc_(*this, p_,
           {.arc = p_.arc,
            .party_base = 0,
            .premium = p_.escrow_premium,
            .premium_deadline = p_.escrow_deadline,
            .move_deadline = p_.escrow_deadline,
            .premium_label = "escrow_premium",
            .tag = ""}) {}

void MultiPartyArcContract::escrow_asset(chain::TxContext& ctx) {
  if (ctx.sender() != p_.arc.from || escrowed_at_) return;
  const Tick asset_deadline = p_.asset_escrow_deadline > 0
                                  ? p_.asset_escrow_deadline
                                  : p_.escrow_deadline;
  if (ctx.now() > asset_deadline || ctx.now() > p_.escrow_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "escrow_rejected", "too late");
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.arc.from), address(),
                             sym_, p_.asset_amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "escrow_rejected", "insufficient balance");
    }
    return;
  }
  escrowed_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "escrowed",
             p_.asset_symbol + ":" + std::to_string(p_.asset_amount));
  }
  arc_.principal_moved(ctx);
}

void MultiPartyArcContract::present_hashkey(chain::TxContext& ctx,
                                            std::size_t leader_index,
                                            const crypto::Hashkey& key) {
  if (!arc_.present_hashkey(ctx, leader_index, key)) return;
  // Redemption: all hashkeys collected -> the asset goes to v.
  if (escrowed_at_ && !redeemed_ && !refunded_ && arc_.all_open()) {
    ctx.ledger().transfer(address(), chain::Address::party(p_.arc.to), sym_,
                          p_.asset_amount);
    redeemed_ = true;
    asset_resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "redeemed", "to " + std::to_string(p_.arc.to));
    }
  }
}

void MultiPartyArcContract::on_block(chain::TxContext& ctx) {
  // The escrow premium at the escrow deadline, then redemption premiums
  // whose hashkey missed its path's deadline.
  arc_.resolve_premium(ctx, escrowed());
  arc_.award_expired(ctx);
  // Asset refund: after the longest possible hashkey deadline, an
  // unredeemed asset returns to u.
  if (escrowed_at_ && !redeemed_ && !refunded_ &&
      ctx.now() > path_deadline(p_.g.size())) {
    ctx.ledger().transfer(address(), chain::Address::party(p_.arc.from), sym_,
                          p_.asset_amount);
    refunded_ = true;
    asset_resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "refunded", "to " + std::to_string(p_.arc.from));
    }
  }
}

}  // namespace xchain::contracts
