#include "contracts/hedged_swap.hpp"

namespace xchain::contracts {

void HedgedSwapContract::deposit_premium(chain::TxContext& ctx) {
  if (ctx.sender() != p_.premium_payer || premium_deposited()) return;
  if (ctx.now() > p_.premium_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "premium_rejected", "past premium deadline");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.premium_payer),
                             address(), ctx.native_id(),
                             p_.premium_amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "premium_rejected", "insufficient balance");
    }
    return;
  }
  premium_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "premium_deposited", std::to_string(p_.premium_amount));
  }
}

void HedgedSwapContract::escrow_principal(chain::TxContext& ctx) {
  if (ctx.sender() != p_.principal_owner || escrowed()) return;
  if (ctx.now() > p_.escrow_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "escrow_rejected", "past escrow deadline");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.principal_owner),
                             address(), sym_, p_.principal_amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "escrow_rejected", "insufficient balance");
    }
    return;
  }
  escrowed_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "escrowed",
             p_.principal_symbol + ":" + std::to_string(p_.principal_amount));
  }
}

void HedgedSwapContract::redeem(chain::TxContext& ctx,
                                const crypto::Bytes& preimage) {
  if (!escrowed() || principal_resolved()) return;
  if (ctx.now() > p_.redemption_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redeem_rejected", "past redemption deadline");
    }
    return;
  }
  if (!crypto::opens(p_.hashlock, preimage)) {
    if (ctx.tracing()) ctx.emit(id(), "redeem_rejected", "bad preimage");
    return;
  }
  preimage_ = preimage;
  ctx.ledger().transfer(address(), chain::Address::party(p_.premium_payer),
                        sym_, p_.principal_amount);
  redeemed_ = true;
  principal_resolved_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "redeemed", "to " + std::to_string(p_.premium_payer));
  }
  if (premium_deposited() && !premium_resolved()) {
    resolve_premium(ctx, p_.premium_payer, /*award=*/false);
  }
}

void HedgedSwapContract::resolve_premium(chain::TxContext& ctx, PartyId to,
                                         bool award) {
  ctx.ledger().transfer(address(), chain::Address::party(to), ctx.native_id(),
                        p_.premium_amount);
  (award ? premium_awarded_ : premium_refunded_) = true;
  premium_resolved_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), award ? "premium_awarded" : "premium_refunded",
             "to " + std::to_string(to));
  }
}

void HedgedSwapContract::on_block(chain::TxContext& ctx) {
  // No principal by the escrow deadline: the premium's purpose is gone.
  if (premium_deposited() && !premium_resolved() && !escrowed() &&
      ctx.now() > p_.escrow_deadline) {
    resolve_premium(ctx, p_.premium_payer, /*award=*/false);
  }
  // Principal escrowed but never redeemed: refund it and award the premium
  // to the locked-up owner.
  if (escrowed() && !principal_resolved() &&
      ctx.now() > p_.redemption_deadline) {
    ctx.ledger().transfer(address(),
                          chain::Address::party(p_.principal_owner), sym_,
                          p_.principal_amount);
    principal_refunded_ = true;
    principal_resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "refunded", "to " + std::to_string(p_.principal_owner));
    }
    if (premium_deposited() && !premium_resolved()) {
      resolve_premium(ctx, p_.principal_owner, /*award=*/true);
    }
  }
}

}  // namespace xchain::contracts
