#include "contracts/htlc.hpp"

namespace xchain::contracts {

void HtlcContract::fund(chain::TxContext& ctx) {
  if (ctx.sender() != p_.funder || funded() || resolved()) return;
  if (ctx.now() > p_.escrow_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "fund_rejected", "past escrow deadline");
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.funder), address(),
                             sym_, p_.amount)) {
    if (ctx.tracing()) ctx.emit(id(), "fund_rejected", "insufficient balance");
    return;
  }
  funded_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "escrowed", p_.symbol + ":" + std::to_string(p_.amount));
  }
}

void HtlcContract::redeem(chain::TxContext& ctx,
                          const crypto::Bytes& preimage) {
  if (!funded() || resolved()) return;
  if (ctx.now() > p_.timelock) {
    if (ctx.tracing()) ctx.emit(id(), "redeem_rejected", "past timelock");
    return;
  }
  if (!crypto::opens(p_.hashlock, preimage)) {
    if (ctx.tracing()) ctx.emit(id(), "redeem_rejected", "bad preimage");
    return;
  }
  preimage_ = preimage;
  ctx.ledger().transfer(address(), chain::Address::party(p_.counterparty),
                        sym_, p_.amount);
  redeemed_ = true;
  resolved_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "redeemed", "to " + std::to_string(p_.counterparty));
  }
}

void HtlcContract::on_block(chain::TxContext& ctx) {
  if (funded() && !resolved() && ctx.now() > p_.timelock) {
    ctx.ledger().transfer(address(), chain::Address::party(p_.funder), sym_,
                          p_.amount);
    refunded_ = true;
    resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "refunded", "to " + std::to_string(p_.funder));
    }
  }
}

}  // namespace xchain::contracts
