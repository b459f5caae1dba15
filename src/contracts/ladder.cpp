#include "contracts/ladder.hpp"

#include <stdexcept>

namespace xchain::contracts {

LadderContract::LadderContract(Params p) : p_(std::move(p)) {
  if (p_.rungs.empty()) {
    throw std::invalid_argument("LadderContract: at least the principal rung");
  }
  for (std::size_t j = 0; j + 1 < p_.rungs.size(); ++j) {
    if (p_.rungs[j].deposit_deadline <= p_.rungs[j + 1].deposit_deadline) {
      throw std::invalid_argument(
          "LadderContract: deadlines must decrease with rung index");
    }
  }
  for (std::size_t j = 0; j < p_.rungs.size(); ++j) {
    const auto& released_by = p_.rungs[j].released_by;
    if (released_by && *released_by >= j) {
      throw std::invalid_argument(
          "LadderContract: released_by must be a lower rung");
    }
  }
  rungs_.reserve(p_.rungs.size());
  for (const RungSpec& spec : p_.rungs) {
    rungs_.push_back(Rung{spec, {}, {}, {}});
  }
}

PartyId LadderContract::other_party(PartyId p) const {
  // Exactly two parties take part in a ladder: the principal owner and the
  // counterparty.
  const PartyId owner = rungs_[0].spec.depositor;
  return p == owner ? p_.counterparty : owner;
}

SymbolId LadderContract::symbol_of(std::size_t index,
                                   const chain::TxContext& ctx) const {
  return index == 0 ? sym_ : ctx.native_id();
}

void LadderContract::deposit(chain::TxContext& ctx, std::size_t index) {
  if (dead_ || index >= rungs_.size()) return;
  Rung& r = rungs_[index];
  if (ctx.sender() != r.spec.depositor || r.deposited_at) return;
  if (ctx.now() > r.spec.deposit_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "deposit_rejected",
               "rung " + std::to_string(index) + " past deadline");
    }
    return;
  }
  if (index + 1 < rungs_.size() && !rungs_[index + 1].deposited_at) {
    if (ctx.tracing()) {
      ctx.emit(id(), "deposit_rejected",
               "rung " + std::to_string(index) + " out of order");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(r.spec.depositor),
                             address(), symbol_of(index, ctx),
                             r.spec.amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "deposit_rejected",
               "rung " + std::to_string(index) + " insufficient balance");
    }
    return;
  }
  r.deposited_at = ctx.now();
  r.state = RungState::kHeld;
  if (ctx.tracing()) {
    ctx.emit(id(), index == 0 ? "escrowed" : "rung_deposited",
             "rung " + std::to_string(index) + " amount " +
                 std::to_string(r.spec.amount));
  }

  // RELEASE rule: this deposit may end higher rungs' guard duty.
  for (std::size_t j = index + 1; j < rungs_.size(); ++j) {
    if (rungs_[j].state == RungState::kHeld &&
        rungs_[j].spec.released_by == index) {
      resolve(ctx, j, rungs_[j].spec.depositor, RungState::kRefunded);
    }
  }
}

void LadderContract::redeem(chain::TxContext& ctx,
                            const crypto::Bytes& preimage) {
  if (dead_) return;
  Rung& principal = rungs_[0];
  if (principal.state != RungState::kHeld) return;
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
  resolve(ctx, 0, p_.counterparty, RungState::kRedeemed);
  // FINAL rule: redemption refunds the counterparty's premium (rung 1).
  if (rungs_.size() > 1 && rungs_[1].state == RungState::kHeld) {
    resolve(ctx, 1, rungs_[1].spec.depositor, RungState::kRefunded);
  }
}

void LadderContract::resolve(chain::TxContext& ctx, std::size_t index,
                             PartyId to, RungState final_state) {
  Rung& r = rungs_[index];
  ctx.ledger().transfer(address(), chain::Address::party(to),
                        symbol_of(index, ctx), r.spec.amount);
  r.state = final_state;
  r.resolved_at = ctx.now();
  const char* kind = final_state == RungState::kRefunded    ? "rung_refunded"
                     : final_state == RungState::kForfeited ? "rung_forfeited"
                                                            : "redeemed";
  if (ctx.tracing()) {
    ctx.emit(id(), kind,
             "rung " + std::to_string(index) + " to " + std::to_string(to));
  }
}

void LadderContract::kill(chain::TxContext& ctx, std::size_t missing) {
  dead_ = true;
  if (ctx.tracing()) {
    ctx.emit(id(), "ladder_dead",
             "rung " + std::to_string(missing) + " missing at deadline");
  }
  // DEFAULT rule: refund every held rung, except a principal guard when
  // the principal itself defaulted — that one compensates the
  // counterparty.
  const bool principal_default = missing == 0;
  const PartyId defaulter = rungs_[missing].spec.depositor;
  for (std::size_t j = 0; j < rungs_.size(); ++j) {
    if (rungs_[j].state != RungState::kHeld) continue;
    if (principal_default && rungs_[j].spec.guards_principal) {
      resolve(ctx, j, other_party(defaulter), RungState::kForfeited);
    } else {
      resolve(ctx, j, rungs_[j].spec.depositor, RungState::kRefunded);
    }
  }
}

void LadderContract::on_block(chain::TxContext& ctx) {
  if (dead_) return;
  // DEFAULT: scan from the earliest deadline (highest rung) down; kill at
  // the first expired hole. (ORDER means nothing below a hole can exist.)
  for (std::size_t j = rungs_.size(); j-- > 0;) {
    const Rung& r = rungs_[j];
    if (!r.deposited_at && ctx.now() > r.spec.deposit_deadline) {
      kill(ctx, j);
      return;
    }
    if (!r.deposited_at) break;  // not yet due; nothing below is either
  }
  // FINAL: unredeemed principal past the redemption deadline.
  if (rungs_[0].state == RungState::kHeld &&
      ctx.now() > p_.redemption_deadline) {
    const PartyId owner = rungs_[0].spec.depositor;
    resolve(ctx, 0, owner, RungState::kRefunded);
    if (rungs_.size() > 1 && rungs_[1].state == RungState::kHeld) {
      resolve(ctx, 1, owner, RungState::kForfeited);
    }
    // Any still-held guard (released only by events that can no longer
    // happen) is refunded.
    for (std::size_t j = 2; j < rungs_.size(); ++j) {
      if (rungs_[j].state == RungState::kHeld) {
        resolve(ctx, j, rungs_[j].spec.depositor, RungState::kRefunded);
      }
    }
  }
}

}  // namespace xchain::contracts
