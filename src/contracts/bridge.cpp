#include "contracts/bridge.hpp"

#include <string>

namespace xchain::contracts {

// ---------------------------------------------------------------------------
// BridgeDoorContract
// ---------------------------------------------------------------------------

void BridgeDoorContract::deposit_premium(chain::TxContext& ctx) {
  if (!p_.hedged || ctx.sender() != p_.user || premium_deposited()) return;
  if (ctx.now() > p_.premium_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "premium_rejected", "past premium deadline");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.user), address(),
                             ctx.native_id(), p_.premium_amount)) {
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

void BridgeDoorContract::post_bond(chain::TxContext& ctx) {
  const PartyId w = ctx.sender();
  if (!p_.hedged || !is_witness(w) || bond_posted(w)) return;
  if (ctx.now() > p_.bond_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "bond_rejected", "past bond deadline");
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(w), address(),
                             ctx.native_id(), p_.bond_amount)) {
    if (ctx.tracing()) ctx.emit(id(), "bond_rejected", "insufficient balance");
    return;
  }
  bonds_mask_ |= 1ull << (w - p_.party_base - 1);
  if (ctx.tracing()) {
    ctx.emit(id(), "bond_posted", "witness " + std::to_string(w));
  }
}

void BridgeDoorContract::commit(chain::TxContext& ctx) {
  if (ctx.sender() != p_.user || committed() || commit_window_closed_) return;
  if (ctx.now() > p_.commit_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "commit_rejected", "past commit deadline");
    }
    return;
  }
  if (p_.hedged &&
      (!premium_deposited() || bonds_posted() < p_.quorum)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "commit_rejected", "premium or bond quorum missing");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.user), address(), sym_,
                             p_.principal_amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "commit_rejected", "insufficient principal");
    }
    return;
  }
  if (p_.rewards_at_door &&
      !ctx.ledger().transfer(chain::Address::party(p_.user), address(),
                             ctx.native_id(), reward_pool())) {
    // Unwind the principal: a commit without its reward pool is no commit.
    ctx.ledger().transfer(address(), chain::Address::party(p_.user), sym_,
                          p_.principal_amount);
    if (ctx.tracing()) {
      ctx.emit(id(), "commit_rejected", "insufficient reward pool");
    }
    return;
  }
  committed_at_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "committed",
             p_.principal_symbol + ":" + std::to_string(p_.principal_amount));
  }
}

void BridgeDoorContract::report_settle(chain::TxContext& ctx, bool success,
                                       std::uint64_t attester_mask) {
  if (!is_witness(ctx.sender()) || !committed() || settled_) return;
  if (ctx.now() > p_.settle_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "report_rejected", "past settle deadline");
    }
    return;
  }
  success_reported_ = success_reported_ || success;
  reported_mask_ |= attester_mask & witness_mask();
  if (ctx.tracing()) {
    ctx.emit(id(), "settle_reported",
             "witness " + std::to_string(ctx.sender()) +
                 (success ? " success" : " failure"));
  }
}

void BridgeDoorContract::refund_bonds(chain::TxContext& ctx,
                                      std::uint64_t mask) {
  for (int bit = 0; bit < p_.n_witnesses; ++bit) {
    if ((mask >> bit) & 1) {
      ctx.ledger().transfer(address(), chain::Address::party(witness_at(bit)),
                            ctx.native_id(), p_.bond_amount);
    }
  }
}

void BridgeDoorContract::refund_premium(chain::TxContext& ctx) {
  if (!premium_deposited() || premium_refunded_ || premium_split_) return;
  ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                        ctx.native_id(), p_.premium_amount);
  premium_refunded_ = true;
}

void BridgeDoorContract::resolve_no_commit(chain::TxContext& ctx) {
  commit_window_closed_ = true;
  const int bonded = bonds_posted();
  if (premium_deposited() && bonded >= p_.quorum) {
    // The witnesses held up their side and the user walked away: the
    // premium is theirs (integer split, remainder back to the user).
    const Amount share = p_.premium_amount / bonded;
    for (int bit = 0; bit < p_.n_witnesses; ++bit) {
      if ((bonds_mask_ >> bit) & 1) {
        ctx.ledger().transfer(address(), chain::Address::party(witness_at(bit)),
                              ctx.native_id(), share);
      }
    }
    const Amount remainder = p_.premium_amount - share * bonded;
    if (remainder > 0) {
      ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                            ctx.native_id(), remainder);
    }
    premium_split_ = true;
    if (ctx.tracing()) {
      ctx.emit(id(), "premium_split",
               "among " + std::to_string(bonded) + " bonded witnesses");
    }
  } else {
    refund_premium(ctx);
  }
  refund_bonds(ctx, bonds_mask_);
  if (ctx.tracing()) ctx.emit(id(), "commit_window_closed", "no commit");
}

void BridgeDoorContract::resolve_settle(chain::TxContext& ctx) {
  settled_ = true;
  settle_success_ = success_reported_;
  refund_premium(ctx);
  if (settle_success_) {
    // Principal stays in the door backing the wrapped issuance; every
    // bond refunds (non-attesters did no harm on a completed transfer).
    refund_bonds(ctx, bonds_mask_);
    if (p_.rewards_at_door) {
      Amount paid = 0;
      for (int bit = 0; bit < p_.n_witnesses; ++bit) {
        if ((reported_mask_ >> bit) & 1) {
          ctx.ledger().transfer(address(),
                                chain::Address::party(witness_at(bit)),
                                ctx.native_id(), p_.reward_amount);
          paid += p_.reward_amount;
        }
      }
      if (reward_pool() > paid) {
        ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                              ctx.native_id(), reward_pool() - paid);
      }
    }
    if (ctx.tracing()) ctx.emit(id(), "settled", "success");
  } else {
    ctx.ledger().transfer(address(), chain::Address::party(p_.user), sym_,
                          p_.principal_amount);
    principal_refunded_ = true;
    if (p_.rewards_at_door && reward_pool() > 0) {
      ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                            ctx.native_id(), reward_pool());
    }
    // Reported attesters kept their side: bonds refund. The rest forfeit
    // to the user — the premium compensation of the paper's construction.
    refund_bonds(ctx, bonds_mask_ & reported_mask_);
    forfeited_mask_ = bonds_mask_ & ~reported_mask_;
    if (forfeited_mask_ != 0) {
      ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                            ctx.native_id(),
                            p_.bond_amount * bonds_forfeited());
    }
    if (ctx.tracing()) {
      ctx.emit(id(), "settled",
               "failure, " + std::to_string(bonds_forfeited()) +
                   " bonds forfeited");
    }
  }
}

void BridgeDoorContract::on_block(chain::TxContext& ctx) {
  if (!committed() && !commit_window_closed_ &&
      ctx.now() > p_.commit_deadline) {
    resolve_no_commit(ctx);
  }
  if (committed() && !settled_ && ctx.now() > p_.settle_deadline) {
    resolve_settle(ctx);
  }
}

// ---------------------------------------------------------------------------
// BridgeClaimContract
// ---------------------------------------------------------------------------

void BridgeClaimContract::create(chain::TxContext& ctx) {
  if (!p_.user_creates || ctx.sender() != p_.user || created_) return;
  if (ctx.now() > p_.create_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "create_rejected", "past deadline");
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(p_.user), address(),
                             ctx.native_id(), reward_pool())) {
    if (ctx.tracing()) {
      ctx.emit(id(), "create_rejected", "insufficient reward pool");
    }
    return;
  }
  created_ = true;
  if (ctx.tracing()) {
    ctx.emit(id(), "claim_created", "pool " + std::to_string(reward_pool()));
  }
}

void BridgeClaimContract::attest(chain::TxContext& ctx) {
  const PartyId w = ctx.sender();
  if (!is_witness(w) || !created_ || failed_ || attested(w)) return;
  if (ctx.now() > p_.attest_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "attest_rejected", "past attest deadline");
    }
    return;
  }
  attest_mask_ |= 1ull << (w - p_.party_base - 1);
  if (p_.user_creates && p_.reward_amount > 0) {
    // Eager reward: collected on acceptance, quorum or not (the bridge
    // attack surface the hedge compensates for).
    ctx.ledger().transfer(address(), chain::Address::party(w),
                          ctx.native_id(), p_.reward_amount);
    rewards_paid_ += p_.reward_amount;
  }
  if (ctx.tracing()) {
    ctx.emit(id(), "attested", "witness " + std::to_string(w));
  }
  if (!resolved_ && attester_count() >= p_.quorum) {
    ctx.ledger().transfer(address(), chain::Address::party(p_.user), wrapped_,
                          p_.transfer_amount);
    resolved_ = true;
    if (ctx.tracing()) {
      ctx.emit(id(), "claim_resolved",
               "quorum of " + std::to_string(p_.quorum));
    }
  }
}

void BridgeClaimContract::on_block(chain::TxContext& ctx) {
  if (closed_ || ctx.now() <= p_.attest_deadline) return;
  closed_ = true;
  if (!resolved_) failed_ = true;
  const Amount remainder = reward_pool() - rewards_paid_;
  if (created_ && remainder > 0) {
    ctx.ledger().transfer(address(), chain::Address::party(p_.user),
                          ctx.native_id(), remainder);
  }
  if (ctx.tracing()) {
    ctx.emit(id(), "claim_closed", failed_ ? "failed" : "completed");
  }
}

}  // namespace xchain::contracts
