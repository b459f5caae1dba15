#include "contracts/broker.hpp"

#include <algorithm>

#include "core/premiums.hpp"

namespace xchain::contracts {

BrokerChainContract::BrokerChainContract(Params p)
    : p_(std::move(p)),
      diam_(p_.g.diameter()),
      rp_escrow_(p_.hashlocks.size()),
      rp_trading_(p_.hashlocks.size()),
      keys_escrow_(p_.hashlocks.size()),
      keys_trading_(p_.hashlocks.size()) {
  ep_.amount = p_.escrow_premium;
  ep_.payer = p_.escrow_arc.from;
  tp_.amount = p_.trading_premium;
  tp_.payer = p_.trading_arc.from;
}

PartyId BrokerChainContract::local_sender(const chain::TxContext& ctx) const {
  return ctx.sender() - p_.party_base;
}

bool BrokerChainContract::premium_activated(Which arc) const {
  const auto& slots = slots_of(arc);
  return std::all_of(slots.begin(), slots.end(), [](const auto& s) {
    return s.deposited_at.has_value();
  });
}

bool BrokerChainContract::all_open(Which a) const {
  const auto& keys = keys_of(a);
  return std::all_of(keys.begin(), keys.end(),
                     [](const auto& k) { return k.has_value(); });
}

void BrokerChainContract::deposit_escrow_premium(chain::TxContext& ctx) {
  if (local_sender(ctx) != ep_.payer || ep_.deposited) return;
  if (ctx.now() > p_.escrow_premium_deadline) return;
  if (!ctx.ledger().transfer(acct(ep_.payer), address(),
                             ctx.native_id(), ep_.amount)) {
    return;
  }
  ep_.deposited = true;
  if (ctx.tracing()) {
    ctx.emit(id(), "escrow_premium_deposited", std::to_string(ep_.amount));
  }
}

void BrokerChainContract::deposit_trading_premium(chain::TxContext& ctx) {
  if (local_sender(ctx) != tp_.payer || tp_.deposited) return;
  if (ctx.now() > p_.trading_premium_deadline) return;
  if (!ctx.ledger().transfer(acct(tp_.payer), address(),
                             ctx.native_id(), tp_.amount)) {
    return;
  }
  tp_.deposited = true;
  if (ctx.tracing()) {
    ctx.emit(id(), "trading_premium_deposited", std::to_string(tp_.amount));
  }
}

void BrokerChainContract::deposit_redemption_premium(
    chain::TxContext& ctx, Which arc, std::size_t leader_index,
    const graph::Path& q, const crypto::Signature& path_sig) {
  if (leader_index >= p_.hashlocks.size()) return;
  RedemptionSlot& slot = slots_of(arc)[leader_index];
  const graph::Arc& a = arc_of(arc);
  const PartyId sender = local_sender(ctx);
  if (sender != a.to || slot.deposited_at) return;
  // Per-path-length deadline (§7.1, as in the multi-party arc contract): a
  // late hop is rejected before it can extend activation past its window,
  // so a deviant party delaying the backward flow can never leave the
  // premium lattice asymmetrically activated. premium_base == 0 falls
  // back to the flat deadline (directly-constructed contracts).
  const Tick path_limit =
      p_.premium_base > 0
          ? p_.premium_base + static_cast<Tick>(q.size()) * p_.delta
          : p_.redemption_premium_deadline;
  if (ctx.now() > p_.redemption_premium_deadline ||
      ctx.now() > path_limit) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "too late");
    }
    return;
  }
  if (!p_.g.is_path(q) || q.front() != a.to ||
      q.back() != p_.hashlocks[leader_index].leader) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "bad path");
    }
    return;
  }
  if (!vcache_.verify_premium_path(p_.party_keys[sender], leader_index,
                                   q, path_sig)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "bad signature");
    }
    return;
  }
  const std::pair<PartyId, graph::Path> memo_key{a.from, q};
  const auto memo = rp_amount_memo_.find(memo_key);
  const Amount amount =
      memo != rp_amount_memo_.end()
          ? memo->second
          : rp_amount_memo_
                .emplace(memo_key, core::redemption_premium(
                                       p_.g, q, a.from, p_.premium_unit))
                .first->second;
  if (!ctx.ledger().transfer(acct(a.to), address(),
                             ctx.native_id(), amount)) {
    return;
  }
  slot.amount = amount;
  slot.path = q;
  slot.deposited_at = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "redemption_premium_deposited",
             "arc " + std::to_string(static_cast<int>(arc)) + " leader " +
                 std::to_string(leader_index) + " amount " +
                 std::to_string(amount));
  }
}

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
  if (ep_.deposited && !ep_.refunded && !ep_.awarded) {
    pay_simple(ctx, ep_, ep_.payer, /*award=*/false, "escrow_premium");
  }
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
  if (tp_.deposited && !tp_.refunded && !tp_.awarded) {
    pay_simple(ctx, tp_, tp_.payer, /*award=*/false, "trading_premium");
  }
}

void BrokerChainContract::present_hashkey(chain::TxContext& ctx, Which arc,
                                          std::size_t leader_index,
                                          const crypto::Hashkey& key) {
  if (leader_index >= p_.hashlocks.size()) return;
  auto& keys = keys_of(arc);
  if (keys[leader_index]) return;
  const graph::Arc& a = arc_of(arc);
  if (ctx.now() > path_deadline(key.path.size())) {
    if (ctx.tracing()) ctx.emit(id(), "hashkey_rejected", "timed out");
    return;
  }
  if (!p_.g.is_path(key.path) || key.presenter() != a.to ||
      key.leader() != p_.hashlocks[leader_index].leader) {
    if (ctx.tracing()) ctx.emit(id(), "hashkey_rejected", "bad path");
    return;
  }
  const auto key_of = [this](PartyId pid) { return p_.party_keys[pid]; };
  if (!vcache_.verify_hashkey(key, p_.hashlocks[leader_index].digest,
                              key_of)) {
    if (ctx.tracing()) ctx.emit(id(), "hashkey_rejected", "bad crypto");
    return;
  }
  keys[leader_index] = key;
  if (ctx.tracing()) {
    ctx.emit(id(), "hashkey_presented",
             "arc " + std::to_string(static_cast<int>(arc)) + " leader " +
                 std::to_string(leader_index));
  }

  RedemptionSlot& slot = slots_of(arc)[leader_index];
  if (slot.deposited_at && !slot.refunded && !slot.awarded) {
    ctx.ledger().transfer(address(), acct(a.to),
                          ctx.native_id(), slot.amount);
    slot.refunded = true;
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_refunded",
               "arc " + std::to_string(static_cast<int>(arc)) + " leader " +
                   std::to_string(leader_index));
    }
  }
  try_redeem(ctx, arc);
}

void BrokerChainContract::try_redeem(chain::TxContext& ctx, Which arc) {
  if (refunded_ || !all_open(arc)) return;
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

void BrokerChainContract::pay_simple(chain::TxContext& ctx,
                                     SimplePremium& prem, PartyId to,
                                     bool award, const char* label) {
  ctx.ledger().transfer(address(), acct(to), ctx.native_id(),
                        prem.amount);
  (award ? prem.awarded : prem.refunded) = true;
  if (ctx.tracing()) {
    ctx.emit(id(), std::string(label) + (award ? "_awarded" : "_refunded"),
             "to " + std::to_string(to));
  }
}

std::vector<Tick> BrokerChainContract::timeouts() const {
  std::vector<Tick> out{p_.escrow_deadline, p_.trading_deadline};
  for (std::size_t len = 0; len <= p_.g.size(); ++len) {
    out.push_back(path_deadline(len));
  }
  return out;
}

void BrokerChainContract::on_block(chain::TxContext& ctx) {
  // Escrow premium at the escrow deadline.
  if (ep_.deposited && !ep_.refunded && !ep_.awarded && !escrowed_at_ &&
      ctx.now() > p_.escrow_deadline) {
    if (premium_activated(Which::kEscrowArc)) {
      pay_simple(ctx, ep_, p_.escrow_arc.to, /*award=*/true,
                 "escrow_premium");
    } else {
      pay_simple(ctx, ep_, ep_.payer, /*award=*/false, "escrow_premium");
    }
  }
  // Trading premium at the trading deadline.
  if (tp_.deposited && !tp_.refunded && !tp_.awarded && !traded_at_ &&
      ctx.now() > p_.trading_deadline) {
    if (premium_activated(Which::kTradingArc)) {
      pay_simple(ctx, tp_, p_.trading_arc.to, /*award=*/true,
                 "trading_premium");
    } else {
      pay_simple(ctx, tp_, tp_.payer, /*award=*/false, "trading_premium");
    }
  }
  // Redemption premiums past their per-path deadlines.
  for (Which arc : {Which::kEscrowArc, Which::kTradingArc}) {
    auto& slots = slots_of(arc);
    const auto& keys = keys_of(arc);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      RedemptionSlot& s = slots[i];
      if (s.deposited_at && !s.refunded && !s.awarded && !keys[i] &&
          ctx.now() > path_deadline(s.path.size())) {
        ctx.ledger().transfer(address(), acct(arc_of(arc).from),
                              ctx.native_id(), s.amount);
        s.awarded = true;
        if (ctx.tracing()) {
          ctx.emit(id(), "redemption_premium_awarded",
                   "arc " + std::to_string(static_cast<int>(arc)) +
                       " leader " + std::to_string(i));
        }
      }
    }
  }
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
