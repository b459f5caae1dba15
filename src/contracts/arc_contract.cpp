#include "contracts/arc_contract.hpp"

#include <algorithm>

#include "core/premiums.hpp"

namespace xchain::contracts {

MultiPartyArcContract::MultiPartyArcContract(Params p)
    : p_(std::move(p)),
      diam_(p_.g.diameter()),
      rp_(p_.hashlocks.size()),
      hashkeys_(p_.hashlocks.size()) {}

bool MultiPartyArcContract::escrow_premium_activated() const {
  return std::all_of(rp_.begin(), rp_.end(), [](const RedemptionPremium& r) {
    return r.deposited_at.has_value();
  });
}

bool MultiPartyArcContract::all_hashlocks_open() const {
  return std::all_of(hashkeys_.begin(), hashkeys_.end(),
                     [](const auto& k) { return k.has_value(); });
}

void MultiPartyArcContract::deposit_escrow_premium(chain::TxContext& ctx) {
  if (ctx.sender() != sender_of_arc() || ep_deposited_) return;
  if (ctx.now() > p_.escrow_deadline) {
    if (ctx.tracing()) {
      ctx.emit(id(), "escrow_premium_rejected", "too late");
    }
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(sender_of_arc()),
                             address(), ctx.native_id(),
                             p_.escrow_premium)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "escrow_premium_rejected", "insufficient balance");
    }
    return;
  }
  ep_deposited_ = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "escrow_premium_deposited",
             std::to_string(p_.escrow_premium));
  }
}

void MultiPartyArcContract::deposit_redemption_premium(
    chain::TxContext& ctx, std::size_t leader_index, const graph::Path& q,
    const crypto::Signature& path_sig) {
  if (leader_index >= rp_.size()) return;
  RedemptionPremium& slot = rp_[leader_index];
  if (ctx.sender() != recipient_of_arc() || slot.deposited_at) return;
  // Per-path-length deadline (the §7.1 rule, mirroring the hashkey
  // timeouts): a deposit whose path has |q| hops is timely until
  // premium_base + |q| * Delta. This keeps the backward premium flow
  // all-or-nothing per leader: a hop that arrives late is rejected HERE,
  // before it can extend activation past the window — otherwise a deviant
  // party delaying the flow could leave downstream arcs activated while
  // upstream arcs are not, putting conforming parties' escrow premiums at
  // risk for escrows they rightly never make. The flat phase deadline
  // stays as the overall horizon (|q| <= n makes it redundant for real
  // paths, but deposits must never outlive phase 2). premium_base == 0
  // means "flat deadline only" — directly-constructed contracts (tests)
  // keep the documented redemption_premium_deadline, exactly like the
  // asset_escrow_deadline fallback below.
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
  // Well-formedness (§3.2): the path must be a real path of G from v to
  // the leader, signed by the depositor.
  if (!p_.g.is_path(q) || q.front() != recipient_of_arc() ||
      q.back() != p_.hashlocks[leader_index].leader) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "bad path");
    }
    return;
  }
  if (!vcache_.verify_premium_path(p_.party_keys[ctx.sender()], leader_index,
                                   q, path_sig)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "bad signature");
    }
    return;
  }
  // Equation 1 dictates the amount; the beneficiary is u.
  const auto memo = rp_amount_memo_.find(q);
  const Amount amount =
      memo != rp_amount_memo_.end()
          ? memo->second
          : rp_amount_memo_
                .emplace(q, core::redemption_premium(p_.g, q, sender_of_arc(),
                                                     p_.premium_unit))
                .first->second;
  if (!ctx.ledger().transfer(chain::Address::party(recipient_of_arc()),
                             address(), ctx.native_id(), amount)) {
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_rejected", "insufficient balance");
    }
    return;
  }
  slot.amount = amount;
  slot.path = q;
  slot.deposited_at = ctx.now();
  if (ctx.tracing()) {
    ctx.emit(id(), "redemption_premium_deposited",
             "leader " + std::to_string(leader_index) + " amount " +
                 std::to_string(amount));
  }
}

void MultiPartyArcContract::escrow_asset(chain::TxContext& ctx) {
  if (ctx.sender() != sender_of_arc() || escrowed_at_) return;
  const Tick asset_deadline = p_.asset_escrow_deadline > 0
                                  ? p_.asset_escrow_deadline
                                  : p_.escrow_deadline;
  if (ctx.now() > asset_deadline || ctx.now() > p_.escrow_deadline) {
    if (ctx.tracing()) ctx.emit(id(), "escrow_rejected", "too late");
    return;
  }
  if (!ctx.ledger().transfer(chain::Address::party(sender_of_arc()),
                             address(), sym_, p_.asset_amount)) {
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
  // Lemma 1: "v's escrow premium E(v, w) is refunded as soon as v escrows
  // its asset on that arc."
  if (ep_deposited_ && !ep_refunded_ && !ep_awarded_) {
    refund_escrow_premium(ctx, sender_of_arc(), /*award=*/false);
  }
}

void MultiPartyArcContract::present_hashkey(chain::TxContext& ctx,
                                            std::size_t leader_index,
                                            const crypto::Hashkey& key) {
  if (leader_index >= hashkeys_.size() || hashkeys_[leader_index]) return;
  // Timeliness: (diam + |q|) * Delta from the hashkey base.
  if (ctx.now() > path_deadline(key.path.size())) {
    if (ctx.tracing()) ctx.emit(id(), "hashkey_rejected", "timed out");
    return;
  }
  // Structural validity: the path must run from this arc's recipient to
  // the leader along arcs of G.
  if (!p_.g.is_path(key.path) || key.presenter() != recipient_of_arc() ||
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
  hashkeys_[leader_index] = key;
  if (ctx.tracing()) {
    ctx.emit(id(), "hashkey_presented",
             "leader " + std::to_string(leader_index) + " path " +
                 graph::to_string(key.path));
  }

  // Lemma 1: "v's redemption premium R_i(q, u) is refunded as soon as v
  // sends hashkey k_i on that arc."
  RedemptionPremium& slot = rp_[leader_index];
  if (slot.deposited_at && !slot.refunded && !slot.awarded) {
    ctx.ledger().transfer(address(),
                          chain::Address::party(recipient_of_arc()),
                          ctx.native_id(), slot.amount);
    slot.refunded = true;
    if (ctx.tracing()) {
      ctx.emit(id(), "redemption_premium_refunded",
               "leader " + std::to_string(leader_index));
    }
  }

  // Redemption: all hashkeys collected -> the asset goes to v.
  if (escrowed_at_ && !redeemed_ && !refunded_ && all_hashlocks_open()) {
    ctx.ledger().transfer(address(),
                          chain::Address::party(recipient_of_arc()), sym_,
                          p_.asset_amount);
    redeemed_ = true;
    asset_resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "redeemed", "to " + std::to_string(recipient_of_arc()));
    }
  }
}

void MultiPartyArcContract::refund_escrow_premium(chain::TxContext& ctx,
                                                  PartyId to, bool award) {
  ctx.ledger().transfer(address(), chain::Address::party(to), ctx.native_id(),
                        p_.escrow_premium);
  (award ? ep_awarded_ : ep_refunded_) = true;
  if (ctx.tracing()) {
    ctx.emit(id(),
             award ? "escrow_premium_awarded" : "escrow_premium_refunded",
             "to " + std::to_string(to));
  }
}

std::vector<Tick> MultiPartyArcContract::timeouts() const {
  std::vector<Tick> out{p_.escrow_deadline};
  for (std::size_t len = 0; len <= p_.g.size(); ++len) {
    out.push_back(path_deadline(len));
  }
  return out;
}

void MultiPartyArcContract::on_block(chain::TxContext& ctx) {
  // Escrow premium resolution at the escrow deadline: if never activated,
  // refund to u; if activated and the asset never arrived, award to v.
  if (ep_deposited_ && !ep_refunded_ && !ep_awarded_ && !escrowed_at_ &&
      ctx.now() > p_.escrow_deadline) {
    if (escrow_premium_activated()) {
      refund_escrow_premium(ctx, recipient_of_arc(), /*award=*/true);
    } else {
      refund_escrow_premium(ctx, sender_of_arc(), /*award=*/false);
    }
  }
  // Redemption premiums: awarded to u when the hashkey misses the deadline
  // determined by the deposit's own path length.
  for (std::size_t i = 0; i < rp_.size(); ++i) {
    RedemptionPremium& slot = rp_[i];
    if (slot.deposited_at && !slot.refunded && !slot.awarded &&
        !hashkeys_[i] && ctx.now() > path_deadline(slot.path.size())) {
      ctx.ledger().transfer(address(), chain::Address::party(sender_of_arc()),
                            ctx.native_id(), slot.amount);
      slot.awarded = true;
      if (ctx.tracing()) {
        ctx.emit(id(), "redemption_premium_awarded",
                 "leader " + std::to_string(i) + " to " +
                     std::to_string(sender_of_arc()));
      }
    }
  }
  // Asset refund: after the longest possible hashkey deadline, an
  // unredeemed asset returns to u.
  if (escrowed_at_ && !redeemed_ && !refunded_ &&
      ctx.now() > path_deadline(p_.g.size())) {
    ctx.ledger().transfer(address(), chain::Address::party(sender_of_arc()),
                          sym_, p_.asset_amount);
    refunded_ = true;
    asset_resolved_at_ = ctx.now();
    if (ctx.tracing()) {
      ctx.emit(id(), "refunded", "to " + std::to_string(sender_of_arc()));
    }
  }
}

}  // namespace xchain::contracts
