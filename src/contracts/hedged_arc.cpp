#include "contracts/hedged_arc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/premiums.hpp"

namespace xchain::contracts {

HedgedArc::HedgedArc(const chain::Contract& host, const LatticeTerms& terms,
                     Spec spec)
    : host_(host), t_(terms), spec_(std::move(spec)) {
#ifndef NDEBUG
  if (t_.diameter != t_.g.diameter()) {
    // Appended in steps (a GCC 12 -Wrestrict false positive, bug 105651).
    std::string what = "HedgedArc: LatticeTerms::diameter is ";
    what += std::to_string(t_.diameter);
    what += ", the deal graph's is ";
    what += std::to_string(t_.g.diameter());
    throw std::logic_error(what);
  }
#endif
  st_.rp.resize(t_.hashlocks.size());
  st_.keys.resize(t_.hashlocks.size());
}

bool HedgedArc::activated() const {
  return std::all_of(st_.rp.begin(), st_.rp.end(), [](const auto& r) {
    return r.held != Held::kNone;
  });
}

bool HedgedArc::all_open() const {
  return std::all_of(st_.keys.begin(), st_.keys.end(),
                     [](const auto& k) { return k.has_value(); });
}

void HedgedArc::deposit_premium(chain::TxContext& ctx) {
  if (local_sender(ctx) != spec_.arc.from || st_.premium != Held::kNone) {
    return;
  }
  const auto reject = [&](const char* why) {
    if (ctx.tracing()) {
      ctx.emit(host_.id(), std::string(spec_.premium_label) + "_rejected",
               why);
    }
  };
  if (ctx.now() > spec_.premium_deadline) {
    reject("too late");
    return;
  }
  if (!ctx.ledger().transfer(account(spec_.arc.from), host_.address(),
                             ctx.native_id(), spec_.premium)) {
    reject("insufficient balance");
    return;
  }
  st_.premium = Held::kHeld;
  if (ctx.tracing()) {
    ctx.emit(host_.id(), std::string(spec_.premium_label) + "_deposited",
             std::to_string(spec_.premium));
  }
}

void HedgedArc::deposit_redemption_premium(chain::TxContext& ctx,
                                           std::size_t i,
                                           const graph::Path& q,
                                           const crypto::Signature& path_sig) {
  if (i >= st_.rp.size()) return;
  RedemptionSlot& slot = st_.rp[i];
  if (local_sender(ctx) != spec_.arc.to || slot.held != Held::kNone) return;
  // Per-path-length deadline (the §7.1 rule, mirroring the hashkey
  // timeouts): a deposit whose path has |q| hops is timely until
  // premium_base + |q| * Delta. This keeps the backward premium flow
  // all-or-nothing per leader: a hop that arrives late is rejected HERE,
  // before it can extend activation past the window — otherwise a deviant
  // party delaying the flow could leave downstream arcs activated while
  // upstream arcs are not, putting conforming parties' arc premiums at
  // risk for moves they rightly never make. The flat phase deadline stays
  // as the overall horizon (|q| <= n makes it redundant for real paths,
  // but deposits must never outlive the relay phase).
  const Tick path_limit =
      t_.premium_base > 0
          ? t_.premium_base + static_cast<Tick>(q.size()) * t_.delta
          : t_.redemption_premium_deadline;
  if (ctx.now() > t_.redemption_premium_deadline || ctx.now() > path_limit) {
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_rejected", "too late");
    }
    return;
  }
  // Well-formedness (§3.2): the path must be a real path of G from v to
  // the leader, signed by the depositor.
  if (!t_.g.is_path(q) || q.front() != spec_.arc.to ||
      q.back() != t_.hashlocks[i].leader) {
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_rejected", "bad path");
    }
    return;
  }
  if (!vcache_.verify_premium_path(t_.party_keys[spec_.arc.to], i, q,
                                   path_sig)) {
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_rejected", "bad signature");
    }
    return;
  }
  // Equation 1 dictates the amount; the beneficiary is u.
  const auto memo = rp_amount_memo_.find(q);
  const Amount amount =
      memo != rp_amount_memo_.end()
          ? memo->second
          : rp_amount_memo_
                .emplace(q, core::redemption_premium(t_.g, q, spec_.arc.from,
                                                     t_.premium_unit))
                .first->second;
  if (!ctx.ledger().transfer(account(spec_.arc.to), host_.address(),
                             ctx.native_id(), amount)) {
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_rejected",
               "insufficient balance");
    }
    return;
  }
  slot.amount = amount;
  slot.path = q;
  slot.held = Held::kHeld;
  if (ctx.tracing()) {
    ctx.emit(host_.id(), "redemption_premium_deposited",
             spec_.tag + "leader " + std::to_string(i) + " amount " +
                 std::to_string(amount));
  }
}

bool HedgedArc::present_hashkey(chain::TxContext& ctx, std::size_t i,
                                const crypto::Hashkey& key) {
  if (i >= st_.keys.size() || st_.keys[i]) return false;
  if (ctx.now() > path_deadline(key.path.size())) {
    if (ctx.tracing()) ctx.emit(host_.id(), "hashkey_rejected", "timed out");
    return false;
  }
  // Structural validity: the path must run from v to the leader along
  // arcs of G.
  if (!t_.g.is_path(key.path) || key.presenter() != spec_.arc.to ||
      key.leader() != t_.hashlocks[i].leader) {
    if (ctx.tracing()) ctx.emit(host_.id(), "hashkey_rejected", "bad path");
    return false;
  }
  const auto key_of = [this](PartyId pid) { return t_.party_keys[pid]; };
  if (!vcache_.verify_hashkey(key, t_.hashlocks[i].digest, key_of)) {
    if (ctx.tracing()) ctx.emit(host_.id(), "hashkey_rejected", "bad crypto");
    return false;
  }
  st_.keys[i] = key;
  if (ctx.tracing()) {
    ctx.emit(host_.id(), "hashkey_presented",
             spec_.tag + "leader " + std::to_string(i) + " path " +
                 graph::to_string(key.path));
  }
  // Lemma 1: "v's redemption premium R_i(q, u) is refunded as soon as v
  // sends hashkey k_i on that arc."
  RedemptionSlot& slot = st_.rp[i];
  if (slot.held == Held::kHeld) {
    ctx.ledger().transfer(host_.address(), account(spec_.arc.to),
                          ctx.native_id(), slot.amount);
    slot.held = Held::kRefunded;
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_refunded",
               spec_.tag + "leader " + std::to_string(i));
    }
  }
  return true;
}

void HedgedArc::principal_moved(chain::TxContext& ctx) {
  // Lemma 1: "v's escrow premium E(v, w) is refunded as soon as v escrows
  // its asset on that arc."
  if (st_.premium == Held::kHeld) pay_premium(ctx, spec_.arc.from, false);
}

void HedgedArc::pay_premium(chain::TxContext& ctx, PartyId to, bool award) {
  ctx.ledger().transfer(host_.address(), account(to), ctx.native_id(),
                        spec_.premium);
  st_.premium = award ? Held::kAwarded : Held::kRefunded;
  if (ctx.tracing()) {
    ctx.emit(host_.id(),
             std::string(spec_.premium_label) +
                 (award ? "_awarded" : "_refunded"),
             "to " + std::to_string(to));
  }
}

void HedgedArc::resolve_premium(chain::TxContext& ctx, bool moved) {
  if (st_.premium != Held::kHeld || moved ||
      ctx.now() <= spec_.move_deadline) {
    return;
  }
  const bool award = activated();
  pay_premium(ctx, award ? spec_.arc.to : spec_.arc.from, award);
}

void HedgedArc::award_expired(chain::TxContext& ctx) {
  for (std::size_t i = 0; i < st_.rp.size(); ++i) {
    RedemptionSlot& slot = st_.rp[i];
    if (slot.held != Held::kHeld || st_.keys[i] ||
        ctx.now() <= path_deadline(slot.path.size())) {
      continue;
    }
    ctx.ledger().transfer(host_.address(), account(spec_.arc.from),
                          ctx.native_id(), slot.amount);
    slot.held = Held::kAwarded;
    if (ctx.tracing()) {
      ctx.emit(host_.id(), "redemption_premium_awarded",
               spec_.tag + "leader " + std::to_string(i) + " to " +
                   std::to_string(spec_.arc.from));
    }
  }
}

std::vector<Tick> HedgedArc::with_path_deadlines(std::vector<Tick> out) const {
  for (std::size_t len = 0; len <= t_.g.size(); ++len) {
    out.push_back(path_deadline(len));
  }
  return out;
}

}  // namespace xchain::contracts
