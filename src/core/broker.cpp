#include "core/broker.hpp"

#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "contracts/broker.hpp"
#include "core/hedged_relay.hpp"
#include "core/premiums.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/secret.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

using contracts::BrokerChainContract;
using Which = BrokerChainContract::Which;

constexpr PartyId kAlice = 0;
constexpr PartyId kBob = 1;
constexpr PartyId kCarol = 2;

/// The broker digraph (Figure 4a): arcs A->B, A->C, B->A, C->A.
graph::Digraph broker_digraph() {
  graph::Digraph g(3);
  g.add_arc(kAlice, kBob);
  g.add_arc(kAlice, kCarol);
  g.add_arc(kBob, kAlice);
  g.add_arc(kCarol, kAlice);
  return g;
}

/// One arc as hosted by a contract, with its role: a party's handle for
/// the shared relays (core/hedged_relay.hpp).
struct HostedArc {
  BrokerChainContract* contract = nullptr;
  Which which = Which::kEscrowArc;

  ChainId chain_id() const { return contract->chain_id(); }
  const contracts::HedgedArc& hedged() const {
    return contract->hedged(which);
  }
  void deposit(chain::TxContext& ctx, std::size_t i, const graph::Path& q,
               const crypto::Signature& sig) const {
    contract->deposit_redemption_premium(ctx, which, i, q, sig);
  }
  void present(chain::TxContext& ctx, std::size_t i,
               const crypto::Hashkey& key) const {
    contract->present_hashkey(ctx, which, i, key);
  }
};

struct Setup {
  graph::Digraph g;
  BrokerChainContract* ticket = nullptr;
  BrokerChainContract* coin = nullptr;
  std::vector<crypto::Secret> secrets;  ///< per party (all lead)
  std::vector<HostedArc> arcs;          ///< all four arcs
  crypto::SigningCache* sign_cache = nullptr;
  Tick hashkey_base = 0;
};

/// Shared relay behaviour plus per-role protocol actions.
class BrokerParty : public HedgedRelayParty<HostedArc> {
 public:
  BrokerParty(PartyId id, std::string name, const Setup& s,
              sim::DeviationPlan plan)
      : HedgedRelayParty<HostedArc>(id, std::move(name), std::move(plan), s.g,
                                    *s.sign_cache, 3, id),
        s_(s) {
    for (const HostedArc& a : s.arcs) {
      if (a.hedged().arc().to == id) in_.push_back(a);
      if (a.hedged().arc().from == id) out_.push_back(a);
    }
  }

  void step(chain::MultiChain& chains, Tick now) override {
    simple_premiums(chains, now);
    redemption_premiums(chains, now);
    principal_moves(chains, now);
    if (owes_own_key() && now >= s_.hashkey_base && ready_to_release(now)) {
      release_own_key(chains, now, 3, s_.secrets[id()].value());
    }
    relay_keys(chains, now, 3);
  }

 protected:
  virtual void simple_premiums(chain::MultiChain& chains, Tick now) = 0;
  virtual void principal_moves(chain::MultiChain& chains, Tick now) = 0;
  virtual bool ready_to_release(Tick now) const = 0;

  bool all_simple_premiums_deposited() const {
    return s_.ticket->escrow_premium_deposited() &&
           s_.ticket->trading_premium_deposited() &&
           s_.coin->escrow_premium_deposited() &&
           s_.coin->trading_premium_deposited();
  }

  /// Redemption premiums follow the §7.1 backward relay flow, exactly as
  /// in the multi-party engine: every party (all three lead) starts its
  /// own premium on its incoming arcs once the simple premiums are in, and
  /// relays the first sighting of another leader's premium from an
  /// outgoing arc onto its incoming arcs with the path extended by itself.
  /// (An earlier version deposited all premiums in one burst over
  /// precomputed shortest paths; the relay discipline is what guarantees a
  /// party is never exposed for a premium its downstream never matched —
  /// the late-delay/selective-drop sweeps falsified the burst shortcut.)
  void redemption_premiums(chain::MultiChain& chains, Tick now) {
    if (!all_simple_premiums_deposited()) return;
    if (owes_own_premium()) start_own_premium(chains, now, 1);
    relay_premiums(chains, now, 1);
  }

  const Setup& s_;
};

/// Alice: trading premiums, the two trades, releases k_A after both.
/// The snapshot mixin sits on the most-derived class so state_tie() can
/// cover both the shared BrokerParty flags (protected) and its own.
class AliceBroker : public chain::SnapshotState<AliceBroker, BrokerParty> {
 public:
  using chain::SnapshotState<AliceBroker, BrokerParty>::SnapshotState;

 private:
  void simple_premiums(chain::MultiChain& chains, Tick now) override {
    if (did_trading_premiums_) return;
    if (!s_.ticket->escrow_premium_deposited() ||
        !s_.coin->escrow_premium_deposited()) {
      return;
    }
    did_trading_premiums_ = true;
    act(chains, now, 0, [this](chain::MultiChain& ch) {
      for (BrokerChainContract* c : {s_.ticket, s_.coin}) {
        submit(ch, c->chain_id(), "trading premium",
               [c](chain::TxContext& ctx) { c->deposit_trading_premium(ctx); });
      }
    });
  }

  // A1 depends on B1; A2 depends on C1 (Figure 4b) — each trade also needs
  // its own arc's activation so the trading premium protection is live.
  void principal_moves(chain::MultiChain& chains, Tick now) override {
    if (!traded_tickets_ && s_.ticket->escrowed() &&
        s_.ticket->premium_activated(Which::kTradingArc)) {
      traded_tickets_ = true;
      act(chains, now, 2, [this](chain::MultiChain& ch) {
        submit(ch, s_.ticket->chain_id(), "trade tickets (A1)",
               [c = s_.ticket](chain::TxContext& ctx) { c->trade(ctx); });
      });
    }
    if (!traded_coins_ && s_.coin->escrowed() &&
        s_.coin->premium_activated(Which::kTradingArc)) {
      traded_coins_ = true;
      act(chains, now, 2, [this](chain::MultiChain& ch) {
        submit(ch, s_.coin->chain_id(), "trade coins (A2)",
               [c = s_.coin](chain::TxContext& ctx) { c->trade(ctx); });
      });
    }
  }

  bool ready_to_release(Tick now) const override {
    // Normal: both trades done. Recovery (§7 Lemma 4 analogue): past the
    // trading deadline nothing can change — Alice escrows no assets of her
    // own, so releasing k_A is free and recovers her premium deposits.
    return (s_.ticket->traded() && s_.coin->traded()) ||
           now > s_.ticket->params().trading_deadline;
  }

  bool did_trading_premiums_ = false;
  bool traded_tickets_ = false;
  bool traded_coins_ = false;

  auto state_tie() {
    return std::tuple_cat(relay_tie(), std::tie(did_trading_premiums_,
                                                traded_tickets_,
                                                traded_coins_));
  }
  friend chain::SnapshotState<AliceBroker, BrokerParty>;
};

/// Bob and Carol: escrow premium at start, escrow the principal once their
/// arc is activated, release their key once the trade destined for them
/// has happened.
class SellerBroker : public chain::SnapshotState<SellerBroker, BrokerParty> {
 public:
  SellerBroker(PartyId id, std::string name, const Setup& s,
               sim::DeviationPlan plan, BrokerChainContract* own_chain,
               BrokerChainContract* paid_on)
      : chain::SnapshotState<SellerBroker, BrokerParty>(id, std::move(name), s,
                                                        plan),
        own_(own_chain),
        paid_on_(paid_on) {}

 private:
  void simple_premiums(chain::MultiChain& chains, Tick now) override {
    if (did_escrow_premium_) return;
    did_escrow_premium_ = true;
    act(chains, now, 0, [this](chain::MultiChain& ch) {
      submit(ch, own_->chain_id(), "escrow premium",
             [c = own_](chain::TxContext& ctx) {
               c->deposit_escrow_premium(ctx);
             });
    });
  }

  void principal_moves(chain::MultiChain& chains, Tick now) override {
    if (did_escrow_ || !own_->premium_activated(Which::kEscrowArc)) return;
    did_escrow_ = true;
    act(chains, now, 2, [this](chain::MultiChain& ch) {
      submit(ch, own_->chain_id(), "escrow principal",
             [c = own_](chain::TxContext& ctx) { c->escrow(ctx); });
    });
  }

  // B2 / C2: release once the asset owed to this party sits in the trading
  // bucket (withholding the key is the §8 safety valve). Recovery: if this
  // party never escrowed and the escrow deadline has passed, its asset is
  // not at stake and releasing recovers its redemption premium deposits.
  bool ready_to_release(Tick now) const override {
    return paid_on_->traded() ||
           (now > own_->params().escrow_deadline && !own_->escrowed());
  }

  BrokerChainContract* own_;      ///< chain where this party escrows
  BrokerChainContract* paid_on_;  ///< chain whose trading arc pays them
  bool did_escrow_premium_ = false;
  bool did_escrow_ = false;

  auto state_tie() {
    return std::tuple_cat(relay_tie(),
                          std::tie(did_escrow_premium_, did_escrow_));
  }
  friend chain::SnapshotState<SellerBroker, BrokerParty>;
};

Tick lockup_of(const BrokerChainContract& c) {
  if (!c.refunded() || !c.escrowed_at()) return 0;
  // Refund happens in the final sweep; approximate lock-up as escrow ->
  // final deadline sweep.
  return c.path_deadline(c.params().g.size()) + 1 - *c.escrowed_at();
}

}  // namespace

struct BrokerWorld::Impl {
  Setup s;
  /// Private worlds own their chains; bound worlds alias the shared
  /// MultiChain and leave own_chains empty.
  chain::MultiChain own_chains;
  chain::MultiChain* chains = &own_chains;
  PartyId base = 0;  ///< first global party id (0 when private)
  crypto::SigningCache sign_cache;
  std::unique_ptr<PayoffTracker> tracker;
  std::unique_ptr<AliceBroker> alice;
  std::unique_ptr<SellerBroker> bob;
  std::unique_ptr<SellerBroker> carol;
  sim::TreeFrame frame;
};

BrokerWorld::BrokerWorld(const BrokerConfig& cfg, chain::TraceMode trace)
    : BrokerWorld(cfg, WorldBinding{}, trace) {}

BrokerWorld::BrokerWorld(const BrokerConfig& cfg, const WorldBinding& binding,
                         chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  const bool bound = binding.bound();
  w.base = binding.party_base;
  const Tick d = cfg.delta;
  const Tick t0 = binding.start;
  Setup& s = w.s;
  s.g = broker_digraph();
  s.sign_cache = &w.sign_cache;

  chain::MultiChain& chains = bound ? *binding.chains : w.own_chains;
  w.chains = &chains;
  if (!bound) chains.set_trace(trace);
  chain::Blockchain& ticket_chain = bound
                                        ? chains.get_or_add_chain("ticketchain")
                                        : chains.add_chain("ticketchain");
  chain::Blockchain& coin_chain = bound ? chains.get_or_add_chain("coinchain")
                                        : chains.add_chain("coinchain");

  crypto::Rng rng(bound ? "broker-deal:" + binding.tag
                        : std::string("broker-deal"));
  std::vector<crypto::PublicKey> pub_keys;
  const char* names[3] = {"alice", "bob", "carol"};
  for (int i = 0; i < 3; ++i) {
    s.secrets.push_back(crypto::Secret::random(rng));
    pub_keys.push_back(crypto::keygen_cached(names[i]).pub);
  }
  std::vector<BrokerChainContract::Hashlock> hashlocks;
  for (int i = 0; i < 3; ++i) {
    hashlocks.push_back(
        {static_cast<PartyId>(i), s.secrets[i].hashlock()});
  }

  // §8.2 premium amounts from the r = 1 broker formula.
  const auto phases = broker_premiums(
      s.g, {{kBob, kAlice}, {kCarol, kAlice}},
      {{{kAlice, kCarol}, {kAlice, kBob}}}, cfg.premium_unit);
  const Amount e_ba = phases[0].at({kBob, kAlice});
  const Amount e_ca = phases[0].at({kCarol, kAlice});
  const Amount t_ac = phases[1].at({kAlice, kCarol});
  const Amount t_ab = phases[1].at({kAlice, kBob});

  // Schedule (inclusive deadlines, Δ per observation hop): escrow premiums
  // land by Δ, trading premiums by 2Δ; the redemption premiums then flow
  // backward from each leader with the §7.1 per-path budget — a deposit
  // with |q| hops by 2Δ + |q|·Δ, the longest broker path being |q| = 3.
  // Principals escrow once their arc's activation is visible (by 5Δ),
  // Alice trades once escrow + trading activation are visible (by 6Δ), and
  // the hashkey phase starts after the trading deadline.
  s.hashkey_base = t0 + 6 * d;
  const std::size_t diam = s.g.diameter();
  auto common = [&](BrokerChainContract::Params& p) {
    p.g = s.g;
    p.diameter = diam;
    p.party_base = w.base;
    p.premium_unit = cfg.premium_unit;
    p.hashlocks = hashlocks;
    p.party_keys = pub_keys;
    p.delta = d;
    p.escrow_premium_deadline = t0 + d;
    p.trading_premium_deadline = t0 + 2 * d;
    p.premium_base = t0 + 2 * d;
    p.redemption_premium_deadline = t0 + 5 * d;
    p.escrow_deadline = t0 + 5 * d;
    p.trading_deadline = t0 + 6 * d;
    p.hashkey_base = s.hashkey_base;
  };

  BrokerChainContract::Params tp;
  tp.escrow_arc = {kBob, kAlice};
  tp.trading_arc = {kAlice, kCarol};
  tp.symbol = "ticket";
  tp.escrow_amount = cfg.ticket_count;
  tp.trading_amount = cfg.ticket_count;
  tp.escrow_premium = e_ba;
  tp.trading_premium = t_ac;
  common(tp);
  s.ticket = &ticket_chain.deploy<BrokerChainContract>(tp);

  BrokerChainContract::Params cp;
  cp.escrow_arc = {kCarol, kAlice};
  cp.trading_arc = {kAlice, kBob};
  cp.symbol = "coin";
  cp.escrow_amount = cfg.sale_price;
  cp.trading_amount = cfg.purchase_price;
  cp.escrow_premium = e_ca;
  cp.trading_premium = t_ab;
  common(cp);
  s.coin = &coin_chain.deploy<BrokerChainContract>(cp);

  s.arcs = {
      {s.ticket, Which::kEscrowArc},   // (B, A)
      {s.ticket, Which::kTradingArc},  // (A, C)
      {s.coin, Which::kEscrowArc},     // (C, A)
      {s.coin, Which::kTradingArc},    // (A, B)
  };

  // Endowments: assets plus ample premium coin on both chains.
  constexpr Amount kCoinBudget = 1'000'000;
  ticket_chain.ledger_for_setup().mint(chain::Address::party(w.base + kBob),
                                       "ticket", cfg.ticket_count);
  coin_chain.ledger_for_setup().mint(chain::Address::party(w.base + kCarol),
                                     "coin", cfg.sale_price);
  for (PartyId v = 0; v < 3; ++v) {
    ticket_chain.ledger_for_setup().mint(chain::Address::party(w.base + v),
                                         ticket_chain.native(), kCoinBudget);
    coin_chain.ledger_for_setup().mint(chain::Address::party(w.base + v),
                                       coin_chain.native(), kCoinBudget);
  }

  w.tracker = std::make_unique<PayoffTracker>(chains, w.base, 3);

  const sim::DeviationPlan conform = sim::DeviationPlan::conforming();
  w.alice = std::make_unique<AliceBroker>(kAlice, "alice", s, conform);
  w.bob = std::make_unique<SellerBroker>(kBob, "bob", s, conform, s.ticket,
                                         s.coin);
  w.carol = std::make_unique<SellerBroker>(kCarol, "carol", s, conform,
                                           s.coin, s.ticket);
  w.alice->set_account_base(w.base);
  w.bob->set_account_base(w.base);
  w.carol->set_account_base(w.base);
  w.frame.chains = &chains;
  w.frame.actors = {w.alice.get(), w.bob.get(), w.carol.get()};
  w.frame.horizon = s.hashkey_base + (diam + 3 + 1) * d + 2;
  if (!bound) sim::debug_validate_deadlines(chains, d);
}

BrokerWorld::~BrokerWorld() = default;
BrokerWorld::BrokerWorld(BrokerWorld&&) noexcept = default;
BrokerWorld& BrokerWorld::operator=(BrokerWorld&&) noexcept = default;

sim::TreeFrame& BrokerWorld::frame() { return impl_->frame; }

void BrokerWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  impl_->alice->set_plan(plans.at(0));
  impl_->bob->set_plan(plans.at(1));
  impl_->carol->set_plan(plans.at(2));
}

void BrokerWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  const Setup& s = w.s;
  out.push_back(s.ticket->bucket_redeemed(Which::kEscrowArc) &&
                s.ticket->bucket_redeemed(Which::kTradingArc) &&
                s.coin->bucket_redeemed(Which::kEscrowArc) &&
                s.coin->bucket_redeemed(Which::kTradingArc));
  out.push_back(lockup_of(*s.ticket));
  out.push_back(lockup_of(*s.coin));
  for (const PartyId p : {kAlice, kBob, kCarol}) {
    w.tracker->write_delta(*w.chains, w.base + p, out);
  }
}

BrokerResult BrokerWorld::collect() const {
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  BrokerResult out;
  out.completed = in.flag();
  out.bob_lockup = in.next();
  out.carol_lockup = in.next();
  out.alice = in.delta();
  out.bob = in.delta();
  out.carol = in.delta();
  out.events = impl_->chains->all_events();
  return out;
}

BrokerResult run_broker_deal(const BrokerConfig& cfg, sim::DeviationPlan alice,
                             sim::DeviationPlan bob,
                             sim::DeviationPlan carol) {
  BrokerWorld world(cfg);
  return sim::play(world, {std::move(alice), std::move(bob), std::move(carol)});
}

}  // namespace xchain::core
