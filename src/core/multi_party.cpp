#include "core/multi_party.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "contracts/arc_contract.hpp"
#include "core/hedged_relay.hpp"
#include "core/premiums.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/secret.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

using contracts::MultiPartyArcContract;
using graph::Arc;
using graph::Digraph;
using graph::Vertex;

/// Everything static a run needs, shared by all actors.
struct Setup {
  const MultiPartyConfig* cfg = nullptr;
  std::vector<Vertex> leaders;
  std::vector<crypto::Secret> secrets;  ///< per leader index
  std::map<std::pair<Vertex, Vertex>, MultiPartyArcContract*> arcs;
  /// Signature/hashkey memo shared by all parties of this world: signing is
  /// deterministic, so reused worlds pay each signature once.
  crypto::SigningCache* sign_cache = nullptr;
  // Phase start ticks (phase k spans [start[k], start[k+1])).
  Tick t2 = 0;  ///< redemption premium phase
  Tick t3 = 0;  ///< asset escrow phase (base phase one)
  Tick t4 = 0;  ///< hashkey phase (base phase two)
  Tick horizon = 0;

  MultiPartyArcContract& at(Vertex u, Vertex v) const {
    return *arcs.at({u, v});
  }
  bool is_leader(Vertex v) const {
    return std::find(leaders.begin(), leaders.end(), v) != leaders.end();
  }
  int leader_index_of(Vertex v) const {
    for (std::size_t i = 0; i < leaders.size(); ++i) {
      if (leaders[i] == v) return static_cast<int>(i);
    }
    return -1;
  }
};

/// A party's handle on one arc contract, for the shared relays
/// (core/hedged_relay.hpp).
struct SwapArc {
  MultiPartyArcContract* c = nullptr;

  ChainId chain_id() const { return c->chain_id(); }
  const contracts::HedgedArc& hedged() const { return c->hedged(); }
  void deposit(chain::TxContext& ctx, std::size_t i, const graph::Path& q,
               const crypto::Signature& sig) const {
    c->deposit_redemption_premium(ctx, i, q, sig);
  }
  void present(chain::TxContext& ctx, std::size_t i,
               const crypto::Hashkey& key) const {
    c->present_hashkey(ctx, i, key);
  }
};

using SwapRelay = HedgedRelayParty<SwapArc>;

/// One swap participant, leader or follower, running the four phases with
/// compliance conditions from §7 (and the truncations from Lemmas 2-5).
class SwapParty : public chain::SnapshotState<SwapParty, SwapRelay> {
 public:
  SwapParty(PartyId id, const Setup& s, sim::DeviationPlan plan)
      : chain::SnapshotState<SwapParty, SwapRelay>(
            id, "party-" + std::to_string(id), std::move(plan), s.cfg->g,
            *s.sign_cache, s.leaders.size(), own_index(s, id)),
        s_(s) {
    for (Vertex u : g().in_neighbors(id)) in_.push_back({&s.at(u, id)});
    for (Vertex w : g().out_neighbors(id)) out_.push_back({&s.at(id, w)});
  }

  void step(chain::MultiChain& chains, Tick now) override {
    const bool hedged = s_.cfg->hedged;
    if (hedged) {
      // Phase 1 runs in [0, t2) ONLY: a conforming party whose incoming
      // escrow premiums arrive after the phase closed (an upstream party
      // acted late) truncates instead of depositing — §7's truncation
      // rule. Depositing late would leave its arc activatable while the
      // backward premium flow no longer fits before t3, putting a
      // conforming party's escrow premium at risk for an escrow it will
      // rightly never make. Eager and timely-delayed runs always decide
      // before t2, so this gate only fires against late deviators.
      if (now < s_.t2) phase1_escrow_premiums(chains, now);
      if (now >= s_.t2) phase2_redemption_premiums(chains, now);
    }
    if (now >= s_.t3) phase3_escrow_assets(chains, now);
    if (now >= s_.t4) phase4_hashkeys(chains, now);
  }

 private:
  static std::size_t own_index(const Setup& s, PartyId id) {
    const int i = s.leader_index_of(id);
    return i >= 0 ? static_cast<std::size_t>(i) : kNotLeader;
  }

  const Digraph& g() const { return s_.cfg->g; }

  bool all_incoming_escrow_premiums() const {
    return std::all_of(in_.begin(), in_.end(), [](const SwapArc& a) {
      return a.c->escrow_premium_deposited();
    });
  }

  // Ordinals of this party's scheduled actions (base runs only the last
  // two phases).
  int premium_relay_ordinal() const { return 1; }
  int escrow_ordinal() const { return s_.cfg->hedged ? 2 : 0; }
  int hashkey_ordinal() const { return s_.cfg->hedged ? 3 : 1; }

  // Phase 1: leaders deposit outgoing escrow premiums immediately;
  // followers once every incoming escrow premium is present.
  void phase1_escrow_premiums(chain::MultiChain& chains, Tick now) {
    if (did_escrow_premiums_) return;
    if (!s_.is_leader(id()) && !all_incoming_escrow_premiums()) return;
    did_escrow_premiums_ = true;
    act(chains, now, 0, [this](chain::MultiChain& ch) {
      for (const SwapArc& a : out_) {
        submit(ch, a.chain_id(), "escrow premium",
               [c = a.c](chain::TxContext& ctx) {
                 c->deposit_escrow_premium(ctx);
               });
      }
    });
  }

  // Phase 2: a leader whose phase 1 succeeded starts the backward flow for
  // its own hashkey; every party relays the first premium for each other
  // leader's hashkey seen on an outgoing arc.
  void phase2_redemption_premiums(chain::MultiChain& chains, Tick now) {
    if (owes_own_premium() && all_incoming_escrow_premiums()) {
      start_own_premium(chains, now, premium_relay_ordinal());
    }
    relay_premiums(chains, now, premium_relay_ordinal());
  }

  // Phase 3 (base phase one): leaders escrow on activated outgoing arcs;
  // followers wait for all incoming assets first.
  void phase3_escrow_assets(chain::MultiChain& chains, Tick now) {
    if (did_escrow_assets_) return;
    if (!s_.is_leader(id()) && !all_incoming_escrowed()) return;
    did_escrow_assets_ = true;
    act(chains, now, escrow_ordinal(), [this](chain::MultiChain& ch) {
      for (const SwapArc& a : out_) {
        // Hedged runs escrow only where the premium protection is active
        // (Lemma 3: "the leader v escrows assets on the outgoing arcs whose
        // escrow premiums are activated").
        if (s_.cfg->hedged && !a.c->escrow_premium_activated()) continue;
        submit(ch, a.chain_id(), "escrow asset",
               [c = a.c](chain::TxContext& ctx) { c->escrow_asset(ctx); });
      }
    });
  }

  bool all_incoming_escrowed() const {
    return std::all_of(in_.begin(), in_.end(),
                       [](const SwapArc& a) { return a.c->escrowed(); });
  }

  // Phase 4 (base phase two): leaders whose incoming arcs all carry assets
  // release their hashkey there; everyone relays the first sighting of
  // each hashkey from an outgoing arc to all incoming arcs.
  void phase4_hashkeys(chain::MultiChain& chains, Tick now) {
    if (owes_own_key()) {
      // Normal release: every incoming arc carries an asset. Recovery
      // release (§7: "truncated versions of the base protocol phases to
      // recover their premiums", Lemma 4): if this leader escrowed
      // nothing — certain once the escrow deadline has passed — releasing
      // the secret is free and refunds its redemption premium deposits.
      const bool escrowed_none =
          now > s_.t4 &&  // escrow deadline == t4
          std::none_of(out_.begin(), out_.end(),
                       [](const SwapArc& a) { return a.c->escrowed(); });
      if (all_incoming_escrowed() || escrowed_none) {
        release_own_key(chains, now, hashkey_ordinal(),
                        s_.secrets[s_.leader_index_of(id())].value());
      }
    }
    relay_keys(chains, now, hashkey_ordinal());
  }

  const Setup& s_;
  bool did_escrow_premiums_ = false;
  bool did_escrow_assets_ = false;

  auto state_tie() {
    return std::tuple_cat(relay_tie(),
                          std::tie(did_escrow_premiums_, did_escrow_assets_));
  }
  friend chain::SnapshotState<SwapParty, SwapRelay>;
};

}  // namespace

struct MultiPartyWorld::Impl {
  MultiPartyConfig cfg;
  Setup s;
  chain::MultiChain chains;
  crypto::SigningCache sign_cache;
  std::unique_ptr<PayoffTracker> tracker;
  std::vector<std::unique_ptr<SwapParty>> parties;
  sim::TreeFrame frame;
};

MultiPartyWorld::MultiPartyWorld(const MultiPartyConfig& cfg,
                                 chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = cfg;
  const Digraph& g = impl_->cfg.g;
  const std::size_t n = g.size();
  if (n < 2 || !g.strongly_connected()) {
    throw std::invalid_argument("multi-party swap: need a strongly "
                                "connected digraph on >= 2 vertices");
  }

  Setup& s = impl_->s;
  s.cfg = &impl_->cfg;
  s.sign_cache = &impl_->sign_cache;
  s.leaders =
      cfg.leaders.empty() ? g.minimum_feedback_vertex_set() : cfg.leaders;
  if (!g.is_feedback_vertex_set(s.leaders)) {
    throw std::invalid_argument(
        "multi-party swap: leaders must form a feedback vertex set");
  }

  const Tick d = cfg.delta;
  const Tick phase_len = static_cast<Tick>(n) * d;
  if (cfg.hedged) {
    s.t2 = phase_len;
    s.t3 = 2 * phase_len;
  } else {
    s.t2 = 0;
    s.t3 = 0;
  }
  s.t4 = s.t3 + phase_len;
  const std::size_t diam = g.diameter();
  s.horizon = s.t4 + static_cast<Tick>(diam + n) * d + 2;

  // One chain per party; party i's token lives on chain i.
  chain::MultiChain& chains = impl_->chains;
  chains.set_trace(trace);
  std::vector<crypto::PublicKey> keys;
  for (Vertex v = 0; v < n; ++v) {
    chains.add_chain("chain-" + std::to_string(v));
    keys.push_back(crypto::keygen_cached("party-" + std::to_string(v)).pub);
  }

  crypto::Rng rng("multi-party-swap");
  for (std::size_t i = 0; i < s.leaders.size(); ++i) {
    s.secrets.push_back(crypto::Secret::random(rng));
  }
  std::vector<MultiPartyArcContract::Hashlock> hashlocks;
  for (std::size_t i = 0; i < s.leaders.size(); ++i) {
    hashlocks.push_back({s.leaders[i], s.secrets[i].hashlock()});
  }

  const ArcPremiums escrow_p =
      cfg.hedged ? escrow_premiums(g, s.leaders, cfg.premium_unit)
                 : ArcPremiums{};

  // Escrow-cascade depth per party: leaders escrow at base-phase-one step
  // 0, a follower one step after the last of its in-neighbours (it waits
  // for every incoming asset). Well-founded because the leaders form a
  // feedback vertex set — the follower-only subgraph is acyclic — so a
  // fixpoint is reached within n sweeps.
  std::vector<Tick> depth(n, 0);
  for (std::size_t sweep_i = 0; sweep_i < n; ++sweep_i) {
    for (Vertex v = 0; v < n; ++v) {
      if (s.is_leader(v)) continue;
      Tick longest = 0;
      for (Vertex u : g.in_neighbors(v)) {
        longest = std::max(longest, depth[u]);
      }
      depth[v] = longest + 1;
    }
  }

  for (const Arc& arc : g.arcs()) {
    chain::Blockchain& bc = chains.at(arc.from);
    MultiPartyArcContract::Params p;
    p.g = g;
    p.diameter = diam;
    p.arc = arc;
    p.asset_symbol = "token-" + std::to_string(arc.from);
    p.asset_amount = cfg.asset_amount;
    p.premium_unit = cfg.premium_unit;
    p.escrow_premium = cfg.hedged ? escrow_p.at({arc.from, arc.to}) : 0;
    p.hashlocks = hashlocks;
    p.party_keys = keys;
    p.delta = d;
    p.premium_base = s.t2;
    p.redemption_premium_deadline = s.t3;
    p.escrow_deadline = s.t4;
    p.asset_escrow_deadline = s.t3 + (depth[arc.from] + 1) * d;
    p.hashkey_base = s.t4;
    s.arcs[{arc.from, arc.to}] = &bc.deploy<MultiPartyArcContract>(p);
  }

  // Endowments: each party gets tokens for its outgoing arcs plus an ample
  // native-coin budget on every chain (payoffs are deltas, so the budget
  // size is immaterial — it only must cover worst-case premiums).
  constexpr Amount kCoinBudget = 1'000'000'000'000;
  for (Vertex v = 0; v < n; ++v) {
    chains.at(v).ledger_for_setup().mint(
        chain::Address::party(v), "token-" + std::to_string(v),
        static_cast<Amount>(g.out_neighbors(v).size()) * cfg.asset_amount);
    for (Vertex c = 0; c < n; ++c) {
      chains.at(c).ledger_for_setup().mint(chain::Address::party(v),
                                           chains.at(c).native(),
                                           kCoinBudget);
    }
  }

  impl_->tracker = std::make_unique<PayoffTracker>(chains, n);

  Impl& w = *impl_;
  w.frame.chains = &chains;
  for (Vertex v = 0; v < n; ++v) {
    w.parties.push_back(
        std::make_unique<SwapParty>(v, s, sim::DeviationPlan::conforming()));
    w.frame.actors.push_back(w.parties.back().get());
  }
  w.frame.horizon = s.horizon;
  sim::debug_validate_deadlines(chains, d);
}

MultiPartyWorld::~MultiPartyWorld() = default;
MultiPartyWorld::MultiPartyWorld(MultiPartyWorld&&) noexcept = default;
MultiPartyWorld& MultiPartyWorld::operator=(MultiPartyWorld&&) noexcept =
    default;

sim::TreeFrame& MultiPartyWorld::frame() { return impl_->frame; }

void MultiPartyWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  Impl& w = *impl_;
  for (std::size_t v = 0; v < w.parties.size(); ++v) {
    w.parties[v]->set_plan(plans.at(v));
  }
}

void MultiPartyWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  const Digraph& g = w.cfg.g;
  const std::size_t n = g.size();
  // all_redeemed, then the escrowed, refunded and received counts of
  // party v at counts + 3v, + 3v + 1 and + 3v + 2.
  const std::size_t at = out.size();
  out.resize(at + 1 + 3 * n, 0);
  out[at] = 1;
  const std::size_t counts = at + 1;
  for (const Arc& arc : g.arcs()) {
    const MultiPartyArcContract& c = w.s.at(arc.from, arc.to);
    if (!c.redeemed()) out[at] = 0;
    out[counts + 3 * arc.from] += c.escrowed() ? 1 : 0;
    out[counts + 3 * arc.from + 1] += c.refunded() ? 1 : 0;
    out[counts + 3 * arc.to + 2] += c.redeemed() ? 1 : 0;
  }
  for (Vertex v = 0; v < n; ++v) w.tracker->write_delta(w.chains, v, out);
}

MultiPartyResult MultiPartyWorld::collect() const {
  const std::size_t n = impl_->cfg.g.size();
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  MultiPartyResult out;
  out.all_redeemed = in.flag();
  for (std::size_t v = 0; v < n; ++v) {
    out.assets_escrowed.push_back(static_cast<int>(in.next()));
    out.assets_refunded.push_back(static_cast<int>(in.next()));
    out.assets_received.push_back(static_cast<int>(in.next()));
  }
  out.payoffs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) out.payoffs.push_back(in.delta());
  out.events = impl_->chains.all_events();
  return out;
}

MultiPartyResult run_multi_party_swap(
    const MultiPartyConfig& cfg, const std::vector<sim::DeviationPlan>& plans) {
  MultiPartyWorld world(cfg);
  return sim::play(world, plans);
}

}  // namespace xchain::core
