#include "core/bootstrap.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "contracts/ladder.hpp"
#include "crypto/secret.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

constexpr PartyId kAlice = 0;
constexpr PartyId kBob = 1;

/// Apricot-chain rung j belongs to Alice iff j is even (she owns the
/// principal, rung 0); banana-chain rung j belongs to Bob iff j is even.
PartyId apricot_depositor(int j) { return j % 2 == 0 ? kAlice : kBob; }
PartyId banana_depositor(int j) { return j % 2 == 0 ? kBob : kAlice; }

/// One step of the interleaved global schedule (Figure 2).
struct GlobalAction {
  enum class Kind { kDeposit, kRedeem } kind;
  ChainId chain;      // 0 = apricot, 1 = banana
  std::size_t rung;   // for deposits
  PartyId actor;
};

/// The full schedule: for j = r..1 deposit banana rung j then apricot rung
/// j; escrow principals (apricot then banana); Alice redeems banana
/// (revealing s); Bob redeems apricot.
std::vector<GlobalAction> make_schedule(int rounds) {
  std::vector<GlobalAction> seq;
  for (int j = rounds; j >= 1; --j) {
    seq.push_back({GlobalAction::Kind::kDeposit, 1,
                   static_cast<std::size_t>(j), banana_depositor(j)});
    seq.push_back({GlobalAction::Kind::kDeposit, 0,
                   static_cast<std::size_t>(j), apricot_depositor(j)});
  }
  seq.push_back({GlobalAction::Kind::kDeposit, 0, 0, kAlice});
  seq.push_back({GlobalAction::Kind::kDeposit, 1, 0, kBob});
  seq.push_back({GlobalAction::Kind::kRedeem, 1, 0, kAlice});
  seq.push_back({GlobalAction::Kind::kRedeem, 0, 0, kBob});
  return seq;
}

/// A party following the global schedule: it waits until every earlier
/// action is visible on-chain, then performs its own next action (if its
/// deviation plan still allows).
class LadderParty : public chain::SnapshotState<LadderParty, sim::Party> {
 public:
  LadderParty(PartyId id, std::string name, sim::DeviationPlan plan,
              const std::vector<GlobalAction>& schedule,
              contracts::LadderContract& apricot,
              contracts::LadderContract& banana, crypto::Secret secret)
      : chain::SnapshotState<LadderParty, sim::Party>(id, std::move(name),
                                                      plan),
        schedule_(schedule),
        apricot_(apricot),
        banana_(banana),
        secret_(std::move(secret)),
        submitted_(schedule.size(), 0) {}

  void step(chain::MultiChain& chains, Tick now) override {
    for (std::size_t g = 0; g < schedule_.size(); ++g) {
      const GlobalAction& action = schedule_[g];
      if (done(action)) continue;
      // The first pending action: ours to perform, or wait for its owner.
      if (action.actor == id() && !submitted_[g]) {
        submitted_[g] = 1;
        act(chains, now, own_ordinal(g),
            [this, &action](chain::MultiChain& ch) {
              submit_action(ch, action);
            });
      }
      return;
    }
  }

 private:
  contracts::LadderContract& ladder(ChainId c) {
    return c == 0 ? apricot_ : banana_;
  }

  bool done(const GlobalAction& a) {
    return a.kind == GlobalAction::Kind::kDeposit
               ? ladder(a.chain).rung_deposited(a.rung)
               : ladder(a.chain).principal_redeemed();
  }

  /// This party's action index among its own schedule entries.
  int own_ordinal(std::size_t upto) const {
    int n = 0;
    for (std::size_t g = 0; g < upto; ++g) {
      if (schedule_[g].actor == id()) ++n;
    }
    return n;
  }

  void submit_action(chain::MultiChain& chains, const GlobalAction& act) {
    contracts::LadderContract& target = ladder(act.chain);
    if (act.kind == GlobalAction::Kind::kDeposit) {
      submit(chains, act.chain,
             [&act] { return "deposit rung " + std::to_string(act.rung); },
             [&target, rung = act.rung](chain::TxContext& ctx) {
               target.deposit(ctx, rung);
             });
    } else {
      // Alice redeems with her secret; Bob with the preimage Alice
      // revealed on the banana chain.
      crypto::Bytes preimage =
          id() == kAlice
              ? secret_.value()
              : banana_.revealed_preimage().value_or(crypto::Bytes{});
      submit(chains, act.chain, "redeem principal",
             [&target, p = std::move(preimage)](chain::TxContext& ctx) {
               target.redeem(ctx, p);
             });
    }
  }

  const std::vector<GlobalAction>& schedule_;
  contracts::LadderContract& apricot_;
  contracts::LadderContract& banana_;
  crypto::Secret secret_;
  std::vector<char> submitted_;

  auto state_tie() { return std::tie(submitted_); }
  friend chain::SnapshotState<LadderParty, sim::Party>;
};

Tick premium_lockup_of(const contracts::LadderContract& c) {
  Tick max_lockup = 0;
  for (std::size_t j = 1; j < c.params().rungs.size(); ++j) {
    const auto dep = c.rung_deposited_at(j);
    const auto res = c.rung_resolved_at(j);
    if (dep && res) max_lockup = std::max(max_lockup, *res - *dep);
  }
  return max_lockup;
}

Tick principal_lockup_of(const contracts::LadderContract& c) {
  using RS = contracts::LadderContract::RungState;
  if (c.rung_state(0) != RS::kRefunded) return 0;
  return *c.rung_resolved_at(0) - *c.rung_deposited_at(0);
}

}  // namespace

BootstrapSchedule bootstrap_amounts(const BootstrapConfig& cfg) {
  if (cfg.rounds < 1) {
    throw std::invalid_argument("bootstrap_amounts: rounds >= 1");
  }
  if (cfg.apricot_premiums.empty() && cfg.banana_premiums.empty()) {
    return bootstrap_schedule(cfg.alice_tokens, cfg.bob_tokens, cfg.factor,
                              cfg.rounds);
  }
  // Explicit premium rungs: the geometric ladder (and its factor > 1
  // requirement) does not apply — only the principals come from the config.
  const auto rounds = static_cast<std::size_t>(cfg.rounds);
  if (cfg.apricot_premiums.size() != rounds ||
      cfg.banana_premiums.size() != rounds) {
    throw std::invalid_argument(
        "bootstrap premium overrides must list one amount per round on both "
        "chains");
  }
  BootstrapSchedule amounts;
  amounts.rounds = cfg.rounds;
  amounts.factor = cfg.factor;
  amounts.apricot.push_back(cfg.alice_tokens);
  amounts.banana.push_back(cfg.bob_tokens);
  amounts.apricot.insert(amounts.apricot.end(), cfg.apricot_premiums.begin(),
                         cfg.apricot_premiums.end());
  amounts.banana.insert(amounts.banana.end(), cfg.banana_premiums.begin(),
                        cfg.banana_premiums.end());
  return amounts;
}

struct BootstrapWorld::Impl {
  BootstrapSchedule amounts;
  chain::MultiChain chains;
  contracts::LadderContract* apricot_ladder = nullptr;
  contracts::LadderContract* banana_ladder = nullptr;
  crypto::Secret secret;
  std::vector<GlobalAction> schedule;
  std::unique_ptr<PayoffTracker> tracker;
  std::unique_ptr<LadderParty> alice;
  std::unique_ptr<LadderParty> bob;
  sim::TreeFrame frame;
};

BootstrapWorld::BootstrapWorld(const BootstrapConfig& cfg,
                               chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  if (cfg.rounds < 1) {
    throw std::invalid_argument("run_bootstrap_swap: rounds >= 1");
  }
  Impl& w = *impl_;
  const Tick d = cfg.delta;
  const int r = cfg.rounds;
  w.amounts = bootstrap_amounts(cfg);
  const BootstrapSchedule& amounts = w.amounts;

  chain::MultiChain& chains = w.chains;
  chains.set_trace(trace);
  chain::Blockchain& apricot = chains.add_chain("apricot");
  chain::Blockchain& banana = chains.add_chain("banana");

  // Ladder deadlines follow the interleaved schedule: global step k (from
  // 1) has deadline k*Delta. Banana rung j is step 2(r-j)+1, apricot rung j
  // is step 2(r-j)+2; principals are steps 2r+1 (apricot) and 2r+2
  // (banana); redemptions at (2r+3) and (2r+4).
  auto apricot_deadline = [&](int j) {
    return j == 0 ? (2 * r + 1) * d : (2 * (r - j) + 2) * d;
  };
  auto banana_deadline = [&](int j) {
    return j == 0 ? (2 * r + 2) * d : (2 * (r - j) + 1) * d;
  };

  crypto::Rng rng("bootstrap-swap");
  w.secret = crypto::Secret::random(rng);
  const crypto::Secret& secret = w.secret;

  contracts::LadderContract::Params ap;
  contracts::LadderContract::Params bp;
  for (int j = 0; j <= r; ++j) {
    contracts::LadderContract::RungSpec a{apricot_depositor(j),
                                          amounts.apricot[j],
                                          apricot_deadline(j), {}, false};
    contracts::LadderContract::RungSpec b{banana_depositor(j),
                                          amounts.banana[j],
                                          banana_deadline(j), {}, false};
    // RELEASE wiring (§6): banana guards release on the next deposit;
    // apricot guards likewise, except A^(2) — the follower's persistent
    // premium — which survives to guard Alice's principal escrow and is
    // forfeited to Bob if the principal defaults.
    if (j >= 2) {
      b.released_by = static_cast<std::size_t>(j - 1);
      if (j == 2) {
        a.released_by = 0;
        a.guards_principal = true;
      } else {
        a.released_by = static_cast<std::size_t>(j - 1);
      }
    }
    ap.rungs.push_back(a);
    bp.rungs.push_back(b);
  }
  ap.counterparty = kBob;
  ap.principal_symbol = "apricot";
  ap.hashlock = secret.hashlock();
  ap.redemption_deadline = (2 * r + 4) * d;
  bp.counterparty = kAlice;
  bp.principal_symbol = "banana";
  bp.hashlock = secret.hashlock();
  bp.redemption_deadline = (2 * r + 3) * d;

  w.apricot_ladder = &apricot.deploy<contracts::LadderContract>(ap);
  w.banana_ladder = &banana.deploy<contracts::LadderContract>(bp);

  // Endowments: principals plus exactly the premium coins each party needs.
  apricot.ledger_for_setup().mint(chain::Address::party(kAlice), "apricot",
                                  cfg.alice_tokens);
  banana.ledger_for_setup().mint(chain::Address::party(kBob), "banana",
                                 cfg.bob_tokens);
  for (int j = 1; j <= r; ++j) {
    apricot.ledger_for_setup().mint(
        chain::Address::party(apricot_depositor(j)), apricot.native(),
        amounts.apricot[j]);
    banana.ledger_for_setup().mint(
        chain::Address::party(banana_depositor(j)), banana.native(),
        amounts.banana[j]);
  }

  w.schedule = make_schedule(r);
  w.tracker = std::make_unique<PayoffTracker>(chains, 2);

  w.alice = std::make_unique<LadderParty>(
      kAlice, "alice", sim::DeviationPlan::conforming(), w.schedule,
      *w.apricot_ladder, *w.banana_ladder, w.secret);
  w.bob = std::make_unique<LadderParty>(
      kBob, "bob", sim::DeviationPlan::conforming(), w.schedule,
      *w.apricot_ladder, *w.banana_ladder, crypto::Secret{});
  w.frame.chains = &chains;
  w.frame.actors = {w.alice.get(), w.bob.get()};
  w.frame.horizon = (2 * r + 4) * d + 2;
  // The §6 ladder interleaves the two chains' deposits Delta apart, so each
  // single chain's consecutive deadlines sit 2*Delta apart.
  sim::debug_validate_deadlines(chains, d);
}

BootstrapWorld::~BootstrapWorld() = default;
BootstrapWorld::BootstrapWorld(BootstrapWorld&&) noexcept = default;
BootstrapWorld& BootstrapWorld::operator=(BootstrapWorld&&) noexcept =
    default;

sim::TreeFrame& BootstrapWorld::frame() { return impl_->frame; }

void BootstrapWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  impl_->alice->set_plan(plans.at(0));
  impl_->bob->set_plan(plans.at(1));
}

void BootstrapWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  const contracts::LadderContract& apricot_ladder = *w.apricot_ladder;
  const contracts::LadderContract& banana_ladder = *w.banana_ladder;
  out.push_back(apricot_ladder.principal_redeemed() &&
                banana_ladder.principal_redeemed());
  out.push_back(std::max(premium_lockup_of(apricot_ladder),
                         premium_lockup_of(banana_ladder)));
  out.push_back(principal_lockup_of(apricot_ladder));
  out.push_back(principal_lockup_of(banana_ladder));
  w.tracker->write_delta(w.chains, kAlice, out);
  w.tracker->write_delta(w.chains, kBob, out);
}

BootstrapResult BootstrapWorld::collect() const {
  const Impl& w = *impl_;
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  BootstrapResult out;
  out.swapped = in.flag();
  out.max_premium_lockup = in.next();
  out.alice_lockup = in.next();
  out.bob_lockup = in.next();
  out.alice = in.delta();
  out.bob = in.delta();
  out.initial_risk_apricot = w.amounts.initial_risk_apricot();
  out.initial_risk_banana = w.amounts.initial_risk_banana();
  out.events = w.chains.all_events();
  return out;
}

BootstrapResult run_bootstrap_swap(const BootstrapConfig& cfg,
                                   sim::DeviationPlan alice,
                                   sim::DeviationPlan bob) {
  BootstrapWorld world(cfg);
  return sim::play(world, {std::move(alice), std::move(bob)});
}

}  // namespace xchain::core
