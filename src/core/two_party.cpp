#include "core/two_party.hpp"

#include <memory>
#include <tuple>

#include "contracts/hedged_swap.hpp"
#include "contracts/htlc.hpp"
#include "crypto/secret.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

constexpr PartyId kAlice = 0;
constexpr PartyId kBob = 1;

Tick lockup_of(std::optional<Tick> start, std::optional<Tick> end,
               bool refunded) {
  if (!refunded || !start || !end) return 0;
  return *end - *start;
}

// ---------------------------------------------------------------------------
// Base protocol actors (§5.1).
// ---------------------------------------------------------------------------

class BaseAlice : public sim::Party {
 public:
  BaseAlice(sim::DeviationPlan plan, contracts::HtlcContract& mine,
            contracts::HtlcContract& bobs, crypto::Secret secret)
      : sim::Party(kAlice, "alice", plan),
        mine_(mine),
        bobs_(bobs),
        secret_(std::move(secret)) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // Action 0: escrow the principal at protocol start.
    if (!did_escrow_) {
      did_escrow_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        submit(ch, mine_.chain_id(), "escrow principal",
               [this](chain::TxContext& ctx) { mine_.fund(ctx); });
      });
    }
    // Action 1: once Bob's escrow appears, redeem it (revealing s).
    if (!did_redeem_ && bobs_.funded()) {
      did_redeem_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, bobs_.chain_id(), "redeem bob's escrow",
               [this](chain::TxContext& ctx) {
                 bobs_.redeem(ctx, secret_.value());
               });
      });
    }
  }

 private:
  contracts::HtlcContract& mine_;
  contracts::HtlcContract& bobs_;
  crypto::Secret secret_;
  bool did_escrow_ = false;
  bool did_redeem_ = false;
};

class BaseBob : public sim::Party {
 public:
  BaseBob(sim::DeviationPlan plan, contracts::HtlcContract& mine,
          contracts::HtlcContract& alices)
      : sim::Party(kBob, "bob", plan), mine_(mine), alices_(alices) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // Action 0: escrow once Alice's escrow is visible.
    if (!did_escrow_ && alices_.funded()) {
      did_escrow_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        submit(ch, mine_.chain_id(), "escrow principal",
               [this](chain::TxContext& ctx) { mine_.fund(ctx); });
      });
    }
    // Action 1: once s is public (Alice redeemed), redeem Alice's escrow.
    if (!did_redeem_ && mine_.revealed_preimage()) {
      did_redeem_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, alices_.chain_id(), "redeem alice's escrow",
               [this](chain::TxContext& ctx) {
                 alices_.redeem(ctx, *mine_.revealed_preimage());
               });
      });
    }
  }

 private:
  contracts::HtlcContract& mine_;
  contracts::HtlcContract& alices_;
  bool did_escrow_ = false;
  bool did_redeem_ = false;
};

// ---------------------------------------------------------------------------
// Hedged protocol actors (§5.2, Figure 1).
// ---------------------------------------------------------------------------

class HedgedAlice : public chain::SnapshotState<HedgedAlice, sim::Party> {
 public:
  HedgedAlice(sim::DeviationPlan plan, contracts::HedgedSwapContract& apricot,
              contracts::HedgedSwapContract& banana, crypto::Secret secret)
      : chain::SnapshotState<HedgedAlice, sim::Party>(kAlice, "alice", plan),
        apricot_(apricot),
        banana_(banana),
        secret_(std::move(secret)) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // Action 0: deposit premium p_a + p_b on the banana contract at start.
    if (!did_premium_) {
      did_premium_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        submit(ch, banana_.chain_id(), "deposit premium",
               [this](chain::TxContext& ctx) { banana_.deposit_premium(ctx); });
      });
    }
    // Action 1: once Bob's premium is on the apricot contract, escrow the
    // principal there. (If Bob's premium never appears, a compliant Alice
    // truncates: she never escrows.)
    if (!did_escrow_ && apricot_.premium_deposited()) {
      did_escrow_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, apricot_.chain_id(), "escrow principal",
               [this](chain::TxContext& ctx) {
                 apricot_.escrow_principal(ctx);
               });
      });
    }
    // Action 2: once Bob's principal is escrowed, redeem it (revealing s).
    if (!did_redeem_ && banana_.escrowed()) {
      did_redeem_ = true;
      act(chains, now, 2, [this](chain::MultiChain& ch) {
        submit(ch, banana_.chain_id(), "redeem bob's escrow",
               [this](chain::TxContext& ctx) {
                 banana_.redeem(ctx, secret_.value());
               });
      });
    }
  }

 private:
  contracts::HedgedSwapContract& apricot_;
  contracts::HedgedSwapContract& banana_;
  crypto::Secret secret_;
  bool did_premium_ = false;
  bool did_escrow_ = false;
  bool did_redeem_ = false;

  auto state_tie() { return std::tie(did_premium_, did_escrow_, did_redeem_); }
  friend chain::SnapshotState<HedgedAlice, sim::Party>;
};

class HedgedBob : public chain::SnapshotState<HedgedBob, sim::Party> {
 public:
  HedgedBob(sim::DeviationPlan plan, contracts::HedgedSwapContract& apricot,
            contracts::HedgedSwapContract& banana)
      : chain::SnapshotState<HedgedBob, sim::Party>(kBob, "bob", plan),
        apricot_(apricot),
        banana_(banana) {}

  void step(chain::MultiChain& chains, Tick now) override {
    // Action 0: deposit premium p_b on the apricot contract once Alice's
    // premium is visible on the banana contract.
    if (!did_premium_ && banana_.premium_deposited()) {
      did_premium_ = true;
      act(chains, now, 0, [this](chain::MultiChain& ch) {
        submit(ch, apricot_.chain_id(), "deposit premium",
               [this](chain::TxContext& ctx) {
                 apricot_.deposit_premium(ctx);
               });
      });
    }
    // Action 1: escrow once Alice's principal is escrowed.
    if (!did_escrow_ && apricot_.escrowed()) {
      did_escrow_ = true;
      act(chains, now, 1, [this](chain::MultiChain& ch) {
        submit(ch, banana_.chain_id(), "escrow principal",
               [this](chain::TxContext& ctx) {
                 banana_.escrow_principal(ctx);
               });
      });
    }
    // Action 2: once s is public, redeem Alice's escrow.
    if (!did_redeem_ && banana_.revealed_preimage()) {
      did_redeem_ = true;
      act(chains, now, 2, [this](chain::MultiChain& ch) {
        submit(ch, apricot_.chain_id(), "redeem alice's escrow",
               [this](chain::TxContext& ctx) {
                 apricot_.redeem(ctx, *banana_.revealed_preimage());
               });
      });
    }
  }

 private:
  contracts::HedgedSwapContract& apricot_;
  contracts::HedgedSwapContract& banana_;
  bool did_premium_ = false;
  bool did_escrow_ = false;
  bool did_redeem_ = false;

  auto state_tie() { return std::tie(did_premium_, did_escrow_, did_redeem_); }
  friend chain::SnapshotState<HedgedBob, sim::Party>;
};

}  // namespace

TwoPartyResult run_base_two_party(const TwoPartyConfig& cfg,
                                  sim::DeviationPlan alice,
                                  sim::DeviationPlan bob) {
  const Tick d = cfg.delta;
  chain::MultiChain chains;
  chain::Blockchain& apricot = chains.add_chain("apricot");
  chain::Blockchain& banana = chains.add_chain("banana");

  apricot.ledger_for_setup().mint(chain::Address::party(kAlice), "apricot",
                                  cfg.alice_tokens);
  banana.ledger_for_setup().mint(chain::Address::party(kBob), "banana",
                                 cfg.bob_tokens);

  crypto::Rng rng("two-party-base");
  const crypto::Secret secret = crypto::Secret::random(rng);

  // §5.1: Alice's contract has timelock t_A = 3*Delta, Bob's t_B = 2*Delta.
  auto& alice_c = apricot.deploy<contracts::HtlcContract>(
      contracts::HtlcContract::Params{kAlice, kBob, "apricot",
                                      cfg.alice_tokens, secret.hashlock(),
                                      /*escrow_deadline=*/d,
                                      /*timelock=*/3 * d});
  auto& bob_c = banana.deploy<contracts::HtlcContract>(
      contracts::HtlcContract::Params{kBob, kAlice, "banana", cfg.bob_tokens,
                                      secret.hashlock(),
                                      /*escrow_deadline=*/2 * d,
                                      /*timelock=*/2 * d});

  PayoffTracker tracker(chains, 2);
  BaseAlice a(alice, alice_c, bob_c, secret);
  BaseBob b(bob, bob_c, alice_c);
  sim::Scheduler sched(chains);
  sched.add_party(a);
  sched.add_party(b);
  sched.run_until(3 * d + 2);

  TwoPartyResult r;
  r.swapped = alice_c.redeemed() && bob_c.redeemed();
  r.alice = tracker.delta(chains, kAlice);
  r.bob = tracker.delta(chains, kBob);
  r.alice_lockup = lockup_of(alice_c.funded_at(), alice_c.resolved_at(),
                             alice_c.refunded());
  r.bob_lockup =
      lockup_of(bob_c.funded_at(), bob_c.resolved_at(), bob_c.refunded());
  r.events = chains.all_events();
  return r;
}

struct TwoPartyWorld::Impl {
  /// Private worlds own their chains; bound worlds alias the shared
  /// MultiChain and leave own_chains empty.
  chain::MultiChain own_chains;
  chain::MultiChain* chains = &own_chains;
  PartyId base = 0;  ///< first global party id (0 when private)
  contracts::HedgedSwapContract* apricot_c = nullptr;
  contracts::HedgedSwapContract* banana_c = nullptr;
  crypto::Secret secret;
  std::unique_ptr<PayoffTracker> tracker;
  std::unique_ptr<HedgedAlice> alice;
  std::unique_ptr<HedgedBob> bob;
  sim::TreeFrame frame;
};

TwoPartyWorld::TwoPartyWorld(const TwoPartyConfig& cfg,
                             chain::TraceMode trace)
    : TwoPartyWorld(cfg, WorldBinding{}, trace) {}

TwoPartyWorld::TwoPartyWorld(const TwoPartyConfig& cfg,
                             const WorldBinding& binding,
                             chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  const bool bound = binding.bound();
  w.base = binding.party_base;
  const Tick d = cfg.delta;
  const Tick t0 = binding.start;
  chain::MultiChain& chains = bound ? *binding.chains : w.own_chains;
  w.chains = &chains;
  if (!bound) chains.set_trace(trace);
  chain::Blockchain& apricot = bound ? chains.get_or_add_chain("apricot")
                                     : chains.add_chain("apricot");
  chain::Blockchain& banana = bound ? chains.get_or_add_chain("banana")
                                    : chains.add_chain("banana");

  const PartyId alice = w.base + kAlice;
  const PartyId bob = w.base + kBob;
  apricot.ledger_for_setup().mint(chain::Address::party(alice), "apricot",
                                  cfg.alice_tokens);
  banana.ledger_for_setup().mint(chain::Address::party(bob), "banana",
                                 cfg.bob_tokens);
  // Premiums are paid in the escrow chain's native coin: Alice needs
  // p_a + p_b on the banana chain, Bob needs p_b on the apricot chain.
  banana.ledger_for_setup().mint(chain::Address::party(alice),
                                 banana.native(),
                                 cfg.premium_a + cfg.premium_b);
  apricot.ledger_for_setup().mint(chain::Address::party(bob),
                                  apricot.native(), cfg.premium_b);

  crypto::Rng rng(bound ? "two-party-hedged:" + binding.tag
                        : std::string("two-party-hedged"));
  impl_->secret = crypto::Secret::random(rng);

  // §5.2 schedule: premiums at Delta / 2*Delta, principals at 3*Delta /
  // 4*Delta, redemptions at t_A = 5*Delta (banana) and t_B = 6*Delta
  // (apricot). Bound instances shift the whole ladder to their arrival.
  impl_->apricot_c = &apricot.deploy<contracts::HedgedSwapContract>(
      contracts::HedgedSwapContract::Params{
          /*principal_owner=*/alice, /*premium_payer=*/bob, "apricot",
          cfg.alice_tokens, cfg.premium_b, impl_->secret.hashlock(),
          /*premium_deadline=*/t0 + 2 * d, /*escrow_deadline=*/t0 + 3 * d,
          /*redemption_deadline=*/t0 + 6 * d});
  impl_->banana_c = &banana.deploy<contracts::HedgedSwapContract>(
      contracts::HedgedSwapContract::Params{
          /*principal_owner=*/bob, /*premium_payer=*/alice, "banana",
          cfg.bob_tokens, cfg.premium_a + cfg.premium_b,
          impl_->secret.hashlock(),
          /*premium_deadline=*/t0 + d, /*escrow_deadline=*/t0 + 4 * d,
          /*redemption_deadline=*/t0 + 5 * d});

  impl_->tracker = std::make_unique<PayoffTracker>(chains, w.base, 2);

  w.alice = std::make_unique<HedgedAlice>(sim::DeviationPlan::conforming(),
                                          *w.apricot_c, *w.banana_c, w.secret);
  w.bob = std::make_unique<HedgedBob>(sim::DeviationPlan::conforming(),
                                      *w.apricot_c, *w.banana_c);
  w.alice->set_account_base(w.base);
  w.bob->set_account_base(w.base);
  w.frame.chains = w.chains;
  w.frame.actors = {w.alice.get(), w.bob.get()};
  w.frame.horizon = t0 + 6 * d + 2;
  // §5.2's deadlines must leave Delta between consecutive scheduled steps
  // or the protocol's tolerance claims are vacuous; debug builds check the
  // ladder once per private world.
  if (!bound) sim::debug_validate_deadlines(chains, d);
}

TwoPartyWorld::~TwoPartyWorld() = default;
TwoPartyWorld::TwoPartyWorld(TwoPartyWorld&&) noexcept = default;
TwoPartyWorld& TwoPartyWorld::operator=(TwoPartyWorld&&) noexcept = default;

sim::TreeFrame& TwoPartyWorld::frame() { return impl_->frame; }

void TwoPartyWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  impl_->alice->set_plan(plans.at(0));
  impl_->bob->set_plan(plans.at(1));
}

void TwoPartyWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  const contracts::HedgedSwapContract& apricot_c = *w.apricot_c;
  const contracts::HedgedSwapContract& banana_c = *w.banana_c;
  out.push_back(apricot_c.redeemed() && banana_c.redeemed());
  out.push_back(lockup_of(apricot_c.escrowed_at(),
                          apricot_c.principal_resolved_at(),
                          apricot_c.principal_refunded()));
  out.push_back(lockup_of(banana_c.escrowed_at(),
                          banana_c.principal_resolved_at(),
                          banana_c.principal_refunded()));
  w.tracker->write_delta(*w.chains, w.base + kAlice, out);
  w.tracker->write_delta(*w.chains, w.base + kBob, out);
}

TwoPartyResult TwoPartyWorld::collect() const {
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  TwoPartyResult r;
  r.swapped = in.flag();
  r.alice_lockup = in.next();
  r.bob_lockup = in.next();
  r.alice = in.delta();
  r.bob = in.delta();
  r.events = impl_->chains->all_events();
  return r;
}

TwoPartyResult run_hedged_two_party(const TwoPartyConfig& cfg,
                                    sim::DeviationPlan alice,
                                    sim::DeviationPlan bob) {
  TwoPartyWorld world(cfg);
  return sim::play(world, {std::move(alice), std::move(bob)});
}

}  // namespace xchain::core
