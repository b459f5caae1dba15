#include "core/two_party.hpp"

#include <optional>
#include <utility>

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

BootstrapConfig two_party_ladder(const TwoPartyConfig& cfg) {
  BootstrapConfig ladder;
  ladder.alice_tokens = cfg.alice_tokens;
  ladder.bob_tokens = cfg.bob_tokens;
  ladder.rounds = 1;
  ladder.delta = cfg.delta;
  ladder.apricot_premiums = {cfg.premium_b};
  ladder.banana_premiums = {cfg.premium_a + cfg.premium_b};
  return ladder;
}

TwoPartyResult run_hedged_two_party(const TwoPartyConfig& cfg,
                                    sim::DeviationPlan alice,
                                    sim::DeviationPlan bob) {
  BootstrapResult ladder = run_bootstrap_swap(
      two_party_ladder(cfg), std::move(alice), std::move(bob));
  TwoPartyResult r;
  r.swapped = ladder.swapped;
  r.alice = std::move(ladder.alice);
  r.bob = std::move(ladder.bob);
  r.alice_lockup = ladder.alice_lockup;
  r.bob_lockup = ladder.bob_lockup;
  r.events = std::move(ladder.events);
  return r;
}

}  // namespace xchain::core
