#include "core/bridge.hpp"

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "contracts/bridge.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::core {

namespace {

constexpr PartyId kUser = 0;

// ---------------------------------------------------------------------------
// Actors. Ordinal layout depends on the configuration:
//   user    (transfer, hedged):   0 create claim, 1 premium, 2 commit
//   user    (transfer, baseline): 0 create claim, 1 commit
//   user    (acct-create, hedged):   0 premium, 1 commit
//   user    (acct-create, baseline): 0 commit
//   witness (hedged):   0 bond, 1 attest, 2 settle report
//   witness (baseline): 0 attest, 1 settle report
// ---------------------------------------------------------------------------

class BridgeUser : public chain::SnapshotState<BridgeUser, sim::Party> {
 public:
  BridgeUser(const BridgeConfig& cfg, sim::DeviationPlan plan,
             contracts::BridgeDoorContract& door,
             contracts::BridgeClaimContract& claim)
      : chain::SnapshotState<BridgeUser, sim::Party>(kUser, "user",
                                                     std::move(plan)),
        cfg_(cfg),
        door_(door),
        claim_(claim) {}

  void step(chain::MultiChain& chains, Tick now) override {
    int ord = 0;
    if (cfg_.variant == BridgeVariant::kTransfer) {
      // Create the claim id on the issuing chain (funding the witness
      // reward pool) at protocol start.
      if (!did_create_) {
        did_create_ = true;
        act(chains, now, ord, [this](chain::MultiChain& ch) {
          submit(ch, claim_.chain_id(), "create claim",
                 [this](chain::TxContext& ctx) { claim_.create(ctx); });
        });
      }
      ++ord;
    }
    if (cfg_.hedged()) {
      // Deposit the premium on the door at protocol start.
      if (!did_premium_) {
        did_premium_ = true;
        act(chains, now, ord, [this](chain::MultiChain& ch) {
          submit(ch, door_.chain_id(), "deposit premium",
                 [this](chain::TxContext& ctx) {
                   door_.deposit_premium(ctx);
                 });
        });
      }
      ++ord;
    }
    // Commit the principal once the witnesses are on the hook: a bond
    // quorum in hedged mode, the created claim otherwise. (A compliant
    // user truncates if the quorum never forms.)
    const bool ready =
        cfg_.hedged() ? door_.bonds_posted() >= cfg_.quorum
                      : (cfg_.variant != BridgeVariant::kTransfer ||
                         claim_.created());
    if (!did_commit_ && ready) {
      did_commit_ = true;
      act(chains, now, ord, [this](chain::MultiChain& ch) {
        submit(ch, door_.chain_id(), "commit principal",
               [this](chain::TxContext& ctx) { door_.commit(ctx); });
      });
    }
  }

 private:
  const BridgeConfig cfg_;
  contracts::BridgeDoorContract& door_;
  contracts::BridgeClaimContract& claim_;
  bool did_create_ = false;
  bool did_premium_ = false;
  bool did_commit_ = false;

  auto state_tie() { return std::tie(did_create_, did_premium_, did_commit_); }
  friend chain::SnapshotState<BridgeUser, sim::Party>;
};

class BridgeWitness : public chain::SnapshotState<BridgeWitness, sim::Party> {
 public:
  BridgeWitness(const BridgeConfig& cfg, PartyId id, sim::DeviationPlan plan,
                contracts::BridgeDoorContract& door,
                contracts::BridgeClaimContract& claim)
      : chain::SnapshotState<BridgeWitness, sim::Party>(
            id, "witness-" + std::to_string(id), std::move(plan)),
        cfg_(cfg),
        door_(door),
        claim_(claim) {}

  void step(chain::MultiChain& chains, Tick now) override {
    int ord = 0;
    if (cfg_.hedged()) {
      // Bond on the door once the user's premium (and, for transfers,
      // the claim id) is visible — the witness's own escrow at stake.
      const bool bond_ready = door_.premium_deposited() &&
                              (cfg_.variant != BridgeVariant::kTransfer ||
                               claim_.created());
      if (!did_bond_ && bond_ready) {
        did_bond_ = true;
        act(chains, now, ord, [this](chain::MultiChain& ch) {
          submit(ch, door_.chain_id(), "post bond",
                 [this](chain::TxContext& ctx) { door_.post_bond(ctx); });
        });
      }
      ++ord;
    }
    // Attest on the issuing chain once the source-chain commit is final.
    if (!did_attest_ && door_.committed()) {
      did_attest_ = true;
      act(chains, now, ord, [this](chain::MultiChain& ch) {
        submit(ch, claim_.chain_id(), "attest commit",
               [this](chain::TxContext& ctx) { claim_.attest(ctx); });
      });
    }
    ++ord;
    // Report the issuing-chain outcome back to the door once it is known.
    // The report's content is read off the claim contract at execution
    // time — honest by construction, deviations only retime or drop it.
    // A witness that has an attestation in flight waits for it to land
    // before reporting: reporting early would carry a mask that excludes
    // its own vote, and each witness reports exactly once.
    const bool own_attest_final = !did_attest_ || claim_.attested(account_id());
    if (!did_settle_ && door_.committed() && claim_.outcome_known() &&
        own_attest_final) {
      did_settle_ = true;
      act(chains, now, ord, [this](chain::MultiChain& ch) {
        submit(ch, door_.chain_id(), "report settle",
               [this](chain::TxContext& ctx) {
                 door_.report_settle(ctx, claim_.resolved(),
                                     claim_.attester_mask());
               });
      });
    }
  }

 private:
  const BridgeConfig cfg_;
  contracts::BridgeDoorContract& door_;
  contracts::BridgeClaimContract& claim_;
  bool did_bond_ = false;
  bool did_attest_ = false;
  bool did_settle_ = false;

  auto state_tie() { return std::tie(did_bond_, did_attest_, did_settle_); }
  friend chain::SnapshotState<BridgeWitness, sim::Party>;
};

}  // namespace

struct BridgeWorld::Impl {
  BridgeConfig cfg;
  /// Private worlds own their chains; bound worlds alias the shared
  /// MultiChain and leave own_chains empty.
  chain::MultiChain own_chains;
  chain::MultiChain* chains = &own_chains;
  PartyId base = 0;  ///< first global party id (0 when private)
  contracts::BridgeDoorContract* door = nullptr;
  contracts::BridgeClaimContract* claim = nullptr;
  std::unique_ptr<PayoffTracker> tracker;
  std::unique_ptr<BridgeUser> user;
  std::vector<std::unique_ptr<BridgeWitness>> witnesses;
  sim::TreeFrame frame;
};

BridgeWorld::BridgeWorld(const BridgeConfig& cfg, chain::TraceMode trace)
    : BridgeWorld(cfg, WorldBinding{}, trace) {}

BridgeWorld::BridgeWorld(const BridgeConfig& cfg, const WorldBinding& binding,
                         chain::TraceMode trace)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  w.cfg = cfg;
  const bool bound = binding.bound();
  w.base = binding.party_base;
  const Tick d = cfg.delta;
  const Tick t0 = binding.start;
  const bool acct = cfg.variant == BridgeVariant::kAccountCreate;
  chain::MultiChain& chains = bound ? *binding.chains : w.own_chains;
  w.chains = &chains;
  if (!bound) chains.set_trace(trace);
  chain::Blockchain& locking = bound ? chains.get_or_add_chain("locking")
                                     : chains.add_chain("locking");
  chain::Blockchain& issuing = bound ? chains.get_or_add_chain("issuing")
                                     : chains.add_chain("issuing");

  const PartyId user = w.base + kUser;
  // The user's principal — the asset being bridged — lives on the locking
  // chain; its wrapped counterpart is pre-minted to the claim contract.
  locking.ledger_for_setup().mint(chain::Address::party(user), "bridged",
                                  cfg.transfer_amount);
  // Native-coin endowments: the user's premium (and, for account-create,
  // the reward pool) on the locking chain; one bond per witness; for a
  // transfer the reward pool is the user's issuing-chain stake.
  const Amount user_locking =
      (cfg.hedged() ? cfg.premium_unit : 0) + (acct ? cfg.reward_pool() : 0);
  if (user_locking > 0) {
    locking.ledger_for_setup().mint(chain::Address::party(user),
                                    locking.native(), user_locking);
  }
  if (cfg.hedged()) {
    for (PartyId v = 1; v <= static_cast<PartyId>(cfg.n_witnesses); ++v) {
      locking.ledger_for_setup().mint(chain::Address::party(w.base + v),
                                      locking.native(), cfg.bond_amount());
    }
  }
  if (!acct) {
    issuing.ledger_for_setup().mint(chain::Address::party(user),
                                    issuing.native(), cfg.reward_pool());
  }

  // Deadline ladder, spaced >= Delta per scheduled step: premium at D,
  // bonds at 2D, commit at 3D, attestations at 4D on the issuing chain,
  // and the settle window at 6D — wide enough for the failure path's
  // reports (claim timeout lands at 4D+1, is observed at 4D+2, and a
  // timely-delayed report still submits by 5D+1 <= 6D). Bound instances
  // shift the whole ladder to their arrival tick.
  impl_->door = &locking.deploy<contracts::BridgeDoorContract>(
      contracts::BridgeDoorContract::Params{
          user, /*party_base=*/w.base, cfg.n_witnesses, cfg.quorum,
          cfg.hedged(),
          /*rewards_at_door=*/acct, "bridged", cfg.transfer_amount,
          cfg.premium_unit, cfg.bond_amount(),
          /*reward_amount=*/acct ? cfg.witness_reward : 0,
          /*premium_deadline=*/t0 + d, /*bond_deadline=*/t0 + 2 * d,
          /*commit_deadline=*/t0 + 3 * d, /*settle_deadline=*/t0 + 6 * d});
  impl_->claim = &issuing.deploy<contracts::BridgeClaimContract>(
      contracts::BridgeClaimContract::Params{
          user, /*party_base=*/w.base, cfg.n_witnesses, cfg.quorum,
          /*user_creates=*/!acct, "wrapped", cfg.transfer_amount,
          /*reward_amount=*/acct ? 0 : cfg.witness_reward,
          /*create_deadline=*/t0 + d, /*attest_deadline=*/t0 + 4 * d});
  issuing.ledger_for_setup().mint(impl_->claim->address(), "wrapped",
                                  cfg.transfer_amount);

  impl_->tracker =
      std::make_unique<PayoffTracker>(chains, w.base, cfg.party_count());

  w.user = std::make_unique<BridgeUser>(cfg, sim::DeviationPlan::conforming(),
                                        *w.door, *w.claim);
  w.user->set_account_base(w.base);
  w.frame.chains = &chains;
  w.frame.actors = {w.user.get()};
  for (PartyId i = 1; i <= static_cast<PartyId>(cfg.n_witnesses); ++i) {
    w.witnesses.push_back(std::make_unique<BridgeWitness>(
        cfg, i, sim::DeviationPlan::conforming(), *w.door, *w.claim));
    w.witnesses.back()->set_account_base(w.base);
    w.frame.actors.push_back(w.witnesses.back().get());
  }
  w.frame.horizon = t0 + 6 * d + 2;
  // The ladder must leave Delta between consecutive scheduled steps or
  // the protocol's tolerance claims are vacuous.
  if (!bound) sim::debug_validate_deadlines(chains, d);
}

BridgeWorld::~BridgeWorld() = default;
BridgeWorld::BridgeWorld(BridgeWorld&&) noexcept = default;
BridgeWorld& BridgeWorld::operator=(BridgeWorld&&) noexcept = default;

sim::TreeFrame& BridgeWorld::frame() { return impl_->frame; }

void BridgeWorld::set_plans(const std::vector<sim::DeviationPlan>& plans) {
  Impl& w = *impl_;
  w.user->set_plan(plans.at(0));
  for (std::size_t i = 0; i < w.witnesses.size(); ++i) {
    w.witnesses[i]->set_plan(plans.at(i + 1));
  }
}

void BridgeWorld::summarize(ResultSummary& out) const {
  const Impl& w = *impl_;
  out.push_back(w.door->committed());
  out.push_back(w.claim->resolved());
  out.push_back(w.door->principal_refunded());
  out.push_back(w.claim->attester_count());
  out.push_back(w.door->bonds_posted());
  out.push_back(w.door->bonds_forfeited());
  for (PartyId p = 0; p < static_cast<PartyId>(w.cfg.party_count()); ++p) {
    w.tracker->write_delta(*w.chains, w.base + p, out);
  }
}

BridgeResult BridgeWorld::collect() const {
  const std::size_t n = static_cast<std::size_t>(impl_->cfg.party_count());
  ResultSummary summary = summary_buffer();
  summarize(summary);
  SummaryReader in(summary);
  BridgeResult r;
  r.committed = in.flag();
  r.transfer_completed = in.flag();
  r.principal_refunded = in.flag();
  r.attesters = static_cast<int>(in.next());
  r.bonds_posted = static_cast<int>(in.next());
  r.bonds_forfeited = static_cast<int>(in.next());
  r.payoffs.reserve(n);
  for (std::size_t p = 0; p < n; ++p) r.payoffs.push_back(in.delta());
  r.events = impl_->chains->all_events();
  return r;
}

BridgeResult run_bridge(const BridgeConfig& cfg,
                        const std::vector<sim::DeviationPlan>& plans) {
  BridgeWorld world(cfg);
  return sim::play(world, plans);
}

}  // namespace xchain::core
