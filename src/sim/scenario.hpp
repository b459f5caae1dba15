#pragma once

// Adversarial scenario-sweep engine.
//
// The paper's central claim is quantitative: under *any* sore-loser
// deviation, every conforming party ends no worse off than its premium
// compensation (Definition 1 and the per-protocol lemmas). A handful of
// hand-picked deviations cannot establish that — this module enumerates
// whole adversary-strategy spaces instead.
//
// A deviation schedule assigns every party a DeviationPlan: one ActionPolicy
// — Perform, Delay(d ticks), or Drop — per scheduled-action ordinal, with
// halting as the suffix-of-Drops special case and protocol-specific
// dishonesty (e.g. the auctioneer's seven declaration strategies) folded in
// as variant-tagged plans rather than side knobs. Which plans are
// enumerated is a first-class sweep dimension, the StrategySpace
// (sim/strategy_space.hpp): halt-only reproduces the historical schedule
// space byte-identically; timely-delays adds last-moment-but-compliant
// lateness (which must sweep clean — a timely-delayed party is still
// conforming and keeps its hedged floor); late-delays adds delays at and
// past the synchrony bound, whose submissions can land past contract
// deadlines — the audit then treats the delayer as the sore loser and
// checks that everyone else is premium-compensated. Enlarged spaces are
// bounded (per-party plan cap + schedule budget) with ParamGrid-style loud
// truncation reports.
//
// A ProtocolAdapter describes one protocol engine: how many parties it has,
// how many deviation ordinals each party's script exposes, its synchrony
// bound Δ (from which delay menus derive), and — when the generic generator
// doesn't fit — the party's plan space itself. ScenarioRunner takes an
// adapter, enumerates the cross product of per-party plan spaces, runs
// every schedule through the engine, and feeds each final state to
// payoff_audit, which flags any schedule where a conforming party loses
// more than its earned premiums or its principal without the
// counter-asset, or where an all-conforming run does not complete.
//
// Every protocol has one execution path (WorldAdapter below): one cached
// traceless world per adapter, whose persistent actors (sim/tree.hpp
// TreeFrame) tick to the horizon after a rewind to snapshot slot 0, the
// world's post-setup state. Brute replay, fault sweeps and their
// attribution twins, the fuzzer, and load twins all run schedules that
// way; the load generator binds the same world onto shared chains.
//
// Serial sweeps default to the prefix-sharing *schedule-tree executor*
// instead of replaying every schedule from tick 0. It drives the same
// frame, snapshotting the whole world — ledgers, contracts, actors — at
// every tick boundary onto the layered checkpoint stack
// (Blockchain::snap_push / snap_rewind, chain/snapshot.hpp), and logs
// which (party, ordinal) plan coordinates each run actually consulted
// (sim/consult.hpp). Before any schedule is audited it explores the
// schedule tree depth-first: each distinct consulted-decision path
// executes once, resuming from its branch tick, and its memo leaf serves
// every schedule whose plans give the same answers under the same engine
// variants (a dedup hit — only the conforming flags, which depend on
// unconsulted plan coordinates, are recomputed). A deviator budget is
// explored as disjoint deviator-set sub-spaces. An adapter may declare a
// range of interchangeable parties (ProtocolAdapter::
// interchangeable_parties, the bridge's witnesses); then only the paths
// of *canonical* schedules, whose plan indices in that range are
// non-decreasing, are explored, and every other schedule is served from
// its sorted twin's leaf with the range's outcomes permuted back. A sample
// of the permuted serves (all of them in Debug) is re-executed and
// compared whole, like the rewinds below.
//
// Runs that end alike share one stored outcome vector: a leaf holds an
// outcome id, found when the leaf is made by the run's result key (its
// plans' variants and the world's string-free summary of the result), and
// only a key not seen before maps the world's result to outcomes and
// interns them. A sample of known keys (all of them in Debug) derives the
// outcomes anyway and throws unless they match. Each distinct outcome's
// audit verdict (payoff_audit.hpp AuditVerdict: which parties breach if
// they conform, whether coins are conserved, whether the run completed)
// is computed once. The audit loop then walks raw indices with an
// odometer over the per-party plan indices and answers a clean schedule
// from its leaf's verdict under its conformance mask: an outcome-id load
// and one mask test, no decode and no outcome vector. A permuted serve is answered from its twin's verdict under the
// twin's mask. Only violating schedules and sampled permuted serves are
// decoded and audited from their leaf's outcomes, in raw order, and Debug
// builds audit every verdict-served schedule that way too and throw on
// any difference. Adapters past 64 parties, which a mask cannot hold, are
// audited the exact way throughout. Rewinds are
// integrity-checked by a 64-bit state hash: a contract or actor whose
// state_tie() misses a mutable member fails loudly instead of silently
// corrupting the sweep. The tree report is identical, schedule for
// schedule, to the brute-force replay's (pinned by
// tests/tree_equivalence_test.cpp); SweepOptions.executor forces either.
//
// Every sweep runs one shard loop: contiguous raw-index shards claimed
// through parallel_for (common/parallel.hpp) and merged in shard order.
// The tree runs it on one worker; brute replay on up to
// SweepOptions.threads, the caller driving the adapter itself and every
// other worker its own clone, so per-run chain state never crosses
// threads. The merged report is identical, schedule for schedule,
// whatever the worker count.
//
// Adapters for all the protocol families — two-party hedged swap (§5),
// multi-party ARC swap (§7), ticket auction open + sealed (§9), the
// three-party brokered sale (§8), the bootstrapped premium-ladder swap
// (§6), the CRR-priced ladder (§4 + §6), and the witness bridge — live at
// the bottom of this header, but new engines should NOT be hand-wired to
// these classes: register a named factory in sim/registry.hpp instead. The
// registry maps stable protocol names to ParamSet-driven adapter
// factories, and the campaign layer (sim/campaign.hpp, the `xchain-sweep`
// CLI, CI) sweeps whole configuration × strategy grids through it with
// zero recompilation — that is the entry point fuzzing and scaling work
// should drive.

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chain/fault.hpp"
#include "common/types.hpp"
#include "core/auction.hpp"
#include "core/binding.hpp"
#include "core/bootstrap.hpp"
#include "core/bridge.hpp"
#include "core/broker.hpp"
#include "core/multi_party.hpp"
#include "core/two_party.hpp"
#include "sim/deviation.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/strategy_space.hpp"
#include "sim/tree.hpp"

namespace xchain::sim {

/// One fully-specified adversarial schedule: a deviation plan per party.
/// Protocol-specific dishonesty rides on the plans' variant tags.
struct Schedule {
  std::vector<DeviationPlan> plans;
  std::string label;
};

/// The contracts with ids [first, last) on one chain.
struct ContractRange {
  ChainId chain = 0;
  ContractId first = 0;
  ContractId last = 0;

  bool operator==(const ContractRange&) const = default;
};

/// One protocol instance bound into a shared MultiChain — what
/// ProtocolAdapter::bind_instance returns and the load generator
/// (src/load/) drives. The instance owns its (bound) world; the load
/// scheduler ticks the actors each round and, once the global tick reaches
/// end_tick(), collects the per-party outcomes for the payoff audit. All
/// plans are conforming: under load, every violation is the substrate's
/// fault, never a party's.
///
/// Its contracts belong to the shared chains, not to the instance: the
/// destructor frees the world (actors, caches, adapter clone) and never
/// touches a chain. Freeing the contracts is an explicit
/// Blockchain::retire over contracts(), once no pending transaction can
/// reach them.
class LoadInstance {
 public:
  virtual ~LoadInstance() = default;

  /// Actors in scheduler add-order; tick each exactly once per round.
  virtual const std::vector<Party*>& actors() const = 0;

  /// Exclusive global end tick: the instance is complete once the load
  /// scheduler has produced the block at end_tick() - 1.
  virtual Tick end_tick() const = 0;

  /// End-of-run outcomes under the all-conforming schedule.
  virtual std::vector<PartyOutcome> collect() const = 0;

  /// The contracts its world deployed, one range per chain, in chain-id
  /// order. Binds are serial and deploy only at setup, so each range is
  /// contiguous.
  virtual const std::vector<ContractRange>& contracts() const = 0;
};

/// A half-open party range [first, last).
struct PartyRange {
  PartyId first = 0;
  PartyId last = 0;

  std::size_t size() const { return last > first ? last - first : 0; }
  bool operator==(const PartyRange&) const = default;
};

/// How ScenarioRunner talks to one protocol engine. run() must execute the
/// schedule on clean state so schedules never contaminate each other.
/// Every registry protocol derives from WorldAdapter below, whose run()
/// rewinds one cached traceless world to its post-setup snapshot per
/// schedule — what makes deep sweeps cheap; test fakes override run()
/// directly.
class ProtocolAdapter {
 public:
  virtual ~ProtocolAdapter() = default;

  virtual std::string name() const = 0;
  virtual std::size_t party_count() const = 0;

  /// Chain-side execution environment (chain/fault.hpp): the fault plan
  /// injected into this adapter's chains and the resilience policy its
  /// parties follow. A per-run input: WorldAdapter installs the current
  /// environment on its one cached world whenever it hands that world out
  /// (run(), tree_frame() and the tree hooks), so it may change between
  /// runs, and each run reports what a fresh world built under it would
  /// (pinned by tests/sweep_equivalence_test.cpp). Never change it while
  /// a tree sweep is exploring. The default inactive environment keeps
  /// the substrate byte-identical to the historical reliable one. Active
  /// environments are brute-executor only — carried-over mempool entries
  /// break the tree executor's tick-boundary snapshot invariant — and
  /// clone() copies the environment, so parallel shards inject
  /// identically.
  void set_environment(chain::ChainEnvironment env) { env_ = std::move(env); }
  const chain::ChainEnvironment& environment() const { return env_; }

  /// Number of deviation ordinals in party p's script; the generic plan
  /// space tries halt@0 .. halt@(count-1) plus conforming, and delay/drop
  /// combinations over the same ordinals. (halt@count would repeat
  /// conforming: the party performs its whole script.)
  virtual int action_count(PartyId p) const = 0;

  /// The configured synchrony bound Δ in ticks — the unit strategy-space
  /// delay menus are derived from ({Δ-1} timely, {Δ-1, Δ, 2Δ} late).
  virtual Tick delta() const { return 1; }

  /// Party p's enumerated plan space under `strategies`, at most `cap`
  /// plans. Default: the generic generator over action_count(p) and
  /// delta(). Adapters whose parties deviate through protocol-specific
  /// variants (the auctioneer) override this to emit variant-tagged plans.
  virtual PartyPlanSpace plan_space(
      PartyId p, const StrategySpace& strategies,
      std::size_t cap = std::numeric_limits<std::size_t>::max()) const {
    return party_plan_space(action_count(p), delta(), strategies, cap);
  }

  /// How party p's plan renders inside a schedule label. Default: the
  /// plan's own str(); adapters with variant plans give them names.
  virtual std::string plan_label(PartyId p, const DeviationPlan& plan) const {
    (void)p;
    return plan.str();
  }

  /// Parties that are interchangeable up to relabelling: swapping two of
  /// their plans swaps their outcomes (payoff and bound), and nothing
  /// else changes. The tree executor then explores only the schedules
  /// whose plans in this range are in plan-list order and serves the rest
  /// permuted; it refuses (std::logic_error) a range whose parties'
  /// bounded plan lists differ. Empty by default: no reduction.
  virtual PartyRange interchangeable_parties() const { return {}; }

  /// An independent adapter driving the same protocol with the same
  /// parameters. Parallel sweeps give every worker thread but the caller's
  /// its own clone: adapters cache a reusable world (stateful chains) on
  /// themselves, so workers must never share one instance. Cloning copies
  /// configuration only — each clone builds its own world on first run().
  virtual std::unique_ptr<ProtocolAdapter> clone() const = 0;

  virtual std::vector<PartyOutcome> run(const Schedule& s) const = 0;

  /// Binds one all-conforming instance of this protocol onto the shared
  /// MultiChain described by `binding` (core/binding.hpp) and returns it
  /// for the load generator to drive. The instance's ledger rows live at
  /// [binding.party_base, party_base + party_count()) and its deadline
  /// ladder starts at binding.start; the adapter itself is not captured
  /// (the instance copies what it needs). Adapters without a bound world
  /// form throw std::logic_error.
  virtual std::unique_ptr<LoadInstance> bind_instance(
      const core::WorldBinding& binding) const {
    (void)binding;
    throw std::logic_error(name() + ": bind_instance not implemented");
  }

  /// --- Schedule-tree executor hooks ---------------------------------------
  /// The cached world's frame (persistent actors + chains + horizon), built
  /// on first use, or nullptr when the adapter has no engine world (test
  /// fakes). When this returns non-null, tree_set_plans, tree_collect and
  /// tree_result_key must be implemented; they are const for the same
  /// reason run() is (the world is a mutable cache on a logically-const
  /// adapter).
  virtual TreeFrame* tree_frame() const { return nullptr; }
  /// Installs one schedule's plans (and variant knobs, e.g. the
  /// auctioneer's declaration strategy) on the frame's persistent actors.
  virtual void tree_set_plans(const Schedule& s) const {
    (void)s;
    throw std::logic_error(name() + ": tree executor hooks not implemented");
  }
  /// Maps the world's current end-of-run state to per-party outcomes — the
  /// same assembly run() ends with.
  virtual std::vector<PartyOutcome> tree_collect(const Schedule& s) const {
    (void)s;
    throw std::logic_error(name() + ": tree executor hooks not implemented");
  }
  /// Replaces `key` with the key of the world's current end-of-run state
  /// under `s`, written without strings or maps. Equal keys must mean
  /// equal tree_collect(s) outcomes, conformance flags aside: the tree
  /// executor derives outcomes only for a key it has not seen, and checks
  /// that promise on a sample of the rest.
  virtual void tree_result_key(const Schedule& s,
                               core::ResultSummary& key) const {
    (void)s;
    (void)key;
    throw std::logic_error(name() + ": tree executor hooks not implemented");
  }

 private:
  chain::ChainEnvironment env_;
};

/// Lazily-built per-adapter world cache. Deliberately NOT copied by the
/// copy/assign operations: every adapter clone builds its own world, so
/// parallel workers never share chain state. `mutable` because the world
/// is a cache the logically-const run() path fills and reuses.
template <class W>
class WorldCache {
 public:
  WorldCache() = default;
  WorldCache(const WorldCache&) {}
  WorldCache& operator=(const WorldCache&) {
    w_.reset();
    return *this;
  }
  WorldCache(WorldCache&&) noexcept = default;
  WorldCache& operator=(WorldCache&&) noexcept = default;

  /// The cached world, built by `make` (returning std::unique_ptr<W>) on
  /// first use.
  template <class Make>
  W& ensure(Make&& make) const {
    if (!w_) w_ = make();
    return *w_;
  }

 private:
  mutable std::unique_ptr<W> w_;
};

/// The one execution path of every registry protocol. An engine world W
/// (core/*World) exposes its TreeFrame, set_plans(plans), collect() and
/// summarize(out), the string-free form of what collect() returns; this
/// base drives all of them through that frame:
///   * run() rewinds the cached private world to snapshot slot 0 (its
///     post-setup state) under the adapter's current environment, then
///     plays the schedule to the horizon (sim::play) and maps the result
///     through outcomes_from() — the path brute sweep shards, fault
///     sweeps, attribution twins, the fuzzer and load twins all share;
///   * the tree hooks hand the same world to the schedule-tree executor,
///     which keys each run by its plans' variants and summarize() and
///     maps a run through collect() and outcomes_from() only for a new
///     key;
///   * bind_instance() builds the world bound onto shared chains.
/// A concrete adapter supplies its identity, plan space, make_world() and
/// outcomes_from().
template <class W>
class WorldAdapter : public ProtocolAdapter {
 public:
  using Result = decltype(std::declval<const W&>().collect());

  std::vector<PartyOutcome> run(const Schedule& s) const override {
    W& w = world();
    w.frame().snap_rewind(0);
    return outcomes_from(play(w, s.plans), s);
  }

  std::unique_ptr<LoadInstance> bind_instance(
      const core::WorldBinding& binding) const override {
    std::vector<std::size_t> before;  // contract count per existing chain
    if (binding.chains) {
      for (ChainId c = 0; c < binding.chains->count(); ++c) {
        before.push_back(binding.chains->at(c).contract_count());
      }
    }
    std::unique_ptr<W> w = make_world(binding);
    if (w->frame().chains != binding.chains) {
      throw std::logic_error(name() + ": bind_instance not implemented");
    }
    std::vector<ContractRange> deployed;
    for (ChainId c = 0; c < binding.chains->count(); ++c) {
      const ContractId first = c < before.size() ? before[c] : 0;
      const ContractId last = binding.chains->at(c).contract_count();
      if (first < last) deployed.push_back({c, first, last});
    }
    Schedule s;
    s.plans.assign(party_count(), DeviationPlan::conforming());
    s.label = binding.tag;
    w->set_plans(s.plans);
    return std::make_unique<BoundInstance>(std::move(w), clone(),
                                           std::move(s), std::move(deployed));
  }

  TreeFrame* tree_frame() const override { return &world().frame(); }
  void tree_set_plans(const Schedule& s) const override {
    world().set_plans(s.plans);
  }
  std::vector<PartyOutcome> tree_collect(const Schedule& s) const override {
    return outcomes_from(world().collect(), s);
  }
  /// The plans' variants, then the world's summary: everything
  /// outcomes_from() may read but the config, which the adapter fixes.
  void tree_result_key(const Schedule& s,
                       core::ResultSummary& key) const override {
    key.clear();
    for (const DeviationPlan& plan : s.plans) key.push_back(plan.variant());
    world().summarize(key);
  }

 protected:
  /// Builds the protocol's world: private and traceless under a default
  /// binding, deployed onto binding.chains otherwise. Protocols without a
  /// bound form ignore `binding` (bind_instance then refuses them).
  virtual std::unique_ptr<W> make_world(
      const core::WorldBinding& binding) const = 0;

  /// Maps a finished run's result to per-party outcomes under `s`. Every
  /// bound term must be path-determined (config + run result + plan
  /// variants, never a party's own unconsulted plan coordinates, nor the
  /// result's event log): the tree executor serves one cached outcome to
  /// every schedule sharing a consulted-decision path, and to every run
  /// whose plan variants and world summary match an earlier run's,
  /// patching only the conformance flags.
  virtual std::vector<PartyOutcome> outcomes_from(
      const Result& r, const Schedule& s) const = 0;

 private:
  /// A bound world plus the adapter clone whose outcomes_from() audits it
  /// under the all-conforming schedule.
  class BoundInstance final : public LoadInstance {
   public:
    BoundInstance(std::unique_ptr<W> world,
                  std::unique_ptr<ProtocolAdapter> owner, Schedule s,
                  std::vector<ContractRange> contracts)
        : world_(std::move(world)), owner_(std::move(owner)),
          s_(std::move(s)), contracts_(std::move(contracts)) {}

    const std::vector<Party*>& actors() const override {
      return world_->frame().actors;
    }
    Tick end_tick() const override { return world_->frame().horizon; }
    std::vector<PartyOutcome> collect() const override {
      return static_cast<const WorldAdapter&>(*owner_).outcomes_from(
          world_->collect(), s_);
    }
    const std::vector<ContractRange>& contracts() const override {
      return contracts_;
    }

   private:
    std::unique_ptr<W> world_;
    std::unique_ptr<ProtocolAdapter> owner_;
    Schedule s_;
    std::vector<ContractRange> contracts_;
  };

  /// The cached private world, built on first use with its post-setup
  /// state pushed as snapshot slot 0, the state every run() rewinds to,
  /// and carrying this adapter's current environment. No world depends on
  /// its environment: setup runs before any is installed, and a slot-0
  /// rewind forgets all fault runtime (Blockchain::snap_rewind), so
  /// switching environments between runs equals building afresh.
  W& world() const {
    W& w = world_.ensure([this] {
      std::unique_ptr<W> built = make_world(core::WorldBinding{});
      built->frame().snap_push();
      return built;
    });
    chain::MultiChain& chains = *w.frame().chains;
    if (chains.environment() != environment()) {
      chains.set_environment(environment());
    }
    return w;
  }

  WorldCache<W> world_;
};

/// Result of sweeping one adapter's schedule space.
struct SweepReport {
  std::string protocol;
  std::size_t schedules_run = 0;
  std::size_t conforming_audited = 0;
  std::vector<Violation> violations;

  /// Strategy-space truncation notices (ParamGrid-style): non-empty iff
  /// the enumerated space was capped below its full size. Halt-only
  /// sweeps are never truncated.
  std::vector<std::string> truncations;

  /// Worker threads actually used (small spaces clamp below the request:
  /// a worker only pays for itself over a batch of schedules).
  unsigned workers = 1;

  /// --- Executor statistics -------------------------------------------------
  /// Deliberately NOT part of line()/str(): those summary strings are
  /// pinned by tests and aggregated verbatim by campaign reports. Benches
  /// and campaign JSON export these fields instead.
  ///
  /// Schedules the executor actually ran on a world. Tree sweeps run one
  /// per distinct consulted-decision path (for an adapter with
  /// interchangeable parties, one per path some canonical schedule takes;
  /// the sampled re-executions of permuted serves are not counted); brute
  /// sweeps run every schedule, so nodes_executed == schedules_run there.
  std::size_t nodes_executed = 0;
  /// Schedules whose outcomes were produced and audited (executed plus
  /// dedup-served) — always equal to schedules_run; reported separately so
  /// JSON consumers need not know the identity.
  std::size_t schedules_covered = 0;
  /// Schedules served from a memo-trie leaf without touching the world,
  /// their own leaf's or, permuted, their sorted twin's
  /// (== schedules_run - nodes_executed; 0 on the brute path). Clean ones
  /// are answered from the leaf's audit verdict under their conformance
  /// mask; violating ones are audited from the leaf's outcomes.
  std::size_t dedup_hits = 0;

  /// Violations attributed to the injected chain faults rather than any
  /// party's deviation (Violation::fault_caused — the schedule re-audits
  /// clean on a faultless twin world). Like the executor statistics this
  /// is NOT part of line()/str()'s pinned summary; campaign JSON exports
  /// it when an environment is active.
  std::size_t fault_caused = 0;

  bool ok() const { return violations.empty(); }

  /// One-line summary ("<protocol>: N schedules, ... V violations") — the
  /// per-protocol form campaign reports aggregate. Pinned in
  /// tests/strategy_sweep_test.cpp; campaign/CLI output depends on it.
  std::string line() const;
  /// line() plus one indented line per violation and per truncation.
  std::string str() const;
};

/// Which engine executes a sweep's schedules.
enum class SweepExecutor {
  /// Every serial sweep of a tree-capable adapter on an inactive
  /// environment, deviator budget or not, uses the schedule-tree executor;
  /// everything else (parallel shards, adapters without tree support,
  /// active chain environments) brute-force replays every schedule.
  kAuto,
  /// Force the schedule-tree executor (always serial). Throws
  /// std::invalid_argument when the adapter is not tree-capable.
  kTree,
  /// Force brute-force replay of every schedule: the unreduced reference
  /// (no prefix sharing, no interchangeable-party serves).
  kBrute,
};

/// How to run a sweep.
struct SweepOptions {
  /// Schedules with more deviating parties are skipped (-1 = unbounded,
  /// the full cross product). Any non-reference plan — halt, delay, drop,
  /// or dishonest variant — counts its party as one deviator.
  int max_deviators = -1;

  /// Worker threads. 1 = serial; 0 = one per hardware thread. The result
  /// is bit-identical whatever the count.
  unsigned threads = 1;

  /// Which adversary strategies to enumerate (and the bounds on the
  /// enlarged spaces). Defaults to halt-only: byte-identical to the
  /// historical sweeps.
  StrategySpace strategies;

  /// Execution engine. The report is identical whichever engine runs
  /// (pinned by tests/tree_equivalence_test.cpp) — only the executor
  /// statistics and the wall-clock differ.
  SweepExecutor executor = SweepExecutor::kAuto;
};

/// Rejects malformed options (max_deviators below -1, zero strategy-space
/// caps) with std::invalid_argument instead of letting them skip every
/// schedule silently. Called by ScenarioRunner::sweep and Campaign::run.
void validate_sweep_options(const SweepOptions& opts);

/// Enumerates and audits deviation schedules for one protocol.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ProtocolAdapter& adapter)
      : adapter_(adapter) {}

  /// All halt-only schedules with at most `max_deviators` deviating
  /// parties (-1 = unbounded, the full cross product).
  std::vector<Schedule> enumerate(int max_deviators = -1) const;

  /// All schedules of `opts`' strategy space within its deviator bound.
  std::vector<Schedule> enumerate(const SweepOptions& opts) const;

  /// How many schedules sweep(opts) would run, without running any — the
  /// `xchain-sweep --dry-run` number (decodes the space, applies the
  /// max_deviators filter, skips execution). When `truncations` is given,
  /// the strategy-space truncation notices a real sweep would report are
  /// appended to it — a dry run must be as loud about capping as the run
  /// it previews.
  std::size_t schedule_count(const SweepOptions& opts,
                             std::vector<std::string>* truncations =
                                 nullptr) const;

  /// Runs and audits every enumerated schedule serially.
  SweepReport sweep(int max_deviators = -1) const;

  /// Runs and audits every enumerated schedule, sharded over
  /// `opts.threads` workers. Violations arrive in enumeration order
  /// regardless of thread count.
  SweepReport sweep(const SweepOptions& opts) const;

 private:
  const ProtocolAdapter& adapter_;
};

// ---------------------------------------------------------------------------
// Concrete adapters
// ---------------------------------------------------------------------------

/// Hedged two-party swap (§5.2, Figure 1). Bound: a conforming party whose
/// principal was locked up and refunded earns at least the counterparty's
/// premium (p_b for Alice, p_a for Bob).
class TwoPartySwapAdapter final : public WorldAdapter<core::TwoPartyWorld> {
 public:
  explicit TwoPartySwapAdapter(core::TwoPartyConfig cfg) : cfg_(cfg) {}

  std::string name() const override { return "hedged-two-party"; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override {
    return core::kHedgedTwoPartyActions;
  }
  Tick delta() const override { return cfg_.delta; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<TwoPartySwapAdapter>(*this);
  }

 private:
  std::unique_ptr<core::TwoPartyWorld> make_world(
      const core::WorldBinding& binding) const override {
    return std::make_unique<core::TwoPartyWorld>(cfg_, binding);
  }
  std::vector<PartyOutcome> outcomes_from(const core::TwoPartyResult& r,
                                          const Schedule& s) const override;

  core::TwoPartyConfig cfg_;
};

/// Multi-party ARC swap on a digraph (§7). Bound (Lemma 6): a conforming
/// party earns at least premium_unit per locked-and-refunded asset.
class MultiPartySwapAdapter final
    : public WorldAdapter<core::MultiPartyWorld> {
 public:
  explicit MultiPartySwapAdapter(core::MultiPartyConfig cfg)
      : cfg_(std::move(cfg)) {}

  std::string name() const override {
    return std::string(cfg_.hedged ? "hedged" : "base") + "-multi-party-n" +
           std::to_string(cfg_.g.size());
  }
  std::size_t party_count() const override { return cfg_.g.size(); }
  int action_count(PartyId) const override {
    return cfg_.hedged ? core::kMultiPartyHedgedActions
                       : core::kMultiPartyBaseActions;
  }
  Tick delta() const override { return cfg_.delta; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<MultiPartySwapAdapter>(*this);
  }

 private:
  std::unique_ptr<core::MultiPartyWorld> make_world(
      const core::WorldBinding&) const override {
    return std::make_unique<core::MultiPartyWorld>(cfg_,
                                                   chain::TraceMode::kOff);
  }
  std::vector<PartyOutcome> outcomes_from(const core::MultiPartyResult& r,
                                          const Schedule& s) const override;

  core::MultiPartyConfig cfg_;
};

/// Ticket auction (§9), open or sealed-bid. Party 0 is the auctioneer: the
/// smart contracts confine her to publishing (or withholding) hashkeys, so
/// her whole behaviour space is the seven declaration strategies — folded
/// into the plan space as variant-tagged plans (variant 0 = honest) rather
/// than halt ordinals. Bidder ordinals: open 0 = bid, 1 = forward; sealed
/// 0 = commit, 1 = reveal, 2 = forward. Bound (Lemma 8): a conforming
/// bidder's coins move only against the tickets, and never by more than
/// its bid.
class TicketAuctionAdapter final : public WorldAdapter<core::AuctionWorld> {
 public:
  TicketAuctionAdapter(core::AuctionConfig cfg, bool sealed)
      : cfg_(std::move(cfg)), sealed_(sealed) {}

  std::string name() const override {
    return sealed_ ? "sealed-ticket-auction" : "ticket-auction";
  }
  std::size_t party_count() const override { return cfg_.bids.size() + 1; }
  int action_count(PartyId p) const override {
    if (p == 0) return 0;  // the auctioneer deviates via variants only
    return sealed_ ? 3 : 2;
  }
  Tick delta() const override { return cfg_.delta; }
  /// Party 0's space is the seven variant-tagged auctioneer plans; bidders
  /// use the generic generator.
  PartyPlanSpace plan_space(PartyId p, const StrategySpace& strategies,
                            std::size_t cap) const override;
  std::string plan_label(PartyId p,
                         const DeviationPlan& plan) const override;
  /// The auctioneer's declaration-strategy name for a variant tag.
  static std::string variant_label(int variant);
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<TicketAuctionAdapter>(*this);
  }

 private:
  std::unique_ptr<core::AuctionWorld> make_world(
      const core::WorldBinding&) const override {
    return std::make_unique<core::AuctionWorld>(cfg_, sealed_,
                                                chain::TraceMode::kOff);
  }
  std::vector<PartyOutcome> outcomes_from(const core::AuctionResult& r,
                                          const Schedule& s) const override;

  core::AuctionConfig cfg_;
  bool sealed_;
};

/// Three-party brokered sale (§8, after Herlihy–Liskov–Shrira): Alice
/// brokers Bob's tickets to Carol. Bound (§8.2): a conforming seller whose
/// principal was locked up and refunded earns at least the base premium p;
/// Alice escrows nothing, so her floor is breaking even.
class BrokerDealAdapter final : public WorldAdapter<core::BrokerWorld> {
 public:
  explicit BrokerDealAdapter(core::BrokerConfig cfg) : cfg_(cfg) {}

  std::string name() const override { return "hedged-broker"; }
  std::size_t party_count() const override { return 3; }
  int action_count(PartyId) const override { return core::kBrokerActions; }
  Tick delta() const override { return cfg_.delta; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<BrokerDealAdapter>(*this);
  }

 private:
  std::unique_ptr<core::BrokerWorld> make_world(
      const core::WorldBinding& binding) const override {
    return std::make_unique<core::BrokerWorld>(cfg_, binding);
  }
  std::vector<PartyOutcome> outcomes_from(const core::BrokerResult& r,
                                          const Schedule& s) const override;

  core::BrokerConfig cfg_;
};

/// Bootstrapped premium-ladder swap (§6, Figure 2), driven through the
/// LadderContract pair. Bound (§6 via §5.2): a conforming party whose
/// principal was locked up and refunded is awarded the rung-1 premium on
/// its own chain (net of the rung-1 premium it forfeits on the
/// counterparty's chain when both principals were escrowed — the exact
/// two-party floors p_b and p_a generalized to the ladder amounts).
/// Deliberately final: parallel workers clone adapters by value, so ladder
/// variants (like the CRR-priced one) are expressed as config factories,
/// never as subclasses that could slice through the base clone().
class BootstrapSwapAdapter final : public WorldAdapter<core::BootstrapWorld> {
 public:
  explicit BootstrapSwapAdapter(core::BootstrapConfig cfg,
                                std::string name = "");

  std::string name() const override { return name_; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override {
    return core::bootstrap_action_count(cfg_.rounds);
  }
  Tick delta() const override { return cfg_.delta; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<BootstrapSwapAdapter>(*this);
  }

  const core::BootstrapConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<core::BootstrapWorld> make_world(
      const core::WorldBinding&) const override {
    return std::make_unique<core::BootstrapWorld>(cfg_,
                                                  chain::TraceMode::kOff);
  }
  std::vector<PartyOutcome> outcomes_from(const core::BootstrapResult& r,
                                          const Schedule& s) const override;

  core::BootstrapConfig cfg_;
  std::string name_;
  Amount alice_floor_ = 0;  ///< apricot rung-1 premium (Bob's deposit)
  Amount bob_floor_ = 0;    ///< banana rung-1 minus apricot rung-1
};

/// Witness/attestation bridge (XChainBridge-style door account + claim
/// contract), value-transfer or account-create flavor, hedged with the
/// paper's premium construction: the user's premium and the witness bonds
/// escrow on the locking-chain door, the witness reward pool escrows on
/// the issuing side. Bound: a conforming user recovers
/// principal-or-premium — the wrapped asset on a completed transfer (the
/// reward pool is the legitimate spend), at least the premium when a
/// commit was stranded by a witness stall or quorum failure (funded by
/// the forfeited bonds); a conforming witness nets at least its
/// attestation cost — the reward on a completed transfer, break-even
/// otherwise. Both flavors run under every executor and under load.
/// The witnesses are interchangeable k-of-n attesters (the door and claim
/// contracts count them in bit masks, and every witness gets the same plan
/// list), so the tree executor explores one witness ordering per
/// permutation of their plans.
class BridgeAdapter final : public WorldAdapter<core::BridgeWorld> {
 public:
  explicit BridgeAdapter(core::BridgeConfig cfg) : cfg_(cfg) {}

  std::string name() const override {
    return cfg_.variant == core::BridgeVariant::kTransfer
               ? "bridge-transfer"
               : "bridge-account-create";
  }
  std::size_t party_count() const override {
    return static_cast<std::size_t>(cfg_.party_count());
  }
  int action_count(PartyId p) const override {
    return p == 0 ? cfg_.user_actions() : cfg_.witness_actions();
  }
  Tick delta() const override { return cfg_.delta; }
  /// The witnesses, parties [1, 1 + n_witnesses).
  PartyRange interchangeable_parties() const override {
    return {1, static_cast<PartyId>(1 + cfg_.n_witnesses)};
  }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<BridgeAdapter>(*this);
  }

  const core::BridgeConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<core::BridgeWorld> make_world(
      const core::WorldBinding& binding) const override {
    return std::make_unique<core::BridgeWorld>(cfg_, binding);
  }
  std::vector<PartyOutcome> outcomes_from(const core::BridgeResult& r,
                                          const Schedule& s) const override;

  core::BridgeConfig cfg_;
};

/// Market parameters for CRR premium pricing (§4).
struct CrrMarket {
  double volatility = 0.8;       ///< annualized sigma (crypto-grade)
  double rate = 0.0;             ///< risk-free rate
  double ticks_per_year = 1460;  ///< tick = 6h (paper's Delta = 12h)
};

/// A single-rung ladder whose premiums are priced by the
/// Cox–Ross–Rubinstein model (§4) instead of the geometric bootstrap
/// factor: p_b prices the walk-away option on Alice's principal over its
/// lock-up window, p_a on Bob's, and the banana rung carries p_a + p_b per
/// §5.2. Wires the CRR engine (core/crr.*) and the ladder contract
/// (contracts/ladder.*) into the sweep as the "crr-ladder" protocol.
BootstrapSwapAdapter make_crr_ladder_adapter(core::BootstrapConfig cfg,
                                             const CrrMarket& market = {});

}  // namespace xchain::sim
