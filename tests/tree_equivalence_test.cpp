// The schedule-tree executor must be a pure accelerator: for every
// tree-capable adapter and every strategy space, the report it produces is
// identical — schedule for schedule, violation for violation, truncation
// notice for truncation notice — to the brute-force replay's. These tests
// pin that equivalence across the full reference-protocol registry, the
// executor-statistics invariants that distinguish the two engines, the
// kTree capability check (every registry protocol passes it), report
// stability across repeated sweeps on one runner (including a dirty world
// left behind by interleaved run() calls), and the witness-permutation
// reduction: bridges explore one witness ordering per permutation, still
// report what full replay reports, and a false symmetry claim is caught.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/fault.hpp"
#include "core/bridge.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// The registry defaults of every protocol, with a 4-party ring.
std::vector<std::unique_ptr<ProtocolAdapter>> reference_adapters() {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  std::vector<std::unique_ptr<ProtocolAdapter>> out;
  out.push_back(reg.make("two-party"));
  out.push_back(reg.make("multi-party-fig3a"));
  ParamSet ring = reg.defaults("multi-party-ring");
  ring.set("n", "4");
  out.push_back(reg.make("multi-party-ring", ring));
  out.push_back(reg.make("auction-open"));
  out.push_back(reg.make("auction-sealed"));
  out.push_back(reg.make("broker"));
  out.push_back(reg.make("bootstrap"));
  out.push_back(reg.make("crr-ladder"));
  out.push_back(reg.make("bridge-transfer"));
  out.push_back(reg.make("bridge-account-create"));
  return out;
}

void expect_identical(const SweepReport& brute, const SweepReport& tree) {
  EXPECT_EQ(tree.protocol, brute.protocol);
  EXPECT_EQ(tree.schedules_run, brute.schedules_run);
  EXPECT_EQ(tree.conforming_audited, brute.conforming_audited);
  EXPECT_EQ(tree.truncations, brute.truncations);
  ASSERT_EQ(tree.violations.size(), brute.violations.size());
  for (std::size_t i = 0; i < brute.violations.size(); ++i) {
    EXPECT_EQ(tree.violations[i].schedule, brute.violations[i].schedule)
        << "violation " << i << " out of order";
    EXPECT_EQ(tree.violations[i].party, brute.violations[i].party);
    EXPECT_EQ(tree.violations[i].coin_delta, brute.violations[i].coin_delta);
    EXPECT_EQ(tree.violations[i].required_min,
              brute.violations[i].required_min);
  }
}

// Every schedule is accounted for exactly once by either engine: brute
// executes all of them, the tree executes one per distinct consulted
// decision path and serves the rest as dedup hits.
void expect_stats_invariants(const SweepReport& brute,
                             const SweepReport& tree) {
  EXPECT_EQ(brute.nodes_executed, brute.schedules_run);
  EXPECT_EQ(brute.schedules_covered, brute.schedules_run);
  EXPECT_EQ(brute.dedup_hits, 0u);

  EXPECT_EQ(tree.schedules_covered, tree.schedules_run);
  EXPECT_LE(tree.nodes_executed, tree.schedules_run);
  EXPECT_GE(tree.nodes_executed, 1u);
  EXPECT_EQ(tree.nodes_executed + tree.dedup_hits, tree.schedules_run);
}

TEST(TreeEquivalence, MatchesBruteOnEveryAdapterAndStrategySpace) {
  std::size_t total_schedules = 0;
  std::size_t total_nodes = 0;
  for (const StrategySpace::Kind kind : {StrategySpace::Kind::kHaltOnly,
                                         StrategySpace::Kind::kTimelyDelays,
                                         StrategySpace::Kind::kLateDelays}) {
    for (const auto& adapter : reference_adapters()) {
      SCOPED_TRACE(adapter->name() + " / " +
                   StrategySpace::kind_name(kind));
      ScenarioRunner runner(*adapter);
      SweepOptions opts;
      opts.strategies.kind = kind;
      opts.executor = SweepExecutor::kBrute;
      const SweepReport brute = runner.sweep(opts);
      opts.executor = SweepExecutor::kTree;
      const SweepReport tree = runner.sweep(opts);

      expect_identical(brute, tree);
      expect_stats_invariants(brute, tree);
      EXPECT_EQ(tree.workers, 1u);
      total_schedules += tree.schedules_run;
      total_nodes += tree.nodes_executed;
    }
  }
  // The tree must actually share prefixes somewhere in the matrix — if it
  // degenerated to one execution per schedule these would be equal and the
  // executor would be a slower brute force.
  EXPECT_LT(total_nodes, total_schedules);
}

// A deviator budget is explored as disjoint deviator-set sub-spaces, whose
// leaves may share consulted paths. Forced tree and brute must still agree
// schedule for schedule on every registry protocol, in halt-only and in
// late-delays at a 1M-schedule budget, for budgets 0, 1 and 2; and kAuto
// must pick the tree for a serial filtered sweep.
TEST(TreeEquivalence, FilteredSweepsMatchBrute) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  SweepOptions opts;
  opts.strategies.max_schedules = 1'000'000;
  for (const StrategySpace::Kind kind :
       {StrategySpace::Kind::kHaltOnly, StrategySpace::Kind::kLateDelays}) {
    opts.strategies.kind = kind;
    for (const std::string& name : reg.names()) {
      const auto adapter = reg.make(name);
      ScenarioRunner runner(*adapter);
      for (const int k : {0, 1, 2}) {
        SCOPED_TRACE(name + " / " + StrategySpace::kind_name(kind) +
                     " / max_deviators " + std::to_string(k));
        opts.max_deviators = k;
        // The brute reference runs sharded to keep Debug runs short: serial
        // and sharded brute are one shard loop at two worker counts, pinned
        // equal in parallel_sweep_test.cpp.
        opts.executor = SweepExecutor::kBrute;
        opts.threads = 4;
        const SweepReport brute = runner.sweep(opts);
        opts.executor = SweepExecutor::kTree;
        opts.threads = 1;
        const SweepReport tree = runner.sweep(opts);
        expect_identical(brute, tree);
        expect_stats_invariants(brute, tree);
      }
    }
  }

  const auto broker = reg.make("broker");
  opts.max_deviators = 2;
  opts.executor = SweepExecutor::kAuto;
  const SweepReport auto_serial = ScenarioRunner(*broker).sweep(opts);
  EXPECT_EQ(auto_serial.workers, 1u);
  EXPECT_LT(auto_serial.nodes_executed, auto_serial.schedules_run);
}

// kAuto on a serial sweep of a tree-capable adapter selects the tree; the
// report must still match a forced brute run, and the statistics must show
// the tree ran (the default path the whole historical suite now exercises).
TEST(TreeEquivalence, AutoSelectsTreeSeriallyAndMatchesBrute) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  ScenarioRunner runner(*adapter);
  const SweepReport auto_serial = runner.sweep();
  SweepOptions brute_opts;
  brute_opts.executor = SweepExecutor::kBrute;
  const SweepReport brute = runner.sweep(brute_opts);
  expect_identical(brute, auto_serial);
  expect_stats_invariants(brute, auto_serial);
}

// Forcing kTree with a multi-thread request still runs the (serial) tree:
// one worker, same report as brute.
TEST(TreeEquivalence, TreeForcesSerialExecutionUnderThreadRequest) {
  const auto adapter = ProtocolRegistry::global().make("broker");
  ScenarioRunner runner(*adapter);
  SweepOptions brute_opts;
  brute_opts.executor = SweepExecutor::kBrute;
  const SweepReport brute = runner.sweep(brute_opts);
  SweepOptions tree_opts;
  tree_opts.threads = 8;
  tree_opts.executor = SweepExecutor::kTree;
  const SweepReport tree = runner.sweep(tree_opts);
  EXPECT_EQ(tree.workers, 1u);
  expect_identical(brute, tree);
}

// Repeated sweeps on one runner reuse the adapter's world (and, between
// tree sweeps, inherit a deep snapshot stack); an interleaved run() leaves
// end-of-run state behind. Every subsequent sweep must still report
// identically — the executor re-bases on the clean slot-0 state either
// way.
TEST(TreeEquivalence, RepeatedAndInterleavedSweepsStayIdentical) {
  const auto adapter = ProtocolRegistry::global().make("bootstrap");
  ScenarioRunner runner(*adapter);
  SweepOptions opts;
  opts.executor = SweepExecutor::kTree;
  const SweepReport first = runner.sweep(opts);
  const SweepReport second = runner.sweep(opts);
  expect_identical(first, second);
  EXPECT_EQ(second.nodes_executed, first.nodes_executed);
  EXPECT_EQ(second.dedup_hits, first.dedup_hits);

  // Dirty the reused world with a plain run(), then tree-sweep again.
  Schedule everyone_halts;
  for (std::size_t p = 0; p < adapter->party_count(); ++p) {
    everyone_halts.plans.push_back(DeviationPlan::halt_after(0));
  }
  (void)adapter->run(everyone_halts);
  const SweepReport third = runner.sweep(opts);
  expect_identical(first, third);
}

// A synthetic adapter with no tree hooks: kAuto must silently fall back to
// brute force, kTree must refuse loudly.
class HooklessAdapter final : public ProtocolAdapter {
 public:
  std::string name() const override { return "hookless"; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override { return 2; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<HooklessAdapter>(*this);
  }
  std::vector<PartyOutcome> run(const Schedule& s) const override {
    std::vector<PartyOutcome> out;
    for (const DeviationPlan& plan : s.plans) {
      out.push_back({"p", plan.is_conforming(), {}, {}});
    }
    return out;
  }
};

TEST(TreeEquivalence, TreeRefusesAdapterWithoutHooks) {
  HooklessAdapter adapter;
  ASSERT_EQ(adapter.tree_frame(), nullptr);
  ScenarioRunner runner(adapter);
  SweepOptions opts;
  opts.executor = SweepExecutor::kTree;
  EXPECT_THROW((void)runner.sweep(opts), std::invalid_argument);

  // kAuto degrades to brute force: identical to kBrute, no dedup.
  const SweepReport auto_report = runner.sweep();
  opts.executor = SweepExecutor::kBrute;
  const SweepReport brute = runner.sweep(opts);
  expect_identical(brute, auto_report);
  EXPECT_EQ(auto_report.nodes_executed, auto_report.schedules_run);
  EXPECT_EQ(auto_report.dedup_hits, 0u);
}

// Every registry protocol runs through its world's frame, so every one of
// them is tree-capable: a forced kTree sweep succeeds and executes fewer
// runs than it covers.
TEST(TreeEquivalence, EveryRegistryProtocolIsTreeCapable) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  EXPECT_EQ(reg.names().size(), 10u);
  for (const std::string& name : reg.names()) {
    SCOPED_TRACE(name);
    const auto adapter = reg.make(name);
    ASSERT_NE(adapter->tree_frame(), nullptr);
    SweepOptions opts;
    opts.executor = SweepExecutor::kTree;
    const SweepReport tree = ScenarioRunner(*adapter).sweep(opts);
    EXPECT_TRUE(tree.ok()) << tree.str();
    EXPECT_LT(tree.nodes_executed, tree.schedules_run);
  }
}

// The unimplemented-hook defaults throw std::logic_error naming the
// adapter, so a future adapter that advertises a tree frame without
// overriding the other two hooks fails loudly, not with slicing.
TEST(TreeEquivalence, DefaultHooksThrowLogicError) {
  HooklessAdapter adapter;
  Schedule s;
  s.plans.assign(2, DeviationPlan::conforming());
  EXPECT_THROW((void)adapter.tree_set_plans(s), std::logic_error);
  EXPECT_THROW((void)adapter.tree_collect(s), std::logic_error);
}

// The witness reduction against full replay, schedule for schedule: both
// bridge variants, all three strategy spaces, 3 and 5 witnesses, three
// deviator budgets, hedged and unhedged. The unhedged transfer violates
// its floors thousands of times, so the violation labels and party names
// are compared where permuted serves make them differ if anything does.
// Debug builds re-execute every permuted serve, so the unbounded
// 5-witness spaces are capped at 4,096 schedules, four plans per party;
// under a deviator budget they keep the default cap, five plans per party,
// so the hedged delay spaces sweep a delay plan there too.
TEST(TreeEquivalence, WitnessSymmetryMatchesFullReplay) {
  std::size_t violations = 0;
  for (const core::BridgeVariant variant :
       {core::BridgeVariant::kTransfer, core::BridgeVariant::kAccountCreate}) {
    for (const int n : {3, 5}) {
      for (const Amount premium : {Amount{2}, Amount{0}}) {
        core::BridgeConfig cfg;
        cfg.variant = variant;
        cfg.n_witnesses = n;
        cfg.quorum = n == 3 ? 2 : 3;
        cfg.premium_unit = premium;
        const BridgeAdapter adapter(cfg);
        ASSERT_EQ(adapter.interchangeable_parties(),
                  (PartyRange{1, static_cast<PartyId>(1 + n)}));
        ScenarioRunner runner(adapter);
        for (const StrategySpace::Kind kind :
             {StrategySpace::Kind::kHaltOnly,
              StrategySpace::Kind::kTimelyDelays,
              StrategySpace::Kind::kLateDelays}) {
          for (const int k : {-1, 1, 2}) {
            SCOPED_TRACE(adapter.name() + " n=" + std::to_string(n) +
                         " premium=" + std::to_string(premium) + " / " +
                         StrategySpace::kind_name(kind) +
                         " / max_deviators " + std::to_string(k));
            SweepOptions opts;
            opts.strategies.kind = kind;
            if (n == 5 && k < 0) opts.strategies.max_schedules = 4096;
            opts.max_deviators = k;
            opts.executor = SweepExecutor::kBrute;
            opts.threads = 4;
            const SweepReport brute = runner.sweep(opts);
            opts.executor = SweepExecutor::kTree;
            opts.threads = 1;
            const SweepReport tree = runner.sweep(opts);
            expect_identical(brute, tree);
            expect_stats_invariants(brute, tree);
            violations += brute.violations.size();
          }
        }
      }
    }
  }
  EXPECT_GT(violations, 1000u);
}

// A bridge adapter whose declared interchangeable range is a lie: it pays
// witness-1 one coin more than the engine did, or declares a range whose
// parties' plan lists differ. The executor must refuse to reduce either.
class LopsidedBridgeAdapter final : public WorldAdapter<core::BridgeWorld> {
 public:
  LopsidedBridgeAdapter(core::BridgeConfig cfg, PartyRange range,
                        Amount witness1_bonus)
      : cfg_(cfg), range_(range), bonus_(witness1_bonus) {}

  std::string name() const override { return "lopsided-bridge"; }
  std::size_t party_count() const override {
    return static_cast<std::size_t>(cfg_.party_count());
  }
  int action_count(PartyId p) const override {
    return p == 0 ? cfg_.user_actions() : cfg_.witness_actions();
  }
  Tick delta() const override { return cfg_.delta; }
  PartyRange interchangeable_parties() const override { return range_; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<LopsidedBridgeAdapter>(*this);
  }

 private:
  std::unique_ptr<core::BridgeWorld> make_world(
      const core::WorldBinding& binding) const override {
    return std::make_unique<core::BridgeWorld>(cfg_, binding);
  }
  std::vector<PartyOutcome> outcomes_from(const core::BridgeResult& r,
                                          const Schedule& s) const override {
    std::vector<PartyOutcome> out;
    for (std::size_t p = 0; p < s.plans.size(); ++p) {
      out.push_back({p == 0 ? "user" : "witness-" + std::to_string(p),
                     s.plans[p].conforms_within(cfg_.delta), r.payoffs[p],
                     {}});
    }
    out[1].payoff.coin_delta += bonus_;
    return out;
  }

  core::BridgeConfig cfg_;
  PartyRange range_;
  Amount bonus_;
};

TEST(TreeEquivalence, WitnessSymmetryGuardCatchesFalseClaims) {
  SweepOptions opts;
  opts.executor = SweepExecutor::kTree;
  // The refusal names the adapter (and, from a permuted serve, the
  // schedule) and says which claim failed.
  const auto expect_refused = [&](const ProtocolAdapter& adapter,
                                  const std::string& names) {
    SCOPED_TRACE(names);
    try {
      (void)ScenarioRunner(adapter).sweep(opts);
      ADD_FAILURE() << "sweep should have thrown std::logic_error";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(names), std::string::npos) << what;
      EXPECT_NE(what.find("interchangeable"), std::string::npos) << what;
    }
  };

  // Witness-1's extra coin follows its position, not its plan, so a
  // permuted serve hands it to whichever witness took witness-1's plan,
  // and the re-executed serve differs.
  const core::BridgeConfig transfer;
  expect_refused(LopsidedBridgeAdapter(transfer, {1, 4}, 1),
                 "lopsided-bridge[");
  // Without the bonus the same range is a true claim: the reduced sweep
  // reports what full replay does (violations included, since this
  // adapter sets no floors), and executes what the real bridge does.
  const LopsidedBridgeAdapter fair(transfer, {1, 4}, 0);
  const SweepReport reduced = ScenarioRunner(fair).sweep(opts);
  SweepOptions brute_opts;
  brute_opts.executor = SweepExecutor::kBrute;
  expect_identical(ScenarioRunner(fair).sweep(brute_opts), reduced);
  EXPECT_EQ(reduced.nodes_executed,
            ScenarioRunner(BridgeAdapter(transfer)).sweep(opts).nodes_executed);

  // The account-create user has one action fewer than a witness, so a
  // range taking it in covers parties with different plan lists.
  core::BridgeConfig account_create;
  account_create.variant = core::BridgeVariant::kAccountCreate;
  expect_refused(LopsidedBridgeAdapter(account_create, {0, 4}, 0),
                 "lopsided-bridge");
  // So does a range reaching past the last party.
  expect_refused(LopsidedBridgeAdapter(transfer, {1, 5}, 0),
                 "lopsided-bridge");
}

// A bridge whose audit bounds make leaf verdicts depend on who conforms.
// All of them are path-determined, and none tells one witness from
// another. A commit that never completes sets the floor of every party it
// left no worse off a coin above its payoff, so it breaches exactly those
// of them that conform. A completed transfer owes each witness its reward,
// as on the real bridge: a witness left unpaid would breach if it
// conformed, so a permuted serve audits clean only under its twin's mask.
// A completed transfer also counts as incomplete, so it fails liveness
// only when every party conforms. When every witness bonded and the user
// still never committed, the user is paid a coin from nowhere, which
// breaks conservation whoever conforms.
class MaskSensitiveBridgeAdapter final
    : public WorldAdapter<core::BridgeWorld> {
 public:
  MaskSensitiveBridgeAdapter(core::BridgeConfig cfg, PartyRange range)
      : cfg_(cfg), range_(range) {}

  std::string name() const override { return "mask-sensitive-bridge"; }
  std::size_t party_count() const override {
    return static_cast<std::size_t>(cfg_.party_count());
  }
  int action_count(PartyId p) const override {
    return p == 0 ? cfg_.user_actions() : cfg_.witness_actions();
  }
  Tick delta() const override { return cfg_.delta; }
  PartyRange interchangeable_parties() const override { return range_; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<MaskSensitiveBridgeAdapter>(*this);
  }

 private:
  std::unique_ptr<core::BridgeWorld> make_world(
      const core::WorldBinding& binding) const override {
    return std::make_unique<core::BridgeWorld>(cfg_, binding);
  }
  std::vector<PartyOutcome> outcomes_from(const core::BridgeResult& r,
                                          const Schedule& s) const override {
    std::vector<PartyOutcome> out;
    for (std::size_t p = 0; p < s.plans.size(); ++p) {
      PartyOutcome o{p == 0 ? "user" : "witness-" + std::to_string(p),
                     s.plans[p].conforms_within(cfg_.delta), r.payoffs[p],
                     {}};
      if (r.committed && !r.transfer_completed && o.payoff.coin_delta >= 0) {
        o.bound.min_coin_delta = o.payoff.coin_delta + 1;
      }
      if (p > 0 && r.transfer_completed) {
        o.bound.min_coin_delta = cfg_.witness_reward;
      }
      o.bound.completed = !r.transfer_completed;
      out.push_back(std::move(o));
    }
    if (!r.committed && r.bonds_posted == cfg_.n_witnesses) {
      out[0].payoff.coin_delta += 1;
    }
    return out;
  }

  core::BridgeConfig cfg_;
  PartyRange range_;
};

// Forced tree and brute must report identically on verdicts that depend
// on the conformance mask: stats, violations in order with their labels
// and details, and conforming-party audits. With the witnesses declared
// interchangeable, violating permuted serves take the exact path and must
// name each witness at its own position.
TEST(TreeEquivalence, MaskSensitiveVerdictsMatchBrute) {
  for (const PartyRange range : {PartyRange{}, PartyRange{1, 4}}) {
    const MaskSensitiveBridgeAdapter adapter(core::BridgeConfig{}, range);
    ScenarioRunner runner(adapter);
    std::map<std::string, std::size_t> kinds;
    std::size_t schedules = 0;
    std::size_t nodes = 0;
    for (const StrategySpace::Kind kind :
         {StrategySpace::Kind::kHaltOnly, StrategySpace::Kind::kLateDelays}) {
      for (const int k : {-1, 1}) {
        SCOPED_TRACE("range [" + std::to_string(range.first) + ", " +
                     std::to_string(range.last) + ") / " +
                     StrategySpace::kind_name(kind) + " / max_deviators " +
                     std::to_string(k));
        SweepOptions opts;
        opts.strategies.kind = kind;
        opts.strategies.max_schedules = 1296;
        opts.max_deviators = k;
        opts.executor = SweepExecutor::kBrute;
        const SweepReport brute = runner.sweep(opts);
        opts.executor = SweepExecutor::kTree;
        const SweepReport tree = runner.sweep(opts);
        expect_identical(brute, tree);
        expect_stats_invariants(brute, tree);
        EXPECT_TRUE(tree.violations == brute.violations);
        for (const Violation& v : brute.violations) {
          ++kinds[v.party == "<all>" ? v.detail : v.party];
        }
        schedules += tree.schedules_run;
        nodes += tree.nodes_executed;
      }
    }
    // Every kind of verdict came up, for every witness.
    EXPECT_EQ(kinds.size(), 6u);
    for (const char* what :
         {"all-conforming run did not complete",
          "native-coin flows not zero-sum across parties", "user",
          "witness-1", "witness-2", "witness-3"}) {
      EXPECT_GT(kinds[what], 0u) << what;
    }
    EXPECT_LT(nodes, schedules);
  }
}

// An active chain environment never reaches the tree, so it never
// reduces: under a squeeze fee ties fall to submission order, which
// follows witness id, and the witnesses stop being interchangeable.
TEST(TreeEquivalence, WitnessSymmetryNeverReducesUnderFaults) {
  const auto adapter = ProtocolRegistry::global().make("bridge-transfer");
  adapter->set_environment(
      {chain::FaultPlan::parse("issuing:squeeze@3-8,cap=1,spam=2,fee=1"),
       chain::ResiliencePolicy::parse("fee-escalate")});
  ScenarioRunner runner(*adapter);
  const SweepReport faulted = runner.sweep();
  EXPECT_EQ(faulted.nodes_executed, faulted.schedules_run);
  EXPECT_EQ(faulted.dedup_hits, 0u);
  SweepOptions opts;
  opts.executor = SweepExecutor::kTree;
  EXPECT_THROW((void)runner.sweep(opts), std::invalid_argument);
}

// Only the bridges declare interchangeable parties; every other registry
// protocol keeps the empty range and executes exactly the late-delays tree
// it did before the reduction existed.
TEST(TreeEquivalence, OnlyBridgesDeclareInterchangeableParties) {
  const std::map<std::string, std::size_t> nodes = {
      {"two-party", 641},      {"multi-party-ring", 808},
      {"multi-party-fig3a", 1075}, {"auction-open", 1015},
      {"auction-sealed", 5578}, {"broker", 2435},
      {"bootstrap", 737},      {"crr-ladder", 641},
  };
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  SweepOptions opts;
  opts.strategies.kind = StrategySpace::Kind::kLateDelays;
  opts.executor = SweepExecutor::kTree;
  for (const std::string& name : reg.names()) {
    SCOPED_TRACE(name);
    const auto adapter = reg.make(name);
    const auto it = nodes.find(name);
    if (it == nodes.end()) {
      EXPECT_EQ(adapter->interchangeable_parties(), (PartyRange{1, 4}));
      continue;
    }
    EXPECT_EQ(adapter->interchangeable_parties().size(), 0u);
    EXPECT_EQ(ScenarioRunner(*adapter).sweep(opts).nodes_executed,
              it->second);
  }
}

}  // namespace
}  // namespace xchain::sim
