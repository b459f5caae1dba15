// The schedule-tree executor must be a pure accelerator: for every
// tree-capable adapter and every strategy space, the report it produces is
// identical — schedule for schedule, violation for violation, truncation
// notice for truncation notice — to the brute-force replay's. These tests
// pin that equivalence across the full reference-protocol registry, the
// executor-statistics invariants that distinguish the two engines, the
// kTree capability check (every registry protocol passes it), and report
// stability across repeated sweeps on one runner (including a dirty world
// left behind by interleaved run() calls).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace xchain::sim
