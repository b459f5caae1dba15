// World reuse (one traceless world per adapter, rewound to its post-setup
// snapshot slot 0 before every run) must be a pure accelerator: for every
// reference adapter, every schedule's audited outcomes — and the whole
// sweep report — must be identical to a fresh world's, built for that
// schedule alone (a new adapter clone per schedule). This is the contract
// that lets the sweep run 5-10x faster without weakening the paper's
// universally-quantified guarantee.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain/fault.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// The reference configurations, fetched through the protocol registry —
// the same defaults the campaign layer and the CLI sweep (and that
// tests/registry_campaign_test.cpp pins byte-identical to the historical
// hard-coded structs).
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

void expect_same_outcomes(const std::vector<PartyOutcome>& fresh,
                          const std::vector<PartyOutcome>& reused,
                          const std::string& label) {
  ASSERT_EQ(reused.size(), fresh.size()) << label;
  for (std::size_t p = 0; p < fresh.size(); ++p) {
    SCOPED_TRACE(label + " / " + fresh[p].name);
    EXPECT_EQ(reused[p].name, fresh[p].name);
    EXPECT_EQ(reused[p].conforming, fresh[p].conforming);
    EXPECT_EQ(reused[p].payoff.by_symbol, fresh[p].payoff.by_symbol);
    EXPECT_EQ(reused[p].payoff.coin_delta, fresh[p].payoff.coin_delta);
    EXPECT_EQ(reused[p].payoff.value_delta, fresh[p].payoff.value_delta);
    EXPECT_EQ(reused[p].bound.min_coin_delta, fresh[p].bound.min_coin_delta);
    EXPECT_EQ(reused[p].bound.spend_allowance, fresh[p].bound.spend_allowance);
    EXPECT_EQ(reused[p].bound.goods_received, fresh[p].bound.goods_received);
  }
}

// The fresh-world reference sweep: every schedule of `opts`' space runs
// on a new adapter clone, audited in enumeration order.
SweepReport fresh_world_report(const ProtocolAdapter& adapter,
                               const SweepOptions& opts) {
  const ScenarioRunner runner(adapter);
  SweepReport report;
  report.protocol = adapter.name();
  runner.schedule_count(opts, &report.truncations);
  for (const Schedule& s : runner.enumerate(opts)) {
    report.conforming_audited +=
        audit_schedule(s.label, adapter.clone()->run(s), report.violations);
    ++report.schedules_run;
  }
  return report;
}

void expect_same_report(const SweepReport& fresh, const SweepReport& reused) {
  EXPECT_EQ(reused.protocol, fresh.protocol);
  EXPECT_EQ(reused.schedules_run, fresh.schedules_run);
  EXPECT_EQ(reused.conforming_audited, fresh.conforming_audited);
  EXPECT_EQ(reused.violations.size(), fresh.violations.size());
  EXPECT_EQ(reused.truncations, fresh.truncations);
  EXPECT_TRUE(reused.ok()) << reused.str();
  EXPECT_TRUE(fresh.ok()) << fresh.str();
}

// Schedule-for-schedule: the reused world (one adapter instance rewinding
// one traceless world) must report exactly what a fresh world reports,
// for every schedule of every reference adapter.
TEST(SweepEquivalence, ReusedWorldMatchesFreshWorldPerSchedule) {
  for (const auto& adapter : reference_adapters()) {
    const auto reused_engine = adapter->clone();

    for (const Schedule& s : ScenarioRunner(*adapter).enumerate()) {
      const auto fresh = adapter->clone()->run(s);
      const auto reused = reused_engine->run(s);
      expect_same_outcomes(fresh, reused, s.label);
      // Re-running the SAME schedule on the reused world must also be
      // stable: the rewind rolls everything back, not just most things.
      expect_same_outcomes(fresh, reused_engine->run(s),
                           s.label + " (rerun)");
    }
  }
}

// Whole-report equivalence through ScenarioRunner, fresh worlds vs the
// default (tree-executed) sweep.
TEST(SweepEquivalence, SweepReportsIdenticalAcrossWorldModes) {
  for (const auto& adapter : reference_adapters()) {
    SCOPED_TRACE(adapter->name());
    const SweepOptions opts;
    expect_same_report(fresh_world_report(*adapter, opts),
                       ScenarioRunner(*adapter).sweep(opts));
  }
}

// Delay schedules must behave identically on a reused (rewound-per-run)
// world and on a fresh one: pending delayed submissions live on the
// persistent actors, whose queues ride the snapshot stack, so a rewind can
// never leak a queued action into the next schedule. Pinned per schedule
// over the timely space, and as whole reports over a bounded late space.
TEST(SweepEquivalence, DelaySchedulesMatchAcrossWorldModesPerSchedule) {
  SweepOptions opts;
  opts.strategies.kind = StrategySpace::Kind::kTimelyDelays;
  // Keep the per-schedule fresh-world pass affordable; the whole-report
  // check below covers the larger spaces.
  opts.strategies.max_schedules = 400;
  for (const auto& adapter : reference_adapters()) {
    const auto reused_engine = adapter->clone();

    for (const Schedule& s : ScenarioRunner(*adapter).enumerate(opts)) {
      const auto fresh = adapter->clone()->run(s);
      const auto reused = reused_engine->run(s);
      expect_same_outcomes(fresh, reused, s.label);
      // Re-running the SAME delayed schedule on the reused world must be
      // stable: the rewind restores every actor's (empty) delay queue.
      expect_same_outcomes(fresh, reused_engine->run(s),
                           s.label + " (rerun)");
    }
  }
}

TEST(SweepEquivalence, LateDelayReportsIdenticalAcrossWorldModes) {
  SweepOptions opts;
  opts.strategies.kind = StrategySpace::Kind::kLateDelays;
  opts.strategies.max_schedules = 1500;
  for (const auto& adapter : reference_adapters()) {
    SCOPED_TRACE(adapter->name());
    expect_same_report(fresh_world_report(*adapter, opts),
                       ScenarioRunner(*adapter).sweep(opts));
  }
}

// The chain environment is a per-run input of the one cached world: an
// adapter rotating through four environments per schedule must report,
// run for run, what a fresh clone given the same environment before its
// first run reports. Cleared again, its default (tree) sweep must report
// what a fresh adapter's does.
TEST(SweepEquivalence, EnvironmentSwitchMatchesFreshWorld) {
  using chain::ChainEnvironment;
  using chain::FaultPlan;
  using chain::ResiliencePolicy;
  const std::vector<ChainEnvironment> envs = {
      {},
      {FaultPlan::parse("*:squeeze@2-12,cap=1,spam=2,fee=3"),
       ResiliencePolicy::parse("fee-escalate")},
      {FaultPlan::parse("*:outage@3-5"), {}},
      {FaultPlan::parse("*:drop@0-1000,p=300,seed=7"),
       ResiliencePolicy::parse("rebroadcast")},
  };
  for (const auto& adapter : reference_adapters()) {
    SCOPED_TRACE(adapter->name());
    const auto switched = adapter->clone();
    for (const Schedule& s : ScenarioRunner(*adapter).enumerate()) {
      for (const ChainEnvironment& env : envs) {
        const auto fresh = adapter->clone();
        fresh->set_environment(env);
        switched->set_environment(env);
        expect_same_outcomes(fresh->run(s), switched->run(s),
                             s.label + " under '" + env.str() + "'");
      }
    }
    switched->set_environment({});
    const SweepReport reused = ScenarioRunner(*switched).sweep();
    const SweepReport fresh = ScenarioRunner(*adapter->clone()).sweep();
    EXPECT_EQ(reused.str(), fresh.str());
    EXPECT_EQ(reused.schedules_run, fresh.schedules_run);
    EXPECT_EQ(reused.conforming_audited, fresh.conforming_audited);
    EXPECT_EQ(reused.nodes_executed, fresh.nodes_executed);
    EXPECT_EQ(reused.dedup_hits, fresh.dedup_hits);
  }
}

// Parallel sweeps (which clone per worker) stay identical to serial.
TEST(SweepEquivalence, ParallelReusedSweepMatchesSerial) {
  for (const auto& adapter : reference_adapters()) {
    ScenarioRunner runner(*adapter);
    const SweepReport serial = runner.sweep();
    const SweepReport parallel = runner.sweep({-1, 4, {}});
    SCOPED_TRACE(adapter->name());
    EXPECT_EQ(parallel.schedules_run, serial.schedules_run);
    EXPECT_EQ(parallel.conforming_audited, serial.conforming_audited);
    EXPECT_EQ(parallel.violations.size(), serial.violations.size());
  }
}

}  // namespace
}  // namespace xchain::sim
