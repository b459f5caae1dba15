// Shared-chain load generator (src/load/load_gen.hpp) and the
// instance-namespacing layer under it (core/binding.hpp bound worlds).
//
// Pinned here:
//   * namespacing — two instances bound to one shared MultiChain at
//     disjoint account bases produce exactly the payoffs of a private
//     solo world: ledger rows never bleed across instances;
//   * determinism — the LoadReport is identical at any thread count
//     (modulo wall time) and for repeated runs of one seed;
//   * the audit contract — an uncongested load is violation-free, and a
//     congested one attributes every violation to the chain faults
//     (unattributed == 0, the xchain-bench gate);
//   * CI's report — every deterministic field of the 1000-user CI load,
//     so report drift fails in every build type;
//   * retirement — binds record their contract ranges, and the worlds
//     bound at once stay near the active set, not the user count.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/binding.hpp"
#include "load/load_gen.hpp"
#include "sim/party.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain {
namespace {

sim::Schedule conforming(std::size_t parties) {
  sim::Schedule s;
  s.plans.assign(parties, sim::DeviationPlan::conforming());
  s.label = "conform";
  return s;
}

/// Drives bound instances on a shared MultiChain to completion, the same
/// tick discipline as the load loop (tick -> drain -> produce).
void drive(chain::MultiChain& chains,
           std::vector<sim::LoadInstance*> instances,
           std::vector<sim::TxSink*> sinks) {
  Tick end = 0;
  for (const sim::LoadInstance* inst : instances) {
    end = std::max(end, inst->end_tick());
  }
  for (Tick now = 0; now < end; ++now) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (sim::Party* actor : instances[i]->actors()) {
        actor->tick(chains, now);
      }
    }
    for (sim::TxSink* sink : sinks) sink->drain();
    chains.produce_all(now);
  }
}

TEST(LoadInstanceNamespacing, TwoInstancesMatchSoloPayoffs) {
  for (const char* name : {"two-party", "bootstrap", "crr-ladder"}) {
    SCOPED_TRACE(name);
    const auto adapter = sim::ProtocolRegistry::global().make(name);
    const std::size_t parties = adapter->party_count();

    // Reference: one conforming run on a private world.
    const std::vector<sim::PartyOutcome> solo =
        adapter->run(conforming(parties));

    // Two instances sharing one MultiChain at disjoint account bases.
    chain::MultiChain chains;
    chains.set_trace(chain::TraceMode::kOff);
    core::WorldBinding b0;
    b0.chains = &chains;
    b0.party_base = 0;
    b0.tag = std::string(name) + "#0";
    core::WorldBinding b1;
    b1.chains = &chains;
    b1.party_base = static_cast<PartyId>(parties);
    b1.tag = std::string(name) + "#1";
    const auto i0 = adapter->bind_instance(b0);
    const auto i1 = adapter->bind_instance(b1);

    sim::TxSink s0, s1;
    for (sim::Party* p : i0->actors()) p->set_tx_sink(&s0);
    for (sim::Party* p : i1->actors()) p->set_tx_sink(&s1);
    drive(chains, {i0.get(), i1.get()}, {&s0, &s1});

    // Both instances complete with exactly the solo payoffs — a shared
    // ledger row would show up as a by_symbol / coin_delta difference.
    for (const auto& bound : {i0->collect(), i1->collect()}) {
      ASSERT_EQ(bound.size(), solo.size());
      for (std::size_t p = 0; p < solo.size(); ++p) {
        EXPECT_EQ(bound[p].name, solo[p].name);
        EXPECT_EQ(bound[p].payoff.coin_delta, solo[p].payoff.coin_delta);
        EXPECT_EQ(bound[p].payoff.value_delta, solo[p].payoff.value_delta);
        EXPECT_EQ(bound[p].payoff.by_symbol, solo[p].payoff.by_symbol);
        EXPECT_TRUE(bound[p].bound.completed) << bound[p].name;
      }
    }
  }
}

TEST(LoadInstanceNamespacing, StaggeredArrivalMatchesSoloPayoffs) {
  for (const char* name : {"broker", "two-party", "bootstrap", "crr-ladder"}) {
    SCOPED_TRACE(name);
    const auto adapter = sim::ProtocolRegistry::global().make(name);
    const std::size_t parties = adapter->party_count();
    const std::vector<sim::PartyOutcome> solo =
        adapter->run(conforming(parties));

    // The second instance arrives mid-run (start = 5): its deadline ladder
    // is offset, its endowments are minted on live chains.
    chain::MultiChain chains;
    chains.set_trace(chain::TraceMode::kOff);
    core::WorldBinding b0;
    b0.chains = &chains;
    b0.party_base = 0;
    b0.tag = std::string(name) + "#0";
    core::WorldBinding b1;
    b1.chains = &chains;
    b1.party_base = static_cast<PartyId>(parties);
    b1.start = 5;
    b1.tag = std::string(name) + "#1";
    const auto i0 = adapter->bind_instance(b0);
    sim::TxSink s0, s1;
    for (sim::Party* p : i0->actors()) p->set_tx_sink(&s0);

    std::unique_ptr<sim::LoadInstance> i1;
    Tick end = i0->end_tick();
    for (Tick now = 0; now < end; ++now) {
      if (now == 5) {
        i1 = adapter->bind_instance(b1);
        for (sim::Party* p : i1->actors()) p->set_tx_sink(&s1);
        end = std::max(end, i1->end_tick());
      }
      for (sim::Party* actor : i0->actors()) actor->tick(chains, now);
      if (i1) {
        for (sim::Party* actor : i1->actors()) actor->tick(chains, now);
      }
      s0.drain();
      s1.drain();
      chains.produce_all(now);
    }

    for (const auto& bound : {i0->collect(), i1->collect()}) {
      ASSERT_EQ(bound.size(), solo.size());
      for (std::size_t p = 0; p < solo.size(); ++p) {
        EXPECT_EQ(bound[p].payoff.by_symbol, solo[p].payoff.by_symbol)
            << bound[p].name;
        EXPECT_TRUE(bound[p].bound.completed) << bound[p].name;
      }
    }
  }
}

TEST(LoadInstanceNamespacing, BindRecordsContractRanges) {
  // Each bind records the contract ids its world deployed, per chain; the
  // instance's destructor leaves them on the chains, and only an explicit
  // retire frees them.
  const auto adapter = sim::ProtocolRegistry::global().make("two-party");
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  core::WorldBinding b0;
  b0.chains = &chains;
  b0.tag = "two-party#0";
  core::WorldBinding b1 = b0;
  b1.party_base = 2;
  b1.tag = "two-party#1";
  auto i0 = adapter->bind_instance(b0);
  const auto i1 = adapter->bind_instance(b1);
  EXPECT_EQ(i0->contracts(),
            (std::vector<sim::ContractRange>{{0, 0, 1}, {1, 0, 1}}));
  EXPECT_EQ(i1->contracts(),
            (std::vector<sim::ContractRange>{{0, 1, 2}, {1, 1, 2}}));

  const std::vector<sim::ContractRange> ranges = i0->contracts();
  i0.reset();
  for (const sim::ContractRange& r : ranges) {
    EXPECT_EQ(chains.at(r.chain).contract_at(r.first).id(), r.first);
    chains.at(r.chain).retire(r.first, r.last);
    EXPECT_THROW(chains.at(r.chain).contract_at(r.first), std::logic_error);
  }

  // The surviving instance runs to completion beside the retired slots.
  sim::TxSink sink;
  for (sim::Party* p : i1->actors()) p->set_tx_sink(&sink);
  drive(chains, {i1.get()}, {&sink});
  std::vector<sim::Violation> violations;
  sim::audit_schedule("two-party#1", i1->collect(), violations);
  EXPECT_TRUE(violations.empty());
}

TEST(LoadGenerator, UncongestedLoadIsViolationFree) {
  load::LoadConfig cfg;
  cfg.users = 60;
  cfg.seed = 11;
  cfg.block_capacity = 0;  // unbounded blocks: the reliable substrate
  cfg.mix = {{"two-party", 1}, {"broker", 1}, {"bridge-transfer", 1}};
  const load::LoadReport r = load::run_load(cfg);
  EXPECT_EQ(r.instances, 60u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().str();
  EXPECT_EQ(r.unattributed, 0u);
  std::size_t total = 0;
  for (const load::ProtocolStats& p : r.per_protocol) total += p.instances;
  EXPECT_EQ(total, 60u);
  EXPECT_GT(r.txs_included, 0u);
  EXPECT_GT(r.latency.p50, 0);
}

TEST(LoadGenerator, UncongestedLaddersAuditCleanAtAnyThreadCount) {
  // The bound §6 ladders: the geometric bootstrap and the CRR-priced one.
  load::LoadConfig cfg;
  cfg.users = 40;
  cfg.seed = 7;
  cfg.block_capacity = 0;
  cfg.mix = {{"bootstrap", 1}, {"crr-ladder", 1}};
  cfg.threads = 1;
  const load::LoadReport serial = load::run_load(cfg);
  EXPECT_EQ(serial.instances, 40u);
  EXPECT_TRUE(serial.violations.empty()) << serial.violations.front().str();
  ASSERT_EQ(serial.per_protocol.size(), 2u);
  for (const load::ProtocolStats& p : serial.per_protocol) {
    EXPECT_GT(p.instances, 0u) << p.protocol;
  }
  cfg.threads = 4;
  EXPECT_TRUE(serial.same_outcome(load::run_load(cfg)));
}

TEST(LoadGenerator, ReportIsThreadCountInvariant) {
  load::LoadConfig cfg;
  cfg.users = 200;
  cfg.seed = 3;
  cfg.block_capacity = 3;  // congested: fee escalation in play
  cfg.mix = {{"two-party", 2},
             {"broker", 1},
             {"bridge-transfer", 1},
             {"bridge-account-create", 1}};

  cfg.threads = 1;
  const load::LoadReport serial = load::run_load(cfg);
  cfg.threads = 4;
  const load::LoadReport parallel = load::run_load(cfg);

  EXPECT_FALSE(serial.violations.empty());  // congestion left some behind
  EXPECT_TRUE(serial.same_outcome(parallel));
}

TEST(LoadGenerator, SameOutcomeIgnoresOnlyWallTime) {
  // What `xchain-bench --scaling` compares across thread counts: every
  // report field except the measured wall time.
  load::LoadConfig cfg;
  cfg.users = 60;
  cfg.seed = 5;
  cfg.block_capacity = 2;
  cfg.mix = {{"two-party", 1}, {"broker", 1}};
  const load::LoadReport r = load::run_load(cfg);
  ASSERT_FALSE(r.violations.empty());

  load::LoadReport other = r;
  other.wall_seconds += 1.0;
  EXPECT_TRUE(r.same_outcome(other));

  other = r;
  other.violations.back().fault_caused = !other.violations.back().fault_caused;
  EXPECT_FALSE(r.same_outcome(other));

  other = r;
  other.violations.back().detail += "!";
  EXPECT_FALSE(r.same_outcome(other));

  other = r;
  other.per_protocol.back().latency.mean += 0.5;
  EXPECT_FALSE(r.same_outcome(other));

  other = r;
  ++other.latency.p95;
  EXPECT_FALSE(r.same_outcome(other));
}

TEST(LoadGenerator, CongestedViolationsAllAttributed) {
  load::LoadConfig cfg;
  cfg.users = 150;
  cfg.seed = 5;
  cfg.arrival_gap = 0;  // every instance arrives at tick 0: worst case
  cfg.block_capacity = 2;
  cfg.mix = {{"two-party", 1}, {"broker", 1}};
  const load::LoadReport r = load::run_load(cfg);
  EXPECT_EQ(r.instances, 150u);
  // Congestion this brutal may breach floors — but every breach must
  // re-audit clean on the faultless twin (congestion-caused, never a
  // protocol bug).
  EXPECT_EQ(r.unattributed, 0u);
  EXPECT_EQ(r.fault_caused + r.unattributed, r.violations.size());
  // It also leaves conforming instances incomplete at their end tick,
  // which the audit's liveness check reports.
  EXPECT_TRUE(std::any_of(
      r.violations.begin(), r.violations.end(), [](const sim::Violation& v) {
        return v.party == "<all>" &&
               v.detail == "all-conforming run did not complete";
      }));
}

/// CI's load shape (the bench job's `xchain-bench --users=1000`).
load::LoadConfig ci_shape(std::size_t users, unsigned threads) {
  load::LoadConfig cfg;
  cfg.users = users;
  cfg.threads = threads;
  cfg.seed = 1;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  cfg.arrival_gap = 1;
  cfg.block_capacity = 4;
  cfg.max_fee = 64;
  return cfg;
}

/// 64-bit FNV-1a over every violation's str() line, in report order.
std::uint64_t violation_digest(const load::LoadReport& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const sim::Violation& v : r.violations) {
    for (const char c : v.str() + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

void expect_latency(const load::LatencyStats& s, Tick p50, Tick p95, Tick p99,
                    Tick max, double sum, double n) {
  EXPECT_EQ(s.p50, p50);
  EXPECT_EQ(s.p95, p95);
  EXPECT_EQ(s.p99, p99);
  EXPECT_EQ(s.max, max);
  EXPECT_DOUBLE_EQ(s.mean, sum / n);
}

TEST(LoadGenerator, GoldenReportAtCiShape) {
  // The load report-drift gate as a test: every deterministic field of
  // CI's 1000-user report, at one and four threads. The per-protocol rows
  // equal scripts/baselines/BENCH_load.json; the violation digest pins each
  // violation line and its attribution.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const load::LoadReport r = load::run_load(ci_shape(1000, threads));
    EXPECT_EQ(r.instances, 1000u);
    EXPECT_EQ(r.txs_included, 9097u);
    EXPECT_EQ(r.chains, 6u);
    EXPECT_EQ(r.ticks, 506);
    expect_latency(r.latency, 7, 14, 18, 75, 8570, 1000);

    ASSERT_EQ(r.per_protocol.size(), 3u);
    const load::ProtocolStats& two = r.per_protocol[0];
    EXPECT_EQ(two.protocol, "two-party");
    EXPECT_EQ(two.instances, 497u);
    EXPECT_EQ(two.txs_included, 2967u);
    EXPECT_EQ(two.violations, 4u);
    EXPECT_EQ(two.fault_caused, 4u);
    expect_latency(two.latency, 7, 10, 11, 12, 3441, 497);
    const load::ProtocolStats& broker = r.per_protocol[1];
    EXPECT_EQ(broker.protocol, "broker");
    EXPECT_EQ(broker.instances, 247u);
    EXPECT_EQ(broker.txs_included, 3686u);
    EXPECT_EQ(broker.violations, 255u);
    EXPECT_EQ(broker.fault_caused, 255u);
    expect_latency(broker.latency, 12, 17, 33, 75, 3230, 247);
    const load::ProtocolStats& bridge = r.per_protocol[2];
    EXPECT_EQ(bridge.protocol, "bridge-transfer");
    EXPECT_EQ(bridge.instances, 256u);
    EXPECT_EQ(bridge.txs_included, 2444u);
    EXPECT_EQ(bridge.violations, 92u);
    EXPECT_EQ(bridge.fault_caused, 92u);
    expect_latency(bridge.latency, 7, 10, 11, 12, 1899, 256);

    EXPECT_EQ(r.violations.size(), 351u);
    EXPECT_EQ(r.fault_caused, 351u);
    EXPECT_EQ(r.unattributed, 0u);
    EXPECT_EQ(violation_digest(r), 4991670443556678796u);
  }
}

TEST(LoadGenerator, RetirementBoundsLiveInstances) {
  // Retired instances free their worlds, so the worlds held at once stay
  // near the active set, whatever the user count; the count is part of
  // the deterministic report.
  const load::LoadReport serial = load::run_load(ci_shape(2000, 1));
  const load::LoadReport parallel = load::run_load(ci_shape(2000, 4));
  EXPECT_EQ(serial.peak_live_instances, parallel.peak_live_instances);
  EXPECT_GT(serial.peak_live_instances, 0u);
  EXPECT_LE(serial.peak_live_instances, 100u);
  EXPECT_TRUE(serial.same_outcome(parallel));

  load::LoadReport other = serial;
  ++other.peak_live_instances;
  EXPECT_FALSE(serial.same_outcome(other));
}

TEST(LoadGenerator, SameSeedSameReport) {
  load::LoadConfig cfg;
  cfg.users = 80;
  cfg.seed = 42;
  const load::LoadReport a = load::run_load(cfg);
  const load::LoadReport b = load::run_load(cfg);
  EXPECT_EQ(a.txs_included, b.txs_included);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(LoadGenerator, MaxWeightsDrawEveryProtocol) {
  // The draw range is the 64-bit weight sum: a 32-bit one overflowed at
  // two INT_MAX weights and drew only the first protocol.
  load::LoadConfig cfg;
  cfg.users = 50;
  cfg.mix = {{"two-party", INT_MAX}, {"broker", INT_MAX}};
  const load::LoadReport r = load::run_load(cfg);
  ASSERT_EQ(r.per_protocol.size(), 2u);
  for (const load::ProtocolStats& p : r.per_protocol) {
    EXPECT_GT(p.instances, 0u) << p.protocol;
  }
}

TEST(LoadGenerator, RejectsBadConfigs) {
  load::LoadConfig cfg;
  cfg.users = 0;
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.users = 1;
  cfg.mix = {{"two-party", 0}};
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.mix = {};
  cfg.arrival_gap = -1;  // would reach rng.next_below(0)
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.arrival_gap = 1;
  cfg.block_capacity = -1;  // would silently mean unbounded blocks
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.block_capacity = 4;
  cfg.max_fee = -1;
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.max_fee = 64;
  cfg.mix = {{"two-party", 1}, {"broker", 1}, {"two-party", 1}};
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.mix = {{"no-such-protocol", 1}};
  EXPECT_THROW(load::run_load(cfg), sim::RegistryError);
  // Protocols without a bound-world form are rejected at bind time.
  cfg.mix = {{"auction-open", 1}};
  EXPECT_THROW(load::run_load(cfg), std::logic_error);
}

}  // namespace
}  // namespace xchain
