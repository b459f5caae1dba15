// The protocol registry + campaign layer: every registered protocol must
// build from its default ParamSet and sweep clean; malformed names, keys,
// and values must fail with descriptive errors (never UB); registry
// defaults must stay byte-identical to the historical hard-coded reference
// structs; and a grid campaign's report must be deterministic whatever the
// worker-thread count.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/campaign.hpp"
#include "sim/param.hpp"
#include "sim/reference_configs.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// ---------------------------------------------------------------------------
// ParamSet / ParamGrid
// ---------------------------------------------------------------------------

ParamSet demo_schema() {
  return ParamSet({
      ParamSpec::integer("count", 3, "a count").between(1, 10),
      ParamSpec::amount("tokens", 100, "an amount").at_least(0),
      ParamSpec::real("rate", 0.5, "a rate").between(0, 1),
      ParamSpec::text("label", "x", "a label"),
  });
}

TEST(ParamSet, DefaultsAndTypedGetters) {
  const ParamSet p = demo_schema();
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_EQ(p.get_amount("tokens"), 100);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_EQ(p.get_string("label"), "x");
  EXPECT_FALSE(p.is_set("count"));
  EXPECT_EQ(p.overrides_str(), "");
}

TEST(ParamSet, SetParsesAndTracksOverrides) {
  ParamSet p = demo_schema();
  p.set("count", "7");
  p.set("rate", "0.25");
  p.set("label", "hello");
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_EQ(p.get_string("label"), "hello");
  EXPECT_TRUE(p.is_set("count"));
  EXPECT_FALSE(p.is_set("tokens"));
  EXPECT_EQ(p.overrides_str(), "count=7 rate=0.25 label=hello");
}

TEST(ParamSet, UnknownKeyIsADescriptiveError) {
  ParamSet p = demo_schema();
  try {
    p.set("no_such_key", "1");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("count"), std::string::npos)
        << "message should list valid keys: " << msg;
  }
  EXPECT_THROW(p.get_int("no_such_key"), ParamError);
  EXPECT_THROW((void)demo_schema().get_string("count"), ParamError)
      << "type-mismatched reads must throw too";
}

TEST(ParamSet, OutOfBoundsAndUnparsableValuesThrow) {
  ParamSet p = demo_schema();
  EXPECT_THROW(p.set("count", "0"), ParamError);    // below [1, 10]
  EXPECT_THROW(p.set("count", "11"), ParamError);   // above
  EXPECT_THROW(p.set("count", "two"), ParamError);  // not an integer
  EXPECT_THROW(p.set("rate", "1.5"), ParamError);   // above [0, 1]
  EXPECT_THROW(p.set("rate", "nan"), ParamError);
  // Failed sets must not corrupt the current value.
  EXPECT_EQ(p.get_int("count"), 3);
}

TEST(ParamGrid, ExpandsCrossProductInDeclarationOrder) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,2");
  grid.add_axis_csv("label", "a,b,c");
  const GridExpansion ex = grid.expand(demo_schema());
  ASSERT_EQ(ex.total_points, 6u);
  ASSERT_EQ(ex.points.size(), 6u);
  EXPECT_FALSE(ex.truncated());
  // First axis varies slowest.
  EXPECT_EQ(ex.points[0].overrides_str(), "count=1 label=a");
  EXPECT_EQ(ex.points[1].overrides_str(), "count=1 label=b");
  EXPECT_EQ(ex.points[3].overrides_str(), "count=2 label=a");
}

TEST(ParamGrid, CapTruncatesLoudly) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,2,3,4,5");
  const GridExpansion ex = grid.expand(demo_schema(), /*cap=*/3);
  EXPECT_EQ(ex.total_points, 5u);
  EXPECT_EQ(ex.points.size(), 3u);
  EXPECT_TRUE(ex.truncated());
  EXPECT_NE(ex.truncation_report().find("5"), std::string::npos);
}

TEST(ParamGrid, BadAxisValueFailsBeforeAnySweep) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,zebra");
  EXPECT_THROW(grid.expand(demo_schema()), ParamError);
  ParamGrid unknown;
  unknown.add_axis_csv("no_such_key", "1");
  EXPECT_THROW(unknown.expand(demo_schema()), ParamError);
  // Even when the cap truncates before the bad value's row would
  // materialize, expansion must still reject it.
  ParamGrid capped;
  capped.add_axis_csv("count", "1,zebra");
  EXPECT_THROW(capped.expand(demo_schema(), /*cap=*/1), ParamError);
}

// A value that parses like an earlier one of its axis would run and count
// one configuration twice, whether it came in the same flag or in a
// repeated one (axes for one key merge); distinct values still expand.
TEST(ParamGrid, RepeatedAxisValueIsAnError) {
  ParamGrid leading_zero;
  leading_zero.add_axis_csv("count", "1,01");
  EXPECT_THROW(leading_zero.expand(demo_schema()), ParamError);
  ParamGrid merged;
  merged.add_axis_csv("count", "2");
  merged.add_axis_csv("count", "2,3");
  EXPECT_THROW(merged.expand(demo_schema()), ParamError);
  ParamGrid real;
  real.add_axis_csv("rate", "0.5,0.50");
  EXPECT_THROW(real.expand(demo_schema()), ParamError);
  ParamGrid text;
  text.add_axis_csv("label", "a,b,a");
  EXPECT_THROW(text.expand(demo_schema()), ParamError);
  // Even when the cap would never materialize the repeat.
  EXPECT_THROW(merged.expand(demo_schema(), /*cap=*/1), ParamError);
  ParamGrid distinct;
  distinct.add_axis_csv("count", "2");
  distinct.add_axis_csv("count", "3,10");
  EXPECT_EQ(distinct.expand(demo_schema()).points.size(), 3u);
}

// ---------------------------------------------------------------------------
// Registry: coverage, defaults, errors
// ---------------------------------------------------------------------------

TEST(Registry, AllReferenceProtocolsAreRegistered) {
  const auto names = ProtocolRegistry::global().names();
  const std::vector<std::string> expected = {
      "two-party",    "multi-party-ring", "multi-party-fig3a",
      "auction-open", "auction-sealed",   "broker",
      "bootstrap",    "crr-ladder"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(ProtocolRegistry::global().contains(name)) << name;
  }
  EXPECT_GE(names.size(), expected.size());
}

TEST(Registry, EveryProtocolBuildsFromDefaultsAndSweepsClean) {
  for (const std::string& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto adapter = ProtocolRegistry::global().make(name);
    ASSERT_NE(adapter, nullptr);
    const SweepReport report = ScenarioRunner(*adapter).sweep();
    EXPECT_GT(report.schedules_run, 0u);
    EXPECT_GT(report.conforming_audited, 0u);
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

TEST(Registry, UnknownProtocolIsADescriptiveError) {
  try {
    ProtocolRegistry::global().make("no-such-protocol");
    FAIL() << "expected RegistryError";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-protocol"), std::string::npos) << msg;
    EXPECT_NE(msg.find("two-party"), std::string::npos)
        << "message should list registered names: " << msg;
  }
}

TEST(Registry, OutOfBoundsParamsAreRejectedNotUB) {
  ParamSet ring = ProtocolRegistry::global().defaults("multi-party-ring");
  EXPECT_THROW(ring.set("n", "1"), ParamError);   // a 1-cycle is not a swap
  EXPECT_THROW(ring.set("n", "99"), ParamError);  // 5^99 schedules: bounded
  EXPECT_THROW(ring.set("delta", "0"), ParamError);
  EXPECT_THROW(ring.set("premium_unit", "-1"), ParamError);
  ParamSet auction = ProtocolRegistry::global().defaults("auction-open");
  EXPECT_THROW(auction.set("bogus_key", "1"), ParamError);
  // Malformed bid lists surface as ParamError at factory time.
  auction.set("bids", "100,frog");
  EXPECT_THROW(ProtocolRegistry::global().make("auction-open", auction),
               ParamError);
  // So do crr-ladder markets CRR cannot price although every key is in
  // bounds: zero volatility, and a one-year tick whose rate outgrows the
  // up move. The error names the market.
  for (const std::vector<std::pair<std::string, std::string>>& market :
       {std::vector<std::pair<std::string, std::string>>{{"volatility", "0"}},
        {{"rate", "1"}, {"ticks_per_year", "1"}, {"delta", "12"},
         {"volatility", "0.4"}}}) {
    ParamSet crr = ProtocolRegistry::global().defaults("crr-ladder");
    for (const auto& [key, value] : market) crr.set(key, value);
    try {
      ProtocolRegistry::global().make("crr-ladder", crr);
      ADD_FAILURE() << "expected ParamError for " << crr.overrides_str();
    } catch (const ParamError& e) {
      const std::string msg = e.what();
      for (const char* key :
           {"volatility=", "rate=", "ticks_per_year=", "delta="}) {
        EXPECT_NE(msg.find(key), std::string::npos) << msg;
      }
    }
  }
}

TEST(Registry, EveryDeltaAndAmountIsBoundedAbove) {
  // Δ and the amounts feed deadline and balance arithmetic, so one past
  // each upper bound is a ParamError, never a signed int64 overflow.
  for (const std::string& name : ProtocolRegistry::global().names()) {
    ParamSet ps = ProtocolRegistry::global().defaults(name);
    for (const ParamSpec& spec : ps.specs()) {
      if (spec.key != "delta" && spec.type != ParamType::kAmount) continue;
      SCOPED_TRACE(name + " " + spec.key);
      ASSERT_TRUE(spec.has_max);
      EXPECT_LE(spec.max, spec.key == "delta" ? 1e3 : 1e12);
      const auto top = static_cast<std::int64_t>(spec.max);
      EXPECT_THROW(ps.set(spec.key, std::to_string(top + 1)), ParamError);
      EXPECT_NO_THROW(ps.set(spec.key, std::to_string(top)));
    }
  }
  // Each bid too, when the factory parses the list.
  for (const char* name : {"auction-open", "auction-sealed"}) {
    SCOPED_TRACE(name);
    ParamSet ps = ProtocolRegistry::global().defaults(name);
    ps.set("bids", "100,1000000000001");
    EXPECT_THROW(ProtocolRegistry::global().make(name, ps), ParamError);
    ps.set("bids", "100,1000000000000");
    EXPECT_NO_THROW(ProtocolRegistry::global().make(name, ps));
  }
}

TEST(Registry, AllConformingRunsCompleteCleanAtTheUpperBounds) {
  // Every protocol with Δ and every amount at its upper bound, each bid
  // included: the all-conforming run must complete and audit clean.
  for (const std::string& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    ParamSet ps = ProtocolRegistry::global().defaults(name);
    for (const ParamSpec& spec : ps.specs()) {
      if (spec.key == "delta" || spec.type == ParamType::kAmount) {
        ps.set(spec.key,
               std::to_string(static_cast<std::int64_t>(spec.max)));
      }
    }
    if (ps.has("bids")) ps.set("bids", "1000000000000,999999999999");
    const auto adapter = ProtocolRegistry::global().make(name, ps);
    Schedule s;
    s.plans.assign(adapter->party_count(), DeviationPlan::conforming());
    s.label = name;
    const std::vector<PartyOutcome> outcomes = adapter->run(s);
    std::vector<Violation> violations;
    audit_schedule(s.label, outcomes, violations);
    for (const Violation& v : violations) ADD_FAILURE() << v.str();
    for (const PartyOutcome& o : outcomes) {
      EXPECT_TRUE(o.bound.completed) << o.name;
    }
  }
}

// Registry defaults must stay byte-identical to the historical hard-coded
// reference structs (the numbers the whole PR-1..3 test/bench corpus was
// pinned on). reference_configs.hpp is now a shim over these defaults, so
// this is the single place the canonical numbers are spelled out.
TEST(Registry, DefaultsByteMatchLegacyReferenceStructs) {
  const core::TwoPartyConfig tp = reference_two_party_config();
  EXPECT_EQ(tp.alice_tokens, 100);
  EXPECT_EQ(tp.bob_tokens, 50);
  EXPECT_EQ(tp.premium_a, 2);
  EXPECT_EQ(tp.premium_b, 1);
  EXPECT_EQ(tp.delta, 2);

  const core::MultiPartyConfig mp = reference_multi_party_config();
  EXPECT_EQ(mp.g.size(), graph::Digraph::figure3a().size());
  EXPECT_EQ(mp.asset_amount, 100);
  EXPECT_EQ(mp.premium_unit, 1);
  EXPECT_EQ(mp.delta, 1);
  EXPECT_TRUE(mp.hedged);
  EXPECT_TRUE(mp.leaders.empty());

  const core::AuctionConfig au = reference_auction_config();
  EXPECT_EQ(au.ticket_count, 10);
  EXPECT_EQ(au.bids, (std::vector<Amount>{100, 80}));
  EXPECT_EQ(au.premium_unit, 2);
  EXPECT_EQ(au.delta, 2);
  EXPECT_EQ(au.collateral, 150);

  const core::BrokerConfig br = reference_broker_config();
  EXPECT_EQ(br.ticket_count, 10);
  EXPECT_EQ(br.sale_price, 101);
  EXPECT_EQ(br.purchase_price, 100);
  EXPECT_EQ(br.premium_unit, 1);
  EXPECT_EQ(br.delta, 1);

  const core::BootstrapConfig bs = reference_bootstrap_config();
  EXPECT_EQ(bs.alice_tokens, 1'000'000);
  EXPECT_EQ(bs.bob_tokens, 1'000'000);
  EXPECT_DOUBLE_EQ(bs.factor, 100.0);
  EXPECT_EQ(bs.rounds, 2);
  EXPECT_EQ(bs.delta, 2);
  EXPECT_TRUE(bs.apricot_premiums.empty());
  EXPECT_TRUE(bs.banana_premiums.empty());

  const core::BootstrapConfig crr = reference_crr_ladder_config();
  EXPECT_EQ(crr.alice_tokens, 100'000);
  EXPECT_EQ(crr.bob_tokens, 100'000);
  EXPECT_EQ(crr.rounds, 1);
  EXPECT_EQ(crr.delta, 2);

  // The crr-ladder schema's market defaults mirror CrrMarket's.
  const CrrMarket market =
      crr_market_from(ProtocolRegistry::global().defaults("crr-ladder"));
  const CrrMarket hard_coded;
  EXPECT_DOUBLE_EQ(market.volatility, hard_coded.volatility);
  EXPECT_DOUBLE_EQ(market.rate, hard_coded.rate);
  EXPECT_DOUBLE_EQ(market.ticks_per_year, hard_coded.ticks_per_year);
}

// Registry-built adapters must sweep bit-identically to adapters built
// straight from the legacy structs — the refactor is a pure re-plumbing.
TEST(Registry, RegistryAdaptersSweepIdenticalToLegacyConstruction) {
  struct Pair {
    std::unique_ptr<ProtocolAdapter> legacy;
    std::string registry_name;
  };
  std::vector<Pair> pairs;
  pairs.push_back({std::make_unique<BootstrapSwapAdapter>(
                       make_two_party_adapter(reference_two_party_config())),
                   "two-party"});
  pairs.push_back({std::make_unique<MultiPartySwapAdapter>(
                       reference_multi_party_config()),
                   "multi-party-fig3a"});
  pairs.push_back({std::make_unique<TicketAuctionAdapter>(
                       reference_auction_config(), /*sealed=*/true),
                   "auction-sealed"});
  pairs.push_back({std::make_unique<BrokerDealAdapter>(
                       reference_broker_config()),
                   "broker"});
  pairs.push_back({std::make_unique<BootstrapSwapAdapter>(
                       reference_bootstrap_config()),
                   "bootstrap"});
  pairs.push_back({std::make_unique<BootstrapSwapAdapter>(
                       make_crr_ladder_adapter(reference_crr_ladder_config())),
                   "crr-ladder"});
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.registry_name);
    const auto from_registry =
        ProtocolRegistry::global().make(pair.registry_name);
    const SweepReport a = ScenarioRunner(*pair.legacy).sweep();
    const SweepReport b = ScenarioRunner(*from_registry).sweep();
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.schedules_run, b.schedules_run);
    EXPECT_EQ(a.conforming_audited, b.conforming_audited);
    EXPECT_EQ(a.violations.size(), b.violations.size());
  }
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

CampaignSpec two_protocol_grid(unsigned threads) {
  CampaignSpec spec;
  CampaignEntry ring;
  ring.protocol = "multi-party-ring";
  ring.grid.add_axis_csv("n", "3,4");
  ring.grid.add_axis_csv("premium_unit", "1,2");
  spec.entries.push_back(std::move(ring));
  CampaignEntry two_party;
  two_party.protocol = "two-party";
  two_party.overrides.emplace_back("premium_b", "3");
  two_party.grid.add_axis_csv("premium_a", "1,2");
  spec.entries.push_back(std::move(two_party));
  spec.sweep.threads = threads;
  return spec;
}

void expect_identical(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.configurations(), b.configurations());
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    SCOPED_TRACE(a.configs[i].line());
    EXPECT_EQ(a.configs[i].protocol, b.configs[i].protocol);
    EXPECT_EQ(a.configs[i].params, b.configs[i].params);
    EXPECT_EQ(a.configs[i].report.protocol, b.configs[i].report.protocol);
    EXPECT_EQ(a.configs[i].report.schedules_run,
              b.configs[i].report.schedules_run);
    EXPECT_EQ(a.configs[i].report.conforming_audited,
              b.configs[i].report.conforming_audited);
    ASSERT_EQ(a.configs[i].report.violations.size(),
              b.configs[i].report.violations.size());
    for (std::size_t v = 0; v < a.configs[i].report.violations.size(); ++v) {
      EXPECT_EQ(a.configs[i].report.violations[v].schedule,
                b.configs[i].report.violations[v].schedule);
    }
  }
  EXPECT_EQ(a.truncations, b.truncations);
}

TEST(Campaign, TwoProtocolGridIsDeterministicAcrossThreadCounts) {
  const CampaignReport serial = Campaign(two_protocol_grid(1)).run();
  // 2x2 ring grid + 2-point two-party grid.
  ASSERT_EQ(serial.configurations(), 6u);
  EXPECT_EQ(serial.configs[0].protocol, "multi-party-ring");
  EXPECT_EQ(serial.configs[0].params, "n=3 premium_unit=1");
  EXPECT_EQ(serial.configs[4].protocol, "two-party");
  EXPECT_EQ(serial.configs[4].params, "premium_a=1 premium_b=3");
  EXPECT_TRUE(serial.ok()) << serial.str();
  EXPECT_EQ(serial.total_schedules(),
            125u + 125u + 625u + 625u + 16u + 16u);

  const CampaignReport parallel = Campaign(two_protocol_grid(4)).run();
  expect_identical(serial, parallel);
  const CampaignReport hardware = Campaign(two_protocol_grid(0)).run();
  expect_identical(serial, hardware);
}

TEST(Campaign, SingleConfigurationUsesTheShardedSweep) {
  CampaignSpec spec;
  spec.entries.push_back({"multi-party-fig3a", {}, {}});
  spec.sweep.threads = 4;
  const CampaignReport report = Campaign(spec).run();
  ASSERT_EQ(report.configurations(), 1u);
  EXPECT_EQ(report.configs[0].params, "");
  EXPECT_EQ(report.configs[0].report.schedules_run, 125u);
  EXPECT_TRUE(report.ok()) << report.str();
}

// Every configuration of a multi-configuration campaign sweeps with the
// campaign's options, the forced executor included: brute replays every
// schedule, and a forced tree stays serial under a thread request.
TEST(Campaign, ForcedExecutorReachesEveryConfiguration) {
  CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.entries.push_back({"broker", {}, {}});
  spec.sweep.executor = SweepExecutor::kBrute;
  const CampaignReport brute = Campaign(spec).run();
  ASSERT_EQ(brute.configurations(), 2u);
  for (const ConfigResult& c : brute.configs) {
    SCOPED_TRACE(c.line());
    EXPECT_EQ(c.report.nodes_executed, c.report.schedules_run);
    EXPECT_EQ(c.report.dedup_hits, 0u);
  }

  spec.sweep.executor = SweepExecutor::kTree;
  spec.sweep.threads = 4;
  const CampaignReport tree = Campaign(spec).run();
  ASSERT_EQ(tree.configurations(), 2u);
  for (const ConfigResult& c : tree.configs) {
    SCOPED_TRACE(c.line());
    EXPECT_EQ(c.report.workers, 1u);
    EXPECT_LT(c.report.nodes_executed, c.report.schedules_run);
  }
}

TEST(Campaign, UnknownProtocolFailsBeforeAnySweep) {
  CampaignSpec spec;
  spec.entries.push_back({"no-such-protocol", {}, {}});
  EXPECT_THROW(Campaign(spec).run(), RegistryError);
  CampaignSpec empty;
  EXPECT_THROW(Campaign(empty).run(), ParamError);
  CampaignSpec bad_override;
  bad_override.entries.push_back(
      {"two-party", {{"no_such_param", "1"}}, {}});
  EXPECT_THROW(Campaign(bad_override).run(), ParamError);
}

TEST(Campaign, DryRunTotalRefusesToOverflow) {
  // 38 auction bidders give 7 * 3^38 halt-only schedules, which fits 64
  // bits; two such configurations together do not.
  std::string bids = "1";
  for (int i = 1; i < 38; ++i) bids += ",1";
  CampaignSpec spec;
  spec.entries.push_back({"auction-open", {{"bids", bids}}, {}});
  EXPECT_EQ(Campaign(spec).dry_run().total_schedules(),
            std::size_t{9455962023710944623u});
  spec.entries.push_back({"auction-open", {{"bids", bids}}, {}});
  EXPECT_THROW(Campaign(spec).dry_run(), std::invalid_argument);
}

// Every grid point overwrites its axes' keys, so an entry that also fixes
// one of them would drop the override without a word: expansion refuses
// it, in a run and in a dry run. Overrides of other keys still apply.
TEST(Campaign, OverrideOfAGridAxisIsAnError) {
  CampaignSpec spec;
  CampaignEntry entry;
  entry.protocol = "two-party";
  entry.overrides.emplace_back("delta", "3");
  entry.grid.add_axis_csv("delta", "2");
  spec.entries.push_back(std::move(entry));
  EXPECT_THROW(Campaign(spec).run(), ParamError);
  try {
    (void)Campaign(spec).dry_run();
    ADD_FAILURE() << "dry run should have thrown ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("'delta'"), std::string::npos)
        << e.what();
  }
  spec.entries[0].overrides = {{"premium_b", "3"}};
  const DryRunReport ok = Campaign(spec).dry_run();
  ASSERT_EQ(ok.configs.size(), 1u);
  EXPECT_EQ(ok.configs[0].params, "premium_b=3 delta=2");
}

// Overrides apply in order, so a key set twice would keep only its last
// value without a word. An entry may name a key once, even with one
// value; the same key in two entries is two configurations, and legal.
TEST(Campaign, RepeatedOverrideIsAnError) {
  for (const char* second : {"3", "2"}) {
    SCOPED_TRACE(second);
    CampaignSpec spec;
    CampaignEntry entry;
    entry.protocol = "two-party";
    entry.overrides = {{"delta", "2"}, {"premium_b", "3"}, {"delta", second}};
    spec.entries.push_back(std::move(entry));
    EXPECT_THROW(Campaign(spec).run(), ParamError);
    try {
      (void)Campaign(spec).dry_run();
      ADD_FAILURE() << "dry run should have thrown ParamError";
    } catch (const ParamError& e) {
      EXPECT_NE(std::string(e.what()).find("'delta'"), std::string::npos)
          << e.what();
    }
  }
  CampaignSpec spec;
  for (const char* delta : {"2", "3"}) {
    CampaignEntry entry;
    entry.protocol = "two-party";
    entry.overrides = {{"delta", delta}};
    spec.entries.push_back(std::move(entry));
  }
  const DryRunReport ok = Campaign(spec).dry_run();
  ASSERT_EQ(ok.configs.size(), 2u);
  EXPECT_EQ(ok.configs[0].params, "delta=2");
  EXPECT_EQ(ok.configs[1].params, "delta=3");
}

TEST(Campaign, GridCapReportsTruncation) {
  CampaignSpec spec;
  CampaignEntry entry;
  entry.protocol = "two-party";
  entry.grid.add_axis_csv("premium_a", "1,2,3,4");
  spec.entries.push_back(std::move(entry));
  spec.max_configs_per_entry = 2;
  const CampaignReport report = Campaign(spec).run();
  EXPECT_EQ(report.configurations(), 2u);
  ASSERT_EQ(report.truncations.size(), 1u);
  EXPECT_NE(report.truncations[0].find("truncated"), std::string::npos);
  EXPECT_NE(report.str().find("truncated"), std::string::npos);
}

TEST(Campaign, JsonCarriesTotalsStampAndConfigs) {
  CampaignSpec spec;
  CampaignEntry entry;
  entry.protocol = "two-party";
  entry.grid.add_axis_csv("premium_a", "1,2");
  spec.entries.push_back(std::move(entry));
  const CampaignReport report = Campaign(spec).run();
  const std::string json =
      campaign_json(report, {"deadbeef", "Release", "test-compiler"});
  EXPECT_NE(json.find("\"benchmark\": \"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"git_commit\": \"deadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": \"Release\""), std::string::npos);
  EXPECT_NE(json.find("\"configurations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"params\": \"premium_a=1\""), std::string::npos);
  EXPECT_NE(json.find("\"params\": \"premium_a=2\""), std::string::npos);
}

// Campaign violations surface per configuration: a campaign over a
// synthetic always-violating protocol (a private registry, exercising the
// same plumbing) reports them in deterministic order with labels.
class ViolatingAdapter final : public ProtocolAdapter {
 public:
  std::string name() const override { return "violating"; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override { return 1; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<ViolatingAdapter>(*this);
  }
  std::vector<PartyOutcome> run(const Schedule& s) const override {
    PartyOutcome victim{"victim", s.plans[0].is_conforming(), {}, {}};
    PartyOutcome thief{"thief", false, {}, {}};
    if (!s.plans[1].is_conforming()) {
      victim.payoff.coin_delta = -1;
      thief.payoff.coin_delta = 1;
    }
    return {victim, thief};
  }
};

TEST(Campaign, ViolationsPropagateIntoReportAndExitStatusContract) {
  ProtocolRegistry reg;
  reg.add({"violating", "synthetic sore loser", ParamSet(),
           [](const ParamSet&) {
             return std::make_unique<ViolatingAdapter>();
           }});
  CampaignSpec spec;
  spec.entries.push_back({"violating", {}, {}});
  const CampaignReport report = Campaign(spec, reg).run();
  EXPECT_FALSE(report.ok());
  // Exactly one violating schedule: victim conforming, thief halting.
  EXPECT_EQ(report.total_violations(), 1u);
  const std::string json = campaign_json(report);
  EXPECT_NE(json.find("violation_details"), std::string::npos);
  EXPECT_NE(json.find("violating["), std::string::npos)
      << "violation labels should carry the schedule: " << json;
}

// ---------------------------------------------------------------------------
// SweepOptions validation (satellite: nonsense no longer accepted silently)
// ---------------------------------------------------------------------------

TEST(SweepOptionsValidation, MaxDeviatorsBelowMinusOneThrows) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  ScenarioRunner runner(*adapter);
  EXPECT_THROW(runner.sweep({-2, 1, {}}), std::invalid_argument);
  EXPECT_THROW(runner.sweep({-100, 4, {}}), std::invalid_argument);
  // The boundary values stay legal.
  EXPECT_EQ(runner.sweep({-1, 1, {}}).schedules_run, 16u);
  EXPECT_EQ(runner.sweep({0, 1, {}}).schedules_run, 1u);
}

TEST(SweepOptionsValidation, CampaignRejectsMalformedOptionsUpFront) {
  CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.sweep.max_deviators = -3;
  EXPECT_THROW(Campaign(spec).run(), std::invalid_argument);
}

TEST(SweepReportLine, OneLineFormIsTheStrHeader) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  const SweepReport report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.line(),
            "hedged-two-party: 16 schedules, " +
                std::to_string(report.conforming_audited) +
                " conforming-party audits, 0 violations");
  EXPECT_EQ(report.str(), report.line());  // no violations -> no extra lines
}

}  // namespace
}  // namespace xchain::sim
