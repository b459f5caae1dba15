// load-shared-10k: the shared-chain load run, plus the traced loop that
// repeats run_load's tick loop from public calls to time its phases.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "common.hpp"
#include "core/binding.hpp"
#include "crypto/rng.hpp"
#include "load/load_gen.hpp"
#include "sim/party.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using namespace xchain;

/// The timed and traced runs are serial. With 4 threads, run_load forks and
/// joins its actor phase once per tick, about 5,000 times a run, so every
/// tick waits for the slowest of 4 cores: on a shared host the figure would
/// hang on all 4 being free at once. A 4-thread run of every seed stays as
/// a gate: its report must equal the serial one field for field.
constexpr unsigned kGateThreads = 4;

load::LoadConfig load_config(const Options& opt) {
  load::LoadConfig cfg;
  cfg.users = opt.size == Size::kTiny ? 300 : 10'000;
  cfg.threads = 1;
  cfg.seed = opt.seed;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  cfg.arrival_gap = 1;
  cfg.block_capacity = 4;
  cfg.max_fee = 64;
  return cfg;
}

/// Binds one instance of every mix protocol onto a scratch shared world, so
/// a mix the registry cannot load fails before the timed phase.
load::LoadConfig prepare_load(const Options& opt) {
  load::LoadConfig cfg = load_config(opt);
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  PartyId base = 0;
  std::vector<std::unique_ptr<sim::LoadInstance>> probes;
  for (const load::MixEntry& m : cfg.mix) {
    const auto adapter = registry.make(m.protocol);
    core::WorldBinding binding;
    binding.chains = &chains;
    binding.party_base = base;
    binding.tag = m.protocol + "#probe";
    probes.push_back(adapter->bind_instance(binding));
    base += static_cast<PartyId>(adapter->party_count());
  }
  return cfg;
}

std::string latency_str(const load::LatencyStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%lld/%lld/%lld/%lld/%.17g",
                static_cast<long long>(s.p50), static_cast<long long>(s.p95),
                static_cast<long long>(s.p99), static_cast<long long>(s.max),
                s.mean);
  return buf;
}

/// Every deterministic field of a LoadReport, i.e. all but wall_seconds.
std::string fingerprint(const load::LoadReport& r) {
  std::string f = std::to_string(r.instances) + " " +
                  std::to_string(r.txs_included) + " " +
                  std::to_string(r.chains) + " " + std::to_string(r.ticks) +
                  " " + latency_str(r.latency) + " " +
                  std::to_string(r.fault_caused) + " " +
                  std::to_string(r.unattributed) + "\n";
  for (const load::ProtocolStats& p : r.per_protocol) {
    f += p.protocol + " " + std::to_string(p.instances) + " " +
         std::to_string(p.txs_included) + " " + latency_str(p.latency) + " " +
         std::to_string(p.violations) + " " + std::to_string(p.fault_caused) +
         "\n";
  }
  for (const sim::Violation& v : r.violations) {
    f += v.str() + (v.fault_caused ? " [chain-fault]\n" : "\n");
  }
  return f;
}

// ---------------------------------------------------------------------------
// Traced loop
// ---------------------------------------------------------------------------

/// One arrived instance, as run_load keeps it: never destroyed before the
/// run ends, since carried-over mempool entries may still reference it.
struct TracedInstance {
  std::size_t idx = 0;
  std::size_t proto = 0;
  PartyId base = 0;
  PartyId base_end = 0;
  Tick start = 0;
  Tick end = 0;
  std::unique_ptr<sim::LoadInstance> bound;
  sim::TxSink sink;
  Tick last_inclusion = -1;
  std::size_t txs = 0;
  std::string tag;
};

/// What the traced loop measured, and the report fields it cross-checks.
struct TracedLoad {
  Tick ticks = 0;
  std::size_t txs_included = 0;
  std::size_t violations = 0;
  std::size_t fault_caused = 0;
  std::size_t unattributed = 0;
  load::LatencyStats latency;

  double loop_s = 0;
  double arrive_s = 0, actors_s = 0, drain_s = 0, produce_s = 0, audit_s = 0;
  double attribute_s = 0;
  std::vector<double> tick_us;
  double active_sum = 0;
  double contracts_sum = 0;
};

load::LatencyStats latency_stats(std::vector<Tick> lats) {
  load::LatencyStats s;
  if (lats.empty()) return s;
  std::sort(lats.begin(), lats.end());
  const auto at = [&](std::size_t p) { return lats[p * (lats.size() - 1) / 100]; };
  s.p50 = at(50);
  s.p95 = at(95);
  s.p99 = at(99);
  s.max = lats.back();
  double sum = 0;
  for (const Tick t : lats) sum += static_cast<double>(t);
  s.mean = sum / static_cast<double>(lats.size());
  return s;
}

/// run_load's tick loop rebuilt from public calls, with a span around
/// every phase of every tick and around each instance's bind and audit.
TracedLoad traced_run(const load::LoadConfig& cfg, Tracer& tr, int parent) {
  const std::vector<load::MixEntry>& mix = cfg.mix;
  int total_weight = 0;
  for (const load::MixEntry& m : mix) total_weight += m.weight;
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters;
  for (const load::MixEntry& m : mix) adapters.push_back(registry.make(m.protocol));

  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::ChainEnvironment env;
  chain::FaultClause squeeze;
  squeeze.kind = chain::FaultClause::Kind::kSqueeze;
  squeeze.from = 0;
  squeeze.to = std::numeric_limits<Tick>::max() / 2;
  squeeze.cap = cfg.block_capacity;
  env.faults.entries.emplace_back("*", squeeze);
  env.resilience.kind = chain::ResiliencePolicy::Kind::kFeeEscalate;
  env.resilience.max_fee = cfg.max_fee;
  chains.set_environment(env);

  // The seeded arrival plan: the same draws, in the same order, as run_load.
  crypto::Rng rng(cfg.seed);
  std::vector<std::unique_ptr<TracedInstance>> instances;
  instances.reserve(cfg.users);
  Tick at = 0;
  for (std::size_t i = 0; i < cfg.users; ++i) {
    if (i > 0) {
      at += static_cast<Tick>(
          rng.next_below(static_cast<std::uint64_t>(cfg.arrival_gap) + 1));
    }
    auto inst = std::make_unique<TracedInstance>();
    inst->idx = i;
    std::uint64_t pick =
        rng.next_below(static_cast<std::uint64_t>(total_weight));
    for (std::size_t m = 0; m < mix.size(); ++m) {
      const auto w = static_cast<std::uint64_t>(mix[m].weight);
      if (pick < w) {
        inst->proto = m;
        break;
      }
      pick -= w;
    }
    inst->start = at;
    inst->tag = mix[inst->proto].protocol + "#" + std::to_string(i);
    instances.push_back(std::move(inst));
  }

  TracedLoad out;
  std::vector<std::pair<PartyId, std::size_t>> bases;
  chains.set_inclusion_observer([&](ChainId, PartyId sender, Tick height) {
    ++out.txs_included;
    auto it = std::upper_bound(
        bases.begin(), bases.end(), sender,
        [](PartyId s, const std::pair<PartyId, std::size_t>& b) {
          return s < b.first;
        });
    if (it == bases.begin()) return;
    TracedInstance& inst = *instances[(--it)->second];
    if (sender >= inst.base_end) return;
    inst.last_inclusion = std::max(inst.last_inclusion, height);
    ++inst.txs;
  });

  std::vector<sim::Violation> violations;
  PartyId next_base = 0;
  std::size_t next_arrival = 0;
  std::vector<TracedInstance*> active;
  Tick now = 0;
  const int loop = tr.begin("load.loop", parent);
  while (next_arrival < instances.size() || !active.empty()) {
    const int tick = tr.begin("load.tick", loop);

    int span = tr.begin("load.arrive", tick);
    while (next_arrival < instances.size() &&
           instances[next_arrival]->start == now) {
      TracedInstance& inst = *instances[next_arrival];
      const sim::ProtocolAdapter& adapter = *adapters[inst.proto];
      inst.base = next_base;
      inst.base_end = next_base + static_cast<PartyId>(adapter.party_count());
      next_base = inst.base_end;
      core::WorldBinding binding;
      binding.chains = &chains;
      binding.party_base = inst.base;
      binding.start = inst.start;
      binding.tag = inst.tag;
      const int bind = tr.begin("sim.ProtocolAdapter::bind_instance", span,
                                inst.tag);
      inst.bound = adapter.bind_instance(binding);
      tr.end(bind);
      inst.end = inst.bound->end_tick();
      for (sim::Party* actor : inst.bound->actors()) {
        actor->set_tx_sink(&inst.sink);
      }
      bases.emplace_back(inst.base, next_arrival);
      active.push_back(&inst);
      ++next_arrival;
    }
    out.arrive_s += tr.end(span);

    // Serial, as in the timed runs (see kGateThreads).
    span = tr.begin("load.actors", tick);
    out.active_sum += static_cast<double>(active.size());
    for (TracedInstance* inst : active) {
      for (sim::Party* actor : inst->bound->actors()) actor->tick(chains, now);
    }
    out.actors_s += tr.end(span);

    span = tr.begin("load.drain", tick);
    for (TracedInstance* inst : active) inst->sink.drain();
    out.drain_s += tr.end(span);

    for (std::size_t c = 0; c < chains.count(); ++c) {
      out.contracts_sum += static_cast<double>(
          chains.at(static_cast<ChainId>(c)).contract_count());
    }
    span = tr.begin("chain.MultiChain::produce_all", tick);
    chains.produce_all(now);
    out.produce_s += tr.end(span);

    span = tr.begin("load.audit", tick);
    std::size_t kept = 0;
    for (TracedInstance* inst : active) {
      if (inst->end > now + 1) {
        active[kept++] = inst;
        continue;
      }
      const int audit = tr.begin("sim.audit_schedule", span, inst->tag);
      sim::audit_schedule(inst->tag, inst->bound->collect(), violations);
      tr.end(audit);
    }
    active.resize(kept);
    out.audit_s += tr.end(span);

    out.tick_us.push_back(tr.end(tick) * 1e6);
    ++now;
  }
  out.loop_s = tr.end(loop);
  out.ticks = now;

  std::vector<Tick> lats;
  lats.reserve(instances.size());
  for (const auto& inst : instances) {
    lats.push_back(inst->txs > 0 ? inst->last_inclusion - inst->start + 1
                                 : inst->end - inst->start);
  }
  out.latency = latency_stats(std::move(lats));

  // Attribution: one solo all-conforming twin per violating protocol.
  const int attribute = tr.begin("load.attribute", parent);
  std::vector<int> twin_clean(mix.size(), -1);
  for (const sim::Violation& v : violations) {
    const std::string proto = v.schedule.substr(0, v.schedule.find('#'));
    std::size_t m = 0;
    while (m < mix.size() && mix[m].protocol != proto) ++m;
    if (m == mix.size()) {
      ++out.unattributed;
      continue;
    }
    if (twin_clean[m] < 0) {
      const int twin = tr.begin("core.ProtocolAdapter::run", attribute, proto);
      const auto adapter = registry.make(proto);
      sim::Schedule s;
      s.plans.assign(adapter->party_count(), sim::DeviationPlan::conforming());
      s.label = "twin";
      std::vector<sim::Violation> scratch;
      sim::audit_schedule("twin", adapter->run(s), scratch);
      twin_clean[m] = scratch.empty() ? 1 : 0;
      tr.end(twin);
    }
    ++(twin_clean[m] == 1 ? out.fault_caused : out.unattributed);
  }
  out.attribute_s = tr.end(attribute);
  out.violations = violations.size();
  return out;
}

}  // namespace

void load_workload(const Options& opt, Result& r) {
  const load::LoadConfig cfg = prepare_load(opt);
  r.put("setup_s", seconds_since(opt.started), "s");
  if (opt.setup_only) return;

  // One repetition: a run_load per derived seed, each timed as its own unit.
  std::vector<load::LoadConfig> cfgs(kSubSeeds, cfg);
  for (int j = 0; j < kSubSeeds; ++j) cfgs[j].seed = sub_seed(opt.seed, j);

  BestTimes best(kSubSeeds);
  std::size_t instances = 0;
  std::vector<std::string> first(kSubSeeds);
  repeat_for(opt.seconds, 3, [&] {
    instances = 0;
    for (int j = 0; j < kSubSeeds; ++j) {
      const auto t0 = Clock::now();
      const load::LoadReport rep = load::run_load(cfgs[j]);
      best.add(static_cast<std::size_t>(j), seconds_since(t0));
      instances += rep.instances;
      r.attempted += rep.instances;
      r.failed += rep.unattributed;
      r.gate(rep.ok(), "load: " + std::to_string(rep.unattributed) +
                           " unattributed violations");
      const std::string f = fingerprint(rep);
      if (first[j].empty()) first[j] = f;
      r.gate(f == first[j], "load seed " + std::to_string(cfgs[j].seed) +
                                ": report differs between repetitions");
    }
  });
  r.put("audited_runs_per_s", static_cast<double>(instances) / best.total(),
        "1/s");
  // Read before the threaded runs, whose per-thread allocator arenas would
  // blur it.
  r.put("peak_rss_mb", peak_rss_mb(), "MB");

  // The report must not depend on the worker count.
  for (int j = 0; j < kSubSeeds; ++j) {
    load::LoadConfig c = cfgs[j];
    c.threads = kGateThreads;
    r.gate(fingerprint(load::run_load(c)) == first[j],
           "load seed " + std::to_string(c.seed) + ": threads=" +
               std::to_string(kGateThreads) + " report differs from threads=1");
  }
}

void trace_load_layers(const Options& opt, Tracer& tr, Result& r) {
  const load::LoadConfig cfg = load_config(opt);

  // Untraced and traced runs alternate, three of each, so the overhead
  // compares medians taken under the same host conditions. The phase times
  // come from the traced run of median wall time. The first untraced run is
  // the cross-check reference.
  constexpr int kPairs = 3;
  const int root = tr.begin("load", -1);
  load::LoadReport ref;
  std::vector<TracedLoad> traced;
  std::vector<double> untraced_walls, traced_walls;
  for (int i = 0; i < kPairs; ++i) {
    int span = tr.begin("load.run_load", root);
    load::LoadReport rep = load::run_load(cfg);
    untraced_walls.push_back(tr.end(span));
    if (i == 0) ref = std::move(rep);
    span = tr.begin("load.traced_run", root);
    traced.push_back(traced_run(cfg, tr, span));
    traced_walls.push_back(tr.end(span));
  }
  tr.end(root);

  // The trace must have measured the very traffic run_load reports.
  for (const TracedLoad& t : traced) {
    const bool same =
        t.ticks == ref.ticks && t.txs_included == ref.txs_included &&
        t.violations == ref.violations.size() &&
        t.fault_caused == ref.fault_caused &&
        t.unattributed == ref.unattributed &&
        latency_str(t.latency) == latency_str(ref.latency);
    r.gate(same, "traced load loop diverges from run_load: ticks " +
                     std::to_string(t.ticks) + "/" +
                     std::to_string(ref.ticks) + ", txs " +
                     std::to_string(t.txs_included) + "/" +
                     std::to_string(ref.txs_included) + ", violations " +
                     std::to_string(t.violations) + "/" +
                     std::to_string(ref.violations.size()) + ", latency " +
                     latency_str(t.latency) + " vs " +
                     latency_str(ref.latency));
  }
  r.gate(ref.ok(), "load: " + std::to_string(ref.unattributed) +
                       " unattributed violations");
  r.attempted += ref.instances;
  r.failed += ref.unattributed;

  std::vector<std::size_t> by_wall(kPairs);
  std::iota(by_wall.begin(), by_wall.end(), 0);
  std::sort(by_wall.begin(), by_wall.end(), [&](std::size_t a, std::size_t b) {
    return traced_walls[a] < traced_walls[b];
  });
  const TracedLoad& t = traced[by_wall[kPairs / 2]];
  const double ticks = static_cast<double>(t.ticks);
  const double phases =
      t.arrive_s + t.actors_s + t.drain_s + t.produce_s + t.audit_s;
  std::vector<double> tick_us = t.tick_us;
  std::sort(tick_us.begin(), tick_us.end());
  const double instances = static_cast<double>(ref.instances);

  r.put("load.arrive_s", t.arrive_s, "s");
  r.put("load.actors_s", t.actors_s, "s");
  r.put("load.drain_s", t.drain_s, "s");
  r.put("load.produce_s", t.produce_s, "s");
  r.put("load.audit_s", t.audit_s, "s");
  r.put("load.attribute_s", t.attribute_s, "s");
  r.put("load.residual_s", t.loop_s - phases, "s");
  r.put("load.tick_p50_us", percentile_sorted(tick_us, 50), "us");
  r.put("load.tick_p99_us", percentile_sorted(tick_us, 99), "us");
  r.put("load.active_mean", t.active_sum / ticks, "count");
  r.put("load.lockup_p50_ticks", static_cast<double>(ref.latency.p50),
        "ticks");
  r.put("load.lockup_p99_ticks", static_cast<double>(ref.latency.p99),
        "ticks");
  r.put("load.breach_share",
        static_cast<double>(ref.violations.size()) / instances, "ratio");
  // 1 - traced rate / untraced rate; both runs complete the same instances.
  r.put("load.trace_overhead",
        1.0 - median(untraced_walls) / median(traced_walls), "ratio");
  r.put("chain.contracts_per_block", t.contracts_sum / ticks, "count");
  r.put("chain.produce_us_per_block", t.produce_s / ticks * 1e6, "us");
  r.put("chain.txs_applied", static_cast<double>(t.txs_included), "count");
}

}  // namespace perfbench
