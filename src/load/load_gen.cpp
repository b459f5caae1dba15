#include "load/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "common/parallel.hpp"
#include "core/binding.hpp"
#include "crypto/rng.hpp"
#include "sim/party.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::load {

namespace {

/// One arrived protocol instance: the bound world plus the scheduler's
/// bookkeeping. Once audited, the instance drains: mempools may still
/// carry crowded-out transactions whose effects reference its contracts.
/// When none is left, run_load retires it — destroys the bound world and
/// sink and frees its contracts on the shared chains — and keeps only
/// this record, whose inclusion counts feed the report.
struct Instance {
  std::size_t idx = 0;    ///< arrival index (the "#<idx>" of its tag)
  std::size_t proto = 0;  ///< mix index
  PartyId base = 0;       ///< first account id of the instance's range
  PartyId base_end = 0;   ///< one past the last account id
  Tick start = 0;         ///< arrival tick
  Tick end = 0;           ///< exclusive end tick (LoadInstance::end_tick)
  std::unique_ptr<sim::LoadInstance> bound;  ///< null once retired
  sim::TxSink sink;            ///< this tick's deferred submissions
  /// Its transactions sitting in a mempool: every one is submitted
  /// through the sink and, on load chains, which squeeze but never drop,
  /// evict or stall, leaves only by inclusion. Had one left another way,
  /// the count would stay positive and the instance would never retire.
  std::size_t pending = 0;
  Tick last_inclusion = -1;    ///< newest block holding one of its txs
  std::size_t txs = 0;         ///< its included transactions
};

#ifndef NDEBUG
/// Debug cross-check of the pending count before `inst` retires: no
/// mempool on any chain may hold a transaction from its account range.
void require_drained(const chain::MultiChain& chains, const Instance& inst,
                     const std::string& tag) {
  for (ChainId c = 0; c < chains.count(); ++c) {
    if (!chains.at(c).has_pending(inst.base, inst.base_end)) continue;
    // Append-only string building (GCC 12 -Wrestrict, PR 105651).
    std::string what = "load: retiring ";
    what += tag;
    what += " with a transaction still pending on chain '";
    what += chains.at(c).name();
    what += '\'';
    throw std::logic_error(what);
  }
}
#endif

/// Nearest-rank percentile over sorted latencies: index p*(n-1)/100.
Tick percentile(const std::vector<Tick>& sorted, int p) {
  if (sorted.empty()) return 0;
  return sorted[(static_cast<std::size_t>(p) * (sorted.size() - 1)) / 100];
}

LatencyStats latency_stats(std::vector<Tick> lats) {
  LatencyStats s;
  if (lats.empty()) return s;
  std::sort(lats.begin(), lats.end());
  s.p50 = percentile(lats, 50);
  s.p95 = percentile(lats, 95);
  s.p99 = percentile(lats, 99);
  s.max = lats.back();
  double sum = 0;
  for (Tick t : lats) sum += static_cast<double>(t);
  s.mean = sum / static_cast<double>(lats.size());
  return s;
}

/// The all-conforming schedule every load instance runs (and every
/// attribution twin replays).
sim::Schedule conforming_schedule(std::size_t parties, std::string label) {
  sim::Schedule s;
  s.plans.assign(parties, sim::DeviationPlan::conforming());
  s.label = std::move(label);
  return s;
}

}  // namespace

bool LoadReport::same_outcome(const LoadReport& o) const {
  return instances == o.instances && txs_included == o.txs_included &&
         chains == o.chains && ticks == o.ticks &&
         peak_live_instances == o.peak_live_instances &&
         latency == o.latency && per_protocol == o.per_protocol &&
         violations == o.violations && fault_caused == o.fault_caused &&
         unattributed == o.unattributed;
}

LoadReport run_load(const LoadConfig& cfg) {
  if (cfg.users == 0) throw std::invalid_argument("load: users must be >= 1");
  if (cfg.arrival_gap < 0) {
    throw std::invalid_argument("load: arrival_gap must be >= 0");
  }
  if (cfg.block_capacity < 0) {
    throw std::invalid_argument("load: block_capacity must be >= 0");
  }
  if (cfg.max_fee < 0) throw std::invalid_argument("load: max_fee must be >= 0");
  std::vector<MixEntry> mix = cfg.mix;
  if (mix.empty()) mix.push_back({"two-party", 1});
  // 64-bit: a few INT_MAX weights must not overflow the draw range.
  std::uint64_t total_weight = 0;
  for (auto m = mix.begin(); m != mix.end(); ++m) {
    if (m->weight <= 0) {
      throw std::invalid_argument("load: mix weight for '" + m->protocol +
                                  "' must be >= 1");
    }
    // A protocol named twice would report as two separate rows.
    if (std::any_of(mix.begin(), m, [&](const MixEntry& e) {
          return e.protocol == m->protocol;
        })) {
      throw std::invalid_argument("load: mix names '" + m->protocol +
                                  "' twice");
    }
    total_weight += static_cast<std::uint64_t>(m->weight);
  }
  const unsigned threads = std::max(1u, cfg.threads);

  // One adapter per mix entry (unknown names throw RegistryError here;
  // protocols without a bound world form throw at their first bind).
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters;
  adapters.reserve(mix.size());
  for (const MixEntry& m : mix) adapters.push_back(registry.make(m.protocol));

  // The shared world. Capacity squeeze on every chain (current and
  // future) plus the fee-escalation defense — installed before any
  // instance binds, so chains created later inherit both.
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::ChainEnvironment env;
  if (cfg.block_capacity > 0) {
    chain::FaultClause squeeze;
    squeeze.kind = chain::FaultClause::Kind::kSqueeze;
    squeeze.from = 0;
    squeeze.to = std::numeric_limits<Tick>::max() / 2;
    squeeze.cap = cfg.block_capacity;
    env.faults.entries.emplace_back("*", squeeze);
  }
  env.resilience.kind = chain::ResiliencePolicy::Kind::kFeeEscalate;
  env.resilience.max_fee = cfg.max_fee;
  chains.set_environment(env);

  // Seeded arrival plan: protocol draw and arrival tick per instance.
  // Account bases are assigned at bind time (arrival order), so the plan
  // is a pure function of (seed, mix, arrival_gap).
  crypto::Rng rng(cfg.seed);
  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(cfg.users);
  {
    Tick at = 0;
    for (std::size_t i = 0; i < cfg.users; ++i) {
      if (i > 0) at += static_cast<Tick>(rng.next_below(
                      static_cast<std::uint64_t>(cfg.arrival_gap) + 1));
      auto inst = std::make_unique<Instance>();
      inst->idx = i;
      std::uint64_t pick = rng.next_below(total_weight);
      for (std::size_t m = 0; m < mix.size(); ++m) {
        const std::uint64_t w = static_cast<std::uint64_t>(mix[m].weight);
        if (pick < w) {
          inst->proto = m;
          break;
        }
        pick -= w;
      }
      inst->start = at;
      instances.push_back(std::move(inst));
    }
  }

  // Inclusion observer: map each applied transaction's sender back to its
  // instance through the disjoint account-id ranges. `bases` is sorted by
  // construction (bases grow in arrival order).
  std::size_t txs_included = 0;
  std::vector<std::pair<PartyId, std::size_t>> bases;  // (base, instance)
  chains.set_inclusion_observer([&](ChainId, PartyId sender, Tick height) {
    ++txs_included;
    auto it = std::upper_bound(
        bases.begin(), bases.end(), sender,
        [](PartyId s, const std::pair<PartyId, std::size_t>& b) {
          return s < b.first;
        });
    if (it == bases.begin()) return;
    Instance& inst = *instances[(--it)->second];
    if (sender >= inst.base_end) return;
    inst.last_inclusion = std::max(inst.last_inclusion, height);
    ++inst.txs;
    --inst.pending;
  });
  const auto tag_of = [&](const Instance& inst) {
    return mix[inst.proto].protocol + "#" + std::to_string(inst.idx);
  };

  LoadReport report;
  // The mix index of each violation's protocol (aligned with
  // report.violations), for the attribution pass.
  std::vector<std::size_t> violation_mix;
  const auto t0 = std::chrono::steady_clock::now();

  PartyId next_base = 0;
  std::size_t next_arrival = 0;
  std::vector<Instance*> active;    // arrival order — the drain order
  std::vector<Instance*> draining;  // audited, transactions still pending
  Tick now = 0;
  while (next_arrival < instances.size() || !active.empty()) {
    // 1. Serial arrivals: bind every instance due this tick.
    while (next_arrival < instances.size() &&
           instances[next_arrival]->start == now) {
      Instance& inst = *instances[next_arrival];
      const sim::ProtocolAdapter& adapter = *adapters[inst.proto];
      inst.base = next_base;
      inst.base_end =
          next_base + static_cast<PartyId>(adapter.party_count());
      next_base = inst.base_end;
      core::WorldBinding binding;
      binding.chains = &chains;
      binding.party_base = inst.base;
      binding.start = inst.start;
      binding.tag = tag_of(inst);
      inst.bound = adapter.bind_instance(binding);
      inst.end = inst.bound->end_tick();
      for (sim::Party* actor : inst.bound->actors()) {
        actor->set_tx_sink(&inst.sink);
      }
      bases.emplace_back(inst.base, next_arrival);
      active.push_back(&inst);
      ++next_arrival;
    }
    report.peak_live_instances = std::max(report.peak_live_instances,
                                          active.size() + draining.size());

    // 2. Parallel tick phase: contiguous instance shards, one per worker
    // from two instances per worker up. Actors only read chain state and
    // fill their instance's private sink, so shards share nothing mutable.
    const std::size_t shards = active.size() < 2 * threads ? 1 : threads;
    parallel_for(threads, shards, [&](unsigned, std::size_t shard) {
      const std::size_t hi = (shard + 1) * active.size() / shards;
      for (std::size_t i = shard * active.size() / shards; i < hi; ++i) {
        for (sim::Party* actor : active[i]->bound->actors()) {
          actor->tick(chains, now);
        }
      }
    });

    // 3. Serial drain in arrival order: mempool sequence numbers are
    // independent of thread count.
    for (Instance* inst : active) inst->pending += inst->sink.drain();

    // 4. One fee-ordered bounded block per chain over the whole tick.
    chains.produce_all(now);

    // Completions: the block at end - 1 has been produced.
    std::size_t kept = 0;
    for (Instance* inst : active) {
      if (inst->end > now + 1) {
        active[kept++] = inst;
        continue;
      }
      sim::audit_schedule(tag_of(*inst), inst->bound->collect(),
                          report.violations);
      violation_mix.resize(report.violations.size(), inst->proto);
      draining.push_back(inst);
    }
    active.resize(kept);

    // Retirement: an audited instance with no transaction left in any
    // mempool frees its world, then its contracts. Nothing can reach them
    // any more: effects reference only their own world, and no actor is
    // left to submit.
    kept = 0;
    for (Instance* inst : draining) {
      if (inst->pending > 0) {
        draining[kept++] = inst;
        continue;
      }
#ifndef NDEBUG
      require_drained(chains, *inst, tag_of(*inst));
#endif
      const std::vector<sim::ContractRange> contracts =
          inst->bound->contracts();
      inst->bound.reset();
      inst->sink = sim::TxSink();
      for (const sim::ContractRange& r : contracts) {
        chains.at(r.chain).retire(r.first, r.last);
      }
    }
    draining.resize(kept);
    ++now;
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.ticks = now;
  report.instances = instances.size();
  report.txs_included = txs_included;
  report.chains = chains.count();

  // Latency + per-protocol aggregation.
  std::vector<Tick> all_lats;
  all_lats.reserve(instances.size());
  std::vector<std::vector<Tick>> proto_lats(mix.size());
  report.per_protocol.resize(mix.size());
  for (std::size_t m = 0; m < mix.size(); ++m) {
    report.per_protocol[m].protocol = mix[m].protocol;
  }
  for (const auto& inst : instances) {
    const Tick lat = inst->txs > 0 ? inst->last_inclusion - inst->start + 1
                                   : inst->end - inst->start;
    all_lats.push_back(lat);
    proto_lats[inst->proto].push_back(lat);
    ProtocolStats& ps = report.per_protocol[inst->proto];
    ++ps.instances;
    ps.txs_included += inst->txs;
  }
  report.latency = latency_stats(std::move(all_lats));
  for (std::size_t m = 0; m < mix.size(); ++m) {
    report.per_protocol[m].latency = latency_stats(std::move(proto_lats[m]));
  }

  // Fault attribution (sim::attribute_fault): a violating protocol re-runs
  // solo, all-conforming, on a faultless private world. All load instances
  // of one protocol are identical modulo binding, so one twin per protocol
  // decides them all.
  std::vector<std::optional<std::vector<sim::Violation>>> twins(mix.size());
  for (std::size_t v = 0; v < report.violations.size(); ++v) {
    const std::size_t m = violation_mix[v];
    if (!twins[m]) {
      const std::unique_ptr<sim::ProtocolAdapter> twin =
          registry.make(mix[m].protocol);
      sim::audit_schedule(
          "twin",
          twin->run(conforming_schedule(twin->party_count(), "twin")),
          twins[m].emplace());
    }
    ProtocolStats& stats = report.per_protocol[m];
    ++stats.violations;
    if (sim::attribute_fault(report.violations[v], *twins[m])) {
      ++report.fault_caused;
      ++stats.fault_caused;
    } else {
      ++report.unattributed;
    }
  }

  return report;
}

}  // namespace xchain::load
