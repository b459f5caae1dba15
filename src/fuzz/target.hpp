#pragma once

// Fuzz targets and the adapter-instance pool.
//
// A FuzzTarget is "something the fuzzer can run inputs against": a name,
// a parameter schema (the registry's, or empty for synthetic adapters),
// and a ParamSet -> adapter factory. Registry protocols and the planted
// self-test adapter share this one surface, so the harness, the shrinker,
// and the CLI never special-case either.
//
// Because a mutated input may override parameters, the adapter (and its
// expensive reusable world) depends on the input's override set. The
// InstancePool caches one Instance — adapter + ScheduleExecutor + the
// shape facts mutation and canonicalization need (action counts, Δ,
// variant universes, the canonical override list) — per distinct
// override set, and remembers which instance each override list it was
// handed resolves to, so a list is parsed against the schema once per
// pool. The input's chain environment (its `fault` and `resilience`
// lines) is a per-run input instead: run() sets it on the instance's
// adapter, whose one world switches environments between runs, and a
// faulted run's faultless twin runs on that same world. Plan-only
// mutation dominates fuzzing, so almost every run hits the pooled
// default-parameter instance.
//
// Nothing here outlives its pool, and fuzz_target() builds one pool per
// call, so a (seed, corpus) pair costs the same work in every call.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fuzz/executor.hpp"
#include "fuzz/input.hpp"
#include "sim/param.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::fuzz {

/// One fuzzable protocol. `schema` may be empty (no tunable parameters);
/// `factory` must accept any ParamSet derived from `schema`.
struct FuzzTarget {
  std::string name;
  sim::ParamSet schema;
  std::function<std::unique_ptr<sim::ProtocolAdapter>(const sim::ParamSet&)>
      factory;

  /// The registry protocol `name` as a fuzz target. Throws
  /// sim::RegistryError on an unknown name.
  static FuzzTarget from_registry(
      const std::string& name,
      const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global());
};

/// One instantiated configuration of a target: the adapter, its executor,
/// and the shape facts the mutator and canonicalizer need.
struct Instance {
  sim::ParamSet params;
  /// params.overrides_str(): the pool key, and the schedule-label suffix a
  /// run extends with its environment text.
  std::string overrides_label;
  /// canonical_overrides(params, schema): the overrides of every input
  /// canonical() returns for this instance.
  Overrides overrides;
  std::unique_ptr<sim::ProtocolAdapter> adapter;
  std::unique_ptr<ScheduleExecutor> executor;
  Tick delta = 1;
  std::vector<int> action_counts;  ///< per party
  /// Distinct plan variants party p's plan space emits (always includes
  /// 0). Parties that deviate via protocol-specific variants — the
  /// auctioneer's seven declaration strategies — surface them here.
  std::vector<std::vector<int>> variants;

  std::size_t party_count() const { return action_counts.size(); }
};

/// Caches Instances per override set: two override lists share an
/// instance when their ParamSets print the same overrides_str(), so an
/// alternate spelling of a value shares its instance. Each override list
/// resolves once per pool; a hit is one hash lookup. Throws
/// sim::ParamError on inputs whose overrides fail the schema or the
/// factory, on every call: a rejected list is never remembered.
class InstancePool {
 public:
  explicit InstancePool(const FuzzTarget& target) : target_(target) {}

  /// The instance for `in`'s override set (building it on first use).
  Instance& instance_for(const FuzzInput& in);

  /// Canonicalizes `in` against its own instance: equal to
  /// canonical_input(in, adapter, schema), with the override half read
  /// from the instance.
  FuzzInput canonical(const FuzzInput& in);

  /// Builds `in`'s schedule and executes it on its instance under `in`'s
  /// chain environment. When that environment is active and the run
  /// violates, the schedule re-runs on the same instance under the empty
  /// environment, its faultless twin: a violation that vanishes there was
  /// caused by the injected fault, not the deviation schedule, and is
  /// dropped as expected substrate damage (the within-envelope guarantees
  /// are pinned by dedicated tests, not the fuzzer). Only a violation
  /// reads the schedule label, so only a violating run builds it: the
  /// label schedule_of() gives `in` with the instance's overrides_label
  /// and, when faulted, the environment text.
  RunOutcome run(const FuzzInput& in);

  const FuzzTarget& target() const { return target_; }
  /// Instances (worlds) built so far: one per distinct override set,
  /// whatever environments its inputs ran under.
  std::size_t size() const { return instances_.size(); }

 private:
  struct OverridesHash {
    std::size_t operator()(const Overrides& o) const;
  };

  Instance& build(sim::ParamSet params, std::string key);

  const FuzzTarget& target_;
  /// Built instances by overrides_label.
  std::map<std::string, std::unique_ptr<Instance>> instances_;
  /// Every override list resolved so far, raw or canonical, to its
  /// instance.
  std::unordered_map<Overrides, Instance*, OverridesHash> resolved_;
};

}  // namespace xchain::fuzz
