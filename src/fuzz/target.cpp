#include "fuzz/target.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fuzz/rng.hpp"
#include "sim/strategy_space.hpp"

namespace xchain::fuzz {

FuzzTarget FuzzTarget::from_registry(const std::string& name,
                                     const sim::ProtocolRegistry& registry) {
  const sim::ProtocolInfo& info = registry.info(name);
  FuzzTarget t;
  t.name = info.name;
  t.schema = info.defaults;
  t.factory = info.factory;
  return t;
}

std::size_t InstancePool::OverridesHash::operator()(
    const Overrides& o) const {
  std::uint64_t h = o.size();
  for (const auto& [key, value] : o) {
    sig_mix(h, fnv1a(key));
    sig_mix(h, fnv1a(value));
  }
  return static_cast<std::size_t>(h);
}

Instance& InstancePool::instance_for(const FuzzInput& in) {
  const auto hit = resolved_.find(in.overrides);
  if (hit != resolved_.end()) return *hit->second;
  // Key by the schema-normalized override string, so "delta=02" shares
  // the "delta=2" instance. The environment is no part of the key: run()
  // installs it per run. A list that throws here or in the factory is not
  // remembered, so it throws again on its next call.
  sim::ParamSet params = in.params(target_.schema);
  std::string key = params.overrides_str();
  const auto it = instances_.find(key);
  Instance& inst = it != instances_.end()
                       ? *it->second
                       : build(std::move(params), std::move(key));
  resolved_.emplace(in.overrides, &inst);
  return inst;
}

Instance& InstancePool::build(sim::ParamSet params, std::string key) {
  auto inst = std::make_unique<Instance>();
  inst->adapter = target_.factory(params);
  inst->overrides = canonical_overrides(params, target_.schema);
  inst->params = std::move(params);
  inst->overrides_label = key;
  inst->delta = inst->adapter->delta();
  const std::size_t n = inst->adapter->party_count();
  inst->action_counts.resize(n);
  inst->variants.resize(n);
  // Variant universes come from the adapter's own (halt-only, tiny-cap)
  // plan space: parties whose deviations are protocol-specific variants
  // enumerate them there, everyone else only ever emits variant 0.
  sim::StrategySpace halt_only;
  for (std::size_t p = 0; p < n; ++p) {
    const PartyId pid = static_cast<PartyId>(p);
    inst->action_counts[p] = inst->adapter->action_count(pid);
    std::vector<int>& vs = inst->variants[p];
    vs.push_back(0);
    for (const sim::DeviationPlan& plan :
         inst->adapter->plan_space(pid, halt_only, 64).plans) {
      if (std::find(vs.begin(), vs.end(), plan.variant()) == vs.end()) {
        vs.push_back(plan.variant());
      }
    }
    std::sort(vs.begin(), vs.end());
  }
  inst->executor = std::make_unique<ScheduleExecutor>(*inst->adapter);
  Instance& ref = *inst;
  instances_.emplace(std::move(key), std::move(inst));
  return ref;
}

FuzzInput InstancePool::canonical(const FuzzInput& in) {
  const Instance& inst = instance_for(in);
  FuzzInput out = canonical_plans(in, *inst.adapter);
  out.overrides = inst.overrides;
  return out;
}

RunOutcome InstancePool::run(const FuzzInput& in) {
  Instance& inst = instance_for(in);
  chain::ChainEnvironment env = in.environment();
  const bool faulted = env.active();
  // The label suffix keeps the environment text, so a violation names the
  // substrate it ran on.
  std::string suffix = inst.overrides_label;
  if (faulted) {
    if (!suffix.empty()) suffix += ' ';
    suffix += env.str();
  }
  // The faultless twin runs these same plans.
  const sim::Schedule s = unlabelled_schedule(in, *inst.adapter);
  inst.adapter->set_environment(std::move(env));
  RunOutcome out = inst.executor->run(s);
  if (faulted) {
    // A fault run whose consult path matches the bare run's must not
    // collide with it in coverage space: the substrate behaved
    // differently even if the parties consulted the same decisions.
    sig_mix(out.signature, fnv1a(suffix));
    if (out.violations.empty()) return out;

    // Fault attribution (sim::attribute_fault, as in ScenarioRunner::sweep):
    // replay the same schedule on the same world under the empty
    // environment, the faultless twin, and keep only the violations whose
    // party violates there too — those are deviation bugs even on a
    // reliable substrate. Fault-only violations are what the fault layer
    // is DESIGNED to produce (e.g. a naive party starved by a squeeze), so
    // reporting them as fuzz findings would bury real signal.
    inst.adapter->set_environment({});
    const RunOutcome clean = inst.executor->run(s);
    std::vector<sim::Violation> kept;
    for (sim::Violation& v : out.violations) {
      if (!sim::attribute_fault(v, clean.violations)) {
        kept.push_back(std::move(v));
      }
    }
    out.violations = std::move(kept);
  }
  if (!out.violations.empty()) {
    const std::string label = schedule_label(in, *inst.adapter, suffix);
    for (sim::Violation& v : out.violations) v.schedule = label;
  }
  return out;
}

}  // namespace xchain::fuzz
