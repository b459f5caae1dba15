#include "fuzz/target.hpp"

#include <algorithm>
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

Instance& InstancePool::instance_for(const FuzzInput& in) {
  // Key by the schema-normalized override string so "delta=2" on a
  // delta-2-default protocol shares the defaults instance. The environment
  // is no part of the key: run() installs it per run.
  const sim::ParamSet params = in.params(target_.schema);
  std::string key = params.overrides_str();
  auto it = instances_.find(key);
  if (it != instances_.end()) return *it->second;

  auto inst = std::make_unique<Instance>();
  inst->params = params;
  inst->overrides_label = key;
  inst->adapter = target_.factory(params);
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
  instances_.emplace(key, std::move(inst));
  return ref;
}

FuzzInput InstancePool::canonical(const FuzzInput& in) {
  Instance& inst = instance_for(in);
  return canonical_input(in, *inst.adapter, target_.schema);
}

RunOutcome InstancePool::run(const FuzzInput& in) {
  Instance& inst = instance_for(in);
  chain::ChainEnvironment env = in.environment();
  const bool faulted = env.active();
  // The label keeps the environment text, so a violation names the
  // substrate it ran on.
  std::string label = inst.overrides_label;
  if (faulted) {
    if (!label.empty()) label += ' ';
    label += env.str();
  }
  inst.adapter->set_environment(std::move(env));
  RunOutcome out = inst.executor->run(schedule_of(in, *inst.adapter, label));
  if (!faulted) return out;
  // A fault run whose consult path matches the bare run's must not
  // collide with it in coverage space: the substrate behaved differently
  // even if the parties consulted the same decisions.
  sig_mix(out.signature, fnv1a(label));
  if (out.violations.empty()) return out;

  // Fault attribution (sim::attribute_fault, as in ScenarioRunner::sweep):
  // replay the same schedule on the same world under the empty
  // environment, the faultless twin, and keep only the violations whose
  // party violates there too — those are deviation bugs even on a
  // reliable substrate. Fault-only violations are what the fault layer is
  // DESIGNED to produce (e.g. a naive party starved by a squeeze), so
  // reporting them as fuzz findings would bury real signal.
  inst.adapter->set_environment({});
  const RunOutcome clean = inst.executor->run(
      schedule_of(in, *inst.adapter, inst.overrides_label));
  std::vector<sim::Violation> kept;
  for (sim::Violation& v : out.violations) {
    if (!sim::attribute_fault(v, clean.violations)) {
      kept.push_back(std::move(v));
    }
  }
  out.violations = std::move(kept);
  return out;
}

}  // namespace xchain::fuzz
