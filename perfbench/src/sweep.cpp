// sweep-late-delays: the serial late-delays campaign over every registry
// protocol, plus the traced sim / core / crypto layer probes.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "crypto/schnorr.hpp"
#include "sim/campaign.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using namespace xchain;

/// Schedules the full-size campaign audits: every registry protocol at its
/// defaults under the late-delays strategy space.
constexpr std::size_t kFullSweepSchedules = 2'737'888;

sim::SweepOptions sweep_options(const Options& opt) {
  sim::SweepOptions s;
  s.threads = 1;
  s.strategies.kind = sim::StrategySpace::Kind::kLateDelays;
  // A 1M-schedule budget: the 64-plans-per-party cap binds everywhere but
  // the two four-party bridge spaces, which the budget trims.
  s.strategies.max_schedules = 1'000'000;
  if (opt.size == Size::kTiny) s.strategies.max_plans_per_party = 6;
  return s;
}

struct PreparedSweep {
  sim::CampaignSpec spec;
  std::size_t expected = 0;  ///< schedules the dry run counted
};

/// Expands the campaign and counts its schedules without running any. The
/// seed only rotates the protocol order: the sweep is exhaustive.
PreparedSweep prepare_sweep(const Options& opt) {
  PreparedSweep p;
  p.spec.sweep = sweep_options(opt);
  std::vector<std::string> names = sim::ProtocolRegistry::global().names();
  std::rotate(names.begin(),
              names.begin() + static_cast<std::ptrdiff_t>(opt.seed %
                                                          names.size()),
              names.end());
  for (std::string& n : names) p.spec.entries.push_back({std::move(n), {}, {}});
  p.expected = sim::Campaign(p.spec).dry_run().total_schedules();
  return p;
}

}  // namespace

void sweep_workload(const Options& opt, Result& r) {
  const PreparedSweep p = prepare_sweep(opt);
  r.put("setup_s", seconds_since(opt.started), "s");
  if (opt.setup_only) return;
  if (opt.size == Size::kFull) {
    r.gate(p.expected == kFullSweepSchedules,
           "sweep: dry run counts " + std::to_string(p.expected) +
               " schedules, want " + std::to_string(kFullSweepSchedules));
  }

  // The whole campaign is one unit: the report of every pass must match.
  BestTimes best(1);
  std::string first;
  repeat_for(opt.seconds, 3, [&] {
    const auto t0 = Clock::now();
    const sim::CampaignReport rep = sim::Campaign(p.spec).run();
    best.add(0, seconds_since(t0));
    r.attempted += rep.total_schedules();
    r.failed += rep.total_violations();
    r.gate(rep.total_violations() == 0,
           "sweep: " + std::to_string(rep.total_violations()) + " violations");
    r.gate(rep.total_schedules() == p.expected,
           "sweep: ran " + std::to_string(rep.total_schedules()) +
               " schedules, want " + std::to_string(p.expected));
    const std::string text = rep.str();
    if (first.empty()) first = text;
    r.gate(text == first, "sweep: report differs between repetitions");
  });

  r.put("audited_runs_per_s", static_cast<double>(p.expected) / best.total(),
        "1/s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
}

void trace_sweep_layers(const Options& opt, Tracer& tr, Result& r) {
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  const sim::SweepOptions opts = sweep_options(opt);
  const double min_probe_s = opt.size == Size::kTiny ? 0.002 : 0.05;

  // sim: one tree-executed sweep per protocol.
  const int sweep_root = tr.begin("sweep", -1);
  std::size_t total = 0;
  for (const std::string& name : registry.names()) {
    const auto adapter = registry.make(name);
    const int span = tr.begin("sim.ScenarioRunner::sweep", sweep_root, name);
    const sim::SweepReport rep = sim::ScenarioRunner(*adapter).sweep(opts);
    const double wall = tr.end(span);
    total += rep.schedules_run;
    r.attempted += rep.schedules_run;
    r.failed += rep.violations.size();
    r.gate(rep.ok(), "sweep " + name + ": " +
                         std::to_string(rep.violations.size()) + " violations");
    r.put("sweep." + name + ".s", wall, "s");
    r.put("sweep." + name + ".nodes_executed",
          static_cast<double>(rep.nodes_executed), "count");
    r.put("sweep." + name + ".dedup_ratio",
          static_cast<double>(rep.dedup_hits) /
              static_cast<double>(std::max<std::size_t>(1, rep.schedules_run)),
          "ratio");
  }
  tr.end(sweep_root);
  if (opt.size == Size::kFull) {
    r.gate(total == kFullSweepSchedules,
           "traced sweep ran " + std::to_string(total) + " schedules, want " +
               std::to_string(kFullSweepSchedules));
  }

  // core: brute-force engine runs over each protocol's halt-only space,
  // repeated until the probe has run long enough to time.
  std::vector<std::pair<std::string, std::vector<sim::PartyOutcome>>> runs;
  const int core_root = tr.begin("core", -1);
  for (const std::string& name : registry.names()) {
    const auto adapter = registry.make(name);
    const std::vector<sim::Schedule> space =
        sim::ScenarioRunner(*adapter).enumerate();
    adapter->run(space.front());  // builds the reusable world untimed
    const int span = tr.begin("core.ProtocolAdapter::run", core_root, name);
    const auto t0 = Clock::now();
    std::size_t n = 0;
    for (bool first_pass = true; first_pass || seconds_since(t0) < min_probe_s;
         first_pass = false) {
      for (const sim::Schedule& s : space) {
        std::vector<sim::PartyOutcome> out = adapter->run(s);
        if (first_pass) runs.emplace_back(s.label, std::move(out));
        ++n;
      }
    }
    const double wall = tr.end(span);
    r.put("core." + name + ".run_us", wall / static_cast<double>(n) * 1e6,
          "us");
  }
  tr.end(core_root);

  // sim: the payoff audit alone, over the outcomes the core probe collected.
  std::vector<sim::Violation> violations;
  std::size_t audits = 0;
  const int audit_span = tr.begin("sim.audit_schedule", -1);
  const auto t0 = Clock::now();
  do {
    for (const auto& [label, outcomes] : runs) {
      sim::audit_schedule(label, outcomes, violations);
      ++audits;
    }
  } while (seconds_since(t0) < min_probe_s);
  const double audit_wall = tr.end(audit_span);
  r.gate(violations.empty(), std::to_string(violations.size()) +
                                 " halt-only audits found violations");
  r.put("sim.audit_us", audit_wall / static_cast<double>(audits) * 1e6, "us");

  // crypto: uncached Schnorr signing and verification of a 64-byte message.
  const crypto::KeyPair keys = crypto::keygen("perfbench");
  crypto::Bytes msg(64);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(opt.seed + i);
  }
  std::vector<crypto::Signature> sigs;
  const int sign_span = tr.begin("crypto.sign", -1);
  const auto s0 = Clock::now();
  do {
    msg[0] = static_cast<std::uint8_t>(sigs.size());
    sigs.push_back(crypto::sign(keys.priv, keys.pub, msg));
  } while (seconds_since(s0) < min_probe_s);
  const double sign_wall = tr.end(sign_span);
  const int verify_span = tr.begin("crypto.verify", -1);
  bool all_valid = true;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    msg[0] = static_cast<std::uint8_t>(i);
    all_valid = crypto::verify(keys.pub, msg, sigs[i]) && all_valid;
  }
  const double verify_wall = tr.end(verify_span);
  r.gate(all_valid, "crypto: a fresh signature failed to verify");
  const double n_sigs = static_cast<double>(sigs.size());
  r.put("crypto.sign_us", sign_wall / n_sigs * 1e6, "us");
  r.put("crypto.verify_us", verify_wall / n_sigs * 1e6, "us");
}

}  // namespace perfbench
