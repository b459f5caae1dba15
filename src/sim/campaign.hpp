#pragma once

// Declarative sweep campaigns: many protocol configurations, one run.
//
// A CampaignSpec lists (protocol name, fixed overrides, parameter grid)
// entries; Campaign::run() resolves every entry through a ProtocolRegistry,
// expands each grid into its cross product of ParamSets (capped, with an
// explicit truncation report), runs the full deviation-schedule sweep on
// every resulting configuration, and aggregates a CampaignReport whose
// per-configuration order is deterministic — entry order, then grid
// row-major order — whatever the worker-thread count. This is the
// substrate the `xchain-sweep` CLI, the CI campaign artifact, and future
// fuzzing/scaling work all drive through: the paper's guarantee is
// quantified over all protocol parameters, and a campaign is how a slice
// of that quantifier gets audited in one command.

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/param.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {

/// One campaign line: a registered protocol, fixed parameter overrides
/// (applied to every grid point), and a grid of swept axes (empty grid =
/// the single overridden-defaults configuration). A key may be overridden
/// once, and be an override or an axis, not both: expansion throws
/// ParamError otherwise.
struct CampaignEntry {
  std::string protocol;
  std::vector<std::pair<std::string, std::string>> overrides;
  ParamGrid grid;
};

/// What to run: entries, sweep options shared by every configuration, and
/// the per-entry grid-expansion cap.
struct CampaignSpec {
  std::vector<CampaignEntry> entries;
  SweepOptions sweep;
  std::size_t max_configs_per_entry = 4096;

  /// Chain environment (fault plan + party resilience policy) installed on
  /// every configuration's adapter before its sweep — the `--faults=` /
  /// `--resilience=` axis. Inactive by default: campaigns without faults
  /// produce byte-identical reports and JSON artifacts to builds that
  /// predate the fault layer.
  chain::ChainEnvironment environment;
};

/// One configuration's sweep outcome. `protocol` is the registry name;
/// `params` the non-default assignments ("" = pure defaults); the nested
/// SweepReport carries the adapter-level protocol label, violations, and
/// any strategy-space truncation notices.
struct ConfigResult {
  std::string protocol;
  std::string params;
  SweepReport report;

  /// "name[params]: N schedules, ..." — one line, campaign-report form.
  std::string line() const;
};

/// One configuration's dry-run row: how many schedules a sweep WOULD run.
struct DryRunConfig {
  std::string protocol;
  std::string params;
  std::size_t schedules = 0;

  std::string line() const;
};

/// What `xchain-sweep --dry-run` prints: per-configuration schedule counts
/// (plan-space size after the max-deviators filter) without running any.
struct DryRunReport {
  std::vector<DryRunConfig> configs;
  /// Grid-expansion truncation notices, as in CampaignReport.
  std::vector<std::string> truncations;

  std::size_t total_schedules() const;
  std::string str() const;
};

/// Aggregate of a whole campaign, in deterministic configuration order.
struct CampaignReport {
  std::vector<ConfigResult> configs;
  /// Truncation notices: capped grids (one per affected entry) plus any
  /// strategy-space truncations, prefixed with their configuration.
  std::vector<std::string> truncations;
  /// The adversary-strategy space every configuration was swept with —
  /// recorded here so serializers can never mislabel a report's coverage.
  StrategySpace strategies;
  /// The chain environment every configuration ran under (inactive when
  /// the campaign injected no faults); campaign_json only emits the fault
  /// fields when active, keeping fault-free artifacts byte-identical.
  chain::ChainEnvironment environment;
  /// Worker threads the campaign actually used.
  unsigned workers = 1;

  std::size_t configurations() const { return configs.size(); }
  std::size_t total_schedules() const;
  std::size_t total_conforming_audited() const;
  std::size_t total_violations() const;
  /// Executor statistics summed over every configuration (see SweepReport:
  /// brute-force sweeps report nodes_executed == schedules and zero dedup
  /// hits, tree sweeps report the shared-prefix savings).
  std::size_t total_nodes_executed() const;
  std::size_t total_schedules_covered() const;
  std::size_t total_dedup_hits() const;
  /// Violations the attribution pass blamed on injected chain faults
  /// (always 0 when the environment is inactive).
  std::size_t total_fault_caused() const;
  bool ok() const { return total_violations() == 0; }

  /// One line per configuration plus a totals line (and any truncation
  /// notices); violations are detailed under their configuration's line.
  std::string str() const;
};

/// Serializes a report, stamped with `stamp` (see common/json.hpp), as
/// JSON. Schema:
///   { "benchmark": "campaign", "git_commit": ..., "build_type": ...,
///     "compiler": ..., "hardware_threads": N, "strategies": "halt-only" |
///     "timely-delays" | "late-delays", "workers": N, "configurations": N,
///     "schedules_run": N, "conforming_audited": N, "nodes_executed": N,
///     "schedules_covered": N, "dedup_hits": N, "violations": N,
///     "truncations": ["..."],
///     "configs": [ {"protocol": ..., "params": ..., "adapter": ...,
///                   "schedules": N, "conforming_audited": N,
///                   "violations": N, "violation_details": ["..."]} ] }
/// Each config row is one line; "violation_details" appears only on rows
/// with violations. `strategies` names the report's swept StrategySpace
/// (delay menus and caps are documented in sim/strategy_space.hpp,
/// `xchain-sweep --list`). When the campaign's chain environment is active
/// the artifact additionally carries top-level "faults" / "resilience"
/// strings, a top-level "fault_caused" total, and a per-config
/// "fault_caused" count; all of them are omitted for fault-free campaigns
/// so existing artifacts keep their exact bytes.
std::string campaign_json(const CampaignReport& report,
                          const BuildStamp& stamp = build_stamp());

/// Expands and runs one campaign. Configurations are distributed over
/// `spec.sweep.threads` workers (0 = one per hardware thread), each worker
/// sweeping whole configurations serially with its own registry-built
/// adapter — worker threads are reused across configurations instead of
/// being respawned per sweep. A single-configuration campaign degrades to
/// one sharded sweep at the requested thread count. Either way the report
/// is identical to the serial campaign's. Throws RegistryError/ParamError
/// on an unknown protocol or malformed grid before any sweep runs, and
/// std::invalid_argument on malformed SweepOptions.
class Campaign {
 public:
  explicit Campaign(CampaignSpec spec,
                    const ProtocolRegistry& registry =
                        ProtocolRegistry::global())
      : spec_(std::move(spec)), registry_(registry) {}
  /// The registry must outlive the campaign (run() reads it); a temporary
  /// would dangle, so rvalue registries are rejected at compile time.
  Campaign(CampaignSpec, ProtocolRegistry&&) = delete;

  CampaignReport run() const;

  /// Expands the spec and counts each configuration's schedules (the
  /// plan-space size after the max-deviators filter) without running any —
  /// the `--dry-run` path. Same validation/throwing behaviour as run().
  DryRunReport dry_run() const;

 private:
  CampaignSpec spec_;
  const ProtocolRegistry& registry_;
};

}  // namespace xchain::sim
