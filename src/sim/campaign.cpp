#include "sim/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "common/json.hpp"
#include "common/parallel.hpp"

namespace xchain::sim {

namespace {

/// One expanded configuration awaiting its sweep. The adapter is built at
/// expansion time so factory-level validation (e.g. a malformed auction
/// bid list) fails before any sweep runs, not minutes into the campaign.
struct PendingConfig {
  std::string protocol;
  ParamSet params;
  std::unique_ptr<ProtocolAdapter> adapter;
};

}  // namespace

std::string ConfigResult::line() const {
  std::string head = protocol;
  if (!params.empty()) head += "[" + params + "]";
  return head + ": " + report.line();
}

std::string DryRunConfig::line() const {
  std::string head = protocol;
  if (!params.empty()) head += "[" + params + "]";
  return head + ": " + std::to_string(schedules) + " schedules";
}

std::size_t DryRunReport::total_schedules() const {
  std::size_t n = 0;
  for (const DryRunConfig& c : configs) n += c.schedules;
  return n;
}

std::string DryRunReport::str() const {
  std::string out;
  for (const std::string& t : truncations) {
    if (!t.empty()) out += t + "\n";
  }
  for (const DryRunConfig& c : configs) out += c.line() + "\n";
  out += "campaign (dry run): " + std::to_string(configs.size()) +
         " configurations, " + std::to_string(total_schedules()) +
         " schedules";
  return out;
}

std::size_t CampaignReport::total_schedules() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.schedules_run;
  return n;
}

std::size_t CampaignReport::total_conforming_audited() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.conforming_audited;
  return n;
}

std::size_t CampaignReport::total_violations() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.violations.size();
  return n;
}

std::size_t CampaignReport::total_nodes_executed() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.nodes_executed;
  return n;
}

std::size_t CampaignReport::total_schedules_covered() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.schedules_covered;
  return n;
}

std::size_t CampaignReport::total_dedup_hits() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.dedup_hits;
  return n;
}

std::size_t CampaignReport::total_fault_caused() const {
  std::size_t n = 0;
  for (const ConfigResult& c : configs) n += c.report.fault_caused;
  return n;
}

std::string CampaignReport::str() const {
  std::string out;
  for (const std::string& t : truncations) {
    if (!t.empty()) out += t + "\n";
  }
  for (const ConfigResult& c : configs) {
    out += c.line() + "\n";
    for (const Violation& v : c.report.violations) {
      out += "  " + v.str() + "\n";
    }
  }
  out += "campaign: " + std::to_string(configurations()) +
         " configurations, " + std::to_string(total_schedules()) +
         " schedules, " + std::to_string(total_conforming_audited()) +
         " conforming-party audits, " + std::to_string(total_violations()) +
         " violations";
  return out;
}

std::string campaign_json(const CampaignReport& report,
                          const BuildStamp& stamp) {
  using Layout = JsonWriter::Layout;
  JsonWriter w;
  w.field("benchmark", "campaign");
  stamp.write(w);
  w.field("strategies", report.strategies.name());
  if (report.environment.active()) {
    w.field("faults", report.environment.faults.str())
        .field("resilience", report.environment.resilience.str())
        .field("fault_caused", report.total_fault_caused());
  }
  w.field("workers", report.workers)
      .field("configurations", report.configurations())
      .field("schedules_run", report.total_schedules())
      .field("conforming_audited", report.total_conforming_audited())
      .field("nodes_executed", report.total_nodes_executed())
      .field("schedules_covered", report.total_schedules_covered())
      .field("dedup_hits", report.total_dedup_hits())
      .field("violations", report.total_violations());
  w.begin_array("truncations");
  for (const std::string& t : report.truncations) {
    if (!t.empty()) w.item(t);
  }
  w.end().begin_array("configs");
  for (const ConfigResult& c : report.configs) {
    w.begin_object(Layout::kOneLine)
        .field("protocol", c.protocol)
        .field("params", c.params)
        .field("adapter", c.report.protocol)
        .field("schedules", c.report.schedules_run)
        .field("conforming_audited", c.report.conforming_audited)
        .field("violations", c.report.violations.size());
    if (report.environment.active()) {
      w.field("fault_caused", c.report.fault_caused);
    }
    if (!c.report.violations.empty()) {
      w.begin_array("violation_details", Layout::kOneLine);
      for (const Violation& v : c.report.violations) w.item(v.str());
      w.end();
    }
    w.end();
  }
  w.end();
  return w.finish();
}

namespace {

/// Phase 1 of run()/dry_run(): resolve + expand every entry up front, so
/// an unknown protocol or malformed grid fails before the first schedule
/// runs. Grid-truncation notices land in `truncations`.
std::vector<PendingConfig> expand_entries(
    const CampaignSpec& spec, const ProtocolRegistry& registry,
    std::vector<std::string>& truncations) {
  std::vector<PendingConfig> pending;
  for (const CampaignEntry& entry : spec.entries) {
    // Overrides apply in order, so the last of a key named twice would win
    // without a word.
    for (auto it = entry.overrides.begin(); it != entry.overrides.end();
         ++it) {
      for (auto later = std::next(it); later != entry.overrides.end();
           ++later) {
        if (later->first == it->first) {
          throw ParamError(entry.protocol + ": param '" + it->first +
                           "' is overridden twice (" + it->second + ", " +
                           later->second + ")");
        }
      }
    }
    // Every grid point overwrites its axes' keys, so a fixed override of
    // one would be dropped without a word.
    for (const GridAxis& axis : entry.grid.axes()) {
      for (const auto& [key, value] : entry.overrides) {
        if (key == axis.key) {
          throw ParamError(entry.protocol + ": param '" + key +
                           "' is both a fixed override (" + value +
                           ") and a grid axis");
        }
      }
    }
    ParamSet defaults = registry.defaults(entry.protocol);
    for (const auto& [key, value] : entry.overrides) {
      defaults.set(key, value);
    }
    GridExpansion expansion =
        entry.grid.expand(defaults, spec.max_configs_per_entry);
    if (expansion.truncated()) {
      truncations.push_back(entry.protocol + ": " +
                            expansion.truncation_report());
    }
    for (ParamSet& point : expansion.points) {
      PendingConfig cfg;
      cfg.protocol = entry.protocol;
      cfg.adapter = registry.make(entry.protocol, point);
      // Install the campaign's chain environment before the first run:
      // worker clones copy it, and their worlds build with it in place.
      if (spec.environment.active()) {
        cfg.adapter->set_environment(spec.environment);
      }
      cfg.params = std::move(point);
      pending.push_back(std::move(cfg));
    }
  }
  return pending;
}

}  // namespace

DryRunReport Campaign::dry_run() const {
  validate_sweep_options(spec_.sweep);
  if (spec_.entries.empty()) {
    throw ParamError("campaign spec has no entries");
  }
  DryRunReport report;
  std::size_t total = 0;
  for (PendingConfig& cfg :
       expand_entries(spec_, registry_, report.truncations)) {
    DryRunConfig row;
    row.protocol = cfg.protocol;
    row.params = cfg.params.overrides_str();
    std::vector<std::string> truncations;
    row.schedules =
        ScenarioRunner(*cfg.adapter).schedule_count(spec_.sweep, &truncations);
    // Each count fits 64 bits (ScheduleSpace checks that); their sum is
    // checked here, so total_schedules() never wraps.
    if (row.schedules > std::numeric_limits<std::size_t>::max() - total) {
      throw std::invalid_argument(
          "campaign: the configurations' schedules add up to more than a "
          "64-bit count holds");
    }
    total += row.schedules;
    std::string head = row.protocol;
    if (!row.params.empty()) head += "[" + row.params + "]";
    for (const std::string& t : truncations) {
      report.truncations.push_back(head + ": " + t);
    }
    report.configs.push_back(std::move(row));
  }
  return report;
}

CampaignReport Campaign::run() const {
  validate_sweep_options(spec_.sweep);
  if (spec_.entries.empty()) {
    throw ParamError("campaign spec has no entries");
  }

  CampaignReport report;
  report.strategies = spec_.sweep.strategies;
  report.environment = spec_.environment;
  std::vector<PendingConfig> pending =
      expand_entries(spec_, registry_, report.truncations);

  report.configs.resize(pending.size());

  // Phase 2: sweep every configuration. Whole configurations are the unit
  // of work, one worker each, and the thread budget left over is pushed
  // down into each configuration's sharded sweep — so a single
  // configuration gets the whole budget. Results land at their pending
  // index, and the sharded sweep is bit-identical to serial, so the report
  // is deterministic whatever the claiming order.
  const unsigned threads = resolve_threads(spec_.sweep.threads);
  const unsigned outer = static_cast<unsigned>(
      std::clamp<std::size_t>(pending.size(), 1, threads));
  SweepOptions per_config = spec_.sweep;
  per_config.threads = threads / outer;
  parallel_for(outer, pending.size(), [&](unsigned, std::size_t i) {
    ConfigResult& result = report.configs[i];
    result.protocol = pending[i].protocol;
    result.params = pending[i].params.overrides_str();
    result.report = ScenarioRunner(*pending[i].adapter).sweep(per_config);
  });
  report.workers =
      pending.size() == 1 ? report.configs[0].report.workers : outer;
  // Strategy-space truncation notices, prefixed with their configuration,
  // in report order.
  for (const ConfigResult& c : report.configs) {
    for (const std::string& t : c.report.truncations) {
      std::string head = c.protocol;
      if (!c.params.empty()) head += "[" + c.params + "]";
      report.truncations.push_back(head + ": " + t);
    }
  }
  return report;
}

}  // namespace xchain::sim
