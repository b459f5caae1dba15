#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/json.hpp"

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

/// Folds per-configuration strategy-space truncation notices into the
/// campaign-level list (prefixed with the configuration), in report order.
void collect_strategy_truncations(CampaignReport& report) {
  for (const ConfigResult& c : report.configs) {
    for (const std::string& t : c.report.truncations) {
      std::string head = c.protocol;
      if (!c.params.empty()) head += "[" + c.params + "]";
      report.truncations.push_back(head + ": " + t);
    }
  }
}

}  // namespace

DryRunReport Campaign::dry_run() const {
  validate_sweep_options(spec_.sweep);
  if (spec_.entries.empty()) {
    throw ParamError("campaign spec has no entries");
  }
  DryRunReport report;
  for (PendingConfig& cfg :
       expand_entries(spec_, registry_, report.truncations)) {
    DryRunConfig row;
    row.protocol = cfg.protocol;
    row.params = cfg.params.overrides_str();
    std::vector<std::string> truncations;
    row.schedules =
        ScenarioRunner(*cfg.adapter).schedule_count(spec_.sweep, &truncations);
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

  // Phase 2: sweep every configuration. A single configuration gets the
  // whole thread budget via the sharded sweep; with several, whole
  // configurations are the unit of work — one pool of workers is reused
  // across all of them (results land at their pending index, so the report
  // order is deterministic whatever the claiming order).
  const auto sweep_one = [](const PendingConfig& cfg,
                            const SweepOptions& opts) {
    ConfigResult result;
    result.protocol = cfg.protocol;
    result.params = cfg.params.overrides_str();
    result.report = ScenarioRunner(*cfg.adapter).sweep(opts);
    return result;
  };

  unsigned threads = spec_.sweep.threads != 0
                         ? spec_.sweep.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (pending.size() == 1) {
    report.configs[0] = sweep_one(pending[0], spec_.sweep);
    report.workers = report.configs[0].report.workers;
    collect_strategy_truncations(report);
    return report;
  }

  // One worker per configuration, with any leftover thread budget pushed
  // down into each configuration's sharded sweep (the parallel sweep is
  // bit-identical to serial, so the report stays deterministic).
  const unsigned outer = static_cast<unsigned>(
      std::min<std::size_t>(threads, pending.size()));
  const unsigned inner =
      std::max(1u, threads / static_cast<unsigned>(pending.size()));
  threads = outer;
  report.workers = std::max(1u, threads);
  const SweepOptions per_config{spec_.sweep.max_deviators, inner,
                                spec_.sweep.strategies};
  if (threads <= 1) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      report.configs[i] = sweep_one(pending[i], per_config);
    }
    collect_strategy_truncations(report);
    return report;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = next.fetch_add(1); i < pending.size();
             i = next.fetch_add(1)) {
          report.configs[i] = sweep_one(pending[i], per_config);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  collect_strategy_truncations(report);
  return report;
}

}  // namespace xchain::sim
