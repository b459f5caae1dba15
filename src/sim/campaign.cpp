#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

// GCC 12's libstdc++ trips -Wrestrict on inlined std::string operator+
// chains (bogus "accessing 9223372036854775810 or more bytes" — GCC PR
// 105651, fixed in GCC 13). The library builds with -Werror, so suppress
// the false positive for just this function; new code builds such strings
// append-only instead.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
std::string campaign_json(const CampaignReport& report,
                          const CampaignStamp& stamp) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"campaign\",\n";
  out += "  \"git_commit\": \"" + json_escape(stamp.git_commit) + "\",\n";
  out += "  \"build_type\": \"" + json_escape(stamp.build_type) + "\",\n";
  out += "  \"compiler\": \"" + json_escape(stamp.compiler) + "\",\n";
  out += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"strategies\": \"" + json_escape(report.strategies.name()) +
         "\",\n";
  if (report.environment.active()) {
    out += "  \"faults\": \"" + json_escape(report.environment.faults.str()) +
           "\",\n";
    out += "  \"resilience\": \"" +
           json_escape(report.environment.resilience.str()) + "\",\n";
    out += "  \"fault_caused\": " +
           std::to_string(report.total_fault_caused()) + ",\n";
  }
  out += "  \"workers\": " + std::to_string(report.workers) + ",\n";
  out += "  \"configurations\": " + std::to_string(report.configurations()) +
         ",\n";
  out += "  \"schedules_run\": " + std::to_string(report.total_schedules()) +
         ",\n";
  out += "  \"conforming_audited\": " +
         std::to_string(report.total_conforming_audited()) + ",\n";
  out += "  \"nodes_executed\": " +
         std::to_string(report.total_nodes_executed()) + ",\n";
  out += "  \"schedules_covered\": " +
         std::to_string(report.total_schedules_covered()) + ",\n";
  out += "  \"dedup_hits\": " + std::to_string(report.total_dedup_hits()) +
         ",\n";
  out +=
      "  \"violations\": " + std::to_string(report.total_violations()) + ",\n";
  out += "  \"truncations\": [";
  bool first = true;
  for (const std::string& t : report.truncations) {
    if (t.empty()) continue;
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(t) + "\"";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"configs\": [\n";
  for (std::size_t i = 0; i < report.configs.size(); ++i) {
    const ConfigResult& c = report.configs[i];
    out += "    {\"protocol\": \"" + json_escape(c.protocol) + "\", ";
    out += "\"params\": \"" + json_escape(c.params) + "\", ";
    out += "\"adapter\": \"" + json_escape(c.report.protocol) + "\", ";
    out += "\"schedules\": " + std::to_string(c.report.schedules_run) + ", ";
    out += "\"conforming_audited\": " +
           std::to_string(c.report.conforming_audited) + ", ";
    out += "\"violations\": " + std::to_string(c.report.violations.size());
    if (report.environment.active()) {
      out += ", \"fault_caused\": " + std::to_string(c.report.fault_caused);
    }
    if (!c.report.violations.empty()) {
      out += ", \"violation_details\": [";
      for (std::size_t v = 0; v < c.report.violations.size(); ++v) {
        if (v > 0) out += ", ";
        out += "\"" + json_escape(c.report.violations[v].str()) + "\"";
      }
      out += "]";
    }
    out += "}";
    out += i + 1 < report.configs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif

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
