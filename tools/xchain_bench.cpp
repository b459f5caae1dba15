// xchain-bench: shared-chain load generator CLI (src/load/load_gen.hpp).
//
//   xchain-bench [--users=N] [--threads=N] [--seed=N]
//                [--mix=proto:w,proto:w,...] [--gap=N] [--cap=N]
//                [--max-fee=N] [--scaling=1,2,4,8] [--json=PATH] [--quiet]
//
// Binds --users protocol instances (drawn from the weighted --mix of
// registry protocols) onto ONE shared MultiChain under a seeded arrival
// process and drives them to completion. Blocks are capacity-bounded
// (--cap), so instances outbid each other through fee escalation —
// organic congestion, no synthetic spam. Every instance is audited at its
// end tick (sim::audit_schedule): the paper's hedged floors, asset safety,
// and liveness — an all-conforming instance that never completed is a
// violation. Violations are re-attributed against a faultless twin
// ([chain-fault]). The report is identical at any --threads value except
// wall-time fields.
//
// --scaling re-runs the identical load at each listed thread count and
// records the wall-time curve, checking along the way that every report
// field above the wall-time block (counts, latency stats, per-protocol
// rows, each violation and its attribution) matches the primary run.
// --json (default BENCH_load.json) writes the artifact
// scripts/bench_compare.py gates on.
//
// Exit status: 0 = clean (every violation, if any, attributed to
// congestion), 1 = unattributed violations or scaling mismatch, 2 =
// usage / parameter error.

#include <climits>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "load/load_gen.hpp"

namespace {

using namespace xchain;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xchain-bench [--users=N] [--threads=N] [--seed=N]\n"
      "                    [--mix=proto:w,proto:w,...] [--gap=N] [--cap=N]\n"
      "                    [--max-fee=N] [--scaling=N,N,...] [--json=PATH]\n"
      "                    [--quiet]\n"
      "\n"
      "Shared-chain load generator: runs --users concurrent protocol\n"
      "instances (default 1000), drawn from the weighted --mix of registry\n"
      "protocols (default two-party:2,broker:1,bridge-transfer:1), on ONE\n"
      "shared MultiChain. Arrivals are seeded (--seed, inter-arrival\n"
      "uniform in [0, --gap] ticks); every block admits at most --cap\n"
      "transactions (default 4; 0 = unbounded), so instances compete for\n"
      "block space through fee escalation (ceiling --max-fee, default 64).\n"
      "Every instance is audited at its end tick: hedged floors, asset\n"
      "safety, and liveness (an all-conforming instance that never\n"
      "completed is a violation). Violating protocols re-run solo on a\n"
      "faultless world — congestion-caused violations are reported as\n"
      "[chain-fault], anything unattributed fails.\n"
      "--threads=N parallelizes the actor tick phase (0 = one worker per\n"
      "hardware thread); the report is identical at any count except wall\n"
      "time. --scaling=1,2,4,8 re-runs the load at each count, fails unless\n"
      "every non-wall report field matches, and appends the thread-scaling\n"
      "curve to the JSON artifact (--json, default BENCH_load.json).\n"
      "Exit: 0 clean, 1 unattributed violations or a scaling mismatch, 2\n"
      "bad usage.\n");
}

/// "proto:w,proto:w" -> mix entries (weight defaults to 1).
bool parse_mix(const std::string& spec, std::vector<load::MixEntry>& out) {
  for (const std::string& item : split_list(spec)) {
    load::MixEntry entry;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      entry.protocol = item;
    } else {
      entry.protocol = item.substr(0, colon);
      long long w = 0;
      if (!parse_long(item.substr(colon + 1), 1, INT_MAX, w)) return false;
      entry.weight = static_cast<int>(w);
    }
    if (entry.protocol.empty()) return false;
    out.push_back(std::move(entry));
  }
  return !out.empty();
}

/// One latency object: tick counts, or wall seconds when
/// `seconds_per_tick` is positive.
void json_latency(JsonWriter& w, const char* key, const load::LatencyStats& s,
                  double seconds_per_tick) {
  w.begin_object(key, JsonWriter::Layout::kOneLine);
  if (seconds_per_tick > 0) {
    w.field("p50", static_cast<double>(s.p50) * seconds_per_tick, 6)
        .field("p95", static_cast<double>(s.p95) * seconds_per_tick, 6)
        .field("p99", static_cast<double>(s.p99) * seconds_per_tick, 6)
        .field("max", static_cast<double>(s.max) * seconds_per_tick, 6)
        .field("mean", s.mean * seconds_per_tick, 6);
  } else {
    w.field("p50", s.p50)
        .field("p95", s.p95)
        .field("p99", s.p99)
        .field("max", s.max)
        .field("mean", s.mean, 3);
  }
  w.end();
}

struct ScalingPoint {
  unsigned threads = 0;
  double wall_seconds = 0;
  double instances_per_second = 0;
};

/// `n` per wall second of `report` (0 when no time was measured).
double per_second(const load::LoadReport& report, std::size_t n) {
  return report.wall_seconds > 0
             ? static_cast<double>(n) / report.wall_seconds
             : 0.0;
}

/// BENCH_load.json. Everything above the wall-time block is a pure function
/// of the configuration (byte-identical at any --threads); everything from
/// "wall_seconds" down is measured. Consumers comparing artifacts across
/// thread counts strip "threads" and the keys from there down.
std::string load_json(const load::LoadConfig& cfg,
                      const load::LoadReport& report,
                      const std::vector<ScalingPoint>& curve) {
  using Layout = JsonWriter::Layout;
  JsonWriter w;
  w.field("benchmark", "load");
  build_stamp().write(w);
  w.field("users", cfg.users)
      .field("threads", cfg.threads)
      .field("seed", cfg.seed)
      .field("arrival_gap", cfg.arrival_gap)
      .field("block_capacity", cfg.block_capacity)
      .field("max_fee", cfg.max_fee)
      .begin_array("mix", Layout::kOneLine);
  for (const load::MixEntry& m : cfg.mix) {
    w.begin_object(Layout::kOneLine)
        .field("protocol", m.protocol)
        .field("weight", m.weight)
        .end();
  }
  w.end()
      .field("instances", report.instances)
      .field("txs_included", report.txs_included)
      .field("chains", report.chains)
      .field("ticks", report.ticks);
  json_latency(w, "latency_ticks", report.latency, 0.0);
  w.begin_array("protocols");
  for (const load::ProtocolStats& p : report.per_protocol) {
    w.begin_object(Layout::kOneLine)
        .field("name", p.protocol)
        .field("instances", p.instances)
        .field("txs_included", p.txs_included)
        .field("violations", p.violations)
        .field("fault_caused", p.fault_caused);
    json_latency(w, "latency_ticks", p.latency, 0.0);
    w.end();
  }
  w.end()
      .field("violations", report.violations.size())
      .field("fault_caused", report.fault_caused)
      .field("unattributed", report.unattributed)
      .field("peak_live_instances", report.peak_live_instances)
      .field("wall_seconds", report.wall_seconds, 6)
      .field("instances_per_second", per_second(report, report.instances), 3)
      .field("txs_per_second", per_second(report, report.txs_included), 3);
  const double seconds_per_tick =
      report.ticks > 0 ? report.wall_seconds / static_cast<double>(report.ticks)
                       : 0.0;
  json_latency(w, "latency_wall_seconds", report.latency, seconds_per_tick);
  if (!curve.empty()) {
    w.begin_array("scaling");
    for (const ScalingPoint& p : curve) {
      w.begin_object(Layout::kOneLine)
          .field("threads", p.threads)
          .field("wall_seconds", p.wall_seconds, 6)
          .field("instances_per_second", p.instances_per_second, 3)
          .end();
    }
    w.end();
  }
  return w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  load::LoadConfig cfg;
  cfg.users = 1000;
  std::string json_path = "BENCH_load.json";
  std::vector<unsigned> scaling;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    long long v = 0;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--users=", 0) == 0) {
      if (!parse_long(value_of("--users="), 1, 10'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --users=N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      cfg.users = static_cast<std::size_t>(v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parse_long(value_of("--threads="), 0, 1024, v)) {
        std::fprintf(stderr,
                     "xchain-bench: invalid %s (want --threads=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.threads = resolve_threads(static_cast<unsigned>(v));
    } else if (arg.rfind("--seed=", 0) == 0) {
      unsigned long long seed = 0;
      if (!parse_ulong(value_of("--seed="), seed)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --seed=N)\n",
                     arg.c_str());
        return 2;
      }
      cfg.seed = seed;
    } else if (arg.rfind("--gap=", 0) == 0) {
      if (!parse_long(value_of("--gap="), 0, 1'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --gap=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.arrival_gap = static_cast<Tick>(v);
    } else if (arg.rfind("--cap=", 0) == 0) {
      if (!parse_long(value_of("--cap="), 0, 1'000'000, v)) {
        std::fprintf(stderr, "xchain-bench: invalid %s (want --cap=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.block_capacity = static_cast<int>(v);
    } else if (arg.rfind("--max-fee=", 0) == 0) {
      if (!parse_long(value_of("--max-fee="), 0, LLONG_MAX / 2, v)) {
        std::fprintf(stderr,
                     "xchain-bench: invalid %s (want --max-fee=N >= 0)\n",
                     arg.c_str());
        return 2;
      }
      cfg.max_fee = static_cast<Amount>(v);
    } else if (arg.rfind("--mix=", 0) == 0) {
      cfg.mix.clear();
      if (!parse_mix(value_of("--mix="), cfg.mix)) {
        std::fprintf(
            stderr,
            "xchain-bench: invalid %s (want --mix=proto:w,proto:w,...)\n",
            arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--scaling=", 0) == 0) {
      const std::vector<std::string> items = split_list(value_of("--scaling="));
      scaling.clear();
      for (const std::string& item : items) {
        if (!parse_long(item, 1, 1024, v)) break;
        scaling.push_back(static_cast<unsigned>(v));
      }
      if (items.empty() || scaling.size() != items.size()) {
        std::fprintf(stderr,
                     "xchain-bench: invalid %s (want --scaling=N,N,...)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value_of("--json=");
      if (json_path.empty()) {
        std::fprintf(stderr, "xchain-bench: invalid --json= (want PATH)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "xchain-bench: unknown argument '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  if (cfg.mix.empty()) {
    cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  }

  load::LoadReport report;
  std::vector<ScalingPoint> curve;
  bool scaling_mismatch = false;
  try {
    report = load::run_load(cfg);
    for (unsigned t : scaling) {
      load::LoadConfig scfg = cfg;
      scfg.threads = t;
      const load::LoadReport r = load::run_load(scfg);
      curve.push_back({t, r.wall_seconds, per_second(r, r.instances)});
      if (!r.same_outcome(report)) {
        std::fprintf(stderr,
                     "xchain-bench: report at --threads=%u diverges from the "
                     "primary run — thread-count nondeterminism\n",
                     t);
        scaling_mismatch = true;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xchain-bench: %s\n", e.what());
    return 2;
  }

  if (!quiet) {
    std::printf(
        "load: %zu instances over %lld ticks on %zu shared chains "
        "(%zu txs, %u threads, %.3fs wall)\n",
        report.instances, static_cast<long long>(report.ticks), report.chains,
        report.txs_included, cfg.threads, report.wall_seconds);
    std::printf("  throughput: %.0f instances/s, %.0f txs/s\n",
                per_second(report, report.instances),
                per_second(report, report.txs_included));
    std::printf(
        "  completion latency: p50=%lld p95=%lld p99=%lld max=%lld ticks "
        "(mean %.1f)\n",
        static_cast<long long>(report.latency.p50),
        static_cast<long long>(report.latency.p95),
        static_cast<long long>(report.latency.p99),
        static_cast<long long>(report.latency.max), report.latency.mean);
    for (const load::ProtocolStats& p : report.per_protocol) {
      std::printf(
          "  %-18s %6zu instances  %7zu txs  p50=%lld p95=%lld p99=%lld\n",
          p.protocol.c_str(), p.instances, p.txs_included,
          static_cast<long long>(p.latency.p50),
          static_cast<long long>(p.latency.p95),
          static_cast<long long>(p.latency.p99));
    }
    std::printf("  violations: %zu (%zu [chain-fault], %zu unattributed)\n",
                report.violations.size(), report.fault_caused,
                report.unattributed);
    std::printf("  live instances: at most %zu bound at once\n",
                report.peak_live_instances);
    for (const ScalingPoint& p : curve) {
      std::printf("  scaling: %2u threads  %.3fs  %.0f instances/s\n",
                  p.threads, p.wall_seconds, p.instances_per_second);
    }
  }

  if (!write_file("xchain-bench", json_path, load_json(cfg, report, curve))) {
    return 2;
  }
  if (!quiet) std::printf("wrote %s\n", json_path.c_str());

  if (report.unattributed > 0) {
    std::fprintf(stderr,
                 "xchain-bench: %zu unattributed hedging violations — the "
                 "floors failed without congestion to blame\n",
                 report.unattributed);
    return 1;
  }
  return scaling_mismatch ? 1 : 0;
}
