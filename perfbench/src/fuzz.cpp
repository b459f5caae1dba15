// fuzz-registry: corpus-seeded, run-budgeted fuzzing of every registry
// protocol, plus the traced per-target and instance-pool probes.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/input.hpp"
#include "fuzz/target.hpp"
#include "sim/registry.hpp"

namespace perfbench {

namespace {

using namespace xchain;

struct PreparedFuzz {
  std::vector<fuzz::FuzzTarget> targets;
  std::vector<std::vector<fuzz::FuzzInput>> seeds;  ///< per target
};

/// Resolves every registry protocol as a target and parses the seed corpus
/// (every *.fuzz file under `dir`, in file-name order) onto them.
PreparedFuzz prepare_fuzz(const Options& opt) {
  namespace fs = std::filesystem;
  PreparedFuzz p;
  std::vector<std::string> names = sim::ProtocolRegistry::global().names();
  for (const std::string& n : names) {
    p.targets.push_back(fuzz::FuzzTarget::from_registry(n));
  }
  p.seeds.resize(p.targets.size());

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(opt.corpus_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".fuzz") {
      files.push_back(entry.path());
    }
  }
  if (files.empty()) {
    throw std::runtime_error("no .fuzz files in corpus dir " + opt.corpus_dir);
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream f(path);
    std::ostringstream text;
    text << f.rdbuf();
    fuzz::FuzzInput in = fuzz::FuzzInput::parse(text.str());
    for (std::size_t t = 0; t < p.targets.size(); ++t) {
      if (p.targets[t].name == in.protocol) p.seeds[t].push_back(in);
    }
  }
  return p;
}

fuzz::FuzzOptions fuzz_options(const Options& opt,
                               std::vector<fuzz::FuzzInput> seeds) {
  fuzz::FuzzOptions o;
  o.seed = opt.seed;
  o.budget_runs = opt.size == Size::kTiny ? 30 : 2000;
  o.budget_seconds = 0;  // deterministic: the run budget alone ends a target
  o.seeds = std::move(seeds);
  return o;
}

}  // namespace

void fuzz_workload(const Options& opt, Result& r) {
  const PreparedFuzz p = prepare_fuzz(opt);
  r.put("setup_s", seconds_since(opt.started), "s");
  if (opt.setup_only) return;

  // One repetition: every target fuzzed under each derived seed, each
  // (seed, target) pair timed as its own unit. Same seed, same budgets: each
  // seed's report body must repeat byte for byte (the stamp fields are left
  // at their defaults on both sides), so every pass does the same runs.
  const std::size_t n_targets = p.targets.size();
  BestTimes best(kSubSeeds * n_targets);
  std::size_t runs = 0;
  std::vector<std::string> first(kSubSeeds);
  repeat_for(opt.seconds, 3, [&] {
    runs = 0;
    for (int j = 0; j < kSubSeeds; ++j) {
      Options sub = opt;
      sub.seed = sub_seed(opt.seed, j);
      fuzz::FuzzReport rep;
      rep.seed = sub.seed;
      rep.budget_runs = fuzz_options(sub, {}).budget_runs;
      for (std::size_t t = 0; t < n_targets; ++t) {
        const auto t0 = Clock::now();
        rep.targets.push_back(
            fuzz::fuzz_target(p.targets[t], fuzz_options(sub, p.seeds[t])));
        best.add(static_cast<std::size_t>(j) * n_targets + t,
                 seconds_since(t0));
      }
      runs += rep.total_runs();
      r.attempted += rep.total_runs();
      r.failed += rep.total_violating_runs();
      r.gate(rep.ok(), "fuzz seed " + std::to_string(sub.seed) + ": " +
                           std::to_string(rep.total_violating_runs()) +
                           " violating runs");
      const std::string json = fuzz::fuzz_report_json(rep);
      if (first[j].empty()) first[j] = json;
      r.gate(json == first[j], "fuzz seed " + std::to_string(sub.seed) +
                                   ": report differs between same-seed runs");
    }
  });

  r.put("audited_runs_per_s", static_cast<double>(runs) / best.total(), "1/s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
}

void trace_fuzz_layers(const Options& opt, Tracer& tr, Result& r) {
  const PreparedFuzz p = prepare_fuzz(opt);
  const int root = tr.begin("fuzz", -1);

  std::size_t runs = 0, signatures = 0;
  double fuzz_wall = 0;
  std::vector<fuzz::TargetFuzzResult> results;
  for (std::size_t t = 0; t < p.targets.size(); ++t) {
    const std::string& name = p.targets[t].name;
    const int span = tr.begin("fuzz.fuzz_target", root, name);
    results.push_back(
        fuzz::fuzz_target(p.targets[t], fuzz_options(opt, p.seeds[t])));
    const double wall = tr.end(span);
    const fuzz::TargetFuzzResult& res = results.back();
    r.gate(res.ok(), "fuzz " + name + ": " +
                         std::to_string(res.violating_runs) +
                         " violating runs");
    r.attempted += res.runs;
    r.failed += res.violating_runs;
    runs += res.runs;
    signatures += res.unique_signatures;
    fuzz_wall += wall;
    r.put("fuzz." + name + ".execs_per_s",
          static_cast<double>(res.runs) / wall, "1/s");
  }

  // The execution step alone: replay each target's evolved corpus through
  // a fresh instance pool, once untimed to build its worlds, then timed.
  std::size_t replays = 0;
  double replay_wall = 0;
  for (std::size_t t = 0; t < p.targets.size(); ++t) {
    fuzz::InstancePool pool(p.targets[t]);
    std::vector<fuzz::FuzzInput> corpus;
    for (const std::string& text : results[t].corpus) {
      corpus.push_back(fuzz::FuzzInput::parse(text));
    }
    for (const fuzz::FuzzInput& in : corpus) pool.run(in);
    const int span =
        tr.begin("fuzz.InstancePool::run", root, p.targets[t].name);
    std::size_t violating = 0;
    for (const fuzz::FuzzInput& in : corpus) {
      violating += pool.run(in).violating() ? 1 : 0;
    }
    replay_wall += tr.end(span);
    replays += corpus.size();
    r.gate(violating == 0, "fuzz " + p.targets[t].name + ": " +
                               std::to_string(violating) +
                               " corpus entries violate on replay");
  }
  tr.end(root);

  const double pool_run_s = replay_wall / static_cast<double>(replays);
  const double n_runs = static_cast<double>(runs);
  r.put("fuzz.pool_run_us", pool_run_s * 1e6, "us");
  r.put("fuzz.loop_share", 1.0 - n_runs * pool_run_s / fuzz_wall, "ratio");
  r.put("fuzz.signatures_per_run", static_cast<double>(signatures) / n_runs,
        "ratio");
}

}  // namespace perfbench
