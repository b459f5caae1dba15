#include "fuzz/harness.hpp"

#include <chrono>
#include <cstdio>
#include <set>
#include <thread>

#include "fuzz/mutator.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/shrink.hpp"

namespace xchain::fuzz {

namespace {

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

/// Starter corpus beyond the user-provided seeds: the conforming
/// reference, every per-party sore-loser halt, every per-party boundary
/// delay (Δ — the smallest out-of-model lateness), and every
/// protocol-specific dishonesty variant.
std::vector<FuzzInput> starter_seeds(const FuzzTarget& target,
                                     InstancePool& pool) {
  std::vector<FuzzInput> seeds;
  FuzzInput base;
  base.protocol = target.name;
  seeds.push_back(base);
  const Instance& inst = pool.instance_for(base);
  for (std::size_t p = 0; p < inst.party_count(); ++p) {
    if (inst.action_counts[p] > 0) {
      FuzzInput halt = base;
      halt.plans.resize(p + 1);
      halt.plans[p] = sim::DeviationPlan::halt_after(0);
      seeds.push_back(halt);

      FuzzInput late = base;
      late.plans.resize(p + 1);
      late.plans[p] =
          sim::DeviationPlan::conforming().delayed(0, inst.delta);
      seeds.push_back(std::move(late));
    }
    for (const int v : inst.variants[p]) {
      if (v == 0) continue;
      FuzzInput var = base;
      var.plans.resize(p + 1);
      var.plans[p] = sim::DeviationPlan::conforming().with_variant(v);
      seeds.push_back(std::move(var));
    }
  }
  return seeds;
}

}  // namespace

TargetFuzzResult fuzz_target(const FuzzTarget& target,
                             const FuzzOptions& opts) {
  TargetFuzzResult res;
  res.protocol = target.name;

  InstancePool pool(target);
  Mutator mutator(target);
  Rng rng(opts.seed ^ fnv1a(target.name));

  using Clock = std::chrono::steady_clock;
  const bool timed = opts.budget_seconds > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             timed ? opts.budget_seconds : 0));
  const auto out_of_budget = [&] {
    return res.runs >= opts.budget_runs || (timed && Clock::now() >= deadline);
  };

  std::vector<FuzzInput> corpus;
  std::set<std::uint64_t> signatures;
  std::set<std::string> corpus_keys;   // canonical texts in `corpus`
  std::set<std::string> shrunk_from;   // violating inputs already shrunk
  std::set<std::string> repro_keys;    // minimized texts already recorded
  std::size_t shrinks = 0;

  // Executes one raw input: canonicalize, run, admit-on-novelty, and
  // shrink-and-record when it violates.
  const auto consider = [&](const FuzzInput& raw) {
    FuzzInput in;
    try {
      in = pool.canonical(raw);
    } catch (const sim::ParamError&) {
      ++res.skipped_inputs;
      return;
    } catch (const FuzzFormatError&) {
      ++res.skipped_inputs;
      return;
    }
    const RunOutcome out = pool.run(in);
    ++res.runs;
    if (signatures.insert(out.signature).second &&
        corpus_keys.insert(in.str()).second) {
      if (corpus.size() < opts.max_corpus) {
        corpus.push_back(in);
      } else {
        corpus[rng.below(corpus.size())] = in;
      }
    }
    if (!out.violating()) return;
    ++res.violating_runs;
    if (shrinks >= opts.max_shrinks ||
        res.reproducers.size() >= opts.max_reproducers ||
        !shrunk_from.insert(in.str()).second) {
      return;
    }
    ++shrinks;
    const ShrinkResult sr = shrink_input(in, pool);
    if (repro_keys.insert(sr.minimized.str()).second) {
      res.reproducers.push_back(Reproducer{sr.minimized.str(), sr.violation,
                                           res.runs, sr.steps, sr.probes});
    }
  };

  // Phase 1: replay the starter set and the provided seed corpus.
  for (const FuzzInput& seed : starter_seeds(target, pool)) {
    if (out_of_budget()) break;
    consider(seed);
  }
  for (const FuzzInput& seed : opts.seeds) {
    if (out_of_budget()) break;
    consider(seed);
  }

  // Phase 2: mutate until the budget is spent.
  if (!opts.replay_only) {
    FuzzInput base;
    base.protocol = target.name;
    while (!out_of_budget()) {
      // Copy the parent/donor out: consider() may grow or evict corpus
      // slots while the mutant is being built from them.
      const FuzzInput parent =
          corpus.empty() ? base : corpus[rng.below(corpus.size())];
      FuzzInput donor;
      const bool has_donor = corpus.size() >= 2;
      if (has_donor) donor = corpus[rng.below(corpus.size())];
      const Instance& shape = pool.instance_for(parent);
      consider(mutator.mutate(parent, shape, has_donor ? &donor : nullptr,
                              rng));
    }
  }

  res.corpus_entries = corpus.size();
  res.unique_signatures = signatures.size();
  res.instances = pool.size();
  res.corpus.reserve(corpus.size());
  for (const FuzzInput& in : corpus) res.corpus.push_back(in.str());
  return res;
}

std::string TargetFuzzResult::line() const {
  std::string out = protocol + ": " + std::to_string(runs) + " runs, " +
                    std::to_string(unique_signatures) + " signatures, " +
                    std::to_string(corpus_entries) + " corpus entries, " +
                    std::to_string(violating_runs) + " violating runs, " +
                    std::to_string(reproducers.size()) + " reproducers, " +
                    std::to_string(instances) + " instances";
  if (skipped_inputs > 0) {
    out += " (" + std::to_string(skipped_inputs) + " inputs skipped)";
  }
  return out;
}

std::size_t FuzzReport::total_runs() const {
  std::size_t n = 0;
  for (const TargetFuzzResult& t : targets) n += t.runs;
  return n;
}

std::size_t FuzzReport::total_violating_runs() const {
  std::size_t n = 0;
  for (const TargetFuzzResult& t : targets) n += t.violating_runs;
  return n;
}

std::size_t FuzzReport::total_reproducers() const {
  std::size_t n = 0;
  for (const TargetFuzzResult& t : targets) n += t.reproducers.size();
  return n;
}

std::string FuzzReport::str() const {
  std::string out;
  for (const TargetFuzzResult& t : targets) {
    out += t.line() + "\n";
    for (const Reproducer& r : t.reproducers) {
      out += "  reproducer (violation: " + r.violation + "):\n";
      std::size_t start = 0;
      while (start < r.input.size()) {
        std::size_t nl = r.input.find('\n', start);
        if (nl == std::string::npos) nl = r.input.size();
        out += "    " + r.input.substr(start, nl - start) + "\n";
        start = nl + 1;
      }
    }
  }
  out += "fuzz: " + std::to_string(targets.size()) + " protocols, " +
         std::to_string(total_runs()) + " runs, " +
         std::to_string(total_violating_runs()) + " violating runs, " +
         std::to_string(total_reproducers()) + " reproducers";
  return out;
}

std::string fuzz_report_json(const FuzzReport& report,
                             const sim::CampaignStamp& stamp) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"fuzz\",\n";
  out += "  \"git_commit\": \"" + json_escape(stamp.git_commit) + "\",\n";
  out += "  \"build_type\": \"" + json_escape(stamp.build_type) + "\",\n";
  out += "  \"compiler\": \"" + json_escape(stamp.compiler) + "\",\n";
  out += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"seed\": " + std::to_string(report.seed) + ",\n";
  out += "  \"budget_runs\": " + std::to_string(report.budget_runs) + ",\n";
  out += std::string("  \"replay_only\": ") +
         (report.replay_only ? "true" : "false") + ",\n";
  out += "  \"runs\": " + std::to_string(report.total_runs()) + ",\n";
  out += "  \"violating_runs\": " +
         std::to_string(report.total_violating_runs()) + ",\n";
  out += "  \"reproducers\": " + std::to_string(report.total_reproducers()) +
         ",\n";
  out += "  \"targets\": [";
  for (std::size_t i = 0; i < report.targets.size(); ++i) {
    const TargetFuzzResult& t = report.targets[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\n      \"protocol\": \"" + json_escape(t.protocol) + "\",";
    out += "\n      \"runs\": " + std::to_string(t.runs) + ",";
    out += "\n      \"corpus_entries\": " + std::to_string(t.corpus_entries) +
           ",";
    out += "\n      \"unique_signatures\": " +
           std::to_string(t.unique_signatures) + ",";
    out += "\n      \"violating_runs\": " + std::to_string(t.violating_runs) +
           ",";
    out += "\n      \"skipped_inputs\": " + std::to_string(t.skipped_inputs) +
           ",";
    out += "\n      \"instances\": " + std::to_string(t.instances) + ",";
    out += "\n      \"reproducers\": [";
    for (std::size_t r = 0; r < t.reproducers.size(); ++r) {
      const Reproducer& rep = t.reproducers[r];
      out += r ? ",\n        {" : "\n        {";
      out += "\n          \"input\": \"" + json_escape(rep.input) + "\",";
      out += "\n          \"violation\": \"" + json_escape(rep.violation) +
             "\",";
      out += "\n          \"found_at_run\": " +
             std::to_string(rep.found_at_run) + ",";
      out += "\n          \"shrink_steps\": " +
             std::to_string(rep.shrink_steps) + ",";
      out += "\n          \"shrink_probes\": " +
             std::to_string(rep.shrink_probes);
      out += "\n        }";
    }
    out += t.reproducers.empty() ? "]" : "\n      ]";
    out += "\n    }";
  }
  out += report.targets.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace xchain::fuzz
