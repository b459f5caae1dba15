#include "fuzz/harness.hpp"

#include <chrono>
#include <unordered_set>

#include "common/json.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/shrink.hpp"

namespace xchain::fuzz {

namespace {

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

  // Admission and shrink bookkeeping only ever asks "seen before?".
  std::vector<FuzzInput> corpus;
  std::unordered_set<std::uint64_t> signatures;
  std::unordered_set<std::string> corpus_keys;  // canonical texts in `corpus`
  std::unordered_set<std::string> shrunk_from;  // violating inputs shrunk
  std::unordered_set<std::string> repro_keys;   // minimized texts recorded
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
      // The parent and donor are read in place: mutate() returns the
      // mutant before consider() can grow or evict a corpus slot.
      const FuzzInput& parent =
          corpus.empty() ? base : corpus[rng.below(corpus.size())];
      const FuzzInput* donor =
          corpus.size() >= 2 ? &corpus[rng.below(corpus.size())] : nullptr;
      consider(mutator.mutate(parent, pool.instance_for(parent), donor, rng));
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
                             const BuildStamp& stamp) {
  JsonWriter w;
  w.field("benchmark", "fuzz");
  stamp.write(w);
  w.field("seed", report.seed)
      .field("budget_runs", report.budget_runs)
      .field("replay_only", report.replay_only)
      .field("runs", report.total_runs())
      .field("violating_runs", report.total_violating_runs())
      .field("reproducers", report.total_reproducers())
      .begin_array("targets");
  for (const TargetFuzzResult& t : report.targets) {
    w.begin_object()
        .field("protocol", t.protocol)
        .field("runs", t.runs)
        .field("corpus_entries", t.corpus_entries)
        .field("unique_signatures", t.unique_signatures)
        .field("violating_runs", t.violating_runs)
        .field("skipped_inputs", t.skipped_inputs)
        .field("instances", t.instances)
        .begin_array("reproducers");
    for (const Reproducer& rep : t.reproducers) {
      w.begin_object()
          .field("input", rep.input)
          .field("violation", rep.violation)
          .field("found_at_run", rep.found_at_run)
          .field("shrink_steps", rep.shrink_steps)
          .field("shrink_probes", rep.shrink_probes)
          .end();
    }
    w.end().end();
  }
  w.end();
  return w.finish();
}

}  // namespace xchain::fuzz
