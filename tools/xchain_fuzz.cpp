// xchain-fuzz: coverage-guided fuzzing of deviation plans, schedules, and
// protocol parameters, with delta-debugged violation reproducers.
//
//   xchain-fuzz [--protocol=NAME]... [--seed=N] [--budget-runs=N]
//               [--budget-seconds=S] [--corpus=DIR]... [--corpus-out=DIR]
//               [--reproducers=DIR] [--json=PATH] [--max-corpus=N]
//               [--replay] [--self-test] [--quiet]
//
// With no --protocol flags every registry protocol is fuzzed. Each target
// replays the starter seeds plus any --corpus files addressed to it (a
// corpus file's `protocol` line routes it), then mutates until the budget
// is spent. Violating inputs are minimized to canonical reproducers;
// --reproducers=DIR writes them as replayable .fuzz files, --corpus-out=DIR
// saves the evolved corpus for cross-run reuse (the nightly soak cache).
// --replay only replays seeds (the CI corpus-regression mode). --self-test
// fuzzes a planted violating adapter and succeeds only if the harness
// finds the bug AND shrinks it to the pinned canonical reproducer; it
// takes neither --protocol nor --replay.
//
// Determinism: with --budget-seconds unset, output (and the --json report
// body) is a pure function of seed + budgets + corpus.
// Exit status: 0 = clean (or self-test passed), 1 = violations found (or
// self-test failed), 2 = usage / parameter / corpus-format error.
//
// Example (one command line):
//   xchain-fuzz --seed=20260808 --budget-runs=2000
//               --corpus=tests/fuzz_corpus --json=build/FUZZ_report.json

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/selftest.hpp"
#include "sim/registry.hpp"

namespace {

using namespace xchain;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xchain-fuzz [--protocol=NAME]... [--seed=N] "
      "[--budget-runs=N]\n"
      "                   [--budget-seconds=S] [--corpus=DIR]... "
      "[--corpus-out=DIR]\n"
      "                   [--reproducers=DIR] [--json=PATH] "
      "[--max-corpus=N]\n"
      "                   [--replay] [--self-test] [--quiet]\n"
      "\n"
      "Coverage-guided fuzzing over (params x DeviationPlans x schedule\n"
      "interleavings): a seeded deterministic PRNG mutates plan vectors\n"
      "(flip Perform/Delay/Drop, bump delays across the synchrony bound,\n"
      "splice ordinals, cross over plans, jitter parameters in schema\n"
      "bounds), executes each mutant, audits the hedging bound, and keeps\n"
      "mutants whose consult-path execution signature is novel. Violations\n"
      "are delta-debugged to canonical minimal reproducers.\n"
      "\n"
      "  --protocol=NAME     fuzz NAME (repeatable, once per name;\n"
      "                      default: all registry protocols)\n"
      "  --seed=N            PRNG seed (default 1); same seed + budgets =>\n"
      "                      byte-identical report\n"
      "  --budget-runs=N     executions per protocol (default 2000)\n"
      "  --budget-seconds=S  wall-clock bound per protocol (default: none;\n"
      "                      setting it trades determinism for latency)\n"
      "  --corpus=DIR        replay every *.fuzz file in DIR (repeatable;\n"
      "                      files route to their `protocol` line's target)\n"
      "  --corpus-out=DIR    write the evolved corpus entries to DIR\n"
      "  --reproducers=DIR   write minimized reproducers as .fuzz files\n"
      "  --json=PATH         write FUZZ_report.json\n"
      "  --max-corpus=N      in-memory corpus capacity (default 256)\n"
      "  --replay            replay seeds only, no mutation (CI corpus\n"
      "                      regression mode)\n"
      "  --self-test         fuzz the planted violating adapter; exit 0\n"
      "                      only if the bug is found and shrinks to the\n"
      "                      pinned canonical reproducer (not with\n"
      "                      --protocol or --replay)\n"
      "\n"
      "Exit: 0 clean / self-test passed, 1 violations / self-test failed,\n"
      "2 bad usage.\n");
}

bool parse_seconds(const std::string& s, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && errno != ERANGE && out > 0;
}

/// The number of parties `in`'s protocol has under `in`'s own overrides,
/// built by its fuzz target or else by the registry; 0 when neither knows
/// the protocol (the known-target check reports that) or the factory
/// rejects overrides the schema accepts (the fuzz loop skips such an input
/// and counts it). Overrides the schema rejects throw sim::ParamError: a
/// seed naming an unknown key or an out-of-range value is a corpus error,
/// not a skip.
std::size_t party_count_of(const fuzz::FuzzInput& in,
                           const std::vector<fuzz::FuzzTarget>& targets) {
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  const auto target =
      std::find_if(targets.begin(), targets.end(),
                   [&](const fuzz::FuzzTarget& t) {
                     return t.name == in.protocol;
                   });
  if (target != targets.end()) {
    const sim::ParamSet params = in.params(target->schema);
    try {
      return target->factory(params)->party_count();
    } catch (const sim::ParamError&) {
      return 0;
    }
  }
  if (!registry.contains(in.protocol)) return 0;
  const sim::ParamSet params = in.params(registry.defaults(in.protocol));
  try {
    return registry.make(in.protocol, params)->party_count();
  } catch (const sim::ParamError&) {
    return 0;
  }
}

/// Loads every *.fuzz file under `dir` (sorted by filename for replay
/// determinism) into per-protocol seed lists. Returns false (with a
/// message) on unreadable dirs/files, malformed inputs, overrides their
/// protocol's schema rejects, and inputs with a plan for a party their
/// protocol does not have under their overrides
/// (such a plan would never run, and the seed would replay as the
/// all-conforming run without a word).
bool load_corpus_dir(const std::string& dir,
                     const std::vector<fuzz::FuzzTarget>& targets,
                     std::map<std::string, std::vector<fuzz::FuzzInput>>& by,
                     std::string& error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    error = "corpus dir '" + dir + "' is not a directory";
    return false;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".fuzz") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    error = "cannot list corpus dir '" + dir + "': " + ec.message();
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream f(path);
    if (!f) {
      error = "cannot read corpus file '" + path.string() + "'";
      return false;
    }
    std::ostringstream text;
    text << f.rdbuf();
    try {
      fuzz::FuzzInput in = fuzz::FuzzInput::parse(text.str());
      const std::size_t parties = party_count_of(in, targets);
      if (parties > 0 && in.plans.size() > parties) {
        error = "corpus file '" + path.string() + "': plan for party " +
                std::to_string(in.plans.size() - 1) + ", but " +
                in.protocol + " has " + std::to_string(parties) +
                " parties under its overrides";
        return false;
      }
      by[in.protocol].push_back(std::move(in));
    } catch (const std::exception& e) {
      error = "corpus file '" + path.string() + "': " + e.what();
      return false;
    }
  }
  return true;
}

/// Writes `text` to dir/name, creating dir first. Returns false, with the
/// failure reported on stderr, on any I/O error.
bool write_in_dir(const std::string& dir, const std::string& name,
                  const std::string& text) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "xchain-fuzz: cannot create dir '%s': %s\n",
                 dir.c_str(), ec.message().c_str());
    return false;
  }
  return write_file("xchain-fuzz", (fs::path(dir) / name).string(), text);
}

/// "auction-open" -> "auction_open" for reproducer/corpus filenames.
std::string file_stem(const std::string& protocol) {
  std::string out = protocol;
  for (char& c : out) {
    if (c == '-' || c == '/' || c == ' ') c = '_';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzOptions opts;
  std::vector<std::string> protocols;
  std::vector<std::string> corpus_dirs;
  std::string corpus_out, reproducers_dir, json_path;
  bool self_test = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      opts.replay_only = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg.rfind("--protocol=", 0) == 0) {
      // A target named twice would be fuzzed, and counted, twice.
      std::string name = value_of("--protocol=");
      if (std::find(protocols.begin(), protocols.end(), name) !=
          protocols.end()) {
        std::fprintf(stderr, "xchain-fuzz: --protocol=%s given twice\n",
                     name.c_str());
        return 2;
      }
      protocols.push_back(std::move(name));
    } else if (arg.rfind("--seed=", 0) == 0) {
      unsigned long long v = 0;
      if (!parse_ulong(value_of("--seed="), v)) {
        std::fprintf(stderr, "xchain-fuzz: invalid %s (want --seed=N)\n",
                     arg.c_str());
        return 2;
      }
      opts.seed = v;
    } else if (arg.rfind("--budget-runs=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--budget-runs="), 1, LLONG_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-fuzz: invalid %s (want --budget-runs=N, "
                     "N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      opts.budget_runs = static_cast<std::size_t>(v);
    } else if (arg.rfind("--budget-seconds=", 0) == 0) {
      double v = 0;
      if (!parse_seconds(value_of("--budget-seconds="), v)) {
        std::fprintf(stderr,
                     "xchain-fuzz: invalid %s (want --budget-seconds=S, "
                     "S > 0)\n",
                     arg.c_str());
        return 2;
      }
      opts.budget_seconds = v;
    } else if (arg.rfind("--max-corpus=", 0) == 0) {
      long long v = 0;
      if (!parse_long(value_of("--max-corpus="), 1, INT_MAX, v)) {
        std::fprintf(stderr,
                     "xchain-fuzz: invalid %s (want --max-corpus=N, "
                     "N >= 1)\n",
                     arg.c_str());
        return 2;
      }
      opts.max_corpus = static_cast<std::size_t>(v);
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dirs.push_back(value_of("--corpus="));
    } else if (arg.rfind("--corpus-out=", 0) == 0) {
      corpus_out = value_of("--corpus-out=");
      if (corpus_out.empty()) {
        std::fprintf(stderr,
                     "xchain-fuzz: invalid --corpus-out= (want DIR)\n");
        return 2;
      }
    } else if (arg.rfind("--reproducers=", 0) == 0) {
      reproducers_dir = value_of("--reproducers=");
      if (reproducers_dir.empty()) {
        std::fprintf(stderr,
                     "xchain-fuzz: invalid --reproducers= (want DIR)\n");
        return 2;
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = value_of("--json=");
      if (json_path.empty()) {
        std::fprintf(stderr, "xchain-fuzz: invalid --json= (want PATH)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "xchain-fuzz: unknown flag '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  // Resolve targets: the self-test adapter, or the requested (default:
  // all) registry protocols.
  std::vector<fuzz::FuzzTarget> targets;
  if (self_test) {
    if (!protocols.empty()) {
      std::fprintf(stderr,
                   "xchain-fuzz: --self-test and --protocol are mutually "
                   "exclusive\n");
      return 2;
    }
    // The planted bug needs two mutated coordinates, which no starter
    // seed carries, so a replay-only self-test could never pass.
    if (opts.replay_only) {
      std::fprintf(stderr,
                   "xchain-fuzz: --self-test and --replay are mutually "
                   "exclusive\n");
      return 2;
    }
    targets.push_back(fuzz::selftest_target());
  } else {
    if (protocols.empty()) {
      protocols = sim::ProtocolRegistry::global().names();
    }
    for (const std::string& name : protocols) {
      try {
        targets.push_back(fuzz::FuzzTarget::from_registry(name));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "xchain-fuzz: %s\n", e.what());
        return 2;
      }
    }
  }

  // Load seed corpora; every file must parse and name a known target.
  std::map<std::string, std::vector<fuzz::FuzzInput>> seeds_by_protocol;
  for (const std::string& dir : corpus_dirs) {
    std::string error;
    if (!load_corpus_dir(dir, targets, seeds_by_protocol, error)) {
      std::fprintf(stderr, "xchain-fuzz: %s\n", error.c_str());
      return 2;
    }
  }
  for (const auto& [protocol, seeds] : seeds_by_protocol) {
    const bool known =
        std::any_of(targets.begin(), targets.end(),
                    [&](const fuzz::FuzzTarget& t) {
                      return t.name == protocol;
                    }) ||
        (!self_test && sim::ProtocolRegistry::global().contains(protocol));
    if (!known) {
      std::fprintf(stderr,
                   "xchain-fuzz: corpus protocol '%s' is not a known "
                   "target\n",
                   protocol.c_str());
      return 2;
    }
    (void)seeds;
  }

  fuzz::FuzzReport report;
  report.seed = opts.seed;
  report.budget_runs = opts.budget_runs;
  report.replay_only = opts.replay_only;
  try {
    for (const fuzz::FuzzTarget& target : targets) {
      fuzz::FuzzOptions topts = opts;
      const auto it = seeds_by_protocol.find(target.name);
      if (it != seeds_by_protocol.end()) topts.seeds = it->second;
      report.targets.push_back(fuzz::fuzz_target(target, topts));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xchain-fuzz: %s\n", e.what());
    return 2;
  }

  if (!quiet) std::printf("%s\n", report.str().c_str());

  if (!reproducers_dir.empty()) {
    for (const fuzz::TargetFuzzResult& t : report.targets) {
      for (std::size_t i = 0; i < t.reproducers.size(); ++i) {
        const fuzz::Reproducer& r = t.reproducers[i];
        const std::string name = "repro_" + file_stem(t.protocol) + "_" +
                                 std::to_string(i) + ".fuzz";
        const std::string text = "# minimized by xchain-fuzz --seed=" +
                                 std::to_string(opts.seed) + "\n# violation: " +
                                 r.violation + "\n" + r.input;
        if (!write_in_dir(reproducers_dir, name, text)) return 2;
      }
    }
  }

  if (!corpus_out.empty()) {
    // The evolved per-target corpus, one file per entry, named so the next
    // run (the nightly soak restoring its cache) replays them in a stable
    // order and resumes from this run's coverage frontier.
    for (const fuzz::TargetFuzzResult& t : report.targets) {
      for (std::size_t i = 0; i < t.corpus.size(); ++i) {
        char num[24];  // any size_t in decimal, plus the terminator
        std::snprintf(num, sizeof num, "%04zu", i);
        const std::string name =
            "corpus_" + file_stem(t.protocol) + "_" + num + ".fuzz";
        if (!write_in_dir(corpus_out, name, t.corpus[i])) return 2;
      }
    }
  }

  if (!json_path.empty()) {
    if (!write_file("xchain-fuzz", json_path, fuzz::fuzz_report_json(report))) {
      return 2;
    }
    if (!quiet) std::printf("wrote %s\n", json_path.c_str());
  }

  if (self_test) {
    const fuzz::TargetFuzzResult& t = report.targets.front();
    const std::string want = fuzz::selftest_canonical_reproducer();
    const bool found = !t.reproducers.empty();
    const bool canonical =
        found && std::any_of(t.reproducers.begin(), t.reproducers.end(),
                             [&](const fuzz::Reproducer& r) {
                               return r.input == want;
                             });
    if (!found) {
      std::fprintf(stderr,
                   "xchain-fuzz: self-test FAILED: planted violation not "
                   "found in %zu runs\n",
                   t.runs);
      return 1;
    }
    if (!canonical) {
      std::fprintf(stderr,
                   "xchain-fuzz: self-test FAILED: reproducer did not "
                   "minimize to the canonical form:\n%s",
                   want.c_str());
      return 1;
    }
    if (!quiet) std::printf("self-test OK\n");
    return 0;
  }

  return report.ok() ? 0 : 1;
}
