// perfbench: one benchmark over the repository's three workloads.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|tiny] [--corpus DIR] [--out DIR] [--setup-only]
//
// Workloads (see perfbench/README.md for why each was chosen):
//   sweep-late-delays  serial late-delays campaign over all 10 protocols
//   load-shared-10k    10,000-user shared-chain load run
//   fuzz-registry      corpus-seeded fuzzing of all 10 protocols
//
// --trace 0 repeats the workload's timed call for --seconds and reports the
// end-to-end metrics; --trace 1 runs the traced suite instead, which drives
// every measured layer through its public calls and reports per-layer
// metrics (spans are written to --out as Chrome trace-event JSON). Both
// print one JSON object on the last line of stdout and exit 1 when a
// correctness gate fails, 2 on bad usage. --setup-only stops after set-up
// and reports setup_s alone.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
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

std::string result_json(const Result& r, const std::string& trace_file) {
  std::string j = "{\"correct\": ";
  j += r.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(r.attempted);
  j += ", \"failed\": " + std::to_string(r.failed);
  j += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    j += (i ? ", \"" : "\"") + json_escape(name) + "\": {\"value\": " + buf +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  j += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    j += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  }
  j += "], \"stamp\": {\"build_type\": \"" PERFBENCH_BUILD_TYPE
       "\", \"compiler\": \"" PERFBENCH_COMPILER
       "\", \"hardware_threads\": " +
       std::to_string(std::thread::hardware_concurrency()) + "}";
  if (!trace_file.empty()) {
    j += ", \"trace_file\": \"" + json_escape(trace_file) + "\"";
  }
  return j + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                 [--size full|tiny] [--corpus DIR] "
               "[--out DIR] [--setup-only]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed wants an integer");
      opt.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1) return usage("--seconds wants >= 1");
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace wants 0 or 1");
      opt.trace = n == 1;
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") == 0) {
        opt.size = Size::kFull;
      } else if (std::strcmp(value, "tiny") == 0) {
        opt.size = Size::kTiny;
      } else {
        return usage("--size wants full or tiny");
      }
    } else if (flag == "--corpus") {
      opt.corpus_dir = value;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  const bool known = opt.workload == "sweep-late-delays" ||
                     opt.workload == "load-shared-10k" ||
                     opt.workload == "fuzz-registry";
  if (!known) return usage(("unknown workload '" + opt.workload + "'").c_str());

  Result r;
  std::string trace_file;
  try {
    if (opt.trace && !opt.setup_only) {
      Tracer tr;
      trace_sweep_layers(opt, tr, r);
      trace_load_layers(opt, tr, r);
      trace_fuzz_layers(opt, tr, r);
      std::filesystem::create_directories(opt.out_dir);
      trace_file = opt.out_dir + "/trace-" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".json";
      if (!tr.write(trace_file)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_file.c_str());
        return 2;
      }
    } else if (opt.workload == "sweep-late-delays") {
      sweep_workload(opt, r);
    } else if (opt.workload == "load-shared-10k") {
      load_workload(opt, r);
    } else {
      fuzz_workload(opt, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // A run that failed a gate reports no metrics: its numbers measured
  // something other than the declared traffic.
  if (!r.correct) r.metrics.clear();
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", e.c_str());
  }
  std::printf("%s\n", result_json(r, trace_file).c_str());
  return r.correct ? 0 : 1;
}
