#pragma once

// Shared plumbing of the perfbench program: timing, order statistics, the
// result record every workload fills, and the in-memory span recorder the
// traced runs use.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile over an ascending vector: index p*(n-1)/100,
/// the convention load::run_load uses for its latency percentiles.
double percentile_sorted(const std::vector<double>& sorted, int p);

/// Workload sizes: `full` is the benchmark, `tiny` the self-test.
enum class Size { kFull, kTiny };

/// Everything one invocation needs to know.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string corpus_dir = "tests/fuzz_corpus";
  std::string out_dir = ".bench_build/out";
  /// Stop after set-up: report setup_s only (run.py samples it this way in
  /// several fresh processes).
  bool setup_only = false;
  /// Entry into main; setup_s runs from here to the start of the timed call.
  Clock::time_point started = Clock::now();
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a run reports: the correctness verdict, the operation counts and
/// the named metrics (in emission order).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> errors;

  void put(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), Metric{value, std::move(unit)});
  }
  /// Records a correctness gate; a false `ok` fails the run with `what`.
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

/// One traced interval: a call into a layer, made from the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
  std::string tag;  ///< instance / schedule / protocol id, may be empty
};

/// Keeps spans in memory; write() emits them as Chrome trace-event JSON
/// (loadable in Perfetto) once the run is over.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int begin(const char* name, int parent, std::string tag = {}) {
    spans_.push_back(Span{name, now_ns(), 0, parent, std::move(tag)});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Writes every span to `path`; false on an I/O failure.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Pins the calling thread to each CPU it may use, in turn, and restores
/// its original CPU set when destroyed. On a shared host the CPUs of one
/// machine run the same code at different speeds at the same moment, and
/// the OS keeps a serial process on whichever it started on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the thread to the next allowed CPU.
  void next();

 private:
  std::vector<int> cpus_;  ///< allowed at construction; empty if unknown
  std::size_t at_ = 0;
};

/// Calls `rep` until `seconds` have elapsed and at least `min_reps` calls
/// were made, each call on the next CPU the process may use.
template <class Rep>
void repeat_for(double seconds, int min_reps, Rep&& rep) {
  CpuRotation cpus;
  const auto t0 = Clock::now();
  for (int n = 0; n < min_reps || seconds_since(t0) < seconds; ++n) {
    cpus.next();
    rep();
  }
}

/// The fastest time seen for each unit of work that a run repeats. On a
/// shared host other tenants slow the same work by up to 1.7x, in bursts
/// from a fraction of a second to minutes, so a median over one run still
/// follows the host. The fastest pass over a unit is the least disturbed
/// one, and keeping a minimum per unit lets each unit find its own quiet
/// moment. The timed workloads report work per pass / total().
class BestTimes {
 public:
  explicit BestTimes(std::size_t units) : best_(units, 0) {}

  void add(std::size_t unit, double seconds) {
    double& b = best_[unit];
    if (b == 0 || seconds < b) b = seconds;
  }
  /// Sum of the per-unit minima: one pass over every unit at its fastest.
  double total() const {
    double sum = 0;
    for (const double b : best_) sum += b;
    return sum;
  }

 private:
  std::vector<double> best_;
};

/// Seeds per timed repetition: the load and fuzz workloads average each
/// repetition over kSubSeeds inputs derived from --seed, so a result does
/// not hinge on one arrival or mutation draw.
constexpr int kSubSeeds = 3;
inline std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return seed * kSubSeeds + static_cast<std::uint64_t>(j) + 1;
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

// The three workloads. Each fills `r` with its end-to-end metrics (or, in
// the traced suite, its layers' metrics) and its correctness gates.
void sweep_workload(const Options& opt, Result& r);
void load_workload(const Options& opt, Result& r);
void fuzz_workload(const Options& opt, Result& r);

// Traced suite: per-layer metrics, one part per stressed layer group.
void trace_sweep_layers(const Options& opt, Tracer& tr, Result& r);
void trace_load_layers(const Options& opt, Tracer& tr, Result& r);
void trace_fuzz_layers(const Options& opt, Tracer& tr, Result& r);

}  // namespace perfbench
