#pragma once

// One-schedule executor for the fuzz harness.
//
// The sweep engine's TreeExecutor (sim/scenario.cpp) is built around
// enumerated spaces: it explores a whole plan-space trie depth-first and
// memoizes by consulted decisions. A fuzzer needs the opposite shape —
// run ONE arbitrary schedule cheaply, over and over, on a reusable world
// — which is exactly ProtocolAdapter::run() (a rewind to the world's
// post-setup snapshot, then the full horizon). This executor adds the
// ConsultLog on the world's persistent actors: the fuzzer's coverage
// signal. The sequence of (party, ordinal, policy, tick) coordinates a
// run actually consulted is a compiler-instrumentation-free execution
// fingerprint — two runs with the same consult path and outcomes
// exercised the same behaviour, however different their raw plan
// encodings look.
//
// Adapters without an engine world (e.g. the planted self-test adapter)
// get an outcome-only signature.

#include <cstdint>
#include <vector>

#include "sim/consult.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/scenario.hpp"

namespace xchain::fuzz {

/// Everything the harness learns from one schedule execution.
struct RunOutcome {
  std::vector<sim::PartyOutcome> outcomes;
  std::vector<sim::Violation> violations;
  std::size_t conforming_audited = 0;
  /// Execution signature: plan variants + consult path (an outcome digest
  /// instead for adapters without an engine world). Two equal signatures
  /// mean the runs exercised identical behaviour.
  std::uint64_t signature = 0;

  bool violating() const { return !violations.empty(); }
};

/// Runs schedules one at a time on `adapter`'s reusable world. The
/// adapter must outlive the executor; the executor attaches a ConsultLog
/// to the frame's actors for its lifetime (detached on destruction), so
/// at most one executor may drive an adapter at a time.
class ScheduleExecutor {
 public:
  explicit ScheduleExecutor(const sim::ProtocolAdapter& adapter);
  ~ScheduleExecutor();

  ScheduleExecutor(const ScheduleExecutor&) = delete;
  ScheduleExecutor& operator=(const ScheduleExecutor&) = delete;

  /// Executes `s` from a clean tick-0 world and audits the outcomes.
  RunOutcome run(const sim::Schedule& s);

 private:
  const sim::ProtocolAdapter& adapter_;
  sim::TreeFrame* frame_ = nullptr;
  sim::ConsultLog log_;
};

}  // namespace xchain::fuzz
