#include "fuzz/executor.hpp"

#include "fuzz/rng.hpp"

namespace xchain::fuzz {

namespace {

/// Digest of a run's audited outcomes: per-party coin/value deltas,
/// conformance flags, per-symbol movements (std::map, so iteration order
/// is deterministic), and the violation count.
void mix_outcomes(std::uint64_t& h, const RunOutcome& out) {
  for (const sim::PartyOutcome& po : out.outcomes) {
    sig_mix(h, po.conforming ? 1 : 2);
    sig_mix(h, static_cast<std::uint64_t>(po.payoff.coin_delta));
    sig_mix(h, static_cast<std::uint64_t>(po.payoff.value_delta));
    for (const auto& [symbol, amount] : po.payoff.by_symbol) {
      sig_mix(h, fnv1a(symbol));
      sig_mix(h, static_cast<std::uint64_t>(amount));
    }
  }
  sig_mix(h, out.violations.size());
}

}  // namespace

ScheduleExecutor::ScheduleExecutor(const sim::ProtocolAdapter& adapter)
    : adapter_(adapter), frame_(adapter.tree_frame()) {
  if (!frame_) return;
  for (sim::Party* p : frame_->actors) p->set_consult_log(&log_);
}

ScheduleExecutor::~ScheduleExecutor() {
  if (!frame_) return;
  for (sim::Party* p : frame_->actors) p->set_consult_log(nullptr);
}

RunOutcome ScheduleExecutor::run(const sim::Schedule& s) {
  RunOutcome out;
  std::uint64_t h = 0xf0225eedull;
  for (const sim::DeviationPlan& p : s.plans) {
    sig_mix(h, static_cast<std::uint64_t>(p.variant()));
  }
  if (frame_) log_.begin_run(frame_->actors.size());
  out.outcomes = adapter_.run(s);
  out.conforming_audited =
      sim::audit_schedule(s.label, out.outcomes, out.violations);
  if (frame_) {
    for (const sim::ConsultEntry& e : log_.entries()) {
      sig_mix(h, e.party);
      sig_mix(h, static_cast<std::uint64_t>(e.ordinal));
      sig_mix(h, static_cast<std::uint64_t>(e.pol.choice));
      sig_mix(h, static_cast<std::uint64_t>(e.pol.delay));
      sig_mix(h, static_cast<std::uint64_t>(e.tick));
    }
  } else {
    mix_outcomes(h, out);
  }
  out.signature = h;
  return out;
}

}  // namespace xchain::fuzz
