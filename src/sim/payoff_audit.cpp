#include "sim/payoff_audit.hpp"

#include <algorithm>
#include <stdexcept>

namespace xchain::sim {

std::string Violation::str() const {
  // Append-only string building (GCC 12 -Wrestrict, PR 105651).
  std::string out = schedule;
  out += ": ";
  out += party;
  out += " ended at ";
  out += std::to_string(coin_delta);
  out += " coins, floor ";
  out += std::to_string(required_min);
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ')';
  }
  if (fault_caused) out += " [chain-fault]";
  return out;
}

bool attribute_fault(Violation& v,
                     const std::vector<Violation>& twin_violations) {
  v.fault_caused = std::none_of(
      twin_violations.begin(), twin_violations.end(),
      [&v](const Violation& tv) { return tv.party == v.party; });
  return v.fault_caused;
}

bool lost_principal(const core::PayoffDelta& d, const std::string& principal,
                    const std::string& counter_asset) {
  return d.symbol_delta(principal) < 0 && d.symbol_delta(counter_asset) <= 0;
}

std::size_t audit_schedule(const std::string& schedule_label,
                           const std::vector<PartyOutcome>& outcomes,
                           std::vector<Violation>& out,
                           bool check_conservation) {
  std::size_t audited = 0;
  Amount total = 0;
  bool completed = true;
  for (const PartyOutcome& o : outcomes) {
    total += o.payoff.coin_delta;
    completed = completed && o.bound.completed;
    if (!o.conforming) continue;
    ++audited;
    audit_party(schedule_label, o, out);
  }
  if (check_conservation && total != 0) {
    out.push_back({schedule_label, "<all>", total, 0,
                   "native-coin flows not zero-sum across parties"});
  }
  if (!completed && audited == outcomes.size()) {
    out.push_back({schedule_label, "<all>", 0, 0,
                   "all-conforming run did not complete"});
  }
  return audited;
}

std::size_t audit_party(const std::string& schedule_label,
                        const PartyOutcome& o, std::vector<Violation>& out) {
  const std::size_t before = out.size();
  Amount floor = o.bound.min_coin_delta;
  if (o.bound.goods_received) {
    floor -= o.bound.spend_allowance;
  }
  if (o.payoff.coin_delta < floor) {
    out.push_back({schedule_label, o.name, o.payoff.coin_delta, floor,
                   o.bound.goods_received
                       ? "spent more than allowance over premium floor"
                       : "lost more than earned premiums"});
  } else if (!o.bound.goods_received && o.payoff.coin_delta < 0) {
    // A conforming party that received nothing must never end coin-
    // negative, whatever floor the adapter computed (defence in depth
    // against adapters under-reporting entitlements).
    out.push_back({schedule_label, o.name, o.payoff.coin_delta, 0,
                   "coin-negative without goods"});
  }
  if (o.bound.principal_lost) {
    out.push_back({schedule_label, o.name, o.payoff.coin_delta, floor,
                   "lost principal without the counter-asset"});
  }
  return out.size() - before;
}

AuditVerdict audit_verdict(const std::vector<PartyOutcome>& outcomes) {
  if (outcomes.size() > 64) {
    throw std::invalid_argument(
        "audit_verdict: " + std::to_string(outcomes.size()) +
        " parties do not fit a 64-bit conformance mask");
  }
  AuditVerdict v;
  Amount total = 0;
  std::vector<Violation> scratch;
  for (std::size_t p = 0; p < outcomes.size(); ++p) {
    const PartyOutcome& o = outcomes[p];
    total += o.payoff.coin_delta;
    v.completed = v.completed && o.bound.completed;
    if (audit_party({}, o, scratch) > 0) {
      v.fails_if_conforming |= std::uint64_t{1} << p;
    }
  }
  v.conserved = total == 0;
  return v;
}

}  // namespace xchain::sim
