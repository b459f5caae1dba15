#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/payoff.hpp"

namespace xchain::sim {

/// What the audit checks for one party in one finished run, as the
/// protocol adapter saw it: the paper's hedging guarantee (Definition 1),
/// a conforming party ends no worse off than its earned premium
/// compensation; asset safety, a conforming party never loses its
/// principal without the counter-asset; and liveness, a run in which every
/// party conforms completes. The adapter fills in the numbers and flags
/// from the run's result, never from the party's own plan — the audit only
/// compares them against the observed payoff.
struct HedgeBound {
  /// Premium-compensation floor on the party's native-coin delta. 0 for a
  /// party that was never harmed; each locked-and-refunded principal raises
  /// it by the premium the paper awards for that lock-up.
  Amount min_coin_delta = 0;

  /// Coins the party may legitimately spend in exchange for goods (e.g. the
  /// winning bid in the ticket auction). The coin delta is allowed to dip
  /// to `min_coin_delta - spend_allowance` only when `goods_received`.
  Amount spend_allowance = 0;
  bool goods_received = false;

  /// The protocol ran to completion (swap redeemed, deal or auction
  /// settled, transfer delivered). Every party of a run carries the same
  /// value. The default keeps outcomes built without a run result clear
  /// of the liveness check.
  bool completed = true;

  /// The party's principal left it and the counter-asset never arrived
  /// (lost_principal below). Set only by adapters whose parties trade one
  /// principal for one counter-asset: two-party, the ladders, the broker.
  bool principal_lost = false;

  bool operator==(const HedgeBound&) const = default;
};
// The two flags sit in the tail padding after goods_received, so
// PartyOutcome keeps its size: the tree executor caches one outcome vector
// per memo leaf.
static_assert(sizeof(HedgeBound) == 3 * sizeof(Amount));

/// The asset-safety rule: `d` shows `principal` fell and `counter_asset`
/// did not rise.
bool lost_principal(const core::PayoffDelta& d, const std::string& principal,
                    const std::string& counter_asset);

/// One party's end-of-run state as seen by the audit.
struct PartyOutcome {
  std::string name;
  bool conforming = true;
  core::PayoffDelta payoff;
  HedgeBound bound;

  bool operator==(const PartyOutcome&) const = default;
};

/// One failed check of audit_schedule. Floor breaches and asset-safety
/// violations name the conforming party with its coin delta and floor;
/// the run-wide checks (conservation, liveness) name party "<all>".
struct Violation {
  std::string schedule;  ///< label of the offending schedule
  std::string party;
  Amount coin_delta = 0;    ///< observed (conservation: the net sum)
  Amount required_min = 0;  ///< the party's floor (0 for "<all>")
  std::string detail;

  /// True when the loss is attributed to the injected chain faults rather
  /// than any party's deviation: the same schedule re-audits clean on a
  /// faultless twin world (ScenarioRunner::sweep's attribution pass).
  /// Within the fault plan's tolerance envelope this still breaches the
  /// paper's guarantee — the substrate stayed inside the slack the
  /// deadlines are provisioned for — so fault-caused violations keep
  /// failing sweeps; the flag tells the reader which knob to blame.
  bool fault_caused = false;

  std::string str() const;
  bool operator==(const Violation&) const = default;
};

/// Audits one schedule's outcomes. Each conforming party must pass
/// audit_party's checks. When every party conforms, every outcome must be
/// `completed` (liveness: one "<all>" violation per run). With
/// `check_conservation`, native-coin flows must be zero-sum across parties
/// (premiums only move between parties; contracts never strand coins).
/// Appends any violations to `out` and returns the number of conforming
/// parties audited.
std::size_t audit_schedule(const std::string& schedule_label,
                           const std::vector<PartyOutcome>& outcomes,
                           std::vector<Violation>& out,
                           bool check_conservation = true);

/// The per-party checks audit_schedule applies to a conforming party: it
/// ends at or above its HedgeBound floor, never coin-negative without
/// goods, and without principal_lost (asset safety). They read the party's
/// payoff and bound only, never its conforming flag. Appends the party's
/// violations under `schedule_label` to `out` and returns how many (0, 1
/// or 2).
std::size_t audit_party(const std::string& schedule_label,
                        const PartyOutcome& o, std::vector<Violation>& out);

/// What audit_schedule (conservation checked) decides about one outcome
/// vector under every conformance pattern at once. A pattern is a mask
/// with bit p set when party p conforms; the outcomes' own conforming
/// flags play no part. The schedule-tree executor keeps one verdict per
/// memo leaf and answers most schedules from it.
struct AuditVerdict {
  /// Bit p: party p fails audit_party's checks, so it breaches whenever it
  /// conforms.
  std::uint64_t fails_if_conforming = 0;
  /// Native-coin flows sum to zero across the parties.
  bool conserved = true;
  /// Every outcome is `completed`.
  bool completed = true;

  /// Whether the audit reports a violation when exactly the parties in
  /// `conforming` conform; `all` has a bit for every party.
  bool violates(std::uint64_t conforming, std::uint64_t all) const {
    return !conserved || (fails_if_conforming & conforming) != 0 ||
           (!completed && conforming == all);
  }
};

/// The verdict on `outcomes`. Throws std::invalid_argument past 64
/// parties, which a mask cannot hold.
AuditVerdict audit_verdict(const std::vector<PartyOutcome>& outcomes);

}  // namespace xchain::sim
