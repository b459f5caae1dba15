#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/binding.hpp"
#include "core/payoff.hpp"
#include "sim/deviation.hpp"
#include "sim/tree.hpp"

namespace xchain::core {

/// Parameters of an Alice <-> Bob cross-chain swap (paper §5): A apricot
/// tokens against B banana tokens, premiums p_a and p_b, and the synchrony
/// bound Delta in ticks.
struct TwoPartyConfig {
  Amount alice_tokens = 100;  ///< A
  Amount bob_tokens = 100;    ///< B
  Amount premium_a = 2;       ///< p_a (Alice's own premium component)
  Amount premium_b = 1;       ///< p_b (Bob's premium)
  Tick delta = 2;             ///< Delta in ticks (>= 1)
};

/// Result of one protocol run.
struct TwoPartyResult {
  bool swapped = false;  ///< both principals redeemed

  PayoffDelta alice;
  PayoffDelta bob;

  /// Ticks each party's principal spent escrowed before being *refunded*
  /// (0 if never escrowed or if redeemed — the sore-loser lock-up metric).
  Tick alice_lockup = 0;
  Tick bob_lockup = 0;

  /// Merged event log of both chains, for traces and tests.
  chain::EventLog events;
};

/// Runs the *base* (unhedged) two-party atomic swap of §5.1:
/// Alice escrows with timelock 3*Delta, Bob with 2*Delta, secrets flow back.
/// Deviation plans index each party's protocol actions in order:
///   Alice: 0 = escrow principal, 1 = redeem Bob's escrow (reveal s)
///   Bob:   0 = escrow principal, 1 = redeem Alice's escrow
TwoPartyResult run_base_two_party(const TwoPartyConfig& cfg,
                                  sim::DeviationPlan alice,
                                  sim::DeviationPlan bob);

/// Runs the *hedged* two-party atomic swap of §5.2 / Figure 1:
/// premium distribution (Alice deposits p_a + p_b on the banana contract,
/// Bob deposits p_b on the apricot contract) followed by the base swap with
/// premium-aware contracts.
/// Action ordinals:
///   Alice: 0 = deposit premium, 1 = escrow principal, 2 = redeem (reveal s)
///   Bob:   0 = deposit premium, 1 = escrow principal, 2 = redeem
TwoPartyResult run_hedged_two_party(const TwoPartyConfig& cfg,
                                    sim::DeviationPlan alice,
                                    sim::DeviationPlan bob);

/// Number of deviation-relevant actions per role (for deviation sweeps).
inline constexpr int kBaseTwoPartyActions = 2;
inline constexpr int kHedgedTwoPartyActions = 3;

/// World of the hedged two-party swap: chains, contracts, endowments, and
/// the two persistent, snapshot-capable actors, built once. A run
/// installs plans and ticks the frame to its horizon (sim::play):
/// run_hedged_two_party does that on a fresh traced world, sweep adapters
/// on one reused traceless world rewound to its post-setup snapshot
/// (sim/scenario.hpp), and the load generator on a bound world.
class TwoPartyWorld {
 public:
  explicit TwoPartyWorld(const TwoPartyConfig& cfg,
                         chain::TraceMode trace = chain::TraceMode::kFull);

  /// Bound form (core/binding.hpp): deploys the instance onto the shared
  /// MultiChain at `binding.party_base` / `binding.start`; the load
  /// scheduler drives the frame's actors on the shared chains.
  TwoPartyWorld(const TwoPartyConfig& cfg, const WorldBinding& binding,
                chain::TraceMode trace = chain::TraceMode::kOff);

  ~TwoPartyWorld();
  TwoPartyWorld(TwoPartyWorld&&) noexcept;
  TwoPartyWorld& operator=(TwoPartyWorld&&) noexcept;

  /// Chains, actors (Alice, Bob), and the run horizon (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per actor: Alice, Bob.
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: swapped, each
  /// principal's lock-up (Alice's, then Bob's), then Alice's and Bob's
  /// balance changes. collect() is this summary read back, plus the event
  /// log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  TwoPartyResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xchain::core
