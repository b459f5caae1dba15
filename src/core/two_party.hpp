#pragma once

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/bootstrap.hpp"
#include "core/payoff.hpp"
#include "sim/deviation.hpp"

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

/// The §6 premium ladder with one rung that *is* the hedged two-party swap
/// of §5.2 / Figure 1: Bob's premium p_b is the apricot rung, Alice's
/// p_a + p_b the banana rung, over principals A and B and bound Delta.
BootstrapConfig two_party_ladder(const TwoPartyConfig& cfg);

/// Runs the *hedged* two-party atomic swap of §5.2 / Figure 1 on a fresh
/// traced BootstrapWorld over two_party_ladder(cfg): premium distribution
/// (Alice deposits p_a + p_b on the banana contract, Bob deposits p_b on
/// the apricot contract) followed by the base swap with premium-aware
/// contracts.
/// Action ordinals:
///   Alice: 0 = deposit premium, 1 = escrow principal, 2 = redeem (reveal s)
///   Bob:   0 = deposit premium, 1 = escrow principal, 2 = redeem
TwoPartyResult run_hedged_two_party(const TwoPartyConfig& cfg,
                                    sim::DeviationPlan alice,
                                    sim::DeviationPlan bob);

/// Number of deviation-relevant actions per role (for deviation sweeps).
inline constexpr int kBaseTwoPartyActions = 2;
inline constexpr int kHedgedTwoPartyActions = 3;

}  // namespace xchain::core
