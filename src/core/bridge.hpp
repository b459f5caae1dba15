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

/// Which XChainBridge-style flow the bridge world runs.
enum class BridgeVariant {
  /// Value transfer: the user creates a claim on the issuing chain
  /// (funding the witness reward pool there), commits the principal to
  /// the locking-chain door, and a k-of-n attestation quorum releases the
  /// wrapped asset. Witness rewards are eager per attestation.
  kTransfer,
  /// Account-create: the user has no issuing-chain presence yet — the
  /// reward pool rides the door commit on the locking chain, and the
  /// attestation quorum funds the freshly-created account with the
  /// wrapped asset. Rewards split among reported attesters at settle.
  kAccountCreate,
};

/// Parameters of a witness-bridge run: party 0 is the user, parties
/// 1..n_witnesses are the witnesses. premium_unit = 0 disables the hedge
/// entirely (no premium, no bonds) — the unhedged baseline the paper's
/// construction is measured against.
struct BridgeConfig {
  BridgeVariant variant = BridgeVariant::kTransfer;
  int n_witnesses = 3;
  int quorum = 2;              ///< k attestations complete the transfer
  Amount transfer_amount = 100;
  Amount witness_reward = 2;   ///< per accepted attestation
  Amount premium_unit = 2;     ///< user's premium; 0 = unhedged baseline
  Tick delta = 2;              ///< synchrony bound in ticks (>= 1)

  bool hedged() const { return premium_unit > 0; }
  int party_count() const { return 1 + n_witnesses; }
  /// Witness bond, sized so that on a failed transfer the >= (quorum - j)
  /// forfeited bonds always cover the user's eager-reward outlay (at most
  /// (quorum - 1) * witness_reward) plus the premium floor.
  Amount bond_amount() const {
    return hedged() ? premium_unit + (quorum - 1) * witness_reward : 0;
  }
  Amount reward_pool() const { return witness_reward * n_witnesses; }

  /// Deviation ordinals. Transfer user: create claim [, premium], commit.
  /// Account-create user: [premium,] commit. Witness: [bond,] attest,
  /// settle report.
  int user_actions() const {
    return (variant == BridgeVariant::kTransfer ? 2 : 1) + (hedged() ? 1 : 0);
  }
  int witness_actions() const { return hedged() ? 3 : 2; }
};

/// Result of one bridge run.
struct BridgeResult {
  bool committed = false;           ///< principal accepted by the door
  bool transfer_completed = false;  ///< quorum reached, wrapped delivered
  bool principal_refunded = false;  ///< door settle failed after a commit
  int attesters = 0;                ///< accepted attestations
  int bonds_posted = 0;
  int bonds_forfeited = 0;

  /// Per-party payoffs: [0] the user, [1..n] the witnesses.
  std::vector<PayoffDelta> payoffs;

  /// Merged event log of both chains, for traces and tests.
  chain::EventLog events;
};

/// World of the witness bridge (both variants): chains, contracts,
/// endowments, and the persistent user and witness actors, built once.
/// Runs go through sim::play (see BootstrapWorld); run_bridge plays a
/// fresh world.
class BridgeWorld {
 public:
  explicit BridgeWorld(const BridgeConfig& cfg,
                       chain::TraceMode trace = chain::TraceMode::kFull);

  /// Bound form (core/binding.hpp): deploys the instance onto the shared
  /// MultiChain at `binding.party_base` / `binding.start`; the load
  /// scheduler drives the frame's actors on the shared chains.
  BridgeWorld(const BridgeConfig& cfg, const WorldBinding& binding,
              chain::TraceMode trace = chain::TraceMode::kOff);

  ~BridgeWorld();
  BridgeWorld(BridgeWorld&&) noexcept;
  BridgeWorld& operator=(BridgeWorld&&) noexcept;

  /// Chains, actors (the user, then witnesses 1..n), and the run horizon
  /// (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per actor: plans[0] the user, plans[1..n] the
  /// witnesses.
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: committed,
  /// transfer_completed, principal_refunded, attesters, bonds_posted,
  /// bonds_forfeited, then each party's balance changes. collect() is
  /// this summary read back, plus the event log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  BridgeResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One run on a fresh world.
BridgeResult run_bridge(const BridgeConfig& cfg,
                        const std::vector<sim::DeviationPlan>& plans);

}  // namespace xchain::core
