#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"

namespace xchain::contracts {

/// Door account on the locking (source) chain of an XChainBridge-style
/// witness bridge. The door escrows everything the source side puts at
/// risk: the user's principal (the asset being bridged), the user's hedge
/// premium, and one bond per witness — the witnesses' premium escrow per
/// the paper's construction, sized so that forfeited bonds always cover
/// the user's worst-case reward outlay plus the premium floor.
///
/// Lifecycle (all deadlines inclusive, timeout sweeps fire at height >
/// deadline):
///   1. user deposits the premium (hedged mode only);
///   2. each witness posts its bond;
///   3. the user commits the principal — rejected in hedged mode unless
///      the premium is in and at least `quorum` bonds are posted (for the
///      account-create flavor the witness reward pool rides the commit);
///   4. witnesses report the destination-chain outcome back: a settle
///      report carries (success, attester set) read off the destination
///      contract after it resolved. Reports are honest by construction —
///      deviation plans only retime or drop them — and monotone (any
///      post-resolution report carries the final attester set), so the
///      door unions the masks and takes "any success report" as success.
///
/// Timeout sweeps:
///   * past the commit deadline with no commit: every bond refunds; the
///     premium refunds to the user unless a bond quorum had formed — the
///     witnesses did their part and the user walked away, so the premium
///     splits among the bonded witnesses (integer share, remainder back
///     to the user);
///   * past the settle deadline after a commit: on success the principal
///     stays in the door (it backs the wrapped issuance), the premium
///     refunds, and every bond refunds; on failure the principal and
///     premium refund to the user, bonds of reported attesters refund,
///     and the remaining bonds forfeit to the user — the paper's premium
///     compensation for the aborted transfer.
class BridgeDoorContract : public chain::SnapshotState<BridgeDoorContract> {
 public:
  struct Params {
    PartyId user = 0;
    /// Instance namespacing offset: witnesses are parties
    /// party_base+1 .. party_base+n_witnesses (base 0 = the historical
    /// private-world ids). Attester bitmasks stay base-relative (bit 0 =
    /// the first witness), so masks travel unchanged between the door and
    /// claim contracts of one instance.
    PartyId party_base = 0;
    int n_witnesses = 0;  ///< witnesses are parties party_base+1..+n
    int quorum = 0;       ///< k of n attestations complete the transfer
    bool hedged = true;   ///< false: no premium, no bonds (baseline)
    /// Account-create flavor: the witness reward pool (reward_amount *
    /// n_witnesses, in this chain's native coin) rides the commit and is
    /// paid to reported attesters at a successful settle.
    bool rewards_at_door = false;
    chain::Symbol principal_symbol;
    Amount principal_amount = 0;
    Amount premium_amount = 0;  ///< user's premium, native coin
    Amount bond_amount = 0;     ///< per-witness bond, native coin
    Amount reward_amount = 0;   ///< per attester (rewards_at_door only)
    Tick premium_deadline = 0;
    Tick bond_deadline = 0;
    Tick commit_deadline = 0;
    Tick settle_deadline = 0;
  };

  explicit BridgeDoorContract(Params p) : p_(std::move(p)) {}

  /// User's premium deposit (hedged mode, before the premium deadline).
  void deposit_premium(chain::TxContext& ctx);

  /// Witness bond (hedged mode, before the bond deadline, once each).
  void post_bond(chain::TxContext& ctx);

  /// User's principal commit. Hedged mode requires the premium and a bond
  /// quorum; the account-create flavor additionally escrows the reward
  /// pool alongside the principal.
  void commit(chain::TxContext& ctx);

  /// Witness settle report: the destination contract's outcome (success
  /// flag + attester bitmask, bit w-1 for witness w) as the sender
  /// observed it. Accepted from registered witnesses after a commit,
  /// through the settle deadline; masks union monotonically.
  void report_settle(chain::TxContext& ctx, bool success,
                     std::uint64_t attester_mask);

  /// Commit-deadline and settle-deadline sweeps (see class comment).
  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.commit_deadline, p_.settle_deadline};
  }

  /// Scheduled-step ladder for Scheduler::validate_deadlines: premium,
  /// bonds, commit, settle (the unhedged baseline has no premium/bond
  /// steps).
  std::vector<Tick> deadline_schedule() const override {
    if (p_.hedged) {
      return {p_.premium_deadline, p_.bond_deadline, p_.commit_deadline,
              p_.settle_deadline};
    }
    return {p_.commit_deadline, p_.settle_deadline};
  }

  // -- Public state ---------------------------------------------------------
  const Params& params() const { return p_; }
  bool premium_deposited() const { return premium_at_.has_value(); }
  bool committed() const { return committed_at_.has_value(); }
  std::optional<Tick> committed_at() const { return committed_at_; }
  int bonds_posted() const { return popcount(bonds_mask_); }
  bool bond_posted(PartyId w) const { return bit_set(bonds_mask_, w); }
  std::uint64_t bonds_mask() const { return bonds_mask_; }
  bool settled() const { return settled_; }
  bool settle_success() const { return settle_success_; }
  bool principal_refunded() const { return principal_refunded_; }
  std::uint64_t reported_mask() const { return reported_mask_; }
  bool premium_refunded() const { return premium_refunded_; }
  bool premium_split() const { return premium_split_; }
  int bonds_forfeited() const { return popcount(forfeited_mask_); }
  bool bond_forfeited(PartyId w) const { return bit_set(forfeited_mask_, w); }

 private:
  static int popcount(std::uint64_t m) {
    int n = 0;
    for (; m; m &= m - 1) ++n;
    return n;
  }
  bool bit_set(std::uint64_t m, PartyId w) const {
    return is_witness(w) && (m >> (w - p_.party_base - 1)) & 1;
  }
  bool is_witness(PartyId w) const {
    return w > p_.party_base &&
           w <= p_.party_base + static_cast<PartyId>(p_.n_witnesses);
  }
  /// The party owning base-relative attester bit `bit`.
  PartyId witness_at(int bit) const { return p_.party_base + 1 + bit; }
  std::uint64_t witness_mask() const {
    return p_.n_witnesses >= 64 ? ~0ull : (1ull << p_.n_witnesses) - 1;
  }
  Amount reward_pool() const {
    return p_.rewards_at_door ? p_.reward_amount * p_.n_witnesses : 0;
  }
  void refund_bonds(chain::TxContext& ctx, std::uint64_t mask);
  void refund_premium(chain::TxContext& ctx);
  void resolve_no_commit(chain::TxContext& ctx);
  void resolve_settle(chain::TxContext& ctx);

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.principal_symbol);
  std::optional<Tick> premium_at_;
  std::optional<Tick> committed_at_;
  std::uint64_t bonds_mask_ = 0;
  std::uint64_t reported_mask_ = 0;
  std::uint64_t forfeited_mask_ = 0;
  bool success_reported_ = false;
  bool commit_window_closed_ = false;
  bool settled_ = false;
  bool settle_success_ = false;
  bool principal_refunded_ = false;
  bool premium_refunded_ = false;
  bool premium_split_ = false;

  /// Every mutable member — the snapshot stack and the rewind-integrity
  /// hash both derive from this list.
  auto state_tie() {
    return std::tie(premium_at_, committed_at_, bonds_mask_, reported_mask_,
                    forfeited_mask_, success_reported_, commit_window_closed_,
                    settled_, settle_success_, principal_refunded_,
                    premium_refunded_, premium_split_);
  }
  friend chain::SnapshotState<BridgeDoorContract>;
};

/// Claim contract on the issuing (destination) chain. For a transfer the
/// user creates the claim — depositing the witness reward pool — and a
/// quorum of witness attestations of the source-chain commit releases the
/// wrapped asset; for account-create the claim is pre-created (the user
/// has no destination-chain presence yet: the reward pool rides the door
/// commit instead) and the attestation quorum funds the new account.
///
/// Rewards are deliberately eager in the transfer flavor: every accepted
/// attestation collects `reward_amount` from the pool immediately, quorum
/// or not — the SoK bridge-attack surface of reward collection without
/// completion. The unhedged baseline demonstrably loses the user money
/// when witnesses stall short of quorum; the hedge's bond forfeitures on
/// the door make the user whole.
///
/// The attest deadline is inclusive; the timeout sweep marks an
/// unresolved claim failed and refunds the pool remainder to the user
/// (also after success, so late-but-timely attesters keep collecting
/// until the window closes).
class BridgeClaimContract : public chain::SnapshotState<BridgeClaimContract> {
 public:
  struct Params {
    PartyId user = 0;
    /// Instance namespacing offset, mirroring BridgeDoorContract::Params.
    PartyId party_base = 0;
    int n_witnesses = 0;
    int quorum = 0;
    /// Transfer: the user creates the claim and funds the reward pool.
    /// Account-create: pre-created, no pool on this chain.
    bool user_creates = true;
    chain::Symbol wrapped_symbol;
    Amount transfer_amount = 0;
    Amount reward_amount = 0;  ///< eager, per attestation (user_creates)
    Tick create_deadline = 0;
    Tick attest_deadline = 0;
  };

  explicit BridgeClaimContract(Params p) : p_(std::move(p)) {}

  /// User creates the claim id and deposits the reward pool
  /// (reward_amount * n_witnesses, native coin).
  void create(chain::TxContext& ctx);

  /// Witness attestation of the source-chain commit. Accepted from any
  /// registered witness once, through the attest deadline, while the
  /// claim is open — including after quorum resolution, so every timely
  /// attester collects its eager reward. The quorum-th attestation
  /// releases `transfer_amount` of the wrapped asset to the user.
  void attest(chain::TxContext& ctx);

  /// Attest-deadline sweep: marks an unresolved claim failed; refunds the
  /// pool remainder to the user either way.
  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override { return {p_.attest_deadline}; }

  std::vector<Tick> deadline_schedule() const override {
    if (p_.user_creates) return {p_.create_deadline, p_.attest_deadline};
    return {p_.attest_deadline};
  }

  // -- Public state ---------------------------------------------------------
  const Params& params() const { return p_; }
  bool created() const { return created_; }
  std::uint64_t attester_mask() const { return attest_mask_; }
  int attester_count() const {
    int n = 0;
    for (std::uint64_t m = attest_mask_; m; m &= m - 1) ++n;
    return n;
  }
  bool attested(PartyId w) const {
    return is_witness(w) && (attest_mask_ >> (w - p_.party_base - 1)) & 1;
  }
  /// Quorum reached, wrapped asset released.
  bool resolved() const { return resolved_; }
  /// Attest window closed short of quorum.
  bool failed() const { return failed_; }
  /// resolved() or failed() — the settle reports' trigger.
  bool outcome_known() const { return resolved_ || failed_; }
  bool closed() const { return closed_; }

 private:
  bool is_witness(PartyId w) const {
    return w > p_.party_base &&
           w <= p_.party_base + static_cast<PartyId>(p_.n_witnesses);
  }
  Amount reward_pool() const {
    return p_.user_creates ? p_.reward_amount * p_.n_witnesses : 0;
  }

  Params p_;
  SymbolId wrapped_ = SymbolTable::intern(p_.wrapped_symbol);
  bool created_ = !p_.user_creates;
  std::uint64_t attest_mask_ = 0;
  Amount rewards_paid_ = 0;
  bool resolved_ = false;
  bool failed_ = false;
  bool closed_ = false;

  auto state_tie() {
    return std::tie(created_, attest_mask_, rewards_paid_, resolved_, failed_,
                    closed_);
  }
  friend chain::SnapshotState<BridgeClaimContract>;
};

}  // namespace xchain::contracts
