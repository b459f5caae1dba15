#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {

/// Premium-carrying escrow contract for the hedged two-party swap (paper
/// §5.2, Figure 1).
///
/// One instance lives on each chain. The instance escrows one party's
/// principal and holds the *counterparty's* premium in the chain's native
/// coin:
///
///   * apricot chain: Alice's principal + Bob's premium p_b,
///   * banana chain: Bob's principal + Alice's premium p_a + p_b.
///
/// Rules (verbatim from §5.2):
///   * premium refunds to the payer if the principal is never escrowed by
///     the escrow deadline;
///   * if the principal is escrowed and redeemed in time, the premium is
///     refunded (and the principal goes to the redeemer);
///   * if the principal is escrowed but NOT redeemed by the redemption
///     deadline, the premium is awarded to the principal's owner, and the
///     principal is refunded.
///
/// All deadlines are inclusive (timely iff block height <= deadline; the
/// timeout sweep fires at height > deadline).
class HedgedSwapContract : public chain::SnapshotState<HedgedSwapContract> {
 public:
  struct Params {
    PartyId principal_owner = kNoParty;  ///< escrows the principal
    PartyId premium_payer = kNoParty;    ///< deposits premium, redeems
    chain::Symbol principal_symbol;
    Amount principal_amount = 0;
    Amount premium_amount = 0;  ///< in the chain's native coin
    crypto::Digest hashlock{};
    Tick premium_deadline = 0;
    Tick escrow_deadline = 0;
    Tick redemption_deadline = 0;
  };

  explicit HedgedSwapContract(Params p) : p_(std::move(p)) {}

  /// Deposits the premium (sender must be the premium payer, before the
  /// premium deadline).
  void deposit_premium(chain::TxContext& ctx);

  /// Escrows the principal (sender must be the owner, before the escrow
  /// deadline).
  void escrow_principal(chain::TxContext& ctx);

  /// Redeems the principal with the hashlock preimage: principal moves to
  /// the premium payer and the premium is refunded to them. The preimage
  /// becomes public.
  void redeem(chain::TxContext& ctx, const crypto::Bytes& preimage);

  /// Timeout sweep:
  ///  * at the escrow deadline with no principal: refund the premium;
  ///  * at the redemption deadline with an unredeemed principal: refund the
  ///    principal to its owner and award them the premium.
  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override {
    return {p_.escrow_deadline, p_.redemption_deadline};
  }

  /// The §5.2 deadline ladder in scheduled-step order — premium deposit,
  /// principal escrow, redemption — for Scheduler::validate_deadlines'
  /// ">= Delta per step" check.
  std::vector<Tick> deadline_schedule() const override {
    return {p_.premium_deadline, p_.escrow_deadline, p_.redemption_deadline};
  }

  // -- Public state ---------------------------------------------------------
  const Params& params() const { return p_; }
  bool premium_deposited() const { return premium_at_.has_value(); }
  bool escrowed() const { return escrowed_at_.has_value(); }
  bool redeemed() const { return redeemed_; }
  bool principal_refunded() const { return principal_refunded_; }
  bool premium_refunded() const { return premium_refunded_; }
  bool premium_awarded() const { return premium_awarded_; }

  const std::optional<crypto::Bytes>& revealed_preimage() const {
    return preimage_;
  }

  std::optional<Tick> premium_deposited_at() const { return premium_at_; }
  std::optional<Tick> escrowed_at() const { return escrowed_at_; }
  std::optional<Tick> principal_resolved_at() const {
    return principal_resolved_at_;
  }
  std::optional<Tick> premium_resolved_at() const {
    return premium_resolved_at_;
  }

 private:
  bool premium_resolved() const {
    return premium_refunded_ || premium_awarded_;
  }
  bool principal_resolved() const {
    return redeemed_ || principal_refunded_;
  }
  void resolve_premium(chain::TxContext& ctx, PartyId to, bool award);

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.principal_symbol);
  std::optional<Tick> premium_at_;
  std::optional<Tick> escrowed_at_;
  std::optional<Tick> principal_resolved_at_;
  std::optional<Tick> premium_resolved_at_;
  bool redeemed_ = false;
  bool principal_refunded_ = false;
  bool premium_refunded_ = false;
  bool premium_awarded_ = false;
  std::optional<crypto::Bytes> preimage_;

  /// Every mutable member — the snapshot stack and the rewind-integrity
  /// hash both derive from this list.
  auto state_tie() {
    return std::tie(premium_at_, escrowed_at_, principal_resolved_at_,
                    premium_resolved_at_, redeemed_, principal_refunded_,
                    premium_refunded_, premium_awarded_, preimage_);
  }
  friend chain::SnapshotState<HedgedSwapContract>;
};

}  // namespace xchain::contracts
