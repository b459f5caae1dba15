#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/secret.hpp"

namespace xchain::contracts {

/// Hashed timelock contract — the escrow primitive of the base two-party
/// swap (paper §5.1, [Nolan '13]).
///
/// Lifecycle: the funder escrows the principal; if the counterparty submits
/// the hashlock preimage before the timelock, the principal transfers to
/// the counterparty (and the preimage becomes public on this chain);
/// otherwise the principal is refunded at the timelock.
///
/// Deadlines are inclusive: an action is timely iff it lands in a block
/// with height <= deadline; the timeout sweep fires at height > deadline.
/// (Inclusive deadlines make the paper's schedule work at any Delta >= 1
/// tick, since reacting to block t lands in block t+1.)
class HtlcContract : public chain::SnapshotState<HtlcContract> {
 public:
  struct Params {
    PartyId funder = kNoParty;        ///< escrows the principal
    PartyId counterparty = kNoParty;  ///< receives it on redemption
    chain::Symbol symbol;
    Amount amount = 0;
    crypto::Digest hashlock{};
    Tick escrow_deadline = 0;  ///< funding timely iff height <= this
    Tick timelock = 0;         ///< redemption iff height <= this; then refund
  };

  explicit HtlcContract(Params p) : p_(std::move(p)) {}

  /// Escrows the principal. Requires: sender is the funder, not yet funded,
  /// before the escrow deadline, and sufficient balance.
  void fund(chain::TxContext& ctx);

  /// Redeems with `preimage`. Pays the counterparty and publishes the
  /// preimage. Requires: funded, unresolved, before the timelock, and
  /// SHA-256(preimage) == hashlock. Any sender may submit (the contract
  /// pays the fixed counterparty regardless).
  void redeem(chain::TxContext& ctx, const crypto::Bytes& preimage);

  /// Timeout sweep: refunds the principal at/after the timelock.
  void on_block(chain::TxContext& ctx) override;
  std::vector<Tick> timeouts() const override { return {p_.timelock}; }

  // -- Public state (anyone may read) --------------------------------------
  const Params& params() const { return p_; }
  bool funded() const { return funded_at_.has_value(); }
  bool redeemed() const { return redeemed_; }
  bool refunded() const { return refunded_; }
  bool resolved() const { return redeemed_ || refunded_; }

  /// The preimage, public once redeemed — how Bob learns s in step (4).
  const std::optional<crypto::Bytes>& revealed_preimage() const {
    return preimage_;
  }

  std::optional<Tick> funded_at() const { return funded_at_; }
  std::optional<Tick> resolved_at() const { return resolved_at_; }

 private:
  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.symbol);
  std::optional<Tick> funded_at_;
  std::optional<Tick> resolved_at_;
  bool redeemed_ = false;
  bool refunded_ = false;
  std::optional<crypto::Bytes> preimage_;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(funded_at_, resolved_at_, redeemed_, refunded_,
                    preimage_);
  }
  friend chain::SnapshotState<HtlcContract>;
};

}  // namespace xchain::contracts
