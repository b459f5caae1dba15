#pragma once

#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "contracts/hedged_arc.hpp"
#include "crypto/hashkey.hpp"
#include "graph/digraph.hpp"

namespace xchain::contracts {

/// Escrow contract for one arc (u, v) of a hedged multi-party swap (paper
/// §7). It lives on the chain holding u's asset and is one HedgedArc
/// (contracts/hedged_arc.hpp) plus that asset:
///
///  * the principal: u's asset, escrowed by the arc's per-arc deadline,
///    redeemed to v when ALL leaders' hashkeys have been presented in
///    time, refunded to u after the longest hashkey deadline otherwise;
///  * the escrow premium E(u, v) (Equation 2) is the arc premium: deposited
///    by u until escrow_deadline, refunded to u the moment the asset is
///    escrowed, and at escrow_deadline awarded to v if activated (every
///    redemption premium arrived on this arc) and refunded to u if not;
///  * one redemption premium R_i(q, u) per leader (Equation 1) and one
///    hashkey slot per leader, with the §7.1 per-path deadlines.
///
/// A hashkey with path |q| expires at hashkey_base + (diam(G) + |q|) *
/// Delta. The paper measures that from protocol start; with the two
/// premium phases prepended, core/multi_party.cpp rebases it to the start
/// of the hashkey phase, hashkey_base = t4, and premium_base = t2 likewise.
///
/// All deadlines are inclusive.
class MultiPartyArcContract
    : public chain::SnapshotState<MultiPartyArcContract> {
 public:
  using Hashlock = contracts::Hashlock;

  /// The shared lattice terms (g, premium_unit, hashlocks, party_keys,
  /// delta, premium_base, redemption_premium_deadline, hashkey_base) plus
  /// this arc's own.
  struct Params : LatticeTerms {
    graph::Arc arc{};               ///< (u, v): u escrows for v
    chain::Symbol asset_symbol;
    Amount asset_amount = 0;
    Amount escrow_premium = 0;      ///< E(u, v) from Equation 2
    Tick escrow_deadline = 0;       ///< end of base phase 1
    /// Per-arc asset-escrow deadline: base-phase-one start + (depth of the
    /// escrowing party in the leader-rooted escrow cascade + 1) * delta.
    /// The paper's phase-one schedule has the party at cascade depth k
    /// escrow at step k — giving every arc the SAME flat deadline would
    /// let a party escrow so late that the parties downstream of it run
    /// out of phase, forfeiting activated escrow premiums they could
    /// never have kept (their own escrow enablement lands past the flat
    /// deadline). 0 means "fall back to escrow_deadline" (tests that
    /// construct arcs directly keep the old flat behaviour).
    Tick asset_escrow_deadline = 0;
  };

  explicit MultiPartyArcContract(Params p);

  // -- Transactions ----------------------------------------------------------

  /// u deposits E(u, v) (native coin). Timely until escrow_deadline (the
  /// engine's schedule has leaders deposit within Delta; the contract only
  /// needs a horizon after which deposits are pointless).
  void deposit_escrow_premium(chain::TxContext& ctx) {
    arc_.deposit_premium(ctx);
  }

  /// v deposits the redemption premium for `leader_index` with path `q`
  /// and a signature over (leader_index, q). The amount is dictated by
  /// Equation 1 — the contract computes it and takes exactly that.
  void deposit_redemption_premium(chain::TxContext& ctx,
                                  std::size_t leader_index,
                                  const graph::Path& q,
                                  const crypto::Signature& path_sig) {
    arc_.deposit_redemption_premium(ctx, leader_index, q, path_sig);
  }

  /// u escrows the principal. Refunds the escrow premium to u at the same
  /// moment (its purpose — compensating v if u never escrows — is spent).
  void escrow_asset(chain::TxContext& ctx);

  /// Anyone presents leader `leader_index`'s hashkey. Valid + timely
  /// presentation: marks the hashlock open, refunds v's matching
  /// redemption premium, and — once every hashlock is open — transfers the
  /// asset to v.
  void present_hashkey(chain::TxContext& ctx, std::size_t leader_index,
                       const crypto::Hashkey& key);

  /// Timeout sweep: premium refunds/awards and the final asset refund.
  void on_block(chain::TxContext& ctx) override;
  /// The escrow deadline and path_deadline(len) for every path length.
  std::vector<Tick> timeouts() const override {
    return arc_.with_path_deadlines({p_.escrow_deadline});
  }

  // -- Public state -----------------------------------------------------------

  const Params& params() const { return p_; }
  /// The arc's premiums and hashkeys (what relaying parties read).
  const HedgedArc& hedged() const { return arc_; }

  bool escrow_premium_deposited() const { return arc_.premium_deposited(); }
  /// Activation (paper §7.1): all redemption premiums present on this arc.
  bool escrow_premium_activated() const { return arc_.activated(); }
  bool escrow_premium_refunded() const { return arc_.premium_refunded(); }
  bool escrow_premium_awarded() const { return arc_.premium_awarded(); }

  bool redemption_premium_deposited(std::size_t leader_index) const {
    return arc_.redemption_premium_deposited(leader_index);
  }
  bool redemption_premium_refunded(std::size_t leader_index) const {
    return arc_.redemption_premium_refunded(leader_index);
  }
  bool redemption_premium_awarded(std::size_t leader_index) const {
    return arc_.redemption_premium_awarded(leader_index);
  }
  Amount redemption_premium_amount(std::size_t leader_index) const {
    return arc_.redemption_premium_amount(leader_index);
  }
  const graph::Path& redemption_premium_path(std::size_t leader_index) const {
    return arc_.redemption_premium_path(leader_index);
  }

  bool escrowed() const { return escrowed_at_.has_value(); }
  std::optional<Tick> escrowed_at() const { return escrowed_at_; }
  bool redeemed() const { return redeemed_; }
  bool refunded() const { return refunded_; }
  std::optional<Tick> asset_resolved_at() const { return asset_resolved_at_; }

  bool hashlock_open(std::size_t leader_index) const {
    return arc_.hashlock_open(leader_index);
  }
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t leader_index) const {
    return arc_.presented_hashkey(leader_index);
  }

  /// Deadline for a path of length `len` (paper: (diam + |q|) * Delta).
  Tick path_deadline(std::size_t len) const {
    return arc_.path_deadline(len);
  }

 private:
  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.asset_symbol);
  HedgedArc arc_;
  std::optional<Tick> escrowed_at_;
  std::optional<Tick> asset_resolved_at_;
  bool redeemed_ = false;
  bool refunded_ = false;

  /// Every mutable member.
  auto state_tie() {
    return std::tie(arc_.state(), escrowed_at_, asset_resolved_at_,
                    redeemed_, refunded_);
  }
  friend chain::SnapshotState<MultiPartyArcContract>;
};

}  // namespace xchain::contracts
