#pragma once

#include <map>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/secret.hpp"
#include "graph/digraph.hpp"

namespace xchain::contracts {

/// Escrow contract for one arc (u, v) of a hedged multi-party swap (paper
/// §7). It lives on the chain holding u's asset and manages:
///
///  * the principal: u's asset, redeemed to v when ALL leaders' hashkeys
///    have been presented in time, refunded to u otherwise;
///  * the escrow premium E(u, v) (Equation 2): deposited by u, *activated*
///    once every redemption premium has arrived on this arc, then awarded
///    to v if the asset is not escrowed in time (refunded to u the moment
///    the asset is escrowed, or if never activated);
///  * one redemption premium R_i(q, u) per leader (Equation 1): deposited
///    by v with a signature-authenticated path q (v = q.front(), leader =
///    q.back()); refunded to v when v presents leader i's hashkey on this
///    arc, awarded to u if that hashkey does not appear by the path's
///    deadline.
///
/// Hashkey and premium-path timeouts follow the paper's rule: a path of
/// length |q| expires at hashkey_base + (diam(G) + |q|) * Delta, where
/// hashkey_base is the start of the hashkey-release phase (the paper
/// measures from protocol start; with premium phases prepended, the engine
/// rebases — see DESIGN.md).
///
/// The contract enforces well-formedness everywhere (§3.2): premium
/// amounts must match Equation 1 exactly, paths must be real paths of G,
/// signatures must verify. This is what confines Byzantine parties to
/// sore-loser behaviour.
///
/// All deadlines are inclusive.
class MultiPartyArcContract
    : public chain::SnapshotState<MultiPartyArcContract> {
 public:
  struct Hashlock {
    PartyId leader = kNoParty;
    crypto::Digest digest{};
  };

  struct Params {
    graph::Digraph g;
    graph::Arc arc{};               ///< (u, v): u escrows for v
    chain::Symbol asset_symbol;
    Amount asset_amount = 0;
    Amount premium_unit = 0;        ///< p in Equations 1 and 2
    Amount escrow_premium = 0;      ///< E(u, v) from Equation 2
    std::vector<Hashlock> hashlocks;
    std::vector<crypto::PublicKey> party_keys;  ///< indexed by PartyId
    Tick delta = 1;
    /// Start of premium phase 2: a redemption premium with path |q| is
    /// timely until premium_base + |q| * delta (§7.1). 0 means "flat
    /// redemption_premium_deadline only" (direct constructions).
    Tick premium_base = 0;
    Tick redemption_premium_deadline = 0;  ///< end of premium phase 2
    Tick escrow_deadline = 0;              ///< end of base phase 1
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
    Tick hashkey_base = 0;                 ///< start of base phase 2
  };

  explicit MultiPartyArcContract(Params p);

  // -- Transactions ----------------------------------------------------------

  /// u deposits E(u, v) (native coin). Timely until escrow_deadline (the
  /// engine's schedule has leaders deposit within Delta; the contract only
  /// needs a horizon after which deposits are pointless).
  void deposit_escrow_premium(chain::TxContext& ctx);

  /// v deposits the redemption premium for `leader_index` with path `q`
  /// and a signature over (leader_index, q). The amount is dictated by
  /// Equation 1 — the contract computes it and takes exactly that.
  void deposit_redemption_premium(chain::TxContext& ctx,
                                  std::size_t leader_index,
                                  const graph::Path& q,
                                  const crypto::Signature& path_sig);

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
  std::vector<Tick> timeouts() const override;

  // -- Public state -----------------------------------------------------------

  const Params& params() const { return p_; }

  bool escrow_premium_deposited() const { return ep_deposited_.has_value(); }
  /// Activation (paper §7.1): all redemption premiums present on this arc.
  bool escrow_premium_activated() const;
  bool escrow_premium_refunded() const { return ep_refunded_; }
  bool escrow_premium_awarded() const { return ep_awarded_; }

  bool redemption_premium_deposited(std::size_t leader_index) const {
    return rp_[leader_index].deposited_at.has_value();
  }
  bool redemption_premium_refunded(std::size_t leader_index) const {
    return rp_[leader_index].refunded;
  }
  bool redemption_premium_awarded(std::size_t leader_index) const {
    return rp_[leader_index].awarded;
  }
  Amount redemption_premium_amount(std::size_t leader_index) const {
    return rp_[leader_index].amount;
  }
  /// The deposit's (public) path — what downstream parties extend when
  /// relaying the premium backward through the digraph.
  const graph::Path& redemption_premium_path(std::size_t leader_index) const {
    return rp_[leader_index].path;
  }

  bool escrowed() const { return escrowed_at_.has_value(); }
  std::optional<Tick> escrowed_at() const { return escrowed_at_; }
  bool redeemed() const { return redeemed_; }
  bool refunded() const { return refunded_; }
  std::optional<Tick> asset_resolved_at() const { return asset_resolved_at_; }

  bool hashlock_open(std::size_t leader_index) const {
    return hashkeys_[leader_index].has_value();
  }
  /// The hashkey that opened hashlock i, once presented — this is how the
  /// next party down the digraph learns the secret and its path.
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t leader_index) const {
    return hashkeys_[leader_index];
  }

  /// Deadline for a path of length `len` (paper: (diam + |q|) * Delta).
  Tick path_deadline(std::size_t len) const {
    return p_.hashkey_base +
           static_cast<Tick>(diam_ + len) * p_.delta;
  }

 private:
  struct RedemptionPremium {
    Amount amount = 0;
    graph::Path path;
    std::optional<Tick> deposited_at;
    bool refunded = false;
    bool awarded = false;

    void state_hash_into(std::uint64_t& h) const {
      chain::state_hash_values(h, amount, path, deposited_at, refunded,
                               awarded);
    }
  };

  PartyId sender_of_arc() const { return p_.arc.from; }      // u
  PartyId recipient_of_arc() const { return p_.arc.to; }     // v
  bool all_hashlocks_open() const;
  void refund_escrow_premium(chain::TxContext& ctx, PartyId to, bool award);

  Params p_;
  SymbolId sym_ = SymbolTable::intern(p_.asset_symbol);
  std::size_t diam_;
  /// Memoized signature verification: reused worlds re-see the same
  /// deterministic hashkeys/path signatures every schedule.
  crypto::VerifyCache vcache_;
  /// Equation 1 amounts per deposit path (pure in (g, p), so it survives
  /// rewinds like the signature memo).
  std::map<graph::Path, Amount> rp_amount_memo_;
  std::optional<Tick> ep_deposited_;
  bool ep_refunded_ = false;
  bool ep_awarded_ = false;
  std::vector<RedemptionPremium> rp_;
  std::optional<Tick> escrowed_at_;
  std::optional<Tick> asset_resolved_at_;
  bool redeemed_ = false;
  bool refunded_ = false;
  std::vector<std::optional<crypto::Hashkey>> hashkeys_;

  /// Every mutable member (the signature and Equation-1 memos cache pure
  /// computation and are deliberately absent).
  auto state_tie() {
    return std::tie(ep_deposited_, ep_refunded_, ep_awarded_, rp_,
                    escrowed_at_, asset_resolved_at_, redeemed_, refunded_,
                    hashkeys_);
  }
  friend chain::SnapshotState<MultiPartyArcContract>;
};

}  // namespace xchain::contracts
