#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "crypto/hashkey.hpp"
#include "graph/digraph.hpp"

namespace xchain::contracts {

/// One leader's hashlock: the leader's hashkey opens it on every arc.
struct Hashlock {
  PartyId leader = kNoParty;
  crypto::Digest digest{};
};

/// What every hedged arc of one contract shares: the swap digraph, its
/// leaders' hashlocks, the parties' keys, Delta, and the phase starts the
/// §7 deadlines count from. Ids are protocol-local. The hosting
/// contracts' Params derive from it.
struct LatticeTerms {
  graph::Digraph g;
  /// g.diameter(), an all-pairs walk: computed once where the terms are
  /// built, not once per arc (Debug builds check it per arc).
  std::size_t diameter = 0;
  Amount premium_unit = 0;  ///< p in Equations 1 and 2
  std::vector<Hashlock> hashlocks;
  std::vector<crypto::PublicKey> party_keys;  ///< indexed by PartyId
  Tick delta = 1;
  /// Start of the redemption-premium relay: a premium with path |q| is
  /// timely until premium_base + |q| * delta (§7.1). 0 means "flat
  /// redemption_premium_deadline only" (directly constructed contracts).
  Tick premium_base = 0;
  Tick redemption_premium_deadline = 0;  ///< end of the relay phase
  Tick hashkey_base = 0;                 ///< start of the hashkey phase
};

/// One arc (u, v) of the §7 premium lattice (paper arXiv 2105.06322), as
/// the contract hosting it on u's chain keeps it. The host owns the
/// principal and decides when it moves; the arc holds the premiums and
/// the hashkeys:
///
///  * the arc premium (E(u, v) of Equation 2, or the §8 broker's trading
///    premium T(A, Y)): deposited by u until `premium_deadline`, refunded
///    to u when the principal moves, and past `move_deadline` with the
///    principal unmoved awarded to v if the arc is *activated* (every
///    leader's redemption premium is in), refunded to u otherwise;
///  * one redemption premium R_i(q, u) per leader (Equation 1): deposited
///    by v with a signature-authenticated path q (v = q.front(), leader i =
///    q.back()) until premium_base + |q| * Delta, refunded to v when v
///    presents leader i's hashkey here, awarded to u once that hashkey
///    misses path_deadline(|q|);
///  * one hashkey slot per leader: a key with path q is taken when q is a
///    path of G from v to the leader, its signature chain verifies, and it
///    arrives by path_deadline(|q|) = hashkey_base + (diam(G) + |q|) *
///    Delta.
///
/// Amounts must match Equation 1 exactly, paths must be real paths of G
/// and signatures must verify (§3.2): that confines Byzantine parties to
/// sore-loser behaviour. All deadlines are inclusive. Senders are
/// translated from global to local ids and payouts back by `party_base`.
///
/// The host forwards its transactions and its timeout sweep here and ties
/// state() into its own state_tie(). The signature and Equation 1 memos
/// cache pure computation, so they survive rewinds.
class HedgedArc {
 public:
  /// The arc's own terms.
  struct Spec {
    graph::Arc arc{};         ///< (u, v): u pays the arc premium
    PartyId party_base = 0;   ///< global account = local id + party_base
    Amount premium = 0;       ///< the arc premium
    Tick premium_deadline = 0;  ///< arc premium deposits timely until here
    Tick move_deadline = 0;  ///< the principal moves by here
    const char* premium_label = "";  ///< names its trace events
    std::string tag;  ///< trace-detail prefix naming the arc in its host
  };

  /// Where a deposit stands.
  enum class Held : std::uint8_t { kNone, kHeld, kRefunded, kAwarded };

  struct RedemptionSlot {
    Amount amount = 0;
    graph::Path path;
    Held held = Held::kNone;

    void state_hash_into(std::uint64_t& h) const {
      chain::state_hash_values(h, amount, path, held);
    }
  };

  /// Every mutable member, for the host's state_tie().
  struct State {
    Held premium = Held::kNone;
    std::vector<RedemptionSlot> rp;                    ///< per leader
    std::vector<std::optional<crypto::Hashkey>> keys;  ///< per leader

    void state_hash_into(std::uint64_t& h) const {
      chain::state_hash_values(h, premium, rp, keys);
    }
  };

  /// `host` and `terms` must outlive the arc (the host owns both).
  HedgedArc(const chain::Contract& host, const LatticeTerms& terms,
            Spec spec);

  // -- Transactions ----------------------------------------------------------

  /// u deposits the arc premium.
  void deposit_premium(chain::TxContext& ctx);
  /// v deposits leader `i`'s redemption premium with path `q`; the amount
  /// is Equation 1's.
  void deposit_redemption_premium(chain::TxContext& ctx, std::size_t i,
                                  const graph::Path& q,
                                  const crypto::Signature& path_sig);
  /// Anyone presents leader `i`'s hashkey. A valid, timely key opens the
  /// hashlock and refunds v's matching redemption premium (Lemma 1).
  /// Returns whether the key was taken.
  bool present_hashkey(chain::TxContext& ctx, std::size_t i,
                       const crypto::Hashkey& key);
  /// The host moved the principal in time: a held arc premium returns to
  /// u (Lemma 1).
  void principal_moved(chain::TxContext& ctx);

  // -- Timeout sweep, in the host's on_block ---------------------------------

  /// Past move_deadline with the principal unmoved: awards a held arc
  /// premium to v if the arc is activated, refunds it to u otherwise.
  void resolve_premium(chain::TxContext& ctx, bool moved);
  /// Awards to u every held redemption premium whose hashkey missed its
  /// path's deadline.
  void award_expired(chain::TxContext& ctx);
  /// `out` followed by path_deadline(len) for every path length.
  std::vector<Tick> with_path_deadlines(std::vector<Tick> out) const;

  // -- Public state ----------------------------------------------------------

  const graph::Arc& arc() const { return spec_.arc; }
  bool premium_deposited() const { return st_.premium != Held::kNone; }
  bool premium_refunded() const { return st_.premium == Held::kRefunded; }
  bool premium_awarded() const { return st_.premium == Held::kAwarded; }
  /// Activation (§7.1): every leader's redemption premium is on this arc.
  bool activated() const;

  bool redemption_premium_deposited(std::size_t i) const {
    return st_.rp[i].held != Held::kNone;
  }
  bool redemption_premium_refunded(std::size_t i) const {
    return st_.rp[i].held == Held::kRefunded;
  }
  bool redemption_premium_awarded(std::size_t i) const {
    return st_.rp[i].held == Held::kAwarded;
  }
  Amount redemption_premium_amount(std::size_t i) const {
    return st_.rp[i].amount;
  }
  /// The deposit's (public) path: what the next party upstream extends
  /// when it relays the premium backward.
  const graph::Path& redemption_premium_path(std::size_t i) const {
    return st_.rp[i].path;
  }

  bool hashlock_open(std::size_t i) const { return st_.keys[i].has_value(); }
  bool all_open() const;
  /// The hashkey that opened hashlock `i`: what the next party upstream
  /// extends when it relays the key.
  const std::optional<crypto::Hashkey>& presented_hashkey(
      std::size_t i) const {
    return st_.keys[i];
  }

  /// The hashkey deadline of a path with `len` hops: (diam + |q|) * Delta
  /// from the hashkey phase's start.
  Tick path_deadline(std::size_t len) const {
    return t_.hashkey_base + static_cast<Tick>(t_.diameter + len) * t_.delta;
  }

  State& state() { return st_; }

 private:
  /// Global sender -> local id (wraps harmlessly for foreign senders: the
  /// id can never match a local vertex).
  PartyId local_sender(const chain::TxContext& ctx) const {
    return ctx.sender() - spec_.party_base;
  }
  chain::Address account(PartyId local) const {
    return chain::Address::party(spec_.party_base + local);
  }
  void pay_premium(chain::TxContext& ctx, PartyId to, bool award);

  const chain::Contract& host_;
  const LatticeTerms& t_;
  Spec spec_;
  crypto::VerifyCache vcache_;
  std::map<graph::Path, Amount> rp_amount_memo_;  ///< Equation 1 per path
  State st_;
};

}  // namespace xchain::contracts
