#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "contracts/hedged_arc.hpp"
#include "crypto/hashkey.hpp"
#include "graph/digraph.hpp"
#include "sim/party.hpp"

namespace xchain::core {

/// A party on the §7 premium lattice, with the backward relays every
/// protocol built from contracts::HedgedArc shares (the multi-party swap,
/// §7; the broker, §8):
///
///  1. a leader starts its own redemption-premium flow: R_own((self), u)
///     on every incoming arc (u, self);
///  2. the first sighting of another leader's premium on an outgoing arc
///     is relayed onto every incoming arc with the path extended by this
///     party ("if v || q is a path, then deposits premium R_i(v || q, u) on
///     every incoming arc"); later sightings are ignored (§7.1);
///  3. a leader presents its own hashkey on every incoming arc;
///  4. the first sighting of each leader's hashkey on an outgoing arc (one
///     whose path does not already hold this party) is extended and
///     presented on every incoming arc.
///
/// Each protocol keeps its own phase gates and release conditions and
/// calls these steps under them, each at its own deviation ordinal; the
/// steps flip their did-flags whatever the plan decides (see
/// sim::Party::act).
///
/// `Arc` is the protocol's handle of one hedged arc: `chain_id()`,
/// `hedged()` (its contracts::HedgedArc, read-only), and the two
/// submissions the relays make, `deposit(ctx, i, q, sig)` and
/// `present(ctx, i, key)`, which call the hosting contract's transactions
/// of those names. The arc lists are built once, when the world is: in_ in
/// the order premiums and keys are submitted, out_ in the order sightings
/// are looked for.
template <class Arc>
class HedgedRelayParty : public sim::Party {
 public:
  /// `own` is this party's leader index, kNotLeader if it leads none;
  /// `leaders` the number of leaders. `g` and `signing` are the world's
  /// and outlive the party.
  HedgedRelayParty(PartyId id, std::string name, sim::DeviationPlan plan,
                   const graph::Digraph& g, crypto::SigningCache& signing,
                   std::size_t leaders, std::size_t own)
      : sim::Party(id, std::move(name), std::move(plan)),
        g_(g),
        signing_(signing),
        own_(own),
        premium_relayed_(leaders, 0),
        key_relayed_(leaders, 0) {}

  static constexpr std::size_t kNotLeader =
      std::numeric_limits<std::size_t>::max();

 protected:
  bool owes_own_premium() const {
    return own_ != kNotLeader && !own_premium_started_;
  }
  bool owes_own_key() const {
    return own_ != kNotLeader && !own_key_released_;
  }

  /// Step 1, once owes_own_premium() and the protocol's gate hold.
  void start_own_premium(chain::MultiChain& chains, Tick now, int ordinal) {
    own_premium_started_ = true;
    act(chains, now, ordinal, [this](chain::MultiChain& ch) {
      deposit_on_incoming(ch, own_, graph::Path{id()});
    });
  }

  /// Step 2, every tick the protocol's relay phase is open.
  void relay_premiums(chain::MultiChain& chains, Tick now, int ordinal) {
    for (std::size_t i = 0; i < premium_relayed_.size(); ++i) {
      if (i == own_ || premium_relayed_[i]) continue;
      for (const Arc& a : out_) {
        const contracts::HedgedArc& arc = a.hedged();
        if (!arc.redemption_premium_deposited(i)) continue;
        premium_relayed_[i] = 1;
        // The deposit's (public) path starts at the arc's recipient;
        // prepend this vertex.
        const graph::Path vq =
            graph::concat(id(), arc.redemption_premium_path(i));
        if (g_.is_path(vq)) {
          act(chains, now, ordinal, [this, i, vq](chain::MultiChain& ch) {
            deposit_on_incoming(ch, i, vq);
          });
        }
        break;
      }
    }
  }

  /// Step 3, once owes_own_key() and the protocol's release condition
  /// hold. `secret` is the world's and outlives the run.
  void release_own_key(chain::MultiChain& chains, Tick now, int ordinal,
                       const crypto::Bytes& secret) {
    own_key_released_ = true;
    act(chains, now, ordinal, [this, &secret](chain::MultiChain& ch) {
      const crypto::Hashkey& key =
          signing_.leader_hashkey(own_, secret, id(), keys());
      present_on_incoming(ch, own_, key);
    });
  }

  /// Step 4, every tick the protocol's hashkey phase is open.
  void relay_keys(chain::MultiChain& chains, Tick now, int ordinal) {
    for (std::size_t i = 0; i < key_relayed_.size(); ++i) {
      if (key_relayed_[i]) continue;
      for (const Arc& a : out_) {
        const contracts::HedgedArc& arc = a.hedged();
        if (!arc.hashlock_open(i)) continue;
        const crypto::Hashkey& seen = *arc.presented_hashkey(i);
        // Extend only if this vertex is not already on the path.
        if (std::find(seen.path.begin(), seen.path.end(), id()) !=
            seen.path.end()) {
          continue;
        }
        key_relayed_[i] = 1;
        // The extended key lives in the world's SigningCache, so the
        // (possibly delayed) submission captures a stable reference.
        const crypto::Hashkey& ext =
            signing_.extended_hashkey(i, seen, id(), keys());
        act(chains, now, ordinal, [this, i, &ext](chain::MultiChain& ch) {
          present_on_incoming(ch, i, ext);
        });
        break;
      }
    }
  }

  /// The relays' mutable state, for the derived party's state_tie().
  auto relay_tie() {
    return std::tie(own_premium_started_, own_key_released_, premium_relayed_,
                    key_relayed_);
  }

  std::vector<Arc> in_;   ///< arcs (u, self)
  std::vector<Arc> out_;  ///< arcs (self, w)

 private:
  void deposit_on_incoming(chain::MultiChain& chains, std::size_t i,
                           const graph::Path& path) {
    for (const Arc& a : in_) {
      const crypto::Signature& sig =
          signing_.premium_path_sig(keys(), id(), i, path);
      submit(chains, a.chain_id(), "redemption premium",
             [a, i, path, sig](chain::TxContext& ctx) {
               a.deposit(ctx, i, path, sig);
             });
    }
  }

  /// `key` lives in the world's SigningCache (stable for the world's
  /// lifetime), so the closures capture it by reference.
  void present_on_incoming(chain::MultiChain& chains, std::size_t i,
                           const crypto::Hashkey& key) {
    for (const Arc& a : in_) {
      submit(chains, a.chain_id(), "present hashkey",
             [a, i, &key](chain::TxContext& ctx) { a.present(ctx, i, key); });
    }
  }

  const graph::Digraph& g_;
  crypto::SigningCache& signing_;
  std::size_t own_;
  bool own_premium_started_ = false;
  bool own_key_released_ = false;
  std::vector<char> premium_relayed_;  ///< per leader index
  std::vector<char> key_relayed_;      ///< per leader index
};

}  // namespace xchain::core
