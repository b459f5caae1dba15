#pragma once

#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "crypto/bytes.hpp"
#include "crypto/schnorr.hpp"

namespace xchain::crypto {

/// A hashkey (paper §7): the triple (s, q, sigma) that unlocks hashlock
/// h = H(s) on an arc contract.
///
///  * `secret` is the preimage s.
///  * `path` is q = (u_0, ..., u_k): u_k is the leader who generated s, and
///    u_0 is the party presenting the hashkey (the asset recipient on the
///    arc where it is presented). The path grows by prepending as the
///    hashkey propagates backwards through the digraph.
///  * `sigs[j]` is u_j's signature; sigs[k] (the leader's) signs the secret,
///    and each sigs[j] for j < k signs the encoding of sigs[j+1]:
///    sigma = sig(... sig(s, u_k) ..., u_0).
///
/// A hashkey on arc (u, v) times out at (diam(G) + |q|) * Delta after the
/// start of the protocol; the timeout check lives in the arc contract, which
/// knows diam(G) and Delta.
struct Hashkey {
  Bytes secret;
  std::vector<PartyId> path;
  std::vector<Signature> sigs;

  /// Path length |q| (1 for a leader's own hashkey).
  std::size_t length() const { return path.size(); }

  /// The leader who generated the secret (last element of the path).
  PartyId leader() const { return path.back(); }

  /// The party that most recently extended (or created) the hashkey.
  PartyId presenter() const { return path.front(); }
};

/// Creates a leader's initial hashkey with path (leader).
Hashkey make_leader_hashkey(const Bytes& secret, PartyId leader,
                            const KeyPair& leader_keys);

/// Extends `base` by prepending `party` to the path and wrapping the
/// signature chain: used when `party` learned the hashkey on an outgoing arc
/// and re-presents it on an incoming arc.
Hashkey extend_hashkey(const Hashkey& base, PartyId party,
                       const KeyPair& party_keys);

/// Resolves a party id to its public key.
using PublicKeyLookup = std::function<PublicKey(PartyId)>;

/// Verifies the whole hashkey:
///  * SHA-256(secret) matches `hashlock`,
///  * the path is non-empty with distinct vertices,
///  * every signature in the chain verifies under the path party's key.
///
/// Graph validity of the path (consecutive pairs are arcs of G) and the
/// timeout are checked separately by the arc contract, which knows G.
bool verify_hashkey(const Hashkey& key, const Digest& hashlock,
                    const PublicKeyLookup& key_of);

/// Signs a redemption-premium path (paper §7.1: premium paths "are
/// authenticated by signatures" exactly like hashkey paths). The signer is
/// the depositor; `tag` distinguishes the leader/hashlock the premium is
/// for.
Signature sign_premium_path(const KeyPair& signer, std::uint64_t tag,
                            const std::vector<PartyId>& path);

/// Verifies a premium-path signature under the depositor's key.
bool verify_premium_path(const PublicKey& signer, std::uint64_t tag,
                         const std::vector<PartyId>& path,
                         const Signature& sig);

/// Memoizing front-end for the two verification entry points above.
///
/// Signature verification is pure: the verdict is a function of the bytes
/// checked. A contract on a reusable sweep world sees the same
/// deterministic hashkeys and premium-path signatures on every schedule,
/// so it can carry one of these across runs (a cache of pure computation,
/// deliberately left out of the contract's snapshot state) and pay each
/// modular exponentiation chain once instead of once per schedule.
///
/// Entries are keyed by the full serialized verification input (domain
/// tag, secret, digest, path, signatures, resolved public keys), compared
/// bytewise — a memo hit is exact, never a hash collision, so the cache
/// can never flip a verdict (the weak-fingerprint failure mode this PR
/// deleted from Ledger::KeyHash). Not thread-safe — contracts are
/// confined to one worker's world, which is exactly the sweep's threading
/// model.
class VerifyCache {
 public:
  bool verify_hashkey(const Hashkey& key, const Digest& hashlock,
                      const PublicKeyLookup& key_of);
  bool verify_premium_path(const PublicKey& signer, std::uint64_t tag,
                           const std::vector<PartyId>& path,
                           const Signature& sig);

 private:
  struct BytesHash {
    std::size_t operator()(const Bytes& b) const noexcept {
      std::size_t h = 1469598103934665603ull;  // FNV-1a
      for (const std::uint8_t c : b) {
        h ^= c;
        h *= 1099511628211ull;
      }
      return h;
    }
  };
  // Bucket lookup still compares the full key bytes, so a hash collision
  // costs a probe, never a wrong verdict.
  std::unordered_map<Bytes, bool, BytesHash> memo_;
};

/// Memoizing front-end for hashkey construction and premium-path signing.
///
/// Both are deterministic: within one protocol world the secrets, keys,
/// and party ids are fixed, so the hashkey for (index, path) — and the
/// signature for (signer, tag, path) — is the same on every sweep
/// schedule. Worlds own one of these and reuse it across runs, collapsing
/// per-schedule signing to a map lookup. Not thread-safe; one per world.
class SigningCache {
 public:
  /// make_leader_hashkey, memoized on (index, {leader}).
  const Hashkey& leader_hashkey(std::size_t index, const Bytes& secret,
                                PartyId leader, const KeyPair& leader_keys);

  /// extend_hashkey, memoized on (index, party + base.path).
  const Hashkey& extended_hashkey(std::size_t index, const Hashkey& base,
                                  PartyId party, const KeyPair& party_keys);

  /// sign_premium_path, memoized on (signer_id, tag, path).
  const Signature& premium_path_sig(const KeyPair& signer, PartyId signer_id,
                                    std::uint64_t tag,
                                    const std::vector<PartyId>& path);

 private:
  std::map<std::pair<std::uint64_t, std::vector<PartyId>>, Hashkey> keys_;
  std::map<std::tuple<PartyId, std::uint64_t, std::vector<PartyId>>,
           Signature>
      sigs_;
};

}  // namespace xchain::crypto
