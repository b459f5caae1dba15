#include "crypto/hashkey.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace xchain::crypto {

Hashkey make_leader_hashkey(const Bytes& secret, PartyId leader,
                            const KeyPair& leader_keys) {
  Hashkey key;
  key.secret = secret;
  key.path = {leader};
  key.sigs = {sign(leader_keys.priv, leader_keys.pub, secret)};
  return key;
}

Hashkey extend_hashkey(const Hashkey& base, PartyId party,
                       const KeyPair& party_keys) {
  Hashkey key;
  key.secret = base.secret;
  key.path.reserve(base.path.size() + 1);
  key.path.push_back(party);
  key.path.insert(key.path.end(), base.path.begin(), base.path.end());

  key.sigs.reserve(base.sigs.size() + 1);
  key.sigs.push_back(
      sign(party_keys.priv, party_keys.pub, base.sigs.front().encode()));
  key.sigs.insert(key.sigs.end(), base.sigs.begin(), base.sigs.end());
  return key;
}

bool verify_hashkey(const Hashkey& key, const Digest& hashlock,
                    const PublicKeyLookup& key_of) {
  if (key.path.empty() || key.path.size() != key.sigs.size()) return false;
  if (sha256(key.secret) != hashlock) return false;

  // Paths are simple. A path holds at most the digraph's vertex count, so
  // scanning each vertex's predecessors in place beats building a set.
  for (auto it = key.path.begin(); it != key.path.end(); ++it) {
    if (std::find(key.path.begin(), it, *it) != it) return false;
  }

  // Innermost link: the leader signs the secret itself.
  const std::size_t last = key.path.size() - 1;
  if (!verify(key_of(key.path[last]), key.secret, key.sigs[last])) {
    return false;
  }
  // Outer links: u_j signs the encoding of u_{j+1}'s signature.
  for (std::size_t j = last; j-- > 0;) {
    if (!verify(key_of(key.path[j]), key.sigs[j + 1].encode(), key.sigs[j])) {
      return false;
    }
  }
  return true;
}

namespace {

Bytes encode_premium_path(std::uint64_t tag,
                          const std::vector<PartyId>& path) {
  Bytes msg;
  msg.reserve(8 * (2 + path.size()));
  append_u64(msg, tag);
  append_u64(msg, path.size());
  for (PartyId p : path) append_u64(msg, p);
  return msg;
}

}  // namespace

bool VerifyCache::verify_hashkey(const Hashkey& key, const Digest& hashlock,
                                 const PublicKeyLookup& key_of) {
  // Serialize every input the verification reads; memo equality is exact.
  Bytes k;
  k.reserve(8 * (3 + key.path.size() * 2 + key.sigs.size() * 2) +
            key.secret.size() + hashlock.size());
  append_u64(k, 0x484b);  // domain tag: hashkey
  append_u64(k, key.secret.size());
  append(k, key.secret);
  append(k, hashlock);
  append_u64(k, key.path.size());  // disambiguates path/sig boundaries
  for (const PartyId p : key.path) {
    append_u64(k, p);
    append_u64(k, key_of(p).y);
  }
  for (const Signature& s : key.sigs) {
    append_u64(k, s.e);
    append_u64(k, s.s);
  }
  const auto it = memo_.find(k);
  if (it != memo_.end()) return it->second;
  const bool ok = xchain::crypto::verify_hashkey(key, hashlock, key_of);
  memo_.emplace(std::move(k), ok);
  return ok;
}

bool VerifyCache::verify_premium_path(const PublicKey& signer,
                                      std::uint64_t tag,
                                      const std::vector<PartyId>& path,
                                      const Signature& sig) {
  Bytes k;
  k.reserve(8 * (5 + path.size()));
  append_u64(k, 0x5050);  // domain tag: premium path
  append_u64(k, signer.y);
  append_u64(k, tag);
  for (const PartyId p : path) append_u64(k, p);
  append_u64(k, sig.e);
  append_u64(k, sig.s);
  const auto it = memo_.find(k);
  if (it != memo_.end()) return it->second;
  const bool ok = xchain::crypto::verify_premium_path(signer, tag, path, sig);
  memo_.emplace(std::move(k), ok);
  return ok;
}

Signature sign_premium_path(const KeyPair& signer, std::uint64_t tag,
                            const std::vector<PartyId>& path) {
  return sign(signer.priv, signer.pub, encode_premium_path(tag, path));
}

const Hashkey& SigningCache::leader_hashkey(std::size_t index,
                                            const Bytes& secret,
                                            PartyId leader,
                                            const KeyPair& leader_keys) {
  const std::pair<std::uint64_t, std::vector<PartyId>> key{index, {leader}};
  const auto it = keys_.find(key);
  if (it != keys_.end()) return it->second;
  return keys_
      .emplace(key, make_leader_hashkey(secret, leader, leader_keys))
      .first->second;
}

const Hashkey& SigningCache::extended_hashkey(std::size_t index,
                                              const Hashkey& base,
                                              PartyId party,
                                              const KeyPair& party_keys) {
  std::vector<PartyId> path;
  path.reserve(base.path.size() + 1);
  path.push_back(party);
  path.insert(path.end(), base.path.begin(), base.path.end());
  const std::pair<std::uint64_t, std::vector<PartyId>> key{index,
                                                           std::move(path)};
  const auto it = keys_.find(key);
  if (it != keys_.end()) return it->second;
  return keys_.emplace(key, extend_hashkey(base, party, party_keys))
      .first->second;
}

const Signature& SigningCache::premium_path_sig(
    const KeyPair& signer, PartyId signer_id, std::uint64_t tag,
    const std::vector<PartyId>& path) {
  const std::tuple<PartyId, std::uint64_t, std::vector<PartyId>> key{
      signer_id, tag, path};
  const auto it = sigs_.find(key);
  if (it != sigs_.end()) return it->second;
  return sigs_.emplace(key, sign_premium_path(signer, tag, path))
      .first->second;
}

bool verify_premium_path(const PublicKey& signer, std::uint64_t tag,
                         const std::vector<PartyId>& path,
                         const Signature& sig) {
  return verify(signer, encode_premium_path(tag, path), sig);
}

}  // namespace xchain::crypto
