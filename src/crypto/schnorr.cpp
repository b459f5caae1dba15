#include "crypto/schnorr.hpp"

#include <bit>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "crypto/modexp.hpp"
#include "crypto/sha256.hpp"

namespace xchain::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // These witnesses make Miller-Rabin deterministic for all n < 2^64.
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

const GroupParams& group() {
  static const GroupParams params = [] {
    // Deterministic search for the first safe prime p = 2q + 1 above 2^61.
    std::uint64_t q = (1ull << 60) + 1;
    while (!(is_prime_u64(q) && is_prime_u64(2 * q + 1))) {
      q += 2;
    }
    // g = 4 is a quadratic residue, hence generates the order-q subgroup.
    return GroupParams{2 * q + 1, q, 4};
  }();
  return params;
}

namespace {

std::uint64_t digest_to_scalar(const Digest& d, std::uint64_t mod) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v % mod;
}

void store_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

/// Arithmetic mod p in Montgomery form with R = 2^64: a is held as aR mod
/// p, so a product costs three 64-bit multiplies instead of a 128-bit
/// division. Every operand is below p < 2^62, so a product stays below pR.
struct Montgomery {
  std::uint64_t p;
  std::uint64_t p_inv;  ///< p^-1 mod 2^64
  std::uint64_t one;    ///< R mod p, the Montgomery form of 1
  std::uint64_t r2;     ///< R^2 mod p, which converts into the form

  explicit Montgomery(std::uint64_t modulus)
      : p(modulus),
        p_inv(inverse_mod_2_64(modulus)),
        one((0 - modulus) % modulus),
        r2(mulmod(one, one, modulus)) {}

  static std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
    std::uint64_t inv = odd;  // right to 3 bits; each Newton step doubles it
    for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
    return inv;
  }

  /// t / R mod p for t < pR: subtracting m * p, with m chosen so the low
  /// words cancel, leaves hi(t) - hi(m * p), which lies in (-p, p).
  std::uint64_t reduce(unsigned __int128 t) const {
    const auto hi = static_cast<std::uint64_t>(t >> 64);
    const std::uint64_t m = static_cast<std::uint64_t>(t) * p_inv;
    const auto mp_hi = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m) * p) >> 64);
    return hi >= mp_hi ? hi - mp_hi : hi - mp_hi + p;
  }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return reduce(static_cast<unsigned __int128>(a) * b);
  }
  std::uint64_t to_form(std::uint64_t a) const { return mul(a % p, r2); }
  std::uint64_t from_form(std::uint64_t a) const { return reduce(a); }
};

/// The group's Montgomery context plus its fixed-base table: row i holds
/// g^(j * 16^i) for j = 0..15 in Montgomery form, so g^e for any 64-bit e
/// is one table entry per nibble of e multiplied together (2 KB).
struct Kernels {
  Montgomery mont;
  std::uint64_t table[16][16] = {};

  explicit Kernels(const GroupParams& gp) : mont(gp.p) {
    std::uint64_t step = mont.to_form(gp.g);  // g^(16^i)
    for (auto& row : table) {
      row[0] = mont.one;
      for (int j = 1; j < 16; ++j) row[j] = mont.mul(row[j - 1], step);
      step = mont.mul(row[15], step);
    }
  }
};

const Kernels& kernels() {
  static const Kernels k(group());
  return k;
}

/// g^e in Montgomery form.
std::uint64_t pow_generator_form(const Kernels& k, std::uint64_t e) {
  std::uint64_t acc = k.table[0][e & 15];
  for (int i = 1; i < 16; ++i) {
    acc = k.mont.mul(acc, k.table[i][(e >> (4 * i)) & 15]);
  }
  return acc;
}

/// base^e in Montgomery form, `base` already in it: 4-bit fixed windows
/// from the top nonzero nibble of e down, four squarings and one table
/// multiply per window.
std::uint64_t pow_form(const Montgomery& m, std::uint64_t base,
                       std::uint64_t e) {
  if (e == 0) return m.one;
  std::uint64_t window[16] = {};
  window[0] = m.one;
  for (int j = 1; j < 16; ++j) window[j] = m.mul(window[j - 1], base);
  int i = (std::bit_width(e) - 1) / 4;
  std::uint64_t acc = window[(e >> (4 * i)) & 15];
  while (i-- > 0) {
    for (int sq = 0; sq < 4; ++sq) acc = m.mul(acc, acc);
    acc = m.mul(acc, window[(e >> (4 * i)) & 15]);
  }
  return acc;
}

/// The Fiat-Shamir challenge H("xchain-challenge/" || r || y || message).
std::uint64_t challenge(std::uint64_t r, const PublicKey& pub,
                        const Bytes& message, std::uint64_t q) {
  std::uint8_t ctx[16] = {};
  store_u64(ctx, r);
  store_u64(ctx + 8, pub.y);
  Sha256 h;
  h.update("xchain-challenge/");
  h.update(ctx, sizeof(ctx));
  h.update(message);
  return digest_to_scalar(h.finish(), q);
}

}  // namespace

namespace detail {

std::uint64_t pow_generator(std::uint64_t e) {
  const Kernels& k = kernels();
  return k.mont.from_form(pow_generator_form(k, e));
}

std::uint64_t pow_mod_p(std::uint64_t base, std::uint64_t e) {
  const Montgomery& m = kernels().mont;
  return m.from_form(pow_form(m, m.to_form(base), e));
}

}  // namespace detail

Bytes Signature::encode() const {
  Bytes out;
  out.reserve(16);
  append_u64(out, e);
  append_u64(out, s);
  return out;
}

KeyPair keygen(std::string_view seed) {
  const GroupParams& gp = group();
  Sha256 h;
  h.update("xchain-keygen/");
  h.update(seed);
  const std::uint64_t x = 1 + digest_to_scalar(h.finish(), gp.q - 1);
  return KeyPair{PrivateKey{x}, PublicKey{detail::pow_generator(x)}};
}

namespace {

/// Transparent hashing so cache hits are allocation-free (sweep workers
/// rebuild parties per schedule and look keys up by string_view).
struct SeedHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SeedEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const KeyPair& keygen_cached(std::string_view seed) {
  // Hits take a shared lock and never allocate; the map is node-based, so
  // returned references stay valid across rehashes.
  static std::shared_mutex mu;
  static std::unordered_map<std::string, KeyPair, SeedHash, SeedEq> cache;
  {
    std::shared_lock lock(mu);
    const auto it = cache.find(seed);
    if (it != cache.end()) return it->second;
  }
  std::unique_lock lock(mu);
  const auto it = cache.find(seed);  // raced inserts resolve here
  if (it != cache.end()) return it->second;
  return cache.emplace(std::string(seed), keygen(seed)).first->second;
}

Signature sign(const PrivateKey& key, const PublicKey& pub,
               const Bytes& message) {
  const GroupParams& gp = group();
  // Deterministic nonce derivation (RFC 6979 in spirit).
  std::uint8_t key_bytes[8] = {};
  store_u64(key_bytes, key.x);
  Sha256 nh;
  nh.update("xchain-nonce/");
  nh.update(key_bytes, sizeof(key_bytes));
  nh.update(message);
  const std::uint64_t k = 1 + digest_to_scalar(nh.finish(), gp.q - 1);
  const std::uint64_t r = detail::pow_generator(k);
  const std::uint64_t e = challenge(r, pub, message, gp.q);
  const std::uint64_t s = (k + mulmod(e, key.x, gp.q)) % gp.q;
  return Signature{e, s};
}

bool verify(const PublicKey& pub, const Bytes& message, const Signature& sig) {
  const GroupParams& gp = group();
  if (pub.y == 0 || pub.y >= gp.p || sig.s >= gp.q || sig.e >= gp.q) {
    return false;
  }
  // R' = g^s * y^(-e) = g^s * y^(q - e)  (y has order q).
  const Kernels& k = kernels();
  const std::uint64_t gs = pow_generator_form(k, sig.s);
  const std::uint64_t ye =
      pow_form(k.mont, k.mont.to_form(pub.y), gp.q - sig.e);
  const std::uint64_t r = k.mont.from_form(k.mont.mul(gs, ye));
  return challenge(r, pub, message, gp.q) == sig.e;
}

}  // namespace xchain::crypto
