#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "crypto/bytes.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/modexp.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"

namespace xchain::crypto {
namespace {

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                          "pnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(to_hex(sha256("The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 h;
  for (char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg)));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths straddling the 55/56-byte padding boundary and the block size.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u,
                          128u}) {
    const std::string msg(len, 'a');
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg))) << "len=" << len;
  }
}

TEST(Sha256, KnownDigestsAtPaddingBoundaries) {
  // PaddingBoundaries compares two paths through the same finish(); these
  // pin finish() itself against reference digests of n 'a' bytes, on both
  // sides of the 55/56-byte edge where the length spills into an extra
  // block, and at one and two full blocks.
  const std::pair<std::size_t, const char*> kCases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, digest] : kCases) {
    EXPECT_EQ(to_hex(sha256(std::string(len, 'a'))), digest) << "len=" << len;
  }
}

TEST(Sha256, CompressionKernelsAgree) {
  // The portable kernel is the reference, so pin it first, on every host:
  // one compression of the padded "abc" block from the initial state is
  // the whole FIPS 180-4 example digest.
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                            0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                            0x1f83d9abu, 0x5be0cd19u};
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // message length in bits
  detail::sha256_compress_portable(state, block);
  const std::uint32_t abc[8] = {0xba7816bfu, 0x8f01cfeau, 0x414140deu,
                                0x5dae2223u, 0xb00361a3u, 0x96177a9cu,
                                0xb410ff61u, 0xf20015adu};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(state[i], abc[i]) << "word " << i;

  const detail::Sha256Compress ni = detail::sha256_compress_ni();
  if (ni == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA extensions: no hardware kernel to "
                    "compare";
  }
  Rng rng(0x5a256);
  for (int n = 0; n < 4096; ++n) {
    std::uint32_t portable[8] = {};
    for (std::uint32_t& w : portable) {
      w = static_cast<std::uint32_t>(rng.next_u64());
    }
    const Bytes data = rng.next_bytes(sizeof(block));
    std::uint32_t hardware[8] = {};
    std::memcpy(hardware, portable, sizeof(portable));
    detail::sha256_compress_portable(portable, data.data());
    ni(hardware, data.data());
    ASSERT_EQ(std::memcmp(portable, hardware, sizeof(portable)), 0)
        << "pair " << n;
  }
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), b);
  EXPECT_EQ(from_hex("0001ABFF"), b);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // bad digit
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentLabelsDiverge) {
  Rng a("alice"), b("bob");
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differ);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBytesLength) {
  Rng rng(1);
  EXPECT_EQ(rng.next_bytes(0).size(), 0u);
  EXPECT_EQ(rng.next_bytes(7).size(), 7u);
  EXPECT_EQ(rng.next_bytes(32).size(), 32u);
}

// ---------------------------------------------------------------------------
// Group parameters / modular arithmetic
// ---------------------------------------------------------------------------

TEST(Group, ParametersAreSafePrimeGroup) {
  const GroupParams& gp = group();
  EXPECT_TRUE(is_prime_u64(gp.p));
  EXPECT_TRUE(is_prime_u64(gp.q));
  EXPECT_EQ(gp.p, 2 * gp.q + 1);
  // g must have order exactly q: g^q == 1, g != 1.
  EXPECT_EQ(powmod(gp.g, gp.q, gp.p), 1u);
  EXPECT_NE(gp.g % gp.p, 1u);
}

TEST(Group, MillerRabinKnownValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(2147483647ull));          // 2^31 - 1
  EXPECT_FALSE(is_prime_u64(2147483647ull * 3));
  EXPECT_TRUE(is_prime_u64(18446744073709551557ull));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(3215031751ull));  // strong pseudoprime to 2,3,5,7
}

TEST(Group, MulmodNoOverflow) {
  const std::uint64_t m = 18446744073709551557ull;
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
}

// ---------------------------------------------------------------------------
// Schnorr signatures
// ---------------------------------------------------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("hello world");
  const Signature sig = sign(kp.priv, kp.pub, msg);
  EXPECT_TRUE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = keygen("alice");
  const Signature sig = sign(kp.priv, kp.pub, to_bytes("msg1"));
  EXPECT_FALSE(verify(kp.pub, to_bytes("msg2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair alice = keygen("alice");
  const KeyPair bob = keygen("bob");
  const Bytes msg = to_bytes("payload");
  const Signature sig = sign(alice.priv, alice.pub, msg);
  EXPECT_FALSE(verify(bob.pub, msg, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("payload");
  Signature sig = sign(kp.priv, kp.pub, msg);
  sig.s ^= 1;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
  sig.s ^= 1;
  sig.e ^= 1;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("payload");
  EXPECT_EQ(sign(kp.priv, kp.pub, msg), sign(kp.priv, kp.pub, msg));
}

TEST(Schnorr, KeygenDeterministicPerLabel) {
  EXPECT_EQ(keygen("alice").pub, keygen("alice").pub);
  EXPECT_NE(keygen("alice").pub.y, keygen("bob").pub.y);
}

TEST(Schnorr, ExponentiationMatchesPowmod) {
  // The fixed-base table (g^e) and the Montgomery window (y^e) against
  // the plain square-and-multiply reference. Random exponents span all 64
  // bits, so every table entry is read.
  const GroupParams& gp = group();
  const std::uint64_t bases[] = {1, 2, gp.g, gp.p - 1, keygen("alice").pub.y};
  const std::uint64_t exponents[] = {0,        1,    15, 16,
                                     gp.q - 1, gp.q, (1ull << 61) - 1};
  for (const std::uint64_t e : exponents) {
    EXPECT_EQ(detail::pow_generator(e), powmod(gp.g, e, gp.p)) << "e=" << e;
    for (const std::uint64_t b : bases) {
      EXPECT_EQ(detail::pow_mod_p(b, e), powmod(b, e, gp.p))
          << "base=" << b << " e=" << e;
    }
  }
  Rng rng(0x6d6f6e74);
  for (int n = 0; n < 10000; ++n) {
    const std::uint64_t b = rng.next_below(gp.p);
    const std::uint64_t e = rng.next_u64();
    ASSERT_EQ(detail::pow_generator(e), powmod(gp.g, e, gp.p)) << "e=" << e;
    ASSERT_EQ(detail::pow_mod_p(b, e), powmod(b, e, gp.p))
        << "base=" << b << " e=" << e;
  }
}

TEST(Schnorr, KnownAnswerVectors) {
  // Keys and signatures pinned across builds: every sweep, fuzz and load
  // report depends on them bit for bit, so a kernel change must keep them.
  const std::pair<const char*, std::uint64_t> kKeys[] = {
      {"alice", 0x15d95b259a28e135ull},    {"bob", 0x0b9e18c780cffb57ull},
      {"carol", 0x17424483749043eaull},    {"party-0", 0x11bf80edc0560a70ull},
      {"party-1", 0x1906aa43e75c2baaull},  {"party-2", 0x1b50381a9f52568cull},
      {"party-3", 0x1bd6f9127e0aafb4ull},  {"bidder-1", 0x0b2eccc6ef4035fcull},
  };
  for (const auto& [label, y] : kKeys) {
    EXPECT_EQ(keygen(label).pub.y, y) << label;
  }

  // alice signs bytes 0, 1, 2, ... of each length: empty, one-block and
  // two-block digests on both sides of the 55/56-byte padding edge.
  struct Vector {
    std::size_t len;
    Signature sig;
  };
  const Vector kSigs[] = {
      {0, {0x0de11e238f3c5c71ull, 0x0de45593a457d8edull}},
      {16, {0x0137f013c9fadc6full, 0x007315c828b5d6e6ull}},
      {32, {0x0cba161ff4d3f83dull, 0x0436f4fa803b5d47ull}},
      {55, {0x01aa27664182f24full, 0x0ab2940ed5b83dc0ull}},
      {56, {0x0a85cbd506875399ull, 0x09d1c811085f1d2bull}},
      {64, {0x04eacc94b8f5fb19ull, 0x057caff92262ee1full}},
      {100, {0x0739a2b042678118ull, 0x04ef68ae000cd8afull}},
  };
  const KeyPair alice = keygen("alice");
  for (const Vector& v : kSigs) {
    Bytes msg(v.len);
    for (std::size_t i = 0; i < v.len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(sign(alice.priv, alice.pub, msg), v.sig) << "len=" << v.len;
    EXPECT_TRUE(verify(alice.pub, msg, v.sig)) << "len=" << v.len;
    EXPECT_FALSE(verify(alice.pub, msg, Signature{v.sig.e ^ 1, v.sig.s}))
        << "len=" << v.len;
    EXPECT_FALSE(verify(alice.pub, msg, Signature{v.sig.e, v.sig.s ^ 1}))
        << "len=" << v.len;
  }
}

// ---------------------------------------------------------------------------
// Secrets / hashlocks
// ---------------------------------------------------------------------------

TEST(Secret, OpensOwnHashlock) {
  Rng rng(3);
  const Secret s = Secret::random(rng);
  EXPECT_TRUE(opens(s.hashlock(), s.value()));
}

TEST(Secret, WrongPreimageFails) {
  Rng rng(3);
  const Secret s1 = Secret::random(rng);
  const Secret s2 = Secret::random(rng);
  EXPECT_FALSE(opens(s1.hashlock(), s2.value()));
}

TEST(Secret, FromLabelDeterministic) {
  EXPECT_EQ(Secret::from_label("x").value(), Secret::from_label("x").value());
  EXPECT_NE(Secret::from_label("x").value(), Secret::from_label("y").value());
}

// ---------------------------------------------------------------------------
// Hashkeys (paper §7: (s, q, sigma) triples)
// ---------------------------------------------------------------------------

class HashkeyTest : public ::testing::Test {
 protected:
  KeyPair keys_[3] = {keygen("p0"), keygen("p1"), keygen("p2")};
  PublicKeyLookup lookup_ = [this](PartyId p) { return keys_[p].pub; };
  Secret secret_ = Secret::from_label("leader-secret");
};

TEST_F(HashkeyTest, LeaderHashkeyVerifies) {
  const Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  EXPECT_EQ(k.length(), 1u);
  EXPECT_EQ(k.leader(), 2u);
  EXPECT_TRUE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, ExtendedChainVerifies) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k = extend_hashkey(k, 0, keys_[0]);
  EXPECT_EQ(k.path, (std::vector<PartyId>{0, 1, 2}));
  EXPECT_EQ(k.presenter(), 0u);
  EXPECT_EQ(k.leader(), 2u);
  EXPECT_TRUE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsWrongHashlock) {
  const Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  const Secret other = Secret::from_label("other");
  EXPECT_FALSE(verify_hashkey(k, other.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsForgedExtension) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  // Party 0 claims the extension belongs to party 1.
  Hashkey forged = extend_hashkey(k, 1, keys_[0]);  // signed with WRONG key
  EXPECT_FALSE(verify_hashkey(forged, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsTamperedSecret) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k.secret[0] ^= 1;
  EXPECT_FALSE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsRepeatedVertexInPath) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  Hashkey bad = extend_hashkey(k, 2, keys_[2]);  // 2 appears twice
  EXPECT_FALSE(verify_hashkey(bad, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsDroppedLink) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k = extend_hashkey(k, 0, keys_[0]);
  // Drop the middle party from the path but keep its signature slot count
  // mismatched.
  Hashkey bad = k;
  bad.path.erase(bad.path.begin() + 1);
  EXPECT_FALSE(verify_hashkey(bad, secret_.hashlock(), lookup_));
}

}  // namespace
}  // namespace xchain::crypto
