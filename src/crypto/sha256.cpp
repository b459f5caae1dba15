#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "crypto/sha256_compress.hpp"

namespace xchain::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

namespace {

// Intel's SHA extensions keep the eight state words as two vectors, ABEF
// and CDGH, and run two rounds per SHA256RNDS2 from the low two lanes of a
// message-plus-constant vector. Each of the 16 steps below runs four
// rounds (two RNDS2) on one four-word message group and advances the
// schedule: MSG1 starts group i + 3 from groups i - 1 and i, and MSG2
// finishes group i + 1 from groups i - 1 and i.
__attribute__((target("sha,sse4.1"))) void compress_ni(
    std::uint32_t state[8], const std::uint8_t* block) {
  // Byte shuffle turning each big-endian message word little-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // prev, cur, next, last: message groups i - 1, i, i + 1, i + 2 (mod 4).
  __m128i cur = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block)), bswap);
  __m128i next = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16)), bswap);
  __m128i last = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 32)), bswap);
  __m128i prev = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 48)), bswap);

  for (int i = 0; i < 16; ++i) {
    __m128i wk = _mm_add_epi32(
        cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (i >= 3 && i < 15) {
      next = _mm_sha256msg2_epu32(
          _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur);
    }
    wk = _mm_shuffle_epi32(wk, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (i >= 1 && i < 13) prev = _mm_sha256msg1_epu32(prev, cur);
    const __m128i done = prev;
    prev = cur;
    cur = next;
    next = last;
    last = done;
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

Sha256Compress sha256_compress_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return nullptr;
  if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1)) return nullptr;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return nullptr;
  if (!(ebx & bit_SHA)) return nullptr;
  return &compress_ni;
}

#else

Sha256Compress sha256_compress_ni() { return nullptr; }

#endif

}  // namespace detail

Sha256::Sha256() { std::memcpy(state_, kInit, sizeof(state_)); }

void Sha256::process_block(const std::uint8_t* block) {
  // CPUID is probed once per process; the static's guarded initialization
  // makes the first calls race-free across threads.
  static const detail::Sha256Compress compress = [] {
    const detail::Sha256Compress ni = detail::sha256_compress_ni();
    return ni != nullptr ? ni : &detail::sha256_compress_portable;
  }();
  compress(state_, block);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  bit_count_ += static_cast<std::uint64_t>(len) * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
}

Digest Sha256::finish() {
  // Padding: one 0x80 byte, zeros up to byte 56 of a block, then the
  // 64-bit big-endian message length. A buffer with no room left for the
  // length (more than 55 bytes) spills into one extra all-padding block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  process_block(buffer_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace xchain::crypto
