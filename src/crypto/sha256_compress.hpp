#pragma once

// Private to the crypto layer and its tests: the SHA-256 compression
// kernels behind `Sha256::process_block`, which picks one per process.

#include <cstdint>

namespace xchain::crypto::detail {

/// One SHA-256 compression (FIPS 180-4 §6.2.2): folds the 64-byte `block`
/// into the eight-word chaining `state`.
using Sha256Compress = void (*)(std::uint32_t state[8],
                                const std::uint8_t* block);

/// The portable compression: the fallback on hosts without SHA extensions
/// and the reference the hardware kernel is tested against.
void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* block);

/// The x86-64 SHA extensions (SHA-NI) compression when CPUID reports SHA,
/// SSSE3 and SSE4.1; nullptr on other hosts and other architectures. Each
/// call probes CPUID, so callers cache the answer.
Sha256Compress sha256_compress_ni();

}  // namespace xchain::crypto::detail
