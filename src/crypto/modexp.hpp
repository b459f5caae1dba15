#pragma once

// Private to the crypto layer and its tests: the Montgomery exponentiation
// kernels behind keygen, sign and verify. Both return exactly
// powmod(..., group().p), which stays as their reference.

#include <cstdint>

namespace xchain::crypto::detail {

/// g^e mod p for the group generator, read from the fixed-base table.
std::uint64_t pow_generator(std::uint64_t e);

/// base^e mod p by a 4-bit fixed-window Montgomery ladder.
std::uint64_t pow_mod_p(std::uint64_t base, std::uint64_t e);

}  // namespace xchain::crypto::detail
