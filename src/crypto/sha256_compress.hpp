// The SHA-256 compression function (FIPS 180-4 §6.2.2), one 64-byte block
// into an 8-word state. Private to the crypto layer and its tests:
// `Sha256::process_block` picks one of these at run time, and crypto_test
// compares them against each other.
#pragma once

#include <cstdint>

namespace mtr::crypto::detail {

/// Plain C++; the only compression on CPUs without SHA extensions and the
/// reference the others are tested against.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t block[64]);

/// True when the CPU has the x86 SHA extensions plus SSSE3 and SSE4.1, i.e.
/// when `sha256_compress_shani` may be called. Always false off x86-64.
bool sha256_shani_supported();

#if defined(__x86_64__)
/// The same function with the x86 SHA extensions (SHA256RNDS2/MSG1/MSG2).
/// Only call it when `sha256_shani_supported()`.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t block[64]);
#endif

}  // namespace mtr::crypto::detail
