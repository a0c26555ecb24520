// SHA-256 (FIPS 180-4). Backbone of the measurement log, PCR extension and
// the HMAC quote mock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "crypto/digest.hpp"

namespace mtr::crypto {

/// Incremental SHA-256 context. Blocks are compressed with the x86 SHA
/// extensions when the CPU has them and in portable C++ otherwise; the
/// digests are the same.
class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s);

  /// Finalizes and returns the digest; the context must not be reused after.
  Digest32 finish();

 private:
  void process_block(const std::uint8_t block[64]);

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
Digest32 sha256(std::string_view s);
Digest32 sha256(const std::uint8_t* data, std::size_t len);

}  // namespace mtr::crypto
