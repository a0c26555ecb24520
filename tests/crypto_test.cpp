// Crypto substrate tests against the published test vectors (RFC 1321
// appendix for MD5, FIPS 180-4 / NIST examples for SHA-2, RFC 4231 for
// HMAC-SHA256), plus a differential test of the two SHA-256 compressions.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"

namespace mtr::crypto {
namespace {

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(to_hex(md5("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(to_hex(md5("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(to_hex(md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(to_hex(md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(to_hex(md5("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(to_hex(md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
                       "9")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(to_hex(md5("123456789012345678901234567890123456789012345678901234567890"
                       "12345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Md5 ctx;
  for (std::size_t i = 0; i < msg.size(); i += 7)
    ctx.update(msg.substr(i, 7));
  EXPECT_EQ(to_hex(ctx.finish()), to_hex(md5(msg)));
}

TEST(Md5, BlockBoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding boundaries.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'q');
    Md5 a;
    a.update(msg);
    Md5 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Md5, FinishTwiceThrows) {
  Md5 ctx;
  ctx.update("abc");
  (void)ctx.finish();
  EXPECT_THROW((void)ctx.finish(), InvariantError);
}

TEST(Sha256, Fips180Vectors) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"}};
  for (const auto& [msg, want] : vectors) {
    EXPECT_EQ(to_hex(sha256(msg)), want) << msg;
    // Byte-at-a-time feeding takes the buffered path of update() throughout.
    Sha256 ctx;
    for (const char c : msg) ctx.update(std::string_view(&c, 1));
    EXPECT_EQ(to_hex(ctx.finish()), want) << msg << " byte at a time";
  }
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaryLengths) {
  // Message i = 'a' + i % 26; expected digests from Python's hashlib. 55 is
  // the longest message that pads into one block, 56 the shortest that
  // needs a second; 63/64 and 119/120 straddle the next boundaries.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005"},
      {56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51"},
      {63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c"},
      {64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e"},
      {119, "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b"},
      {120, "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8"},
      {1000, "915e53a44c18b19bb06ba5b3f5fcaf1dc4651e8404c63425cfc6174e74659d87"},
  };
  for (const auto& [len, want] : cases) {
    std::string msg;
    for (std::size_t i = 0; i < len; ++i) msg += static_cast<char>('a' + i % 26);
    EXPECT_EQ(to_hex(sha256(msg)), want) << "len=" << len;
    Sha256 split;
    split.update(msg.substr(0, len / 3));
    split.update(msg.substr(len / 3));
    EXPECT_EQ(to_hex(split.finish()), want) << "len=" << len << " split";
  }
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 ctx;
  ctx.update("abc");
  (void)ctx.finish();
  EXPECT_THROW((void)ctx.finish(), InvariantError);
  EXPECT_THROW(ctx.update("x"), InvariantError);
}

// --- the two compressions ---------------------------------------------------------

constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::string state_hex(const std::uint32_t state[8]) {
  Digest32 d;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      d.bytes[static_cast<std::size_t>(4 * i + b)] =
          static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return to_hex(d);
}

TEST(Sha256Compress, PortableMatchesFips180) {
  // Sha256 never reaches the portable compression on a CPU with SHA-NI, so
  // the reference is pinned here directly: "abc" padded by hand is one
  // block, and one compression from the IV gives its digest.
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // bit length
  std::uint32_t state[8];
  std::memcpy(state, kSha256Iv, sizeof(state));
  detail::sha256_compress_portable(state, block);
  EXPECT_EQ(state_hex(state),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Compress, ShaNiMatchesPortableOnRandomBlocks) {
  RecordProperty("sha256_compress",
                 detail::sha256_shani_supported() ? "sha-ni" : "portable");
#if defined(__x86_64__)
  if (!detail::sha256_shani_supported())
    GTEST_SKIP() << "CPU lacks SHA-NI, SSSE3 or SSE4.1: Sha256 runs the portable "
                    "compression only";
  Xoshiro256 rng(20260);
  for (int n = 0; n < 20'000; ++n) {
    std::uint32_t portable[8];
    std::uint8_t block[64];
    for (std::uint32_t& w : portable) w = static_cast<std::uint32_t>(rng.next());
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t shani[8];
    std::memcpy(shani, portable, sizeof(shani));
    detail::sha256_compress_portable(portable, block);
    detail::sha256_compress_shani(shani, block);
    ASSERT_EQ(state_hex(shani), state_hex(portable)) << "pair " << n;
  }
#else
  GTEST_SKIP() << "not x86-64: Sha256 runs the portable compression only";
#endif
}

TEST(HmacSha256, Rfc4231Vectors) {
  // Case 1.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(20, '\x0b'), "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Case 2.
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Case 3.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(20, '\xaa'), std::string(50, '\xdd'))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  // Case 6: key longer than one block.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(131, '\xaa'),
                               "Test Using Larger Than Block-Size Key - Hash Key "
                               "First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  const auto a = hmac_sha256("key-a", "message");
  const auto b = hmac_sha256("key-b", "message");
  EXPECT_NE(a, b);
}

TEST(DigestUtils, HexRoundTrip) {
  const Digest32 d = sha256("round-trip");
  const Digest32 back = digest_from_hex<32>(to_hex(d));
  EXPECT_EQ(d, back);
}

TEST(DigestUtils, BadHexRejected) {
  EXPECT_THROW(digest_from_hex<32>("zz"), ConfigError);
  EXPECT_THROW(digest_from_hex<16>("abcd"), ConfigError);  // wrong length
}

TEST(DigestUtils, ConstantTimeEqualitySemantics) {
  Digest16 a = md5("x");
  Digest16 b = a;
  EXPECT_EQ(a, b);
  b.bytes[15] ^= 1;
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

}  // namespace
}  // namespace mtr::crypto
