#include "crypto/sha256.hpp"

#include <cstring>

#include "common/ensure.hpp"
#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mtr::crypto {

namespace {

constexpr std::uint32_t rotr32(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
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

bool sha256_shani_supported() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

namespace {

// State is kept in the register layout SHA256RNDS2 wants: `abef` holds words
// A, B, E, F and `cdgh` holds C, D, G, H (most significant lane first).
// Each call below runs four rounds on message words w[4g..4g+3] (in `msg`).
__attribute__((target("sha,ssse3,sse4.1"))) void rounds4(__m128i& abef, __m128i& cdgh,
                                                         __m128i msg, int g) {
  const __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message words w[4i..4i+3], byte-swapped from big-endian.
__attribute__((target("sha,ssse3,sse4.1"))) __m128i load_words(const std::uint8_t* block,
                                                               int i) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), bswap);
}

// The next four schedule words from the previous sixteen (w[t-16..t-1] in
// a, b, c, d): sigma0 and w[t-16] in MSG1, w[t-7] by a 4-byte shift of
// c:d, sigma1 in MSG2.
__attribute__((target("sha,ssse3,sse4.1"))) __m128i schedule4(__m128i a, __m128i b,
                                                              __m128i c, __m128i d) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(a, b), _mm_alignr_epi8(d, c, 4));
  return _mm_sha256msg2_epu32(t, d);
}

}  // namespace

__attribute__((target("sha,ssse3,sse4.1"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t block[64]) {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i m0 = load_words(block, 0), m1 = load_words(block, 1),
          m2 = load_words(block, 2), m3 = load_words(block, 3);
  rounds4(abef, cdgh, m0, 0);
  rounds4(abef, cdgh, m1, 1);
  rounds4(abef, cdgh, m2, 2);
  rounds4(abef, cdgh, m3, 3);
  for (int g = 4; g < 16; g += 4) {
    m0 = schedule4(m0, m1, m2, m3);
    rounds4(abef, cdgh, m0, g);
    m1 = schedule4(m1, m2, m3, m0);
    rounds4(abef, cdgh, m1, g + 1);
    m2 = schedule4(m2, m3, m0, m1);
    rounds4(abef, cdgh, m2, g + 2);
    m3 = schedule4(m3, m0, m1, m2);
    rounds4(abef, cdgh, m3, g + 3);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha256_shani_supported() { return false; }

#endif

}  // namespace detail

Sha256::Sha256() {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                             0xa54ff53a, 0x510e527f, 0x9b05688c,
                                             0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
}

void Sha256::process_block(const std::uint8_t block[64]) {
#if defined(__x86_64__)
  static const bool kShaNi = detail::sha256_shani_supported();
  if (kShaNi) {
    detail::sha256_compress_shani(state_, block);
    return;
  }
#endif
  detail::sha256_compress_portable(state_, block);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  MTR_ENSURE_MSG(!finished_, "Sha256::update after finish");
  total_len_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= 64) {
      process_block(data);
      data += 64;
      len -= 64;
      continue;
    }
    const std::size_t take = std::min<std::size_t>(64 - buffered_, len);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
}

void Sha256::update(std::string_view s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest32 Sha256::finish() {
  MTR_ENSURE_MSG(!finished_, "Sha256::finish called twice");
  // update() never leaves a full buffer behind, so the 0x80 byte fits.
  MTR_ENSURE(buffered_ < 64);
  finished_ = true;

  // Padding: 0x80, zeros up to 56 mod 64, then the bit length big-endian.
  // With more than 55 bytes buffered the length spills into a second block.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, 64 - buffered_);
    process_block(buffer_);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  store_be64(buffer_ + 56, total_len_ * 8);
  process_block(buffer_);

  Digest32 d;
  for (int i = 0; i < 8; ++i) store_be32(d.bytes.data() + 4 * i, state_[i]);
  return d;
}

Digest32 sha256(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

Digest32 sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return ctx.finish();
}

}  // namespace mtr::crypto
