#include "ec/gf256.h"

#include <cassert>
#include <cstring>

#include "ec/detail/kernels.h"
#include "ec/xor_kernel.h"

namespace draid::ec {

const Gf256 &
Gf256::instance()
{
    static const Gf256 field;
    return field;
}

Gf256::Gf256()
{
    // Generator g = 2, polynomial 0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        exp_[i] = static_cast<std::uint8_t>(x);
        log_[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i)
        exp_[i] = exp_[i - 255];
    log_[0] = 0; // Unused; mul() guards zero operands.
}

std::uint8_t
Gf256::div(std::uint8_t a, std::uint8_t b) const
{
    assert(b != 0);
    if (a == 0)
        return 0;
    return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t
Gf256::inv(std::uint8_t a) const
{
    assert(a != 0);
    return exp_[(255 - log_[a]) % 255];
}

namespace {

/** Per-constant lookup tables, derived once from the log/exp field. */
struct MulTables
{
    // product[c][x] = c * x: the portable kernels' table. Its first 16
    // entries are c's low-nibble table.
    std::uint8_t product[256][256];
    // highNibble[c][n] = c * (n << 4).
    std::uint8_t highNibble[256][16];

    MulTables()
    {
        const auto &gf = Gf256::instance();
        for (unsigned c = 0; c < 256; ++c) {
            for (unsigned x = 0; x < 256; ++x)
                product[c][x] = gf.mul(static_cast<std::uint8_t>(c),
                                       static_cast<std::uint8_t>(x));
            for (unsigned n = 0; n < 16; ++n)
                highNibble[c][n] = product[c][n << 4];
        }
    }
};

const MulTables &
mulTables()
{
    static const MulTables tables;
    return tables;
}

} // namespace

namespace detail {

void
gfMulAccumPortable(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                   std::size_t len)
{
    const std::uint8_t *row = mulTables().product[c];
    for (std::size_t i = 0; i < len; ++i)
        dst[i] ^= row[src[i]];
}

void
gfMulBlockPortable(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                   std::size_t len)
{
    const std::uint8_t *row = mulTables().product[c];
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = row[src[i]];
}

namespace {

/** 2 * v for each byte of a 64-bit word (the Linux raid6 SWAR step). */
inline std::uint64_t
mul2Word(std::uint64_t v)
{
    const std::uint64_t top = v & 0x8080808080808080ull;
    const std::uint64_t carry = (top << 1) - (top >> 7); // 0xff per set bit
    return ((v << 1) & 0xfefefefefefefefeull) ^
           (carry & 0x1d1d1d1d1d1d1d1dull);
}

/** pqGen over bytes [from, len), one byte at a time. */
void
pqGenTail(const std::uint8_t *const *srcs, std::size_t k, std::uint8_t *p,
          std::uint8_t *q, std::size_t from, std::size_t len)
{
    for (std::size_t i = from; i < len; ++i) {
        unsigned pb = 0, qb = 0;
        for (std::size_t j = k; j-- > 0;) {
            qb = (qb << 1) ^ ((qb & 0x80) ? 0x11d : 0);
            if (srcs[j]) {
                pb ^= srcs[j][i];
                qb ^= srcs[j][i];
            }
        }
        p[i] = static_cast<std::uint8_t>(pb);
        q[i] = static_cast<std::uint8_t>(qb);
    }
}

} // namespace

void
pqGenPortable(const std::uint8_t *const *srcs, std::size_t k, std::uint8_t *p,
              std::uint8_t *q, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t pw = 0, qw = 0;
        for (std::size_t j = k; j-- > 0;) {
            qw = mul2Word(qw);
            if (srcs[j]) {
                std::uint64_t s;
                std::memcpy(&s, srcs[j] + i, 8);
                pw ^= s;
                qw ^= s;
            }
        }
        std::memcpy(p + i, &pw, 8);
        std::memcpy(q + i, &qw, 8);
    }
    pqGenTail(srcs, k, p, q, i, len);
}

#if DRAID_EC_AVX2

namespace {

/** c's two nibble tables, each broadcast to both 128-bit lanes. */
struct NibbleTables
{
    __m256i lo, hi;
};

__attribute__((target("avx2"))) inline NibbleTables
nibbleTables(std::uint8_t c)
{
    const MulTables &t = mulTables();
    return {_mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(t.product[c]))),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(t.highNibble[c])))};
}

/** c * s for 32 bytes: lo[s & 15] ^ hi[s >> 4]. */
__attribute__((target("avx2"))) inline __m256i
mul32(const NibbleTables &t, __m256i s)
{
    const __m256i mask = _mm256_set1_epi8(0x0f);
    const __m256i l = _mm256_and_si256(s, mask);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
    return _mm256_xor_si256(_mm256_shuffle_epi8(t.lo, l),
                            _mm256_shuffle_epi8(t.hi, h));
}

/** 2 * v for each byte of v. */
__attribute__((target("avx2"))) inline __m256i
mul2x32(__m256i v)
{
    const __m256i carry = _mm256_cmpgt_epi8(_mm256_setzero_si256(), v);
    return _mm256_xor_si256(_mm256_add_epi8(v, v),
                            _mm256_and_si256(carry, _mm256_set1_epi8(0x1d)));
}

} // namespace

__attribute__((target("avx2"))) void
gfMulAccumAvx2(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
               std::size_t len)
{
    const NibbleTables t = nibbleTables(c);
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        const __m256i p0 = mul32(t, load32(src + i));
        const __m256i p1 = mul32(t, load32(src + i + 32));
        store32(dst + i, _mm256_xor_si256(load32(dst + i), p0));
        store32(dst + i + 32, _mm256_xor_si256(load32(dst + i + 32), p1));
    }
    for (; i + 32 <= len; i += 32)
        store32(dst + i,
                _mm256_xor_si256(load32(dst + i), mul32(t, load32(src + i))));
    gfMulAccumPortable(c, src + i, dst + i, len - i);
}

__attribute__((target("avx2"))) void
gfMulBlockAvx2(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
               std::size_t len)
{
    const NibbleTables t = nibbleTables(c);
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        // Both loads precede both stores, so src == dst is safe.
        const __m256i p0 = mul32(t, load32(src + i));
        const __m256i p1 = mul32(t, load32(src + i + 32));
        store32(dst + i, p0);
        store32(dst + i + 32, p1);
    }
    for (; i + 32 <= len; i += 32)
        store32(dst + i, mul32(t, load32(src + i)));
    gfMulBlockPortable(c, src + i, dst + i, len - i);
}

__attribute__((target("avx2"))) void
pqGenAvx2(const std::uint8_t *const *srcs, std::size_t k, std::uint8_t *p,
          std::uint8_t *q, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        __m256i p0 = _mm256_setzero_si256(), p1 = p0, q0 = p0, q1 = p0;
        for (std::size_t j = k; j-- > 0;) {
            q0 = mul2x32(q0);
            q1 = mul2x32(q1);
            if (const std::uint8_t *s = srcs[j]) {
                const __m256i s0 = load32(s + i);
                const __m256i s1 = load32(s + i + 32);
                p0 = _mm256_xor_si256(p0, s0);
                p1 = _mm256_xor_si256(p1, s1);
                q0 = _mm256_xor_si256(q0, s0);
                q1 = _mm256_xor_si256(q1, s1);
            }
        }
        store32(p + i, p0);
        store32(p + i + 32, p1);
        store32(q + i, q0);
        store32(q + i + 32, q1);
    }
    pqGenTail(srcs, k, p, q, i, len);
}

#endif // DRAID_EC_AVX2

} // namespace detail

void
Gf256::mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    if (c == 0)
        return;
    if (c == 1) {
        xorInto(dst, src, len);
        return;
    }
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2()) {
        detail::gfMulAccumAvx2(c, src, dst, len);
        return;
    }
#endif
    detail::gfMulAccumPortable(c, src, dst, len);
}

void
Gf256::mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    if (len == 0)
        return;
    if (c == 0) {
        std::memset(dst, 0, len);
        return;
    }
    if (c == 1) {
        std::memmove(dst, src, len);
        return;
    }
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2()) {
        detail::gfMulBlockAvx2(c, src, dst, len);
        return;
    }
#endif
    detail::gfMulBlockPortable(c, src, dst, len);
}

} // namespace draid::ec
