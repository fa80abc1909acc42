#include "ec/xor_kernel.h"

#include <cassert>
#include <cstring>

#include "ec/detail/kernels.h"

namespace draid::ec {

namespace detail {

bool
cpuHasAvx2()
{
#if DRAID_EC_AVX2
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return has;
#else
    return false;
#endif
}

void
xorIntoPortable(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
    std::size_t i = 0;
    // Word-wise with 4x unrolling; memcpy keeps this free of alignment UB
    // and compiles to plain loads/stores.
    for (; i + 32 <= len; i += 32) {
        std::uint64_t d[4], s[4];
        std::memcpy(d, dst + i, 32);
        std::memcpy(s, src + i, 32);
        d[0] ^= s[0];
        d[1] ^= s[1];
        d[2] ^= s[2];
        d[3] ^= s[3];
        std::memcpy(dst + i, d, 32);
    }
    for (; i < len; ++i)
        dst[i] ^= src[i];
}

void
xorBlocksPortable(std::uint8_t *dst, const std::uint8_t *a,
                  const std::uint8_t *b, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        std::uint64_t x[4], y[4];
        std::memcpy(x, a + i, 32);
        std::memcpy(y, b + i, 32);
        x[0] ^= y[0];
        x[1] ^= y[1];
        x[2] ^= y[2];
        x[3] ^= y[3];
        std::memcpy(dst + i, x, 32);
    }
    for (; i < len; ++i)
        dst[i] = a[i] ^ b[i];
}

#if DRAID_EC_AVX2

__attribute__((target("avx2"))) void
xorBlocksAvx2(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
              std::size_t len)
{
    std::size_t i = 0;
    for (; i + 128 <= len; i += 128) {
        const __m256i x0 = _mm256_xor_si256(load32(a + i), load32(b + i));
        const __m256i x1 =
            _mm256_xor_si256(load32(a + i + 32), load32(b + i + 32));
        const __m256i x2 =
            _mm256_xor_si256(load32(a + i + 64), load32(b + i + 64));
        const __m256i x3 =
            _mm256_xor_si256(load32(a + i + 96), load32(b + i + 96));
        store32(dst + i, x0);
        store32(dst + i + 32, x1);
        store32(dst + i + 64, x2);
        store32(dst + i + 96, x3);
    }
    for (; i + 32 <= len; i += 32)
        store32(dst + i, _mm256_xor_si256(load32(a + i), load32(b + i)));
    for (; i < len; ++i)
        dst[i] = a[i] ^ b[i];
}

__attribute__((target("avx2"))) void
xorIntoAvx2(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
    xorBlocksAvx2(dst, dst, src, len);
}

#endif // DRAID_EC_AVX2

} // namespace detail

void
xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2()) {
        detail::xorIntoAvx2(dst, src, len);
        return;
    }
#endif
    detail::xorIntoPortable(dst, src, len);
}

void
xorBlocks(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
          std::size_t len)
{
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2()) {
        detail::xorBlocksAvx2(dst, a, b, len);
        return;
    }
#endif
    detail::xorBlocksPortable(dst, a, b, len);
}

void
xorInto(Buffer &dst, const Buffer &src)
{
    assert(dst.size() == src.size());
    xorInto(dst.data(), src.data(), dst.size());
}

Buffer
xorOf(const Buffer &a, const Buffer &b)
{
    assert(a.size() == b.size());
    Buffer out = Buffer::uninitialized(a.size());
    xorBlocks(out.data(), a.data(), b.data(), a.size());
    return out;
}

} // namespace draid::ec
