/**
 * @file
 * Internal: the byte kernels behind the public EC entry points.
 *
 * Each kernel exists twice — a portable C++ version and, on x86, an AVX2
 * version compiled with a function-level target attribute — and the public
 * functions (xorInto, xorBlocks, Gf256::mulAccum/mulBlock,
 * Raid6Codec::computePQ) pick one at run time with cpuHasAvx2(). Both
 * versions are declared here so tests can cross-check each against the
 * log/exp reference on any machine. Not part of the public API.
 *
 * Unlike the public entry points, the GF kernels are correct for every
 * constant, including 0 and 1.
 */

#ifndef DRAID_EC_DETAIL_KERNELS_H
#define DRAID_EC_DETAIL_KERNELS_H

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define DRAID_EC_AVX2 1
#include <immintrin.h>
#else
#define DRAID_EC_AVX2 0
#endif

namespace draid::ec::detail {

/**
 * True when the CPU and OS support AVX2. Probed once, on first call (after
 * __builtin_cpu_init), never from a static initializer.
 */
bool cpuHasAvx2();

/** dst[i] ^= src[i]: 64-bit words, 4x unrolled. */
void xorIntoPortable(std::uint8_t *dst, const std::uint8_t *src,
                     std::size_t len);
/** dst[i] = a[i] ^ b[i]: 64-bit words, 4x unrolled. */
void xorBlocksPortable(std::uint8_t *dst, const std::uint8_t *a,
                       const std::uint8_t *b, std::size_t len);

/** dst[i] ^= c * src[i] through c's 256-entry product row. */
void gfMulAccumPortable(std::uint8_t c, const std::uint8_t *src,
                        std::uint8_t *dst, std::size_t len);
/** dst[i] = c * src[i] through c's product row; src == dst is allowed. */
void gfMulBlockPortable(std::uint8_t c, const std::uint8_t *src,
                        std::uint8_t *dst, std::size_t len);

/**
 * P = XOR of the k sources and Q = sum_j g^j * srcs[j] in one pass
 * (Horner's rule on Q). A null source counts as all zeros. Writes every
 * byte of p and q.
 */
void pqGenPortable(const std::uint8_t *const *srcs, std::size_t k,
                   std::uint8_t *p, std::uint8_t *q, std::size_t len);

#if DRAID_EC_AVX2
/** Unaligned 32-byte load and store for the AVX2 kernels. @{ */
__attribute__((target("avx2"))) inline __m256i
load32(const std::uint8_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) inline void
store32(std::uint8_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}
/** @} */

/** AVX2 versions of the kernels above. @pre cpuHasAvx2() @{ */
void xorIntoAvx2(std::uint8_t *dst, const std::uint8_t *src,
                 std::size_t len);
void xorBlocksAvx2(std::uint8_t *dst, const std::uint8_t *a,
                   const std::uint8_t *b, std::size_t len);
/** Split-nibble lookup: two 16-entry tables per constant, VPSHUFB. */
void gfMulAccumAvx2(std::uint8_t c, const std::uint8_t *src,
                    std::uint8_t *dst, std::size_t len);
void gfMulBlockAvx2(std::uint8_t c, const std::uint8_t *src,
                    std::uint8_t *dst, std::size_t len);
void pqGenAvx2(const std::uint8_t *const *srcs, std::size_t k,
               std::uint8_t *p, std::uint8_t *q, std::size_t len);
/** @} */
#endif

} // namespace draid::ec::detail

#endif // DRAID_EC_DETAIL_KERNELS_H
