/**
 * @file
 * XOR kernels — the RAID-5 parity primitive.
 *
 * These are the software counterparts of the ISA-L routines the paper uses
 * (§8). They run 256-bit AVX2 loops on CPUs that have AVX2 and 64-bit
 * words with 4x unrolling elsewhere, chosen at run time; the simulated CPU
 * cost of running them is modeled separately by sim::CpuCore with a
 * calibrated bytes/sec rate.
 */

#ifndef DRAID_EC_XOR_KERNEL_H
#define DRAID_EC_XOR_KERNEL_H

#include <cstddef>
#include <cstdint>

#include "ec/buffer.h"

namespace draid::ec {

/** dst[i] ^= src[i] for i in [0, len). */
void xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t len);

/** dst[i] = a[i] ^ b[i] for i in [0, len). */
void xorBlocks(std::uint8_t *dst, const std::uint8_t *a,
               const std::uint8_t *b, std::size_t len);

/**
 * Buffer overloads. Lengths must match; asserts in debug builds.
 * @{
 */
void xorInto(Buffer &dst, const Buffer &src);
Buffer xorOf(const Buffer &a, const Buffer &b);
/** @} */

} // namespace draid::ec

#endif // DRAID_EC_XOR_KERNEL_H
