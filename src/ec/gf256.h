/**
 * @file
 * GF(2^8) arithmetic for RAID-6 (polynomial 0x11d, generator 2).
 *
 * Follows the construction in H. P. Anvin, "The mathematics of RAID-6":
 * the Q parity is sum_i g^i * D_i over GF(2^8) where g = 2.
 *
 * Scalar operations (mul, div, inv) use log/exp tables; they are also the
 * reference the block kernels are tested against. The block kernels
 * mulAccum/mulBlock are the ISA-L-style ones: on CPUs with AVX2 they look
 * up each byte's two nibbles in two 16-entry tables per constant with
 * VPSHUFB (Plank, Greenan & Miller, FAST 2013); elsewhere they index a
 * 256-entry product row per constant. The path is chosen at run time from
 * the CPU's features. All tables are built on first use.
 */

#ifndef DRAID_EC_GF256_H
#define DRAID_EC_GF256_H

#include <cstddef>
#include <cstdint>

namespace draid::ec {

/** Galois field GF(2^8) with the RAID-6 polynomial x^8+x^4+x^3+x^2+1. */
class Gf256
{
  public:
    /** The singleton field instance (tables built on first use). */
    static const Gf256 &instance();

    /** Field multiply. */
    std::uint8_t
    mul(std::uint8_t a, std::uint8_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return exp_[log_[a] + log_[b]];
    }

    /** Field divide. @pre b != 0 */
    std::uint8_t div(std::uint8_t a, std::uint8_t b) const;

    /** Multiplicative inverse. @pre a != 0 */
    std::uint8_t inv(std::uint8_t a) const;

    /** g^n for generator g = 2 (n may exceed 255; reduced mod 255). */
    std::uint8_t pow2(unsigned n) const { return exp_[n % 255]; }

    /** Discrete log base 2 of a. @pre a != 0 */
    std::uint8_t log2(std::uint8_t a) const { return log_[a]; }

    /**
     * dst[i] ^= c * src[i] — the multiply-accumulate kernel used for Q
     * parity updates and reconstruction. c == 1 is a plain XOR.
     */
    void mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

    /** dst[i] = c * src[i]. src == dst scales in place. */
    void mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

  private:
    Gf256();

    // exp_ is doubled so mul() can skip the mod-255 reduction.
    std::uint8_t exp_[512];
    std::uint8_t log_[256];
};

} // namespace draid::ec

#endif // DRAID_EC_GF256_H
