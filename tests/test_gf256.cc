// GF(2^8) field axioms and RAID-6 generator properties.

#include <gtest/gtest.h>

#include <vector>

#include "ec/detail/kernels.h"
#include "ec/gf256.h"
#include "sim/rng.h"

using draid::ec::Gf256;

TEST(Gf256, MultiplicationByZeroAndOne)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
        EXPECT_EQ(gf.mul(0, static_cast<std::uint8_t>(a)), 0);
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
    }
}

TEST(Gf256, MultiplicationCommutative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 7) {
        for (int b = 1; b < 256; b += 11) {
            EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                      gf.mul(static_cast<std::uint8_t>(b),
                             static_cast<std::uint8_t>(a)));
        }
    }
}

TEST(Gf256, MultiplicationAssociative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 31) {
        for (int b = 1; b < 256; b += 37) {
            for (int c = 1; c < 256; c += 41) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)));
            }
        }
    }
}

TEST(Gf256, DistributesOverXor)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 13) {
        for (int b = 0; b < 256; b += 17) {
            for (int c = 0; c < 256; c += 19) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(x, y ^ z), gf.mul(x, y) ^ gf.mul(x, z));
            }
        }
    }
}

TEST(Gf256, InverseRoundTrips)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; ++a) {
        const auto x = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gf.mul(x, gf.inv(x)), 1) << "a=" << a;
    }
}

TEST(Gf256, DivisionInvertsMultiplication)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; a += 5) {
        for (int b = 1; b < 256; b += 9) {
            const auto x = static_cast<std::uint8_t>(a);
            const auto y = static_cast<std::uint8_t>(b);
            EXPECT_EQ(gf.div(gf.mul(x, y), y), x);
        }
    }
}

TEST(Gf256, GeneratorHasFullOrder)
{
    const auto &gf = Gf256::instance();
    // g = 2 generates the whole multiplicative group: g^i distinct for
    // i in [0, 255).
    bool seen[256] = {};
    for (unsigned i = 0; i < 255; ++i) {
        const auto v = gf.pow2(i);
        EXPECT_NE(v, 0);
        EXPECT_FALSE(seen[v]) << "repeat at i=" << i;
        seen[v] = true;
    }
    EXPECT_EQ(gf.pow2(255), gf.pow2(0));
}

TEST(Gf256, Pow2MatchesRepeatedDoubling)
{
    const auto &gf = Gf256::instance();
    std::uint8_t v = 1;
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(gf.pow2(i), v);
        v = gf.mul(v, 2);
    }
}

TEST(Gf256, MulAccumMatchesScalarLoop)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[257], dst[257], ref[257];
    for (int i = 0; i < 257; ++i) {
        src[i] = static_cast<std::uint8_t>(i * 7 + 3);
        dst[i] = static_cast<std::uint8_t>(i * 13 + 5);
        ref[i] = dst[i] ^ gf.mul(0x1d, src[i]);
    }
    gf.mulAccum(0x1d, src, dst, 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(dst[i], ref[i]);
}

TEST(Gf256, MulBlockByZeroClears)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[16], dst[16];
    for (int i = 0; i < 16; ++i) {
        src[i] = static_cast<std::uint8_t>(i + 1);
        dst[i] = 0xff;
    }
    gf.mulBlock(0, src, dst, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dst[i], 0);
}

// --- Block kernels: every dispatched variant against the log/exp loop ---

namespace {

using draid::ec::detail::cpuHasAvx2;

using GfKernel = void (*)(std::uint8_t, const std::uint8_t *, std::uint8_t *,
                          std::size_t);

struct GfVariant
{
    const char *name;
    GfKernel mulAccum;
    GfKernel mulBlock;
};

/** The portable kernels, plus the AVX2 ones when this CPU runs them. */
std::vector<GfVariant>
gfVariants()
{
    std::vector<GfVariant> v{{"portable", draid::ec::detail::gfMulAccumPortable,
                              draid::ec::detail::gfMulBlockPortable}};
#if DRAID_EC_AVX2
    if (cpuHasAvx2())
        v.push_back({"avx2", draid::ec::detail::gfMulAccumAvx2,
                     draid::ec::detail::gfMulBlockAvx2});
#endif
    return v;
}

constexpr std::size_t kLengths[] = {0,  1,  15, 16,   31,   32,
                                    33, 63, 64, 65, 4099, 65536};
// Bytes on either side of the destination range, which must stay as set.
constexpr std::size_t kGuard = 32;

std::vector<std::uint8_t>
patterned(std::size_t n, std::uint64_t seed)
{
    draid::sim::Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

void
refMulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
            std::size_t len)
{
    const auto &gf = Gf256::instance();
    for (std::size_t i = 0; i < len; ++i)
        dst[i] ^= gf.mul(c, src[i]);
}

void
refMulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
            std::size_t len)
{
    const auto &gf = Gf256::instance();
    for (std::size_t i = 0; i < len; ++i)
        dst[i] = gf.mul(c, src[i]);
}

} // namespace

// All 256 constants; across them the source and destination offsets walk
// every misalignment in [0, 32) for every length.
TEST(Gf256Kernels, MatchLogExpReferenceForEveryConstantLengthAndAlignment)
{
    for (const GfVariant &k : gfVariants()) {
        for (unsigned c = 0; c < 256; ++c) {
            const auto cc = static_cast<std::uint8_t>(c);
            const std::size_t src_off = c % 32;
            const std::size_t dst_off = kGuard + (c * 7) % 32;
            for (const std::size_t len : kLengths) {
                SCOPED_TRACE(testing::Message() << k.name << " c=" << c
                                                << " len=" << len);
                const auto src = patterned(src_off + len, c * 131 + len);
                const auto dst = patterned(dst_off + len + kGuard, c + len);

                auto got = dst, want = dst;
                k.mulAccum(cc, src.data() + src_off, got.data() + dst_off,
                           len);
                refMulAccum(cc, src.data() + src_off, want.data() + dst_off,
                            len);
                EXPECT_EQ(got, want) << "mulAccum";

                got = dst;
                want = dst;
                k.mulBlock(cc, src.data() + src_off, got.data() + dst_off,
                           len);
                refMulBlock(cc, src.data() + src_off, want.data() + dst_off,
                            len);
                EXPECT_EQ(got, want) << "mulBlock";
            }
        }
    }
}

TEST(Gf256Kernels, MulBlockScalesInPlace)
{
    for (const GfVariant &k : gfVariants()) {
        for (unsigned c = 0; c < 256; c += 5) {
            const auto cc = static_cast<std::uint8_t>(c);
            for (const std::size_t len : kLengths) {
                SCOPED_TRACE(testing::Message() << k.name << " c=" << c
                                                << " len=" << len);
                const std::size_t off = 1 + c % 31;
                auto got = patterned(off + len, c * 17 + len);
                auto want = got;
                k.mulBlock(cc, got.data() + off, got.data() + off, len);
                refMulBlock(cc, want.data() + off, want.data() + off, len);
                EXPECT_EQ(got, want);
            }
        }
    }
}

// The public entry points short-cut c == 0 and c == 1; the result must not
// show it.
TEST(Gf256Kernels, PublicEntryPointsMatchReferenceForEveryConstant)
{
    const auto &gf = Gf256::instance();
    for (unsigned c = 0; c < 256; ++c) {
        const auto cc = static_cast<std::uint8_t>(c);
        for (const std::size_t len : {std::size_t{0}, std::size_t{97},
                                      std::size_t{4096}}) {
            SCOPED_TRACE(testing::Message() << "c=" << c << " len=" << len);
            const auto src = patterned(len + 3, c + 7 * len);
            const auto dst = patterned(len + 5, c + 11 * len);

            auto got = dst, want = dst;
            gf.mulAccum(cc, src.data() + 3, got.data() + 1, len);
            refMulAccum(cc, src.data() + 3, want.data() + 1, len);
            EXPECT_EQ(got, want) << "mulAccum";

            got = dst;
            want = dst;
            gf.mulBlock(cc, src.data() + 3, got.data() + 1, len);
            refMulBlock(cc, src.data() + 3, want.data() + 1, len);
            EXPECT_EQ(got, want) << "mulBlock";

            got = dst;
            want = dst;
            gf.mulBlock(cc, got.data() + 1, got.data() + 1, len);
            refMulBlock(cc, want.data() + 1, want.data() + 1, len);
            EXPECT_EQ(got, want) << "mulBlock in place";
        }
    }
}
