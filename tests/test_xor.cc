// XOR kernels: correctness across sizes and alignments.

#include <gtest/gtest.h>

#include <vector>

#include "ec/buffer.h"
#include "ec/detail/kernels.h"
#include "ec/xor_kernel.h"
#include "sim/rng.h"

using namespace draid::ec;

class XorSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(XorSizes, XorIntoMatchesReference)
{
    const std::size_t n = GetParam();
    draid::sim::Rng rng(n + 1);
    std::vector<std::uint8_t> a(n), b(n), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
        ref[i] = a[i] ^ b[i];
    }
    xorInto(a.data(), b.data(), n);
    EXPECT_EQ(a, ref);
}

TEST_P(XorSizes, XorBlocksMatchesReference)
{
    const std::size_t n = GetParam();
    draid::sim::Rng rng(n + 2);
    std::vector<std::uint8_t> a(n), b(n), out(n, 0xcc), ref(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.next());
        b[i] = static_cast<std::uint8_t>(rng.next());
        ref[i] = a[i] ^ b[i];
    }
    xorBlocks(out.data(), a.data(), b.data(), n);
    EXPECT_EQ(out, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, XorSizes,
                         ::testing::Values(0, 1, 7, 31, 32, 33, 63, 64, 100,
                                           4096, 65537));

TEST(Xor, SelfInverse)
{
    Buffer a(1024), b(1024);
    a.fillPattern(1);
    b.fillPattern(2);
    Buffer x = xorOf(a, b);
    Buffer back = xorOf(x, b);
    EXPECT_TRUE(back.contentEquals(a));
}

TEST(Xor, Commutative)
{
    Buffer a(512), b(512);
    a.fillPattern(3);
    b.fillPattern(4);
    EXPECT_TRUE(xorOf(a, b).contentEquals(xorOf(b, a)));
}

TEST(Xor, Associative)
{
    Buffer a(512), b(512), c(512);
    a.fillPattern(5);
    b.fillPattern(6);
    c.fillPattern(7);
    EXPECT_TRUE(
        xorOf(xorOf(a, b), c).contentEquals(xorOf(a, xorOf(b, c))));
}

TEST(Xor, ZeroIsIdentity)
{
    Buffer a(128), z(128);
    a.fillPattern(8);
    EXPECT_TRUE(xorOf(a, z).contentEquals(a));
}

TEST(Xor, BufferInPlace)
{
    Buffer a(64), b(64);
    a.fillPattern(9);
    b.fillPattern(10);
    Buffer expect = xorOf(a, b);
    xorInto(a, b);
    EXPECT_TRUE(a.contentEquals(expect));
}

// --- Dispatched variants: portable and (when the CPU runs it) AVX2 ---

namespace {

struct XorVariant
{
    const char *name;
    void (*into)(std::uint8_t *, const std::uint8_t *, std::size_t);
    void (*blocks)(std::uint8_t *, const std::uint8_t *, const std::uint8_t *,
                   std::size_t);
};

std::vector<XorVariant>
xorVariants()
{
    std::vector<XorVariant> v{{"portable", detail::xorIntoPortable,
                               detail::xorBlocksPortable}};
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2())
        v.push_back({"avx2", detail::xorIntoAvx2, detail::xorBlocksAvx2});
#endif
    return v;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    draid::sim::Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

} // namespace

// Every length, with source and destination offsets walking [0, 32);
// bytes outside the destination range must stay untouched.
TEST(XorKernels, MatchReferenceForEveryLengthAndAlignment)
{
    constexpr std::size_t kGuard = 32;
    for (const XorVariant &k : xorVariants()) {
        for (const std::size_t len : {0, 1, 15, 16, 31, 32, 33, 63, 64, 65,
                                      4099, 65536}) {
            for (std::size_t m = 0; m < 32; ++m) {
                SCOPED_TRACE(testing::Message() << k.name << " len=" << len
                                                << " misalign=" << m);
                const std::size_t a_off = m, b_off = (m * 7) % 32;
                const std::size_t d_off = kGuard + (m * 13) % 32;
                const auto a = randomBytes(a_off + len, len * 64 + m);
                const auto b = randomBytes(b_off + len, len * 64 + m + 32);
                const auto dst = randomBytes(d_off + len + kGuard, m + 1);

                auto got = dst, want = dst;
                k.into(got.data() + d_off, a.data() + a_off, len);
                for (std::size_t i = 0; i < len; ++i)
                    want[d_off + i] ^= a[a_off + i];
                EXPECT_EQ(got, want) << "xorInto";

                got = dst;
                want = dst;
                k.blocks(got.data() + d_off, a.data() + a_off,
                         b.data() + b_off, len);
                for (std::size_t i = 0; i < len; ++i)
                    want[d_off + i] = a[a_off + i] ^ b[b_off + i];
                EXPECT_EQ(got, want) << "xorBlocks";
            }
        }
    }
}
