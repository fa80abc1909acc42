// RAID-6 codec: P+Q generation and every one/two-erasure recovery case.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ec/detail/kernels.h"
#include "ec/gf256.h"
#include "ec/raid6_codec.h"

using namespace draid::ec;

namespace {

std::vector<Buffer>
makeData(std::size_t k, std::size_t len, std::uint64_t seed)
{
    std::vector<Buffer> data;
    for (std::size_t i = 0; i < k; ++i) {
        Buffer b(len);
        b.fillPattern(seed * 1000 + i);
        data.push_back(b);
    }
    return data;
}

} // namespace

class Raid6Widths : public ::testing::TestWithParam<int>
{
};

TEST_P(Raid6Widths, RecoverOneDataWithP)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 1);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithP(data, p, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost]));
    }
}

TEST_P(Raid6Widths, RecoverOneDataWithQ)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 2);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithQ(data, q, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost])) << "lost=" << lost;
    }
}

TEST_P(Raid6Widths, RecoverTwoDataAllPairs)
{
    const int k = GetParam();
    auto data = makeData(k, 512, 3);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int x = 0; x < k; ++x) {
        for (int y = x + 1; y < k; ++y) {
            auto broken = data;
            broken[x] = Buffer();
            broken[y] = Buffer();
            Raid6Codec::recoverTwoData(broken, p, q, x, y);
            EXPECT_TRUE(broken[x].contentEquals(data[x]))
                << "x=" << x << " y=" << y;
            EXPECT_TRUE(broken[y].contentEquals(data[y]))
                << "x=" << x << " y=" << y;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, Raid6Widths,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

TEST(Raid6Codec, GenericRecoverEveryCase)
{
    const int k = 6;
    auto data = makeData(k, 256, 4);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    struct Case
    {
        int d1, d2; // data indices to erase, -1 = none
        bool erase_p, erase_q;
    };
    const Case cases[] = {
        {2, -1, false, false}, {-1, -1, true, false},
        {-1, -1, false, true}, {3, -1, true, false},
        {4, -1, false, true},  {1, 5, false, false},
        {-1, -1, true, true},
    };

    for (const auto &c : cases) {
        auto d = data;
        Buffer tp = p.clone(), tq = q.clone();
        if (c.d1 >= 0)
            d[c.d1] = Buffer();
        if (c.d2 >= 0)
            d[c.d2] = Buffer();
        if (c.erase_p)
            tp = Buffer();
        if (c.erase_q)
            tq = Buffer();

        ASSERT_TRUE(Raid6Codec::recover(d, tp, tq));
        for (int i = 0; i < k; ++i)
            EXPECT_TRUE(d[i].contentEquals(data[i])) << "chunk " << i;
        EXPECT_TRUE(tp.contentEquals(p));
        EXPECT_TRUE(tq.contentEquals(q));
    }
}

TEST(Raid6Codec, RecoverRejectsThreeErasures)
{
    auto data = makeData(5, 128, 6);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    data[0] = Buffer();
    data[1] = Buffer();
    Buffer tp; // P also missing
    EXPECT_FALSE(Raid6Codec::recover(data, tp, q));
}

TEST(Raid6Codec, QDeltaUpdateEqualsRecompute)
{
    auto data = makeData(7, 2048, 8);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    Buffer updated(2048);
    updated.fillPattern(555);
    Buffer delta(2048);
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] = data[4][i] ^ updated[i];

    Raid6Codec::applyQDelta(q, delta, 4);
    data[4] = updated;
    Buffer q2 = Raid6Codec::computeQ(data);
    EXPECT_TRUE(q.contentEquals(q2));
}

TEST(Raid6Codec, PAndQDiffer)
{
    // Q must not degenerate to P (coefficients must matter) for k >= 2.
    auto data = makeData(4, 128, 9);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    EXPECT_FALSE(p.contentEquals(q));
}

namespace {

/** P and Q one source at a time with the log/exp field multiply. */
void
referencePQ(const std::vector<Buffer> &data, std::size_t len,
            std::vector<std::uint8_t> &p, std::vector<std::uint8_t> &q)
{
    const auto &gf = Gf256::instance();
    p.assign(len, 0);
    q.assign(len, 0);
    for (std::size_t j = 0; j < data.size(); ++j) {
        if (data[j].empty())
            continue; // a skipped source counts as zeros
        const std::uint8_t g = gf.pow2(static_cast<unsigned>(j));
        for (std::size_t i = 0; i < len; ++i) {
            p[i] ^= data[j][i];
            q[i] ^= gf.mul(g, data[j][i]);
        }
    }
}

std::vector<std::uint8_t>
bytesOf(const Buffer &b)
{
    return std::vector<std::uint8_t>(b.data(), b.data() + b.size());
}

} // namespace

// The fused one-pass P+Q against the per-source reference, through
// computePQ and through each kernel variant directly (with null sources,
// which recoverTwoData uses for the erased chunks).
TEST(Raid6Codec, FusedPQMatchesPerSourceReference)
{
    using PqKernel = void (*)(const std::uint8_t *const *, std::size_t,
                              std::uint8_t *, std::uint8_t *, std::size_t);
    std::vector<std::pair<const char *, PqKernel>> kernels{
        {"portable", detail::pqGenPortable}};
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2())
        kernels.push_back({"avx2", detail::pqGenAvx2});
#endif
    for (const std::size_t k : {1, 2, 3, 6, 16, 40}) {
        for (const std::size_t len : {1, 7, 8, 63, 64, 65, 4099, 65536}) {
            SCOPED_TRACE(testing::Message() << "k=" << k << " len=" << len);
            auto data = makeData(k, len, k * 100 + len);
            std::vector<std::uint8_t> want_p, want_q;
            referencePQ(data, len, want_p, want_q);

            Buffer p, q;
            Raid6Codec::computePQ(data, p, q);
            EXPECT_EQ(bytesOf(p), want_p) << "computePQ P";
            EXPECT_EQ(bytesOf(q), want_q) << "computePQ Q";

            // Misaligned sources, every other one absent.
            std::vector<std::vector<std::uint8_t>> shifted(k);
            std::vector<const std::uint8_t *> srcs(k, nullptr);
            for (std::size_t j = 0; j < k; j += 2) {
                shifted[j].assign(j % 32 + 1, 0);
                shifted[j].insert(shifted[j].end(), data[j].data(),
                                  data[j].data() + len);
                srcs[j] = shifted[j].data() + j % 32 + 1;
            }
            for (std::size_t j = 1; j < k; j += 2)
                data[j] = Buffer();
            referencePQ(data, len, want_p, want_q);
            for (const auto &[name, kernel] : kernels) {
                // Three guard bytes on either side must stay 0xee.
                std::vector<std::uint8_t> got_p(len + 6, 0xee);
                std::vector<std::uint8_t> got_q(len + 6, 0xee);
                kernel(srcs.data(), k, got_p.data() + 3, got_q.data() + 3,
                       len);
                for (auto *got : {&got_p, &got_q}) {
                    for (std::size_t g = 0; g < 3; ++g) {
                        EXPECT_EQ((*got)[g], 0xee) << name;
                        EXPECT_EQ((*got)[len + 3 + g], 0xee) << name;
                    }
                }
                EXPECT_EQ(std::vector<std::uint8_t>(got_p.begin() + 3,
                                                    got_p.end() - 3),
                          want_p)
                    << name << " P";
                EXPECT_EQ(std::vector<std::uint8_t>(got_q.begin() + 3,
                                                    got_q.end() - 3),
                          want_q)
                    << name << " Q";
            }
        }
    }
}

// Erase every pair of the k + 2 pieces (data, P, Q) and recover it.
TEST(Raid6Codec, FusedPQRoundTripsEveryErasurePair)
{
    const std::size_t k = 6, len = 4099;
    const auto data = makeData(k, len, 12);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    const std::size_t pieces = k + 2; // ..., P = k, Q = k + 1
    for (std::size_t x = 0; x < pieces; ++x) {
        for (std::size_t y = x + 1; y < pieces; ++y) {
            SCOPED_TRACE(testing::Message() << "x=" << x << " y=" << y);
            auto d = data;
            Buffer tp = p, tq = q;
            for (const std::size_t lost : {x, y}) {
                if (lost < k)
                    d[lost] = Buffer();
                else if (lost == k)
                    tp = Buffer();
                else
                    tq = Buffer();
            }
            ASSERT_TRUE(Raid6Codec::recover(d, tp, tq));
            for (std::size_t i = 0; i < k; ++i)
                EXPECT_TRUE(d[i].contentEquals(data[i])) << "chunk " << i;
            EXPECT_TRUE(tp.contentEquals(p));
            EXPECT_TRUE(tq.contentEquals(q));
        }
    }
}
