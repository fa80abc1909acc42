#include "ec/raid6_codec.h"

#include <cassert>
#include <cstddef>

#include "ec/detail/kernels.h"
#include "ec/gf256.h"
#include "ec/xor_kernel.h"

namespace draid::ec {

namespace {

/** P and Q of @p srcs in one pass; a null source counts as zeros. */
void
pqGen(const std::vector<const std::uint8_t *> &srcs, std::size_t len,
      Buffer &p, Buffer &q)
{
    p = Buffer::uninitialized(len);
    q = Buffer::uninitialized(len);
#if DRAID_EC_AVX2
    if (detail::cpuHasAvx2()) {
        detail::pqGenAvx2(srcs.data(), srcs.size(), p.data(), q.data(), len);
        return;
    }
#endif
    detail::pqGenPortable(srcs.data(), srcs.size(), p.data(), q.data(), len);
}

} // namespace

void
Raid6Codec::computePQ(const std::vector<Buffer> &data, Buffer &p, Buffer &q)
{
    assert(!data.empty());
    std::vector<const std::uint8_t *> srcs;
    srcs.reserve(data.size());
    for (const Buffer &d : data) {
        assert(d.size() == data[0].size());
        srcs.push_back(d.data());
    }
    pqGen(srcs, data[0].size(), p, q);
}

Buffer
Raid6Codec::computeQ(const std::vector<Buffer> &data)
{
    assert(!data.empty());
    const auto &gf = Gf256::instance();
    const std::size_t len = data[0].size();
    Buffer q(len);
    for (std::size_t i = 0; i < data.size(); ++i) {
        gf.mulAccum(gf.pow2(static_cast<unsigned>(i)), data[i].data(),
                    q.data(), len);
    }
    return q;
}

void
Raid6Codec::applyQDelta(Buffer &q, const Buffer &delta, std::size_t idx)
{
    assert(q.size() == delta.size());
    const auto &gf = Gf256::instance();
    gf.mulAccum(gf.pow2(static_cast<unsigned>(idx)), delta.data(), q.data(),
                q.size());
}

Buffer
Raid6Codec::recoverDataWithP(const std::vector<Buffer> &data, const Buffer &p,
                             std::size_t missing)
{
    Buffer out = p.clone();
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (i == missing)
            continue;
        assert(!data[i].empty());
        xorInto(out, data[i]);
    }
    return out;
}

Buffer
Raid6Codec::recoverDataWithQ(const std::vector<Buffer> &data, const Buffer &q,
                             std::size_t missing)
{
    const auto &gf = Gf256::instance();
    // Qx = Q computed without the missing chunk; then
    // D_missing = (Q ^ Qx) * g^{-missing}.
    Buffer acc = q.clone();
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (i == missing)
            continue;
        assert(!data[i].empty());
        gf.mulAccum(gf.pow2(static_cast<unsigned>(i)), data[i].data(),
                    acc.data(), acc.size());
    }
    const std::uint8_t ginv =
        gf.inv(gf.pow2(static_cast<unsigned>(missing)));
    gf.mulBlock(ginv, acc.data(), acc.data(), acc.size());
    return acc;
}

void
Raid6Codec::recoverTwoData(std::vector<Buffer> &data, const Buffer &p,
                           const Buffer &q, std::size_t x, std::size_t y)
{
    assert(x < y && y < data.size());
    const auto &gf = Gf256::instance();
    const std::size_t len = p.size();

    // Pxy/Qxy: parities computed from the survivors only.
    std::vector<const std::uint8_t *> srcs(data.size(), nullptr);
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (i != x && i != y) {
            assert(data[i].size() == len);
            srcs[i] = data[i].data();
        }
    }
    Buffer pxy, qxy;
    pqGen(srcs, len, pxy, qxy);

    // From hpa's paper:
    //   A = g^{y-x} / (g^{y-x} ^ 1)
    //   B = g^{-x}  / (g^{y-x} ^ 1)
    //   Dx = A*(P ^ Pxy) ^ B*(Q ^ Qxy);  Dy = (P ^ Pxy) ^ Dx
    const std::uint8_t gyx = gf.pow2(static_cast<unsigned>(y - x));
    const std::uint8_t denom = static_cast<std::uint8_t>(gyx ^ 0x01);
    const std::uint8_t a = gf.div(gyx, denom);
    const std::uint8_t b =
        gf.div(gf.inv(gf.pow2(static_cast<unsigned>(x))), denom);

    // pxy becomes P ^ Pxy and qxy becomes Q ^ Qxy, in place.
    xorInto(pxy, p);
    xorInto(qxy, q);

    Buffer dx = Buffer::uninitialized(len);
    gf.mulBlock(a, pxy.data(), dx.data(), len);
    gf.mulAccum(b, qxy.data(), dx.data(), len);

    xorInto(pxy, dx); // Dy

    data[x] = dx;
    data[y] = pxy;
}

bool
Raid6Codec::recover(std::vector<Buffer> &data, Buffer &p, Buffer &q)
{
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (data[i].empty())
            missing.push_back(i);
    }
    const bool p_missing = p.empty();
    const bool q_missing = q.empty();
    const std::size_t total =
        missing.size() + (p_missing ? 1 : 0) + (q_missing ? 1 : 0);
    if (total > 2)
        return false;
    if (total == 0)
        return true;

    if (missing.size() == 2) {
        recoverTwoData(data, p, q, missing[0], missing[1]);
        return true;
    }
    if (missing.size() == 1) {
        if (!p_missing) {
            data[missing[0]] = recoverDataWithP(data, p, missing[0]);
        } else {
            data[missing[0]] = recoverDataWithQ(data, q, missing[0]);
        }
    }
    // All data present now; recompute whichever parity is absent.
    if (p_missing || q_missing) {
        Buffer np, nq;
        computePQ(data, np, nq);
        if (p_missing)
            p = np;
        if (q_missing)
            q = nq;
    }
    return true;
}

} // namespace draid::ec
