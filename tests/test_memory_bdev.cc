// MemoryBdev: sparse page store semantics.

#include <gtest/gtest.h>

#include "blockdev/memory_bdev.h"

using namespace draid::blockdev;
using draid::ec::Buffer;

TEST(MemoryBdev, ReportsCapacity)
{
    MemoryBdev dev(1 << 20);
    EXPECT_EQ(dev.sizeBytes(), 1u << 20);
}

TEST(MemoryBdev, FreshDeviceReadsZeros)
{
    MemoryBdev dev(1 << 20);
    Buffer b = dev.readSync(1000, 512);
    Buffer zeros(512);
    EXPECT_TRUE(b.contentEquals(zeros));
    EXPECT_EQ(dev.pagesAllocated(), 0u);
}

TEST(MemoryBdev, WriteReadRoundTrip)
{
    MemoryBdev dev(8 << 20);
    Buffer data(4096);
    data.fillPattern(11);
    dev.writeSync(12345, data);
    EXPECT_TRUE(dev.readSync(12345, 4096).contentEquals(data));
}

TEST(MemoryBdev, WriteSpanningPages)
{
    MemoryBdev dev(8 << 20);
    // Page size is 256 KB; span the boundary.
    const std::uint64_t off = 256 * 1024 - 100;
    Buffer data(300);
    data.fillPattern(12);
    dev.writeSync(off, data);
    EXPECT_TRUE(dev.readSync(off, 300).contentEquals(data));
    EXPECT_EQ(dev.pagesAllocated(), 2u);
}

TEST(MemoryBdev, PartialOverwrite)
{
    MemoryBdev dev(1 << 20);
    Buffer first(1000);
    first.fill(0xaa);
    dev.writeSync(0, first);
    Buffer patch(100);
    patch.fill(0xbb);
    dev.writeSync(450, patch);

    Buffer got = dev.readSync(0, 1000);
    for (int i = 0; i < 450; ++i)
        EXPECT_EQ(got[i], 0xaa);
    for (int i = 450; i < 550; ++i)
        EXPECT_EQ(got[i], 0xbb);
    for (int i = 550; i < 1000; ++i)
        EXPECT_EQ(got[i], 0xaa);
}

TEST(MemoryBdev, AsyncInterfaceCompletesInline)
{
    MemoryBdev dev(1 << 20);
    bool wrote = false, read = false;
    Buffer data(64);
    data.fill(0x42);
    dev.write(0, data, [&](IoStatus st) { wrote = st == IoStatus::kOk; });
    dev.read(0, 64, [&](IoStatus st, Buffer b) {
        read = st == IoStatus::kOk && b.contentEquals(Buffer(64)) == false;
    });
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
}

TEST(MemoryBdev, SparseAllocationOnlyTouchedPages)
{
    MemoryBdev dev(1ull << 40); // 1 TB logical, no allocation yet
    dev.writeSync(1ull << 39, Buffer(128));
    EXPECT_EQ(dev.pagesAllocated(), 1u);
}

namespace {

/**
 * Allocate and free a heap block of @p n bytes full of 0xff, so a
 * following allocation of the same size likely reuses dirty memory: a read
 * that forgot to zero a hole then shows 0xff instead of passing by luck.
 */
void
dirtyHeap(std::size_t n)
{
    Buffer junk(n);
    junk.fill(0xff);
}

} // namespace

TEST(MemoryBdev, ReadAcrossWrittenAndUnwrittenPagesZerosTheHole)
{
    constexpr std::uint64_t kPage = 256 * 1024;
    MemoryBdev dev(8 << 20);
    Buffer data(300);
    data.fillPattern(21);
    dev.writeSync(2 * kPage, data); // page 2 only; pages 1 and 3 unwritten

    // Hole (end of page 1), then page 2's written head.
    dirtyHeap(1000);
    Buffer got = dev.readSync(2 * kPage - 700, 1000);
    for (std::size_t i = 0; i < 700; ++i)
        ASSERT_EQ(got[i], 0) << i;
    for (std::size_t i = 0; i < 300; ++i)
        ASSERT_EQ(got[700 + i], data[i]) << i;

    // Page 2's tail (zeros around the write), then the hole of page 3.
    dirtyHeap(2000);
    got = dev.readSync(3 * kPage - 1000, 2000);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], 0) << i;
}

TEST(MemoryBdev, ReadAfterPartialPageWriteZerosAroundIt)
{
    MemoryBdev dev(1 << 20);
    Buffer data(10);
    data.fill(0x5a);
    dev.writeSync(1000, data);

    dirtyHeap(4096);
    Buffer got = dev.readSync(0, 4096);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], (i >= 1000 && i < 1010) ? 0x5a : 0) << i;
}
