// Buffer semantics: sharing, cloning, slicing, patterns.

#include <gtest/gtest.h>

#include <cstring>

#include "ec/buffer.h"

using draid::ec::Buffer;

TEST(Buffer, DefaultIsEmpty)
{
    Buffer b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, AllocatesZeroInitialized)
{
    Buffer b(64);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], 0);
}

TEST(Buffer, CopyIsShared)
{
    Buffer a(16);
    Buffer b = a;
    a[3] = 0xaa;
    EXPECT_EQ(b[3], 0xaa);
}

TEST(Buffer, CloneIsDeep)
{
    Buffer a(16);
    a[3] = 0x11;
    Buffer b = a.clone();
    a[3] = 0x22;
    EXPECT_EQ(b[3], 0x11);
}

TEST(Buffer, SliceExtractsRange)
{
    Buffer a(10);
    for (std::size_t i = 0; i < 10; ++i)
        a[i] = static_cast<std::uint8_t>(i);
    Buffer s = a.slice(3, 4);
    ASSERT_EQ(s.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(s[i], i + 3);
}

TEST(Buffer, ContentEquals)
{
    Buffer a(8), b(8), c(9);
    a.fill(0x5a);
    b.fill(0x5a);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
    b[0] = 0;
    EXPECT_FALSE(a.contentEquals(b));
    EXPECT_TRUE(Buffer().contentEquals(Buffer()));
}

TEST(Buffer, PatternIsDeterministicAndSeedSensitive)
{
    Buffer a(256), b(256), c(256);
    a.fillPattern(42);
    b.fillPattern(42);
    c.fillPattern(43);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
}

TEST(Buffer, ConstructFromRawBytes)
{
    const std::uint8_t raw[] = {1, 2, 3, 4};
    Buffer b(raw, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[3], 4);
}

TEST(Buffer, CopiesAreExact)
{
    Buffer src(4099);
    src.fillPattern(77);

    const Buffer raw(src.data() + 1, 4097);
    ASSERT_EQ(raw.size(), 4097u);
    EXPECT_EQ(std::memcmp(raw.data(), src.data() + 1, 4097), 0);

    const Buffer deep = src.clone();
    EXPECT_NE(deep.data(), src.data());
    EXPECT_TRUE(deep.contentEquals(src));

    for (const std::size_t off : {0, 1, 31, 4000}) {
        const std::size_t len = src.size() - off;
        const Buffer s = src.slice(off, len);
        ASSERT_EQ(s.size(), len);
        EXPECT_NE(s.data(), src.data() + off);
        EXPECT_EQ(std::memcmp(s.data(), src.data() + off, len), 0);
    }
    EXPECT_TRUE(src.slice(5, 0).empty());
}

TEST(Buffer, UninitializedHasRequestedSizeAndOwnStorage)
{
    Buffer a = Buffer::uninitialized(100);
    ASSERT_EQ(a.size(), 100u);
    a.fill(0x3c);
    Buffer b = Buffer::uninitialized(100);
    b.fill(0xc3);
    EXPECT_EQ(a[99], 0x3c);
    EXPECT_TRUE(Buffer::uninitialized(0).empty());
}
