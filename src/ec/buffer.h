/**
 * @file
 * Reference-counted byte buffers used throughout the data plane.
 *
 * Buffers are cheap to copy (shared ownership) so a payload can be handed
 * through the simulated network, reduced at a peer, and verified at the
 * host without deep copies — mirroring the zero-copy RDMA data path of the
 * real system.
 *
 * Buffer(n) zero-fills; uninitialized(n) does not, and is for buffers the
 * caller overwrites in full before reading (copies, kernel outputs), so
 * the byte path pays for each byte once.
 */

#ifndef DRAID_EC_BUFFER_H
#define DRAID_EC_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <memory>

namespace draid::ec {

/** A shared, fixed-size byte buffer. */
class Buffer
{
  public:
    /** An empty (null) buffer. */
    Buffer() = default;

    /** Allocate a zero-initialized buffer of @p size bytes. */
    explicit Buffer(std::size_t size);

    /** Allocate and fill from @p src (copies @p size bytes, no zero-fill). */
    Buffer(const std::uint8_t *src, std::size_t size);

    /**
     * Allocate @p size bytes with indeterminate contents. The caller must
     * write every byte before any is read.
     */
    static Buffer uninitialized(std::size_t size);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::uint8_t *data() { return data_.get(); }
    const std::uint8_t *data() const { return data_.get(); }

    std::uint8_t &operator[](std::size_t i) { return data_.get()[i]; }
    std::uint8_t operator[](std::size_t i) const { return data_.get()[i]; }

    /** Deep copy. */
    Buffer clone() const;

    /**
     * A view-copy of bytes [offset, offset+len). Allocates; views are not
     * needed at simulation scale. @pre offset+len <= size()
     */
    Buffer slice(std::size_t offset, std::size_t len) const;

    /** Byte-wise equality (both empty counts as equal). */
    bool contentEquals(const Buffer &other) const;

    /** Fill the whole buffer with @p value. */
    void fill(std::uint8_t value);

    /** Fill with a deterministic pattern derived from @p seed (testing). */
    void fillPattern(std::uint64_t seed);

  private:
    std::shared_ptr<std::uint8_t[]> data_;
    std::size_t size_ = 0;
};

} // namespace draid::ec

#endif // DRAID_EC_BUFFER_H
