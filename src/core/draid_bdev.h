/**
 * @file
 * The dRAID server-side controller (paper §3, §5, §6): a dRAID bdev.
 *
 * Extends the plain NVMe-oF target with the four dRAID opcodes:
 *  - PartialWrite (Algorithm 1): fetch new data from the host and read old
 *    data from the drive *in parallel*, derive the partial parity, then
 *    overlap the drive write with partial-parity forwarding (§5.3
 *    pipeline) and report its own completion to the host.
 *  - Parity (Algorithm 2): reduce incoming partial parities; the reduce
 *    proceeds even when the Parity command arrives late (§5.2), only the
 *    final persist waits for it.
 *  - Reconstruction (§6.1): read the union of the requested and the
 *    reconstructed segment in a single drive I/O, return requested data
 *    directly to the host, and route partial results to the reducer.
 *  - Peer: pull a partial result announced by a peer bdev and fold it in.
 *
 * A bdev is unaware of being part of a RAID: every command carries all the
 * information it needs (forward ranges, destinations, wait counts, Q
 * coefficients).
 */

#ifndef DRAID_CORE_DRAID_BDEV_H
#define DRAID_CORE_DRAID_BDEV_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "blockdev/nvmf_target.h"
#include "core/draid.h"
#include "core/reduce_engine.h"

namespace draid::core {

/** Per-bdev traffic and operation counters used by benches and tests. */
struct BdevCounters
{
    std::uint64_t partialWrites = 0;
    std::uint64_t parityCmds = 0;
    std::uint64_t peersAbsorbed = 0;
    std::uint64_t reconstructions = 0;
    std::uint64_t reductionsFinished = 0;
    std::uint64_t lateParityCmds = 0; ///< Parity arrived after >=1 peer
};

/** The server-side controller for one storage server. */
class DraidBdev : public blockdev::NvmfTarget
{
  public:
    DraidBdev(cluster::Cluster &cluster, std::uint32_t index,
              const DraidOptions &options);

    void onMessage(const net::Message &msg) override;

    const BdevCounters &counters() const { return counters_; }
    ReduceEngine &reduceEngine() { return reduce_; }

  private:
    // --- PartialWrite (Algorithm 1 + §5.3 pipeline) ---
    void handlePartialWrite(const net::Message &msg);
    void partialWritePhase2(const proto::Capsule &cmd, sim::NodeId from,
                            ec::Buffer new_data, ec::Buffer old_data,
                            ec::Buffer old_head, ec::Buffer old_tail);

    // --- Parity / Peer (Algorithm 2) ---
    void handleParity(const net::Message &msg);
    void handlePeer(const net::Message &msg);
    void absorbContribution(std::uint64_t key, std::uint32_t offset,
                            ec::Buffer data, bool counted,
                            std::uint64_t trace = 0);
    void maybeFinish(std::uint64_t key);

    /** Barrier-mode ablation: reduce once the full partial set arrived. */
    void tryBarrierFlush(std::uint64_t key);

    // --- Reconstruction (§6.1) ---
    void handleReconstruction(const net::Message &msg);

    // --- shared helpers ---
    /**
     * Announce a partial result to @p dest. When peer-to-peer forwarding
     * is disabled, @p relay (the host) carries it instead: the capsule's
     * next-dest still names the true destination and the host re-announces
     * it, spending its own NIC bandwidth both ways.
     */
    void forwardPartial(std::uint64_t op_id, sim::NodeId dest,
                        sim::NodeId relay, std::uint32_t fwd_offset,
                        ec::Buffer partial, std::uint16_t data_idx,
                        std::uint64_t trace = 0);

    /**
     * Rebind @p partial to a new buffer holding g^idx times its bytes.
     * The old bytes, which other holders may share, are not written.
     */
    void applyQCoefficient(ec::Buffer &partial, std::uint16_t idx);

    /** Completion routing for commands this bdev itself issued. */
    void handleSelfCompletion(const net::Message &msg);

    /** Issue a standard write to another node (rebuild spare writes). */
    void writeToPeer(sim::NodeId dest, std::uint64_t offset, ec::Buffer data,
                     std::function<void(proto::Status)> done,
                     std::uint64_t trace = 0);

    DraidOptions opts_;
    ReduceEngine reduce_;
    BdevCounters counters_;

    /** Pending self-initiated commands, keyed by command id. */
    std::unordered_map<std::uint64_t,
                       // draid-lint: cap(in-flight self-commands; host queue depth)
                       std::function<void(proto::Status)>> selfPending_;
    std::uint64_t selfNext_ = 1;

    /**
     * Barrier-mode stash (nonBlockingReduce == false): contributions that
     * arrived before the host command, absorbed once it shows up.
     */
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint32_t, ec::Buffer>>>
        // draid-lint: cap(one stash per in-flight write op; host queue depth)
        stashed_;
};

} // namespace draid::core

#endif // DRAID_CORE_DRAID_BDEV_H
