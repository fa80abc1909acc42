// One repetition of one benchmark workload, run in its own process.
//
//   perfbench_rep --workload=<name> --seed=<n> [--traced] [--tiny] [--flip]
//
// Assembles the system through the figure harness (bench::SystemUnderTest
// + the runFio(sut, preloadConfig(ws)) preload the figures use), records
// every working-set block's post-set-up content from the member drives,
// drives a seeded closed loop of `depth` clients against the public
// BlockDevice interface, checks every read and the final drive bytes, and
// prints one JSON object on stdout. run.py runs this several times per
// benchmark invocation and turns the objects into medians.
//
// --traced attaches the engine profiler (through a forwarding observer
// that also tells the benchmark which event label it is running under),
// turns on Tracer span retention and self-timing, and runs the
// critical-path analyzer over the measured spans. Everything it adds is
// observe-only; run.py proves that by comparing the "det" block of traced
// and untraced repetitions.
//
// --tiny shrinks every workload to a few seconds; --flip flips one byte of
// one member drive after set-up. Both exist for selftest.py, which shows
// that the checker reports failures when the bytes are wrong.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/host_raid.h"
#include "core/reconstruct.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"
#include "harness.h"
#include "telemetry/critical_path.h"
#include "telemetry/sim_profiler.h"

namespace {

using namespace draid;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
/** Verification granule: one expected hash per 4 KiB logical block. */
constexpr std::uint32_t kBlock = 4096;
/** MemoryBdev's page size (a private constant of the store). */
constexpr std::uint64_t kStorePage = 256 * kKiB;

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) * 1e-9;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Hash of one 4 KiB block. Each lane step (h ^ w) * odd is a bijection in
 * w, so any change confined to one 64-bit word — in particular any single
 * flipped byte — always changes the hash.
 */
std::uint64_t
blockHash(const std::uint8_t *p)
{
    constexpr std::uint64_t kMul = 0x9fb21c651e98df25ull;
    std::uint64_t h[4] = {1, 2, 3, 4};
    for (std::uint32_t i = 0; i < kBlock; i += 32) {
        for (int j = 0; j < 4; ++j) {
            std::uint64_t w = 0;
            std::memcpy(&w, p + i + 8 * j, 8);
            h[j] = (h[j] ^ w) * kMul;
        }
    }
    std::uint64_t r = h[0];
    for (int j = 1; j < 4; ++j)
        r = (r ^ h[j]) * kMul;
    return r;
}

/** Seeded, non-constant contents for one 4 KiB block of a write. */
void
fillBlock(std::uint8_t *p, std::uint64_t key)
{
    const std::uint64_t base = splitmix64(key);
    for (std::uint32_t i = 0; i < kBlock / 8; ++i) {
        const std::uint64_t w = base + i * 0x9e3779b97f4a7c15ull;
        std::memcpy(p + 8 * i, &w, 8);
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Spec
{
    bench::SystemKind kind = bench::SystemKind::kDraid;
    bench::ArrayConfig array;
    std::uint32_t ioSize = 0;
    double readRatio = 1.0;
    int depth = 1;
    std::uint64_t opsPerClient = 0;
    std::uint64_t workingSet = 0;
    /** Arm span tracing + exemplars the way fig09/fig17's defaults do. */
    bool figureTelemetry = false;
    /** Fail device 0 and rebuild it onto the hot spare during the run. */
    bool degradedRebuild = false;
};

bool
specFor(const std::string &name, bool tiny, Spec &s)
{
    std::uint64_t ops = 0;
    if (name == "read4k") {
        s.array.width = 6;
        s.ioSize = 4 * kKiB;
        s.depth = 64;
        ops = 100000;
        s.workingSet = 512 * kMiB;
        s.figureTelemetry = true;
    } else if (name == "write128k_r6") {
        s.array.level = raid::RaidLevel::kRaid6;
        s.array.width = 8;
        s.ioSize = 128 * kKiB;
        s.readRatio = 0.0;
        s.depth = 32;
        ops = 5000;
        s.workingSet = 512 * kMiB;
    } else if (name == "degraded_rebuild") {
        s.array.width = 8;
        s.array.spares = 1;
        s.ioSize = 128 * kKiB;
        s.depth = 32;
        ops = 4000;
        // 96 full stripes of 7 x 512 KiB data chunks.
        s.workingSet = 96 * 7 * 512 * kKiB;
        s.degradedRebuild = true;
    } else if (name == "mixed16k_spdk") {
        s.kind = bench::SystemKind::kSpdk;
        s.array.width = 8;
        s.ioSize = 16 * kKiB;
        s.readRatio = 0.5;
        s.depth = 32;
        ops = 60000;
        s.workingSet = 512 * kMiB;
    } else {
        return false;
    }
    if (tiny) {
        ops /= 25;
        s.workingSet = s.degradedRebuild ? 8 * 7 * 512 * kKiB : 24 * kMiB;
    }
    s.opsPerClient = (ops + static_cast<std::uint64_t>(s.depth) - 1) /
                     static_cast<std::uint64_t>(s.depth);
    return true;
}

// ---------------------------------------------------------------------------
// Engine observer that forwards to the profiler and remembers the label of
// the event being executed, so the benchmark's own work inside completion
// callbacks can be charged to the benchmark instead of to that label.
// ---------------------------------------------------------------------------

class LabelTap final : public sim::EngineObserver
{
  public:
    explicit LabelTap(telemetry::SimProfiler &inner) : inner_(inner) {}

    const char *current() const { return current_; }

    void onSchedule(sim::Ticks when, const char *label,
                    std::size_t pending) override
    {
        inner_.onSchedule(when, label, pending);
    }
    void onBatchDrain(sim::Ticks when, std::size_t batch,
                      std::size_t heap_before) override
    {
        inner_.onBatchDrain(when, batch, heap_before);
    }
    void onEventStart(sim::Ticks now, const char *label) override
    {
        current_ = label;
        inner_.onEventStart(now, label);
    }
    void onEventEnd() override
    {
        inner_.onEventEnd();
        current_ = nullptr;
    }
    void onRunStart() override { inner_.onRunStart(); }
    void onRunEnd() override { inner_.onRunEnd(); }

  private:
    telemetry::SimProfiler &inner_;
    const char *current_ = nullptr;
};

// ---------------------------------------------------------------------------
// Counters snapshotted around the measured phase
// ---------------------------------------------------------------------------

struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t hostNicBytes = 0;
    std::uint64_t targetNicBytes = 0;
    sim::Ticks hostNicBusy;
    sim::Ticks hostCpuBusy;
    std::uint64_t ssdRead = 0;
    std::uint64_t ssdWritten = 0;
    std::vector<sim::Ticks> ssdBusy;
    std::uint64_t fullStripe = 0, rmw = 0, rcw = 0, degradedReads = 0,
                  retries = 0, lockContended = 0;
};

Counts
snapshot(bench::SystemUnderTest &sut)
{
    Counts c;
    cluster::Cluster &cl = sut.cluster();
    c.events = sut.sim().eventsExecuted();
    c.hostNicBytes = cl.host().nic().tx().bytesTransferred() +
                     cl.host().nic().rx().bytesTransferred();
    c.hostNicBusy = std::max(cl.host().nic().tx().busyTime(),
                             cl.host().nic().rx().busyTime());
    c.hostCpuBusy = cl.host().cpu().busyTime();
    for (std::uint32_t t = 0; t < cl.numTargets(); ++t) {
        cluster::Node &n = cl.target(t);
        c.targetNicBytes += n.nic().tx().bytesTransferred() +
                            n.nic().rx().bytesTransferred();
        c.ssdRead += n.ssd().bytesRead();
        c.ssdWritten += n.ssd().bytesWritten();
        c.ssdBusy.push_back(n.ssd().channel().busyTime());
    }
    if (core::DraidHost *h = sut.draidHost()) {
        const core::HostCounters &k = h->counters();
        c.fullStripe = k.fullStripeWrites;
        c.rmw = k.rmwWrites;
        c.rcw = k.rcwWrites;
        c.degradedReads = k.degradedReads;
        c.retries = k.retries;
        c.lockContended = h->stripeLocks().contendedAcquires();
    } else if (auto *r = dynamic_cast<baselines::HostCentricRaid *>(
                   &sut.device())) {
        const baselines::HostRaidCounters &k = r->counters();
        c.fullStripe = k.fullStripeWrites;
        c.rmw = k.rmwWrites;
        c.rcw = k.rcwWrites;
        c.degradedReads = k.degradedReads;
        c.retries = k.retries;
    }
    return c;
}

const raid::Geometry &
geometryOf(bench::SystemUnderTest &sut)
{
    if (core::DraidHost *h = sut.draidHost())
        return h->geometry();
    return dynamic_cast<baselines::HostCentricRaid &>(sut.device())
        .geometry();
}

/** The member drive holding device @p dev of the array. */
const nvme::Ssd &
memberDrive(bench::SystemUnderTest &sut, std::uint32_t dev)
{
    core::DraidHost *h = sut.draidHost();
    return sut.cluster().target(h ? h->targetOf(dev) : dev).ssd();
}

// ---------------------------------------------------------------------------
// The repetition
// ---------------------------------------------------------------------------

struct Op
{
    std::uint64_t offset = 0;
    bool read = true;
};

class Rep
{
  public:
    Rep(const Spec &spec, std::uint64_t seed, bool traced, bool flip)
        : spec_(spec), seed_(seed), traced_(traced), flip_(flip)
    {
    }

    void run();

  private:
    void setUp();
    void recordExpected();
    void flipOneByte();
    void generateOps();
    void measure();
    void submit(int client);
    void onReadDone(int client, const Op &op, sim::Ticks t0,
                    blockdev::IoStatus st, const ec::Buffer &data);
    void onWriteDone(int client, const Op &op, sim::Ticks t0,
                     blockdev::IoStatus st,
                     std::vector<std::uint64_t> hashes);
    void finishOp(int client, sim::Ticks t0);
    void maybeStop();
    void postRunCheck();
    void print();

    /** Charge benchmark-own host time spent inside the current event. */
    void chargeBench(Clock::time_point t0);

    const Spec &spec_;
    std::uint64_t seed_;
    bool traced_;
    bool flip_;

    std::unique_ptr<bench::SystemUnderTest> sut_;
    double assembleS_ = 0, preloadS_ = 0, runS_ = 0, analyzeS_ = 0;

    /** Expected hash of every 4 KiB logical block in the working set. */
    std::vector<std::uint64_t> expected_;
    /** Per-client op streams, generated before the run from the seed. */
    std::vector<std::vector<Op>> ops_;
    std::vector<std::size_t> next_;
    std::uint64_t writeSerial_ = 0;

    std::uint64_t attempted_ = 0, completed_ = 0, failedOps_ = 0;
    std::uint64_t checkUnits_ = 0, checkFailed_ = 0;
    std::uint64_t userBytes_ = 0;
    std::vector<std::int64_t> latencies_;
    sim::Ticks simStart_, simEnd_;
    bool rebuildDone_ = true;
    double rebuildMBps_ = 0;

    Counts before_, after_;

    std::uint64_t submitNs_ = 0, submitCalls_ = 0;
    std::uint64_t benchNs_ = 0;
    std::map<std::string, std::uint64_t> benchNsByLabel_;
    std::uint64_t readSyncBytes_ = 0, readSyncNs_ = 0;
    std::uint64_t codecBytes_ = 0, codecNs_ = 0;
    std::uint64_t tracerSelfNs_ = 0;
    std::uint64_t retainedBytes_ = 0, spansRetained_ = 0;
    std::size_t spanBase_ = 0;

    telemetry::SimProfiler profiler_;
    std::unique_ptr<LabelTap> tap_;
    telemetry::SimProfiler::Report profile_;
    telemetry::CriticalPathReport critical_;
    bool haveCritical_ = false;
};

void
Rep::setUp()
{
    const Clock::time_point t0 = Clock::now();
    sut_ = std::make_unique<bench::SystemUnderTest>(spec_.kind, spec_.array);
    if (spec_.figureTelemetry) {
        // fig09/fig17 default artifacts arm span retention (analyzer +
        // timeline), the exemplar reservoir and utilization sampling
        // before the preload; this mirrors what those users run.
        cluster::Cluster &cl = sut_->cluster();
        cl.tracer().setEnabled(true);
        cl.telemetry().exemplars().setEnabled(true);
        cl.startUtilizationSampling(sim::Ticks::us(100));
    }
    const Clock::time_point t1 = Clock::now();
    bench::runFio(*sut_, bench::preloadConfig(spec_.workingSet));
    const Clock::time_point t2 = Clock::now();
    assembleS_ = secondsBetween(t0, t1);
    preloadS_ = secondsBetween(t1, t2);
}

void
Rep::recordExpected()
{
    const raid::Geometry &g = geometryOf(*sut_);
    const std::uint32_t chunk = g.chunkSize();
    expected_.assign(spec_.workingSet / kBlock, 0);
    for (std::uint64_t off = 0; off < spec_.workingSet; off += chunk) {
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, spec_.workingSet - off));
        for (const raid::Extent &e : g.map(off, len)) {
            const std::uint32_t dev = g.dataDevice(e.stripe, e.dataIdx);
            const ec::Buffer bytes = memberDrive(*sut_, dev).store().readSync(
                g.deviceAddress(e.stripe, e.offset), e.length);
            const std::uint64_t first =
                (e.stripe * g.stripeDataSize() +
                 static_cast<std::uint64_t>(e.dataIdx) * chunk + e.offset) /
                kBlock;
            for (std::uint32_t b = 0; b < e.length / kBlock; ++b)
                expected_[first + b] = blockHash(bytes.data() + b * kBlock);
        }
    }
}

void
Rep::flipOneByte()
{
    // One byte inside the first op of client 0, on the member drive that
    // holds it; on degraded_rebuild, where that is often the failed drive,
    // on a survivor the read is rebuilt from. A read of it must fail, and
    // a write over it must leave parity that no longer matches.
    const raid::Geometry &g = geometryOf(*sut_);
    const std::uint64_t offset =
        ops_[0][0].offset + splitmix64(seed_) % kBlock;
    const raid::Extent e = g.map(offset, 1).front();
    std::uint32_t dev = g.dataDevice(e.stripe, e.dataIdx);
    if (spec_.degradedRebuild && dev == 0)
        dev = 1;
    core::DraidHost *h = sut_->draidHost();
    nvme::Ssd &drive =
        sut_->cluster().target(h ? h->targetOf(dev) : dev).ssd();
    const std::uint64_t addr = g.deviceAddress(e.stripe, e.offset);
    ec::Buffer b = drive.store().readSync(addr, 1);
    b[0] ^= 0x01;
    sim::Simulator &sim = sut_->sim();
    drive.write(addr, std::move(b),
                [&sim](blockdev::IoStatus) { sim.stop(); });
    sim.run();
}

void
Rep::generateOps()
{
    // Candidate slots are io-sized and uniform over the working set (or,
    // on degraded_rebuild, over the failed drive's chunks as fig17b picks
    // them). A seeded shuffle deals them out to the clients, so no two
    // in-flight ops ever touch the same bytes, every read has exactly one
    // expected value, and no client's slots line up with the parity
    // rotation.
    const raid::Geometry &g = geometryOf(*sut_);
    std::vector<std::uint64_t> slots;
    if (spec_.degradedRebuild) {
        const std::uint64_t stripes = spec_.workingSet / g.stripeDataSize();
        for (std::uint64_t s = 0; s < stripes; ++s) {
            // Stripes where device 0 holds parity read data chunk 0, which
            // is a normal read.
            const std::uint32_t fidx =
                g.roleOf(s, 0) == raid::ChunkRole::kData ? g.dataIndexOf(s, 0)
                                                          : 0;
            const std::uint64_t base =
                s * g.stripeDataSize() +
                static_cast<std::uint64_t>(fidx) * g.chunkSize();
            for (std::uint64_t k = 0; k < g.chunkSize() / spec_.ioSize; ++k)
                slots.push_back(base + k * spec_.ioSize);
        }
    } else {
        for (std::uint64_t off = 0; off + spec_.ioSize <= spec_.workingSet;
             off += spec_.ioSize)
            slots.push_back(off);
    }
    const auto depth = static_cast<std::uint64_t>(spec_.depth);
    const std::uint64_t perClient = slots.size() / depth;
    if (perClient == 0) {
        std::fprintf(stderr, "working set too small for iodepth %d\n",
                     spec_.depth);
        std::exit(2);
    }
    std::uint64_t state = seed_;
    auto draw = [&state] {
        state += 0x9e3779b97f4a7c15ull;
        return splitmix64(state);
    };
    for (std::size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[draw() % (i + 1)]);
    ops_.assign(depth, {});
    for (std::uint64_t c = 0; c < depth; ++c) {
        ops_[c].reserve(spec_.opsPerClient);
        for (std::uint64_t k = 0; k < spec_.opsPerClient; ++k) {
            Op op;
            op.offset = slots[c + depth * (draw() % perClient)];
            op.read = static_cast<double>(draw() >> 11) * 0x1p-53 <
                      spec_.readRatio;
            ops_[c].push_back(op);
        }
    }
    next_.assign(depth, 0);
    attempted_ = depth * spec_.opsPerClient;
    latencies_.reserve(attempted_);
}

void
Rep::chargeBench(Clock::time_point t0)
{
    const std::uint64_t ns = nsBetween(t0, Clock::now());
    benchNs_ += ns;
    if (tap_ && tap_->current())
        benchNsByLabel_[tap_->current()] += ns;
}

void
Rep::submit(int client)
{
    std::size_t &k = next_[static_cast<std::size_t>(client)];
    if (k >= ops_[static_cast<std::size_t>(client)].size())
        return;
    const Op op = ops_[static_cast<std::size_t>(client)][k++];
    blockdev::BlockDevice &dev = sut_->device();
    const sim::Ticks t0 = sut_->sim().now();
    if (op.read) {
        const Clock::time_point h0 = Clock::now();
        dev.read(op.offset, spec_.ioSize,
                 [this, client, op, t0](blockdev::IoStatus st,
                                        ec::Buffer data) {
                     onReadDone(client, op, t0, st, data);
                 });
        submitNs_ += nsBetween(h0, Clock::now());
        ++submitCalls_;
        return;
    }
    // Seeded payload, one fresh pattern per 4 KiB block of every write.
    const Clock::time_point b0 = Clock::now();
    ec::Buffer data(spec_.ioSize);
    std::vector<std::uint64_t> hashes(spec_.ioSize / kBlock);
    const std::uint64_t serial = writeSerial_++;
    for (std::size_t b = 0; b < hashes.size(); ++b) {
        std::uint8_t *p = data.data() + b * kBlock;
        fillBlock(p, seed_ ^ (serial << 16) ^ b);
        hashes[b] = blockHash(p);
    }
    chargeBench(b0);
    const Clock::time_point h0 = Clock::now();
    dev.write(op.offset, std::move(data),
              [this, client, op, t0,
               hashes = std::move(hashes)](blockdev::IoStatus st) mutable {
                  onWriteDone(client, op, t0, st, std::move(hashes));
              });
    submitNs_ += nsBetween(h0, Clock::now());
    ++submitCalls_;
}

void
Rep::onReadDone(int client, const Op &op, sim::Ticks t0,
                blockdev::IoStatus st, const ec::Buffer &data)
{
    const Clock::time_point b0 = Clock::now();
    bool ok = st == blockdev::IoStatus::kOk && data.size() == spec_.ioSize;
    for (std::uint32_t b = 0; ok && b < spec_.ioSize / kBlock; ++b)
        ok = blockHash(data.data() + b * kBlock) ==
             expected_[op.offset / kBlock + b];
    if (!ok)
        ++failedOps_;
    chargeBench(b0);
    finishOp(client, t0);
}

void
Rep::onWriteDone(int client, const Op &op, sim::Ticks t0,
                 blockdev::IoStatus st, std::vector<std::uint64_t> hashes)
{
    if (st == blockdev::IoStatus::kOk) {
        std::copy(hashes.begin(), hashes.end(),
                  expected_.begin() +
                      static_cast<std::ptrdiff_t>(op.offset / kBlock));
    } else {
        ++failedOps_;
    }
    finishOp(client, t0);
}

void
Rep::finishOp(int client, sim::Ticks t0)
{
    ++completed_;
    userBytes_ += spec_.ioSize;
    latencies_.push_back((sut_->sim().now() - t0).raw());
    simEnd_ = std::max(simEnd_, sut_->sim().now());
    submit(client);
    maybeStop();
}

void
Rep::maybeStop()
{
    if (completed_ == attempted_ && rebuildDone_)
        sut_->sim().stop();
}

void
Rep::measure()
{
    bench::SystemUnderTest &sut = *sut_;
    sim::Simulator &sim = sut.sim();
    telemetry::Tracer &tracer = sut.cluster().tracer();
    if (traced_) {
        tap_ = std::make_unique<LabelTap>(profiler_);
        sim.setEngineObserver(tap_.get());
        tracer.setEnabled(true);
        tracer.setSelfTiming(true);
    }
    const std::uint64_t selfBefore = tracer.spanCost().ns +
                                     tracer.opCost().ns +
                                     tracer.counterCost().ns;
    spanBase_ = tracer.spans().size();
    before_ = snapshot(sut);
    simStart_ = sim.now();
    simEnd_ = simStart_;

    std::unique_ptr<core::RebuildJob> rebuild;
    const Clock::time_point t0 = Clock::now();
    if (spec_.degradedRebuild) {
        // Device 0 fails as the run starts; a full rebuild onto the hot
        // spare runs alongside the foreground reads, and the spare is
        // swapped in once both have finished.
        const raid::Geometry &g = geometryOf(sut);
        const std::uint32_t spare = spec_.array.width;
        rebuildDone_ = false;
        rebuild = std::make_unique<core::RebuildJob>(
            sim,
            [&sut, spare](std::uint64_t stripe,
                          std::function<void(bool)> done) {
                sut.reconstructChunk(stripe, spare, std::move(done));
            },
            spec_.workingSet / g.stripeDataSize(), g.chunkSize(),
            /*window=*/16);
        sut.markFailed(0);
        rebuild->start([this](bool ok) {
            if (!ok)
                ++checkFailed_;
            rebuildDone_ = true;
            simEnd_ = std::max(simEnd_, sut_->sim().now());
            maybeStop();
        });
    }
    for (int c = 0; c < spec_.depth; ++c)
        submit(c);
    while (completed_ < attempted_ || !rebuildDone_) {
        sim.run();
        if (sim.pendingEvents() == 0)
            break; // drained with work outstanding
    }
    if (rebuild) {
        rebuildMBps_ = rebuild->throughputMBps();
        checkUnits_ += 1;
        if (!rebuildDone_ || rebuild->failures() > 0)
            ++checkFailed_;
        if (core::DraidHost *h = sut.draidHost())
            h->replaceDevice(0, spec_.array.width);
    }
    failedOps_ += attempted_ - completed_;
    Clock::time_point t1 = Clock::now();

    if (spec_.figureTelemetry || traced_) {
        // The harness's runFio copies the measured spans and analyzes
        // them; time both, as its users pay for both.
        const Clock::time_point a0 = Clock::now();
        const auto &all = tracer.spans();
        const std::vector<telemetry::TraceSpan> measured(
            all.begin() + static_cast<std::ptrdiff_t>(
                              std::min(spanBase_, all.size())),
            all.end());
        critical_ = telemetry::analyzeCriticalPath(measured);
        haveCritical_ = true;
        const Clock::time_point a1 = Clock::now();
        analyzeS_ = secondsBetween(a0, a1);
        // Part of run_s where the workload arms fig09/fig17's telemetry.
        if (spec_.figureTelemetry)
            t1 = a1;
    }
    runS_ = secondsBetween(t0, t1);

    if (traced_) {
        sim.setEngineObserver(nullptr);
        profile_ = profiler_.report();
        tracerSelfNs_ = tracer.spanCost().ns + tracer.opCost().ns +
                        tracer.counterCost().ns - selfBefore;
    }
    after_ = snapshot(sut);
    retainedBytes_ = sut.cluster().telemetry().retainedTelemetryBytes();
    spansRetained_ = tracer.spans().size();
}

void
Rep::postRunCheck()
{
    // Recompute parity from the member drives with src/ec and compare;
    // on degraded_rebuild also require the rebuilt spare to equal the
    // failed drive's pre-failure bytes (device 0's drive is never written
    // after it fails, so its store still holds them).
    const raid::Geometry &g = geometryOf(*sut_);
    const std::uint32_t chunk = g.chunkSize();
    const std::uint64_t stripes =
        (spec_.workingSet + g.stripeDataSize() - 1) / g.stripeDataSize();
    auto read = [&](const nvme::Ssd &drive, std::uint64_t stripe) {
        const Clock::time_point t0 = Clock::now();
        ec::Buffer b = drive.store().readSync(g.deviceAddress(stripe, 0),
                                              chunk);
        readSyncNs_ += nsBetween(t0, Clock::now());
        readSyncBytes_ += chunk;
        return b;
    };
    for (std::uint64_t s = 0; s < stripes; ++s) {
        std::vector<ec::Buffer> data;
        for (std::uint32_t i = 0; i < g.dataChunks(); ++i)
            data.push_back(read(memberDrive(*sut_, g.dataDevice(s, i)), s));
        const ec::Buffer p = read(memberDrive(*sut_, g.parityDevice(s)), s);
        bool ok = false;
        const Clock::time_point t0 = Clock::now();
        if (g.level() == raid::RaidLevel::kRaid6) {
            ec::Buffer pp(chunk), qq(chunk);
            ec::Raid6Codec::computePQ(data, pp, qq);
            codecNs_ += nsBetween(t0, Clock::now());
            const ec::Buffer q = read(memberDrive(*sut_, g.qDevice(s)), s);
            ok = pp.contentEquals(p) && qq.contentEquals(q);
        } else {
            const ec::Buffer pp = ec::Raid5Codec::computeParity(data);
            codecNs_ += nsBetween(t0, Clock::now());
            ok = pp.contentEquals(p);
        }
        codecBytes_ += static_cast<std::uint64_t>(chunk) * g.dataChunks();
        ++checkUnits_;
        if (!ok)
            ++checkFailed_;
    }
    if (spec_.degradedRebuild) {
        const nvme::Ssd &original = sut_->cluster().target(0).ssd();
        const nvme::Ssd &spare = memberDrive(*sut_, 0);
        for (std::uint64_t s = 0; s < stripes; ++s) {
            ++checkUnits_;
            if (&spare == &original ||
                !read(spare, s).contentEquals(read(original, s)))
                ++checkFailed_;
        }
    }
}

void
Rep::run()
{
    setUp();
    recordExpected();
    generateOps();
    if (flip_)
        flipOneByte();
    measure();
    postRunCheck();
    print();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/** Minimal JSON object writer: keys in insertion order, full precision. */
class Json
{
  public:
    Json &num(const char *key, double v)
    {
        std::snprintf(buf_, sizeof(buf_), "%.17g", v);
        return raw(key, buf_);
    }
    Json &count(const char *key, std::uint64_t v)
    {
        std::snprintf(buf_, sizeof(buf_), "%llu",
                      static_cast<unsigned long long>(v));
        return raw(key, buf_);
    }
    Json &str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    Json &raw(const std::string &key, const std::string &v)
    {
        out_ += out_.empty() ? "{" : ",";
        out_ += "\"" + key + "\":" + v;
        return *this;
    }
    std::string done() const { return (out_.empty() ? "{" : out_) + "}"; }

  private:
    std::string out_;
    char buf_[64] = {};
};

double
percentileUs(std::vector<std::int64_t> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
    rank = std::min(std::max<std::size_t>(rank, 1), v.size()) - 1;
    return static_cast<double>(v[rank]) / sim::kMicrosecond;
}

double
meanUs(const std::vector<std::int64_t> &v)
{
    std::int64_t sum = 0;
    for (std::int64_t t : v)
        sum += t;
    if (v.empty())
        return 0.0;
    return static_cast<double>(sum) / static_cast<double>(v.size()) /
           sim::kMicrosecond;
}

void
Rep::print()
{
    const double simS = sim::toSeconds(simEnd_ - simStart_);
    const double dur = static_cast<double>((simEnd_ - simStart_).raw());
    auto frac = [dur](sim::Ticks busy) {
        return dur > 0 ? static_cast<double>(busy.raw()) / dur : 0.0;
    };
    const double user = static_cast<double>(userBytes_);
    sim::Ticks ssdBusyMax;
    for (std::size_t i = 0; i < after_.ssdBusy.size(); ++i)
        ssdBusyMax = std::max(ssdBusyMax,
                              after_.ssdBusy[i] - before_.ssdBusy[i]);
    std::uint64_t pages = 0;
    for (std::uint32_t t = 0; t < sut_->cluster().numTargets(); ++t)
        pages += sut_->cluster().target(t).ssd().store().pagesAllocated();

    // Simulated results and exact counts: identical across repetitions of
    // one seed, traced or not.
    Json det;
    det.count("ops", attempted_)
        .count("failed_ops", failedOps_)
        .count("check_units", checkUnits_)
        .count("check_failed", checkFailed_)
        .num("sim_goodput_MBps", simS > 0 ? user / simS / 1e6 : 0.0)
        .num("sim_mean_us", meanUs(latencies_))
        .num("sim_p99_us", percentileUs(latencies_, 99))
        .num("sim_s", simS)
        .num("rebuild_MBps", rebuildMBps_)
        .count("sim.events", after_.events - before_.events)
        .num("sim.host_cpu_busy_frac",
             frac(after_.hostCpuBusy - before_.hostCpuBusy))
        .num("net.host_nic_bytes_per_user_byte",
             static_cast<double>(after_.hostNicBytes - before_.hostNicBytes) /
                 user)
        .num("net.target_nic_bytes_per_user_byte",
             static_cast<double>(after_.targetNicBytes -
                                 before_.targetNicBytes) /
                 user)
        .num("net.host_nic_busy_frac",
             frac(after_.hostNicBusy - before_.hostNicBusy))
        .num("nvme.read_bytes_per_user_byte",
             static_cast<double>(after_.ssdRead - before_.ssdRead) / user)
        .num("nvme.write_bytes_per_user_byte",
             static_cast<double>(after_.ssdWritten - before_.ssdWritten) /
                 user)
        .num("nvme.ssd_busy_frac_max", frac(ssdBusyMax))
        .num("blockdev.store_mb",
             static_cast<double>(pages * kStorePage) /
                 static_cast<double>(kMiB))
        .count("raid.lock_contended",
               after_.lockContended - before_.lockContended)
        .count("rmw_writes", after_.rmw - before_.rmw)
        .count("rcw_writes", after_.rcw - before_.rcw)
        .count("full_stripe_writes", after_.fullStripe - before_.fullStripe)
        .count("degraded_reads", after_.degradedReads - before_.degradedReads)
        .count("retries", after_.retries - before_.retries);

    Json host;
    host.num("assemble_s", assembleS_)
        .num("preload_s", preloadS_)
        .num("run_s", runS_)
        .num("analyze_s", analyzeS_)
        .num("analyze_in_run_s", spec_.figureTelemetry ? analyzeS_ : 0.0)
        .count("submit_ns", submitNs_)
        .count("submit_calls", submitCalls_)
        .count("bench_ns", benchNs_)
        .count("readsync_bytes", readSyncBytes_)
        .count("readsync_ns", readSyncNs_)
        .count("codec_bytes", codecBytes_)
        .count("codec_ns", codecNs_)
        .count("tracer_self_ns", tracerSelfNs_)
        .count("retained_bytes", retainedBytes_)
        .count("spans_retained", spansRetained_);

    Json out;
    out.str("system", bench::name(spec_.kind))
        .raw("det", det.done())
        .raw("host", host.done());
    if (haveCritical_) {
        Json phase;
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            phase.num(telemetry::phaseName(static_cast<telemetry::Phase>(p)),
                      critical_.phases[p].share);
        out.raw("phase", phase.done());
    }
    if (traced_) {
        Json labels, benchIn;
        for (const auto &row : profile_.sources)
            labels.count(row.label.c_str(), row.totalNs);
        for (const auto &[label, ns] : benchNsByLabel_)
            benchIn.count(label.c_str(), ns);
        Json prof;
        prof.count("wall_ns", profile_.wallNs)
            .count("events", profile_.events)
            .raw("label_ns", labels.done())
            .raw("bench_ns_in_label", benchIn.done());
        out.raw("profile", prof.done());
    }
    std::printf("%s\n", out.done().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false, tiny = false, flip = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--workload=", 0) == 0)
            workload = a.substr(11);
        else if (a.rfind("--seed=", 0) == 0)
            seed = std::strtoull(a.c_str() + 7, nullptr, 10);
        else if (a == "--traced")
            traced = true;
        else if (a == "--tiny")
            tiny = true;
        else if (a == "--flip")
            flip = true;
        else {
            std::fprintf(stderr, "unknown argument %s\n", a.c_str());
            return 2;
        }
    }
    Spec spec;
    if (!specFor(workload, tiny, spec)) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    Rep(spec, seed, traced, flip).run();
    return 0;
}
