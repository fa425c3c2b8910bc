#include "workloads/whisper.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "common/logging.hh"
#include "core/domain.hh"
#include "pm/palloc.hh"

namespace terp {
namespace workloads {

namespace {

/** Mix of a 64-bit hash (splittable, cheap). */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/**
 * Base class for WHISPER jobs: drives the parse / transaction state
 * machine at ~1 us step granularity so the hardware sweeper
 * interleaves realistically, and offers timed PMO access helpers.
 */
class WhisperJob : public sim::Job
{
  public:
    struct Shape
    {
        unsigned opsPerSection;  //!< micro-ops per transaction
        Cycles interOpCycles;    //!< compute between micro-ops
        Cycles parseCycles;      //!< non-persistent work per section
        double jitter = 0.45;
    };

    WhisperJob(core::Runtime &rt_, sim::Machine &mach_,
               pm::PmoManager &pmos_, pm::MemImage &img_,
               pm::PmoId pmo_, Shape shape_,
               const WhisperParams &params)
        : rt(rt_), mach(mach_), pmos(pmos_), img(img_), pmo(pmo_),
          shape(shape_), sections(params.sections),
          rng(params.seed ^ mix64(pmo_))
    {
    }

    bool
    step(sim::ThreadContext &tc) override
    {
        if (done >= sections)
            return false;
        if (!started) {
            started = true;
            startSection();
        }

        if (phase == Phase::Parse) {
            Cycles slice = std::min<Cycles>(parseLeft, cyclesPerUs);
            tc.work(slice);
            dramTouch(tc, 2);
            parseLeft -= slice;
            if (parseLeft == 0) {
                rt.manualBegin(tc, pmo, pm::Mode::ReadWrite);
                opIdx = 0;
                phase = Phase::Ops;
            }
            return true;
        }

        // One micro-op per step: region guard around the operation.
        rt.regionBegin(tc, pmo, pm::Mode::ReadWrite);
        microOp(tc, opIdx);
        rt.regionEnd(tc, pmo);
        tc.work(rng.jitter(shape.interOpCycles, 0.3));

        if (++opIdx >= opsThisSection) {
            rt.manualEnd(tc, pmo);
            ++done;
            if (done >= sections)
                return false;
            startSection();
        }
        return true;
    }

  protected:
    /** One data-structure operation (runs inside a region guard). */
    virtual void microOp(sim::ThreadContext &tc, unsigned idx) = 0;

    // ---- timed access helpers ---------------------------------------

    void
    readPmo(sim::ThreadContext &tc, pm::Oid oid,
            std::uint64_t bytes = 8)
    {
        rt.accessRange(tc, oid, bytes, false);
    }

    void
    writePmo(sim::ThreadContext &tc, pm::Oid oid,
             std::uint64_t bytes = 8)
    {
        rt.accessRange(tc, oid, bytes, true);
    }

    std::uint64_t peek(pm::Oid oid) const { return img.peek(oid.raw); }
    void poke(pm::Oid oid, std::uint64_t v) { img.poke(oid.raw, v); }
    /** poke() for prefills into a range reserveDense made dense. */
    void fill(pm::Oid oid, std::uint64_t v) { img.fill(oid.raw, v); }

    /** A few DRAM touches (request buffers etc.). */
    void
    dramTouch(sim::ThreadContext &tc, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t off =
                dramCursor++ % (4096 / lineSize) * lineSize;
            mach.access(tc,
                        sim::MemAccess{pm::MemImage::dramVirtBase + off,
                                       pm::MemImage::dramPhysBase + off,
                                       false, sim::MemKind::Dram});
        }
    }

    /** Writes each non-null chain head to its 8-byte slot from @p off. */
    void
    pokeHeads(std::uint64_t off, const std::vector<std::uint64_t> &heads)
    {
        img.reserveDense(pm::Oid(pmo, off).raw, heads.size() * 8);
        for (std::size_t i = 0; i < heads.size(); ++i)
            if (heads[i] != 0)
                fill(pm::Oid(pmo, off + i * 8), heads[i]);
    }

    pm::PoolAllocator &alloc() { return pmos.allocator(pmo); }

    core::Runtime &rt;
    sim::Machine &mach;
    pm::PmoManager &pmos;
    pm::MemImage &img;
    pm::PmoId pmo;
    Shape shape;
    std::uint64_t sections;
    Rng rng;

  private:
    enum class Phase { Parse, Ops };
    Phase phase = Phase::Parse;
    bool started = false;
    std::uint64_t done = 0;
    Cycles parseLeft = 0;
    unsigned opIdx = 0;
    unsigned opsThisSection = 0;
    std::uint64_t dramCursor = 0;

    void
    startSection()
    {
        phase = Phase::Parse;
        parseLeft = std::max<Cycles>(
            1, rng.jitter(shape.parseCycles, shape.jitter));
        opsThisSection = std::max<std::uint64_t>(
            1, rng.jitter(shape.opsPerSection, shape.jitter));
    }
};

// ----------------------------------------------------------- hashmap

/** Chained hash map: bucket array + allocated 64-byte records. */
class HashmapJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t bucketShift = 16;
    static constexpr std::uint64_t nBuckets = 1ULL << bucketShift;
    static constexpr std::uint64_t bucketsOff = 4096;
    static constexpr std::uint64_t recordSize = 64;

    HashmapJob(core::Runtime &rt, sim::Machine &mach,
               pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
               Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p),
          keyspace(200000)
    {
        alloc().reservePrefix(bucketsOff + nBuckets * 8);
        // The PMO already holds the map from previous runs: populate
        // without charging simulated time. Chains build in host-side
        // heads; each bucket word is written once at the end. The
        // records are one run of dense blocks, at the offsets 50k
        // pmalloc calls would give.
        constexpr std::uint64_t nRecords = 50000;
        const pm::Oid first = alloc().pmallocRun(nRecords, recordSize);
        TERP_ASSERT(!first.isNull(), "hashmap pool exhausted");
        img.reserveDense(first.raw, nRecords * recordSize);
        std::vector<std::uint64_t> heads(nBuckets, 0);
        for (std::uint64_t i = 0; i < nRecords; ++i) {
            // Value before key: the draw order the recorded outputs use.
            std::uint64_t val = rng.next();
            std::uint64_t key = rng.nextBelow(keyspace);
            pm::Oid rec = first.plus(i * recordSize);
            std::uint64_t &head = heads[bucketOf(key)];
            fill(rec, key);
            fill(rec.plus(8), head);
            fill(rec.plus(16), val);
            head = rec.raw;
        }
        pokeHeads(bucketsOff, heads);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned) override
    {
        std::uint64_t key = rng.nextBelow(keyspace);
        tc.work(300); // hash + request handling
        pm::Oid head = bucketOid(key);
        readPmo(tc, head);
        std::uint64_t rec = peek(head);
        unsigned hops = 0;
        pm::Oid prev = head;
        while (rec != 0 && hops < 16) {
            pm::Oid r = pm::Oid::fromRaw(rec);
            readPmo(tc, r, recordSize);
            if (peek(r) == key)
                break;
            prev = r.plus(8);
            rec = peek(r.plus(8));
            ++hops;
        }
        double roll = rng.nextDouble();
        if (rec != 0 && peek(pm::Oid::fromRaw(rec)) == key) {
            if (roll < 0.35) { // update value in place
                writePmo(tc, pm::Oid::fromRaw(rec).plus(16), 8);
                poke(pm::Oid::fromRaw(rec).plus(16), rng.next());
            } else if (roll < 0.40) { // delete
                pm::Oid r = pm::Oid::fromRaw(rec);
                poke(prev, peek(r.plus(8)));
                writePmo(tc, prev, 8);
                alloc().pfree(r);
            }
        } else if (roll < 0.30) { // insert at head
            timedInsert(tc, key);
        }
    }

  private:
    std::uint64_t keyspace;

    static std::uint64_t
    bucketOf(std::uint64_t key)
    {
        return mix64(key) & (nBuckets - 1);
    }

    pm::Oid
    bucketOid(std::uint64_t key) const
    {
        return pm::Oid(pmo, bucketsOff + bucketOf(key) * 8);
    }

    void
    timedInsert(sim::ThreadContext &tc, std::uint64_t key)
    {
        pm::Oid rec = alloc().pmalloc(recordSize);
        if (rec.isNull())
            return;
        pm::Oid head = bucketOid(key);
        poke(rec, key);
        poke(rec.plus(8), peek(head));
        poke(rec.plus(16), rng.next());
        writePmo(tc, rec, recordSize);
        poke(head, rec.raw);
        writePmo(tc, head, 8);
    }
};

// ------------------------------------------------------------- ctree

/** Binary search tree with allocated 32-byte nodes. */
class CtreeJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t rootOff = 0;
    static constexpr std::uint64_t nodeSize = 32;

    CtreeJob(core::Runtime &rt, sim::Machine &mach,
             pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
             Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p),
          keyspace(1u << 20)
    {
        // The PMO already holds the tree that 50k one-at-a-time
        // inserts build; lay it out in bulk, charging no simulated time.
        std::vector<std::uint64_t> keys(50000);
        for (std::uint64_t &k : keys)
            k = rng.nextBelow(keyspace);
        InsertionBst t = buildInsertionBst(keys);
        // Node i is member i of one run of dense blocks.
        const std::size_t n = t.keys.size();
        const pm::Oid first = alloc().pmallocRun(n, nodeSize);
        TERP_ASSERT(!first.isNull(), "ctree pool exhausted");
        img.reserveDense(first.raw, n * nodeSize);
        const auto node = [&](std::size_t i) {
            return first.plus(i * nodeSize);
        };
        for (std::size_t i = 0; i < n; ++i) {
            fill(node(i), t.keys[i]);
            if (t.left[i] != InsertionBst::none)
                fill(node(i).plus(8), node(t.left[i]).raw);
            if (t.right[i] != InsertionBst::none)
                fill(node(i).plus(16), node(t.right[i]).raw);
        }
        if (t.root != InsertionBst::none)
            poke(pm::Oid(pmo, rootOff), node(t.root).raw);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned) override
    {
        std::uint64_t key = rng.nextBelow(keyspace);
        tc.work(200);
        pm::Oid root(pmo, rootOff);
        std::uint64_t cur = peek(root);
        pm::Oid link = root;
        unsigned depth = 0;
        while (cur != 0 && depth < 40) {
            pm::Oid n = pm::Oid::fromRaw(cur);
            readPmo(tc, n, nodeSize);
            std::uint64_t k = peek(n);
            if (k == key)
                break;
            link = key < k ? n.plus(8) : n.plus(16);
            cur = peek(link);
            ++depth;
        }
        if (cur == 0 && rng.nextBool(0.35)) { // insert
            pm::Oid n = alloc().pmalloc(nodeSize);
            if (n.isNull())
                return;
            poke(n, key);
            poke(n.plus(8), 0);
            poke(n.plus(16), 0);
            writePmo(tc, n, nodeSize);
            poke(link, n.raw);
            writePmo(tc, link, 8);
        } else if (cur != 0 && rng.nextBool(0.3)) { // update value
            writePmo(tc, pm::Oid::fromRaw(cur).plus(24), 8);
        }
    }

  private:
    std::uint64_t keyspace;
};

// -------------------------------------------------------------- ycsb

/** Fixed-slot record store with Zipfian access (YCSB-style). */
class YcsbJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t nRecords = 1ULL << 16;
    static constexpr std::uint64_t recordBytes = 128;
    static constexpr std::uint64_t baseOff = 4096;

    YcsbJob(core::Runtime &rt, sim::Machine &mach,
            pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
            Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p),
          zipf(nRecords, 0.99, p.seed ^ 0x12345)
    {
        alloc().reservePrefix(baseOff + nRecords * recordBytes);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned) override
    {
        std::uint64_t k = zipf.next();
        tc.work(350);
        pm::Oid rec(pmo, baseOff + k * recordBytes);
        readPmo(tc, rec, recordBytes / 2); // read the header half
        if (rng.nextBool(0.3)) {
            writePmo(tc, rec.plus(recordBytes / 2), recordBytes / 2);
            poke(rec.plus(recordBytes / 2), rng.next());
        }
    }

  private:
    ZipfGenerator zipf;
};

// -------------------------------------------------------------- tpcc

/** New-order transactions over warehouse/district/customer/order
 *  tables laid out in one PMO. */
class TpccJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t warehouseOff = 0;
    static constexpr std::uint64_t districtOff = 4096;
    static constexpr std::uint64_t customerOff = 1ULL << 20;
    static constexpr std::uint64_t itemOff = 1ULL << 24;
    static constexpr std::uint64_t nCustomers = 1ULL << 15;
    static constexpr std::uint64_t nItems = 1ULL << 16;

    TpccJob(core::Runtime &rt, sim::Machine &mach,
            pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
            Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p)
    {
        alloc().reservePrefix(itemOff + nItems * lineSize);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned idx) override
    {
        tc.work(250);
        switch (idx) {
          case 0: // warehouse tax read
            readPmo(tc, pm::Oid(pmo, warehouseOff), 8);
            break;
          case 1: { // district: read + bump next-order id
            pm::Oid d(pmo,
                      districtOff + rng.nextBelow(10) * lineSize);
            readPmo(tc, d, 8);
            poke(d, peek(d) + 1);
            writePmo(tc, d, 8);
            break;
          }
          case 2: { // customer discount read
            pm::Oid c(pmo, customerOff +
                               rng.nextBelow(nCustomers) * lineSize);
            readPmo(tc, c, 8);
            break;
          }
          case 3: { // order header insert
            pm::Oid o = alloc().pmalloc(lineSize);
            if (!o.isNull()) {
                poke(o, rng.next());
                writePmo(tc, o, lineSize);
            }
            break;
          }
          default: { // one order line: item read + line insert
            pm::Oid it(pmo,
                       itemOff + rng.nextBelow(nItems) * lineSize);
            readPmo(tc, it, 8);
            pm::Oid ol = alloc().pmalloc(lineSize);
            if (!ol.isNull()) {
                poke(ol, rng.next());
                writePmo(tc, ol, lineSize);
            }
            break;
          }
        }
    }
};

// -------------------------------------------------------------- echo

/** Log-structured KV: append record, update index, bump header. */
class EchoJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t headerOff = 0;
    static constexpr std::uint64_t indexOff = 4096;
    static constexpr std::uint64_t indexSlots = 1ULL << 16;
    static constexpr std::uint64_t recordBytes = 256;

    EchoJob(core::Runtime &rt, sim::Machine &mach,
            pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
            Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p)
    {
        alloc().reservePrefix(indexOff + indexSlots * 8);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned) override
    {
        std::uint64_t key = rng.next();
        tc.work(400); // serialize the value
        pm::Oid rec = alloc().pmalloc(recordBytes);
        if (rec.isNull())
            return;
        poke(rec, key);
        writePmo(tc, rec, recordBytes); // sequential log append
        pm::Oid slot(pmo, indexOff +
                              (mix64(key) & (indexSlots - 1)) * 8);
        poke(slot, rec.raw);
        writePmo(tc, slot, 8);
        pm::Oid hdr(pmo, headerOff); // hot head pointer
        poke(hdr, peek(hdr) + 1);
        writePmo(tc, hdr, 8);
    }
};

// ------------------------------------------------------------- redis

/** Dict + list operations (GET / SET / LPUSH mix). */
class RedisJob : public WhisperJob
{
  public:
    static constexpr std::uint64_t dictOff = 4096;
    static constexpr std::uint64_t dictSlots = 1ULL << 14;
    static constexpr std::uint64_t listHeadsOff = 2048;
    static constexpr std::uint64_t nLists = 16;

    RedisJob(core::Runtime &rt, sim::Machine &mach,
             pm::PmoManager &pmos, pm::MemImage &img, pm::PmoId pmo,
             Shape shape, const WhisperParams &p)
        : WhisperJob(rt, mach, pmos, img, pmo, shape, p)
    {
        alloc().reservePrefix(dictOff + dictSlots * 8);
        // Prefilled dict, chained in host-side heads like hashmap's.
        constexpr std::uint64_t nEntries = 20000;
        constexpr std::uint64_t entrySize = 48;
        const pm::Oid first = alloc().pmallocRun(nEntries, entrySize);
        TERP_ASSERT(!first.isNull(), "redis pool exhausted");
        img.reserveDense(first.raw, nEntries * entrySize);
        std::vector<std::uint64_t> heads(dictSlots, 0);
        for (std::uint64_t i = 0; i < nEntries; ++i) {
            std::uint64_t key = rng.nextBelow(100000);
            pm::Oid e = first.plus(i * entrySize);
            std::uint64_t &head = heads[slotOf(key)];
            fill(e, key);
            fill(e.plus(8), head);
            head = e.raw;
        }
        pokeHeads(dictOff, heads);
    }

  protected:
    void
    microOp(sim::ThreadContext &tc, unsigned) override
    {
        tc.work(350);
        double roll = rng.nextDouble();
        std::uint64_t key = rng.nextBelow(100000);
        if (roll < 0.4) { // GET
            pm::Oid slot = slotOid(key);
            readPmo(tc, slot);
            std::uint64_t e = peek(slot);
            unsigned hops = 0;
            while (e != 0 && hops < 8) {
                pm::Oid n = pm::Oid::fromRaw(e);
                readPmo(tc, n, 48);
                if (peek(n) == key)
                    break;
                e = peek(n.plus(8));
                ++hops;
            }
        } else if (roll < 0.8) { // SET (insert at head)
            pm::Oid e = alloc().pmalloc(48);
            if (e.isNull())
                return;
            pm::Oid slot = slotOid(key);
            readPmo(tc, slot);
            poke(e, key);
            poke(e.plus(8), peek(slot));
            poke(e.plus(16), rng.next());
            writePmo(tc, e, 48);
            poke(slot, e.raw);
            writePmo(tc, slot, 8);
        } else { // LPUSH
            pm::Oid head(pmo,
                         listHeadsOff + rng.nextBelow(nLists) * 8);
            pm::Oid node = alloc().pmalloc(32);
            if (node.isNull())
                return;
            readPmo(tc, head);
            poke(node, rng.next());
            poke(node.plus(8), peek(head));
            writePmo(tc, node, 32);
            poke(head, node.raw);
            writePmo(tc, head, 8);
        }
    }

  private:
    static std::uint64_t
    slotOf(std::uint64_t key)
    {
        return mix64(key) & (dictSlots - 1);
    }

    pm::Oid
    slotOid(std::uint64_t key) const
    {
        return pm::Oid(pmo, dictOff + slotOf(key) * 8);
    }
};

// --------------------------------------------------------- factory

struct ShapeSpec
{
    const char *name;
    WhisperJob::Shape shape;
};

const ShapeSpec shapeTable[] = {
    // name      ops/sec  interOp   parse
    {"echo",    {10, 2200, 232000}},
    {"ycsb",    {12, 1300, 74000}},
    {"tpcc",    {12, 1000, 55000}},
    {"ctree",   {8,  900,  125000}},
    {"hashmap", {17, 1000, 182000}},
    {"redis",   {8,  660,  37000}},
};

std::unique_ptr<WhisperJob>
makeJob(const std::string &name, core::Runtime &rt,
        sim::Machine &mach, pm::PmoManager &pmos, pm::MemImage &img,
        pm::PmoId pmo, const WhisperParams &params)
{
    const ShapeSpec *spec = nullptr;
    for (const auto &s : shapeTable)
        if (name == s.name)
            spec = &s;
    TERP_ASSERT(spec, "unknown WHISPER workload: ", name);
    const WhisperJob::Shape &sh = spec->shape;

    if (name == "echo")
        return std::make_unique<EchoJob>(rt, mach, pmos, img, pmo,
                                         sh, params);
    if (name == "ycsb")
        return std::make_unique<YcsbJob>(rt, mach, pmos, img, pmo,
                                         sh, params);
    if (name == "tpcc")
        return std::make_unique<TpccJob>(rt, mach, pmos, img, pmo,
                                         sh, params);
    if (name == "ctree")
        return std::make_unique<CtreeJob>(rt, mach, pmos, img, pmo,
                                          sh, params);
    if (name == "hashmap")
        return std::make_unique<HashmapJob>(rt, mach, pmos, img, pmo,
                                            sh, params);
    return std::make_unique<RedisJob>(rt, mach, pmos, img, pmo, sh,
                                      params);
}

} // namespace

InsertionBst
buildInsertionBst(const std::vector<std::uint64_t> &keys)
{
    TERP_ASSERT(keys.size() < InsertionBst::none);
    // A stable LSD radix sort of (key, draw index) pairs taken in draw
    // order: each key's first draw heads its run of equal keys, as a
    // sort by (key, index) would put it. Passes cover only the digits
    // the largest key has, and a digit every key shares is skipped.
    constexpr unsigned digitBits = 11;
    constexpr std::size_t radix = std::size_t{1} << digitBits;
    const std::size_t n = keys.size();
    std::uint64_t any = 0; // as wide as the largest key
    for (std::uint64_t k : keys)
        any |= k;
    const unsigned passes =
        (std::bit_width(any) + digitBits - 1) / digitBits;
    std::vector<std::uint32_t> counts(passes * radix, 0);
    for (std::uint64_t k : keys)
        for (unsigned p = 0; p < passes; ++p)
            ++counts[p * radix + ((k >> (p * digitBits)) & (radix - 1))];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> byKey(n), spare(n);
    for (std::size_t i = 0; i < n; ++i)
        byKey[i] = {keys[i], static_cast<std::uint32_t>(i)};
    for (unsigned p = 0; p < passes; ++p) {
        std::uint32_t *count = &counts[p * radix];
        const unsigned shift = p * digitBits;
        if (count[(keys[0] >> shift) & (radix - 1)] == n)
            continue;
        std::uint32_t at = 0; // counts become each digit's first slot
        for (std::size_t d = 0; d < radix; ++d)
            at += std::exchange(count[d], at);
        for (const auto &kd : byKey)
            spare[count[(kd.first >> shift) & (radix - 1)]++] = kd;
        byKey.swap(spare);
    }
    std::vector<std::uint32_t> nodeOfDraw(keys.size(), InsertionBst::none);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < byKey.size(); ++i)
        if (i == 0 || byKey[i].first != byKey[i - 1].first) {
            nodeOfDraw[byKey[i].second] = 0;
            ++distinct;
        }
    // Nodes are numbered in first-insertion order.
    InsertionBst t;
    t.keys.reserve(distinct);
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (nodeOfDraw[i] != InsertionBst::none) {
            nodeOfDraw[i] = static_cast<std::uint32_t>(t.keys.size());
            t.keys.push_back(keys[i]);
        }
    t.left.assign(distinct, InsertionBst::none);
    t.right.assign(distinct, InsertionBst::none);

    // Cartesian tree in key order, earlier insertion nearer the root:
    // the stack holds the right spine of the tree built so far.
    std::vector<std::uint32_t> spine;
    for (const auto &kd : byKey) {
        std::uint32_t n = nodeOfDraw[kd.second];
        if (n == InsertionBst::none) // a repeat of its key
            continue;
        std::uint32_t last = InsertionBst::none;
        while (!spine.empty() && spine.back() > n) {
            last = spine.back();
            spine.pop_back();
        }
        t.left[n] = last;
        if (!spine.empty())
            t.right[spine.back()] = n;
        spine.push_back(n);
    }
    if (!spine.empty())
        t.root = spine.front();
    return t;
}

const std::vector<std::string> &
whisperNames()
{
    static const std::vector<std::string> names = {
        "echo", "ycsb", "tpcc", "ctree", "hashmap", "redis"};
    return names;
}

RunResult
runWhisper(const std::string &name, const core::RuntimeConfig &cfg,
           const WhisperParams &params)
{
    core::DomainConfig dc;
    dc.runtime = cfg;
    dc.machine.hookPeriod = params.sweepPeriod;
    dc.placementSeed = params.seed;
    core::ShardDomain d(dc);
    sim::Machine &mach = d.machine();
    core::Runtime &rt = d.runtime();
    pm::Pmo &p = d.pmos().create("whisper." + name, params.pmoSize);
    pm::MemImage img;

    auto job = makeJob(name, rt, mach, d.pmos(), img, p.id(), params);
    mach.spawnThread();
    d.runJobs({job.get()});
    d.finalize();

    RunResult r;
    r.name = name;
    r.report = rt.report();
    r.totalCycles = mach.maxClock();
    r.exposure = rt.exposure().metricsFor(p.id(), r.totalCycles, 1);
    if (auto sink = rt.traceSink()) {
        r.trace = sink;
        r.traceAudit = std::make_shared<trace::AuditReport>(
            trace::auditTimeline(*sink, r.totalCycles,
                                 rt.exposure()));
    }
    if ((r.metrics = rt.metricsRegistry()))
        r.metrics->setLabel("workload", name);
    return r;
}

double
overheadVsBase(const RunResult &protected_run,
               const RunResult &base_run)
{
    TERP_ASSERT(base_run.totalCycles > 0);
    return (static_cast<double>(protected_run.totalCycles) -
            static_cast<double>(base_run.totalCycles)) /
           static_cast<double>(base_run.totalCycles);
}

} // namespace workloads
} // namespace terp
