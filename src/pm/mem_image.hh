/**
 * @file
 * Word-granularity backing store for simulated program data.
 *
 * Words are keyed by location-independent pointer values: ObjectIDs
 * for PMO data (pool id in the top 16 bits) and arena offsets for
 * DRAM data. Because the key is the ObjectID rather than the mapped
 * virtual address, PMO re-randomization is transparent to programs —
 * exactly the property relocatable PMO pointers give real TERP
 * applications. Persistence across "runs" is modeled by reusing the
 * same image in a new simulation.
 *
 * The store is block-local: the words of one 512-byte-aligned block
 * share host memory, so a scan over neighbouring words reads
 * neighbouring host lines instead of taking one host cache miss per
 * word (peek/poke sit directly on the interpreter's Load/Store path).
 * Two tiers hold a block's words:
 *
 * - *Sparse.* A block with fewer than denseAt words keeps each one in
 *   a 16-byte {key, value} slot of a linear-probing table. Slots are
 *   homed by a hash of the block, not of the word, so all of a
 *   block's words sit in one probe run.
 * - *Dense.* The insert that gives a block its denseAt-th word moves
 *   the block into a 64-word array in an arena that never moves, and
 *   the table keeps one slot for it, keyed by the block's tag. A bulk
 *   fill calls reserveDense first, which makes every block of its
 *   range dense at once, so its words skip the sparse tier; such a
 *   block may hold fewer than denseAt words (even none), which only
 *   the host-side layout can tell. It then stores through fill(),
 *   which writes a word of the block it last found dense straight
 *   into that block's array, with no table probe.
 *
 * So scattered single words (serve's transaction writes, crash
 * worlds) stay compact, and packed structures (SPEC cells, WHISPER
 * pool nodes) read as arrays. Promotion is one way: MemImage has no
 * erase, so a dense block never goes back, and neither growth nor
 * promotion moves a dense array, whose address the table slot holds.
 *
 * Table keys are 8-byte aligned word addresses; a dense block's tag
 * is its base address | 1 and an empty slot is ~0, both unaligned, so
 * neither can collide with a word. Unaligned addresses are ordinary
 * words kept in a side map, so every 64-bit address is storable.
 * Values don't depend on insertion order or geometry (peek of an
 * unused word is 0 at any capacity), so the layout is host-side only.
 */

#ifndef TERP_PM_MEM_IMAGE_HH
#define TERP_PM_MEM_IMAGE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace terp {
namespace pm {

/** 64-bit finalizer that scrambles a word or line key for hashing. */
inline std::uint64_t
mixKey(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Shared word-addressed memory image. */
class MemImage
{
  public:
    /** Physical base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramPhysBase = 1ULL << 42;
    /** Virtual base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramVirtBase = 0x7f0000000000ULL;

    // Host memory grows with use: the table starts at 1 Ki slots
    // (16 KB, enough for crash worlds and oracle images of a few
    // hundred words) and doubles at load 0.7, counting sparse words
    // and dense tags. Dense arrays are never rehashed.
    MemImage()
        : slots(minSlots, Slot{none, 0}),
          occupied(minSlots / groupSlots / 64, 0)
    {
    }

    MemImage(const MemImage &o) : MemImage() { *this = o; }

    /**
     * Take @p o's words: the same slots, with every dense block moved
     * into one arena of this image's own (table slots point into the
     * arena, so a plain copy would alias it). The arena an earlier
     * assignment made is reused when it holds enough blocks, and
     * between tables of one size only the slot groups that either
     * image ever filled are copied: the rest are empty in both.
     */
    MemImage &operator=(const MemImage &o);

    void
    poke(std::uint64_t addr, std::uint64_t value)
    {
        exchange(addr, value);
    }

    /** Store @p value at @p addr; @return the word it replaced. */
    std::uint64_t
    exchange(std::uint64_t addr, std::uint64_t value)
    {
        if (addr & 7)
            return exchangeUnaligned(addr, value);
        const std::uint64_t tag = tagOf(addr);
        for (std::size_t i = homeOf(addr); slots[i].key != none;
             i = (i + 1) & mask()) {
            Slot &s = slots[i];
            if (s.key == tag) {
                Dense &d = denseOf(s);
                nWords += !d.has(addr);
                return d.exchange(addr, value);
            }
            if (s.key == addr)
                return std::exchange(s.val, value);
        }
        insert(addr, value);
        return 0;
    }

    std::uint64_t
    peek(std::uint64_t addr) const
    {
        if (addr & 7)
            return peekUnaligned(addr);
        const std::uint64_t tag = tagOf(addr);
        for (std::size_t i = homeOf(addr);; i = (i + 1) & mask()) {
            const Slot &s = slots[i];
            if (s.key == tag)
                return denseOf(s).word[wordIn(addr)];
            if (s.key == addr)
                return s.val;
            if (s.key == none)
                return 0;
        }
    }

    /**
     * poke() for bulk fills. A word of the dense block the last fill
     * found goes straight into its array; any other word looks its
     * block up once, and one whose block is not dense, or whose
     * address is unaligned, is poked. Filling a range that
     * reserveDense made dense in address order therefore probes the
     * table once per block, not once per word.
     */
    void
    fill(std::uint64_t addr, std::uint64_t value)
    {
        if ((addr & 7) == 0 && tagOf(addr) == fillTag) {
            nWords += !fillBlock->has(addr);
            fillBlock->exchange(addr, value);
            return;
        }
        fillSlow(addr, value);
    }

    std::size_t wordCount() const { return nWords; }

    /**
     * Make every block that [addr, addr + bytes) touches dense now,
     * moving any sparse words it already holds, so a bulk fill writes
     * straight into arrays. The table grows at most once, to fit every
     * new tag, and the new arrays come from one arena allocation.
     * Values and wordCount() do not change.
     */
    void reserveDense(std::uint64_t addr, std::uint64_t bytes);

    /** Table slots: host-side geometry, never visible to peek(). */
    std::size_t slotCount() const { return slots.size(); }
    /** Dense blocks: host-side geometry, never visible to peek(). */
    std::size_t denseBlocks() const { return nDense; }

    /** Is this pointer value a PMO ObjectID (pool id != 0)? */
    static bool
    isPmoPointer(std::uint64_t v)
    {
        return (v >> 48) != 0;
    }

  private:
    static constexpr unsigned blockShift = 9; //!< 512-byte blocks
    static constexpr unsigned blockWords = 64;
    /** Sparse words that make a block dense. */
    static constexpr unsigned denseAt = 8;
    static constexpr std::size_t minSlots = 1u << 10;
    /** Slots per bit of `occupied`: 128 bytes of table. */
    static constexpr std::size_t groupSlots = 8;
    /** Dense blocks per promotion chunk (about 33 KB). */
    static constexpr std::size_t chunkBlocks = 64;
    /** Empty-slot key: unaligned and not a tag. */
    static constexpr std::uint64_t none = ~0ULL;

    struct Slot
    {
        std::uint64_t key; //!< word address, dense tag or none
        std::uint64_t val; //!< word value, or the Dense's address
    };

    /** One block's words; a word is present once stored. */
    struct Dense
    {
        std::uint64_t word[blockWords];
        std::uint64_t present; //!< bit i: word i stored

        bool
        has(std::uint64_t addr) const
        {
            return (present >> wordIn(addr)) & 1;
        }

        std::uint64_t
        exchange(std::uint64_t addr, std::uint64_t value)
        {
            present |= 1ULL << wordIn(addr);
            return std::exchange(word[wordIn(addr)], value);
        }
    };

    static std::uint64_t
    tagOf(std::uint64_t addr)
    {
        return (addr >> blockShift << blockShift) | 1;
    }

    static unsigned
    wordIn(std::uint64_t addr)
    {
        return (addr >> 3) & (blockWords - 1);
    }

    static Dense &
    denseOf(const Slot &s)
    {
        return *reinterpret_cast<Dense *>(s.val);
    }

    std::size_t mask() const { return slots.size() - 1; }

    /** Home slot of a word or tag key: a hash of its block. */
    std::size_t
    homeOf(std::uint64_t key) const
    {
        return mixKey(key >> blockShift) & mask();
    }

    /** The empty slot ending the probe run from @p key's home. */
    std::size_t freeSlotOf(std::uint64_t key) const;
    /** Add the absent word @p addr, promoting its block if due. */
    void insert(std::uint64_t addr, std::uint64_t value);
    /** The dense array of the block at @p base, or null. */
    Dense *denseBlock(std::uint64_t base) const;
    /** Move the sparse block at @p base into the fresh array @p d. */
    Dense &densify(std::uint64_t base, Dense &d);
    /** An uninitialized array from the promotion chunk. */
    Dense &claim();
    /** Rehash into @p size slots. */
    void grow(std::size_t size);
    void fillSlow(std::uint64_t addr, std::uint64_t value);
    std::uint64_t exchangeUnaligned(std::uint64_t addr,
                                    std::uint64_t value);
    std::uint64_t peekUnaligned(std::uint64_t addr) const;

    std::vector<Slot> slots; //!< power-of-two count, load <= 0.7
    /**
     * Bit g: a key was stored in slots [8g, 8g + 8) since the table
     * was sized (host-side; a group without it is all empty).
     */
    std::vector<std::uint64_t> occupied;

    /** Store @p s in slot @p i, marking its group occupied. */
    void
    occupy(std::size_t i, const Slot &s)
    {
        slots[i] = s;
        occupied[i / groupSlots / 64] |= 1ULL << (i / groupSlots % 64);
    }
    std::size_t nSlots = 0;  //!< sparse words plus dense tags
    std::size_t nWords = 0;
    std::size_t nDense = 0;
    /** Promotion chunks and reserved ranges' arenas; never moved. */
    std::vector<std::unique_ptr<Dense[]>> arenas;
    /** Blocks in arenas.front() if an assignment made it, else 0. */
    std::size_t copyBlocks = 0;
    Dense *chunk = nullptr; //!< the current promotion chunk
    std::size_t chunkUsed = chunkBlocks;
    /** The block fill() last found dense: a cache that holds no data,
     *  valid for the image's life since dense arrays never move. */
    std::uint64_t fillTag = none;
    Dense *fillBlock = nullptr;
    std::unordered_map<std::uint64_t, std::uint64_t> unaligned;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_MEM_IMAGE_HH
