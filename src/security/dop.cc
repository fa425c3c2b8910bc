#include "security/dop.hh"

#include "common/logging.hh"
#include "compiler/builder.hh"
#include "compiler/interp.hh"
#include "compiler/pass.hh"
#include "core/domain.hh"

namespace terp {
namespace security {

namespace {

using compiler::FunctionBuilder;
using compiler::Reg;

// PMO layout: server struct at 0, list nodes from nodeBase.
constexpr std::uint64_t nodeBase = 256;
constexpr std::uint64_t nodeSize = 16; // {next(oid), prop}

// DRAM layout: attacker-visible locals and the request buffer.
constexpr std::uint64_t inputOff = 0x1000; //!< 3 words per round
constexpr std::uint64_t streamSlot = 0x100; //!< holds the tag 1
constexpr std::uint64_t addSlot = 0x108;    //!< holds the tag 2
constexpr std::uint64_t valueSlot = 0x110;  //!< attacker's increment
constexpr std::uint64_t listSlot = 0x118;   //!< 'list' local
constexpr std::uint64_t scratchSlot = 0x120;

/**
 * Build the vulnerable dispatcher program (Fig 12a). The manual
 * attach wraps the whole request loop — the kind of coarse,
 * error-prone MERR insertion the paper warns about.
 */
std::uint32_t
buildVictim(compiler::Module &mod, pm::PmoId pmo, unsigned rounds)
{
    FunctionBuilder b(mod, "ftp_server", 0);

    b.manualAttach(pmo);
    b.forLoop(rounds, [&](Reg r) {
        // Legitimate server work: touch the list head through
        // relocatable ObjectIDs (the pass brackets these accesses).
        Reg head = b.load(b.pmoBase(pmo, nodeBase + 8));
        Reg stat = b.add(head, r);
        b.store(b.dramBase(scratchSlot), stat);
        b.compute(2400);

        // readData(socket, buf): the overflow hands the attacker
        // three local pointers for this round.
        Reg in_base = b.dramBase(static_cast<std::int64_t>(inputOff));
        Reg stride = b.constant(24);
        Reg roff = b.add(in_base, b.mul(r, stride));
        Reg type_p = b.load(roff);
        Reg size_p = b.load(b.add(roff, b.constant(8)));
        Reg srv_p = b.load(b.add(roff, b.constant(16)));

        // if (*type == NONE) break;  (modelled as a benign round)
        Reg t = b.load(type_p); // attacker-controlled dereference
        Reg is_stream = b.cmpEq(t, b.constant(1));
        b.ifThenElse(
            is_stream,
            [&]() {
                // *size = *(srv->cur_max);  — pointer-move gadget
                Reg cur_max = b.load(srv_p);
                Reg nx = b.load(cur_max);
                b.store(size_p, nx);
            },
            [&]() {
                // srv->typ = *type; srv->total += *size;
                // — assignment + addition gadgets
                Reg sv = b.load(size_p);
                Reg old = b.load(srv_p);
                b.store(srv_p, b.add(old, sv));
            });
        b.compute(1600);
    });
    b.manualDetach(pmo);
    b.ret();
    return b.finish();
}

} // namespace

DopResult
runFtpAttack(const core::RuntimeConfig &cfg, unsigned list_len,
             std::uint64_t value)
{
    const unsigned rounds = 2 * list_len;
    const std::uint64_t seed = 20220402;

    core::DomainConfig dc;
    dc.runtime = cfg;
    dc.placementSeed = seed;
    core::ShardDomain d(dc);
    sim::Machine &mach = d.machine();
    pm::Pmo &p = d.pmos().create("ftp.data", 8 * MiB);
    pm::MemImage img;

    // Victim state: a linked list of (next, prop) nodes, linked by
    // relocatable ObjectIDs.
    for (unsigned i = 0; i < list_len; ++i) {
        std::uint64_t off = nodeBase + i * nodeSize;
        std::uint64_t next =
            (i + 1 < list_len)
                ? pm::Oid(p.id(), nodeBase + (i + 1) * nodeSize).raw
                : 0;
        img.poke(pm::Oid(p.id(), off).raw, next);
        img.poke(pm::Oid(p.id(), off + 8).raw, 1000 + i);
    }

    // One-time leak: the base address the PMO will get in its first
    // exposure window. A scratch manager with the same seed and
    // creation sequence reproduces the placement choice the attacker
    // observed through an info leak.
    std::uint64_t leaked_base;
    {
        pm::PmoManager oracle(seed);
        pm::Pmo &op = oracle.create("ftp.data", 8 * MiB);
        leaked_base = oracle.mapRandomized(op).newBase;
    }

    // Attacker-controlled request stream (Fig 12c): even rounds move
    // the list pointer, odd rounds add `value` to the node's prop
    // via addresses computed from the leaked base.
    img.poke(streamSlot, 1);
    img.poke(addSlot, 2);
    img.poke(valueSlot, value);
    for (unsigned r = 0; r < rounds; ++r) {
        std::uint64_t base = inputOff + r * 24;
        unsigned node = r / 2;
        std::uint64_t node_vaddr =
            leaked_base + nodeBase + node * nodeSize;
        if (r % 2 == 0) {
            // Pointer-move round: listSlot <- *(node.next).
            img.poke(scratchSlot + 64 + r * 8, node_vaddr); // cur_max
            img.poke(base + 0, streamSlot);
            img.poke(base + 8, listSlot);
            img.poke(base + 16, scratchSlot + 64 + r * 8);
        } else {
            // Addition round: node.prop += *valueSlot.
            img.poke(base + 0, addSlot);
            img.poke(base + 8, valueSlot);
            img.poke(base + 16, node_vaddr + 8);
        }
    }

    // Build, instrument and run the victim.
    compiler::Module mod;
    std::uint32_t entry = buildVictim(mod, p.id(), rounds);
    compiler::PassConfig pc;
    pc.ewLetThreshold = cfg.ewTarget;
    pc.tewLetThreshold = cfg.tewTarget;
    compiler::runInsertionPass(mod, pc);

    compiler::Interpreter interp(mod, d.runtime(), mach, img, entry);
    interp.trapFaults = true;
    mach.spawnThread();
    d.runJobs({&interp});
    d.finalize();

    // Inspect the list.
    DopResult res;
    res.scheme = cfg.describe();
    res.listLength = list_len;
    res.roundsExecuted = rounds;
    res.accessFaults = interp.faultCount();
    res.randomizations = d.runtime().report().randomizations;
    res.totalUs = cyclesToUs(mach.maxClock());
    for (unsigned i = 0; i < list_len; ++i) {
        std::uint64_t prop =
            img.peek(pm::Oid(p.id(), nodeBase + i * nodeSize + 8).raw);
        if (prop == 1000 + i + value)
            ++res.nodesCorrupted;
    }
    res.attackGoalAchieved = res.nodesCorrupted == list_len;
    return res;
}

} // namespace security
} // namespace terp
