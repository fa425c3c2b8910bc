#include "workloads/alloc.hh"

#include <map>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/domain.hh"

namespace terp {
namespace workloads {

const std::vector<AllocProfile> &
allocProfiles()
{
    // opCycles picks the benchmark's tempo; useOps/holdOps set how
    // long objects stay written-to and how long they linger dead.
    // The mix is calibrated so that, pooled, ~95% of dead times land
    // at or above 2 us, matching Fig 8.
    static const std::vector<AllocProfile> profiles = {
        // SPEC-2017-like: long-lived buffers, slow reuse.
        {"perlbench", 900, 6, 10, 40, 32, 512},
        {"gcc", 700, 4, 8, 30, 32, 1024},
        {"mcf", 1200, 10, 6, 60, 64, 256},
        {"omnetpp", 800, 3, 12, 25, 32, 256},
        {"xalancbmk", 600, 3, 10, 20, 32, 384},
        {"deepsjeng", 1500, 12, 5, 80, 64, 2048},
        {"leela", 1000, 8, 6, 50, 32, 512},
        {"xz", 1400, 10, 4, 70, 256, 4096},
        // Heap-Layers-like: allocation-intensive, faster churn.
        {"cfrac", 350, 1, 4, 22, 16, 64},
        {"espresso", 400, 1, 5, 22, 16, 128},
        {"lindsay", 500, 2, 4, 24, 32, 256},
        {"boxed-sim", 450, 2, 5, 21, 16, 96},
        {"p2c", 380, 1, 3, 20, 16, 64},
    };
    return profiles;
}

namespace {

/** Scheduled lifecycle events, keyed by global op index. */
struct PendingObject
{
    pm::Oid oid;
    std::uint64_t lastWriteOp; //!< op index of the final write
    Cycles lastWriteCycle = 0;
    bool wroteLast = false;
};

class AllocJob : public sim::Job
{
  public:
    AllocJob(core::Runtime &rt_, pm::PmoManager &pmos_, pm::PmoId pmo_,
             const AllocProfile &prof_, std::uint64_t objects_,
             std::uint64_t seed)
        : rt(rt_), pmos(pmos_), pmo(pmo_), prof(prof_),
          objectsTarget(objects_), rng(seed)
    {
    }

    bool
    step(sim::ThreadContext &tc) override
    {
        if (freed >= objectsTarget)
            return false;

        // One application op.
        tc.work(rng.jitter(prof.opCycles, 0.5));
        ++opIdx;

        // Allocate a new object periodically.
        if (opIdx % prof.allocEvery == 0 && made < objectsTarget) {
            std::uint64_t size =
                rng.nextRange(prof.sizeMin, prof.sizeMax);
            pm::Oid oid = pmos.allocator(pmo).pmalloc(size);
            if (!oid.isNull()) {
                ++made;
                PendingObject obj;
                obj.oid = oid;
                std::uint64_t use = std::max<std::uint64_t>(
                    1, rng.jitter(prof.useOpsMean, 0.7));
                std::uint64_t hold = std::max<std::uint64_t>(
                    1, rng.jitter(prof.holdOpsMean, 0.7));
                obj.lastWriteOp = opIdx + use;
                rt.access(tc, oid, true); // initializing write
                obj.lastWriteCycle = tc.now();
                writes.emplace(obj.lastWriteOp, live.size());
                frees.emplace(opIdx + use + hold, live.size());
                live.push_back(obj);
            }
        }

        // Perform due final writes.
        while (!writes.empty() && writes.begin()->first <= opIdx) {
            PendingObject &o = live[writes.begin()->second];
            rt.access(tc, o.oid, true);
            o.lastWriteCycle = tc.now();
            o.wroteLast = true;
            writes.erase(writes.begin());
        }

        // Perform due frees and record dead times.
        while (!frees.empty() && frees.begin()->first <= opIdx) {
            PendingObject &o = live[frees.begin()->second];
            pmos.allocator(pmo).pfree(o.oid);
            Cycles dead = tc.now() - o.lastWriteCycle;
            deadTimesUs.push_back(cyclesToUs(dead));
            ++freed;
            frees.erase(frees.begin());
        }
        return freed < objectsTarget;
    }

    const std::vector<double> &deadTimes() const { return deadTimesUs; }

  private:
    core::Runtime &rt;
    pm::PmoManager &pmos;
    pm::PmoId pmo;
    AllocProfile prof;
    std::uint64_t objectsTarget;
    Rng rng;

    std::uint64_t opIdx = 0;
    std::uint64_t made = 0;
    std::uint64_t freed = 0;
    std::vector<PendingObject> live;
    std::multimap<std::uint64_t, std::size_t> writes;
    std::multimap<std::uint64_t, std::size_t> frees;
    std::vector<double> deadTimesUs;
};

} // namespace

std::vector<double>
runAllocWorkload(const AllocProfile &profile, std::uint64_t objects,
                 std::uint64_t seed)
{
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::unprotected();
    dc.placementSeed = seed;
    core::ShardDomain d(dc);
    pm::Pmo &p = d.pmos().create("alloc." + profile.name, 64 * MiB);

    AllocJob job(d.runtime(), d.pmos(), p.id(), profile, objects,
                 seed ^ 0x5a5a);
    d.machine().spawnThread();
    d.runJobs({&job});
    return job.deadTimes();
}

std::vector<double>
runAllAllocWorkloads(std::uint64_t objects_per_profile,
                     std::uint64_t seed)
{
    std::vector<double> pooled;
    for (const AllocProfile &p : allocProfiles()) {
        auto samples =
            runAllocWorkload(p, objects_per_profile, seed + p.opCycles);
        pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    return pooled;
}

} // namespace workloads
} // namespace terp
