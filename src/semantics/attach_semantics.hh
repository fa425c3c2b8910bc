/**
 * @file
 * The four candidate attach/detach semantics of Section IV:
 * Basic, Outermost, FCFS and the chosen EW-Conscious semantics —
 * implemented as specification-level state machines that classify
 * each attach/detach/access event the way Figure 3 does.
 *
 * The production TERP runtime (src/core) implements EW-Conscious with
 * hardware acceleration; these models are the executable
 * specification used for differential testing and for the Fig 3 /
 * Fig 4 walkthroughs.
 */

#ifndef TERP_SEMANTICS_ATTACH_SEMANTICS_HH
#define TERP_SEMANTICS_ATTACH_SEMANTICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.hh"
#include "pm/oid.hh"
#include "pm/pmo.hh"

namespace terp {
namespace semantics {

/** Which semantics a model implements. */
enum class SemanticsKind { Basic, Outermost, Fcfs, EwConscious };

const char *semanticsName(SemanticsKind k);

/** Classification of one event under a semantics (cf. Fig 3). */
enum class Verdict
{
    Performed, //!< executed for real (maps/unmaps the PMO)
    Silent,    //!< valid but lowered / suppressed
    Reattach,  //!< access triggered an automatic re-attach (FCFS)
    Valid,     //!< access permitted
    Invalid,   //!< erroneous call or denied access
    Undefined, //!< behaviour after a prior semantic error (Basic)
    SegFault,  //!< access to an unmapped PMO
};

const char *verdictName(Verdict v);

/** What a sweeper tick decided for one PMO (EW-Conscious only). */
struct SweepOutcome
{
    pm::PmoId pmo;
    bool detached; //!< true: fully detached; false: window restarted
};

/**
 * Abstract attach/detach semantics over one process. Thread ids
 * identify the calling thread; all models answer three questions:
 * what does attach do, what does detach do, is an access legal.
 */
class AttachSemantics
{
  public:
    virtual ~AttachSemantics() = default;

    virtual SemanticsKind kind() const = 0;

    virtual Verdict onAttach(unsigned tid, pm::PmoId pmo, Cycles t,
                             pm::Mode mode = pm::Mode::ReadWrite) = 0;
    virtual Verdict onDetach(unsigned tid, pm::PmoId pmo, Cycles t) = 0;
    virtual Verdict onAccess(unsigned tid, pm::PmoId pmo, Cycles t,
                             bool write = false) = 0;

    /** Is the PMO currently mapped process-wide? */
    virtual bool mapped(pm::PmoId pmo) const = 0;

    /**
     * Periodic sweeper tick at time @p t (Fig 7a). Only the
     * EW-Conscious model has time-bounded windows to enforce; the
     * other semantics have no sweeper and return nothing.
     */
    virtual std::vector<SweepOutcome> onSweep(Cycles) { return {}; }

    /** Factory. @p ew_limit only matters for EW-Conscious. */
    static std::unique_ptr<AttachSemantics>
    make(SemanticsKind k, Cycles ew_limit = target::defaultEw);
};

/**
 * Basic semantics: every attach must be followed by a detach; a
 * second attach while attached is invalid and poisons subsequent
 * behaviour (Fig 3, "Basic" column). Process-wide: thread ids are
 * ignored except for reporting.
 */
class BasicSemantics : public AttachSemantics
{
  public:
    SemanticsKind kind() const override { return SemanticsKind::Basic; }
    Verdict onAttach(unsigned tid, pm::PmoId pmo, Cycles t,
                     pm::Mode mode = pm::Mode::ReadWrite) override;
    Verdict onDetach(unsigned tid, pm::PmoId pmo, Cycles t) override;
    Verdict onAccess(unsigned tid, pm::PmoId pmo, Cycles t,
                     bool write = false) override;
    bool mapped(pm::PmoId pmo) const override;

  private:
    struct St { bool attached = false; bool poisoned = false; };
    std::map<pm::PmoId, St> st;
};

/**
 * Outermost semantics: overlapping pairs must nest perfectly; only
 * the outermost attach/detach is performed, inner ones are silent.
 * The actual attached time can therefore be unboundedly long.
 */
class OutermostSemantics : public AttachSemantics
{
  public:
    SemanticsKind kind() const override
    {
        return SemanticsKind::Outermost;
    }
    Verdict onAttach(unsigned tid, pm::PmoId pmo, Cycles t,
                     pm::Mode mode = pm::Mode::ReadWrite) override;
    Verdict onDetach(unsigned tid, pm::PmoId pmo, Cycles t) override;
    Verdict onAccess(unsigned tid, pm::PmoId pmo, Cycles t,
                     bool write = false) override;
    bool mapped(pm::PmoId pmo) const override;

  private:
    std::map<pm::PmoId, int> depth;
};

/**
 * FCFS semantics: the outermost attach is performed, inner attaches
 * are silent; the first detach after an attach is performed, later
 * ones silent; an access between that performed detach and the
 * outermost detach triggers an automatic re-attach.
 */
class FcfsSemantics : public AttachSemantics
{
  public:
    SemanticsKind kind() const override { return SemanticsKind::Fcfs; }
    Verdict onAttach(unsigned tid, pm::PmoId pmo, Cycles t,
                     pm::Mode mode = pm::Mode::ReadWrite) override;
    Verdict onDetach(unsigned tid, pm::PmoId pmo, Cycles t) override;
    Verdict onAccess(unsigned tid, pm::PmoId pmo, Cycles t,
                     bool write = false) override;
    bool mapped(pm::PmoId pmo) const override;

  private:
    struct St { int depth = 0; bool attached = false; };
    std::map<pm::PmoId, St> st;
};

/**
 * EW-Conscious semantics (Section IV-C): per-thread non-overlapping
 * pairs; attach performs the real mapping only when the PMO is
 * unmapped, otherwise lowers to opening the thread's permission;
 * detach performs the real unmapping only when (i) the time since
 * the last real attach exceeds L and (ii) no other thread still has
 * permission, otherwise lowers to closing the thread's permission.
 */
class EwConsciousSemantics : public AttachSemantics
{
  public:
    explicit EwConsciousSemantics(Cycles ew_limit)
        : limit(ew_limit)
    {
    }

    SemanticsKind kind() const override
    {
        return SemanticsKind::EwConscious;
    }
    Verdict onAttach(unsigned tid, pm::PmoId pmo, Cycles t,
                     pm::Mode mode = pm::Mode::ReadWrite) override;
    Verdict onDetach(unsigned tid, pm::PmoId pmo, Cycles t) override;
    Verdict onAccess(unsigned tid, pm::PmoId pmo, Cycles t,
                     bool write = false) override;
    bool mapped(pm::PmoId pmo) const override;

    /** Threads currently holding permission on @p pmo. */
    std::size_t permHolders(pm::PmoId pmo) const;

    /**
     * Sweeper: a PMO whose window reached the limit is fully
     * detached when idle, or has its window restarted (modelling the
     * forced re-randomization) when threads still hold permission.
     */
    std::vector<SweepOutcome> onSweep(Cycles t) override;

  private:
    struct St
    {
        bool attached = false;
        Cycles lastRealAttach = 0;
        std::map<unsigned, pm::Mode> holders; //!< open thread perms
    };
    Cycles limit;
    std::map<pm::PmoId, St> st;
};

} // namespace semantics
} // namespace terp

#endif // TERP_SEMANTICS_ATTACH_SEMANTICS_HH
