/**
 * @file
 * The differential fuzzer driver: seed loop x scheme matrix over
 * generate -> replay -> (on divergence) shrink.
 */

#ifndef TERP_CHECK_FUZZER_HH
#define TERP_CHECK_FUZZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "check/schedule.hh"
#include "core/config.hh"

namespace terp {
namespace check {

struct FuzzOptions
{
    unsigned seeds = 64;
    std::uint64_t firstSeed = 0;
    bool shrink = true;
    GenParams gen;
    std::vector<std::string> schemes; //!< empty = core::checkedSchemeTags()
};

/** One minimized divergence. */
struct Divergence
{
    std::string scheme;
    std::uint64_t seed = 0;
    std::vector<std::string> complaints; //!< from the shrunken run
    Schedule shrunk;
};

struct FuzzResult
{
    unsigned executed = 0; //!< schedules replayed (seeds x schemes)
    std::vector<Divergence> divergences;

    bool ok() const { return divergences.empty(); }
};

/** Run the full fuzz matrix. */
FuzzResult fuzz(const FuzzOptions &opt);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_FUZZER_HH
