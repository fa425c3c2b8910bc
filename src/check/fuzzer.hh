/**
 * @file
 * The differential fuzzer driver: seed loop x scheme matrix over
 * generate -> replay -> (on divergence) shrink -> reproduce.
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

/** CLI scheme names accepted by schemeConfig / terp-fuzz. */
std::vector<std::string> allSchemes();

/**
 * Runtime configuration for a scheme name: "mm", "tm", "tt",
 * "ttnc" (TT without the circular buffer) or "basic" (blocking
 * Basic-semantics ablation), as core::configForScheme builds it.
 * Throws std::invalid_argument on an unknown name and on
 * "unprotected", which has nothing to check.
 */
core::RuntimeConfig schemeConfig(const std::string &name, Cycles ew);

struct FuzzOptions
{
    unsigned seeds = 64;
    std::uint64_t firstSeed = 0;
    bool shrink = true;
    GenParams gen;
    std::vector<std::string> schemes; //!< empty = allSchemes()
};

/** One minimized divergence. */
struct Divergence
{
    std::string scheme;
    std::uint64_t seed = 0;
    std::vector<std::string> complaints; //!< from the shrunken run
    Schedule shrunk;
    std::string reproducer; //!< paste-ready C++ for the shrunken run
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
