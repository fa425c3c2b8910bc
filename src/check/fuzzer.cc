#include "check/fuzzer.hh"

#include "check/shrink.hh"

namespace terp {
namespace check {

FuzzResult
fuzz(const FuzzOptions &opt)
{
    FuzzResult res;
    std::vector<std::string> schemes =
        opt.schemes.empty() ? core::checkedSchemeTags() : opt.schemes;

    for (const std::string &scheme : schemes) {
        core::RuntimeConfig cfg =
            core::configForScheme(scheme, opt.gen.ewTarget).value();
        for (unsigned i = 0; i < opt.seeds; ++i) {
            std::uint64_t seed = opt.firstSeed + i;
            Schedule s = generate(seed, cfg, opt.gen);
            DiffResult d = runSchedule(s, cfg);
            ++res.executed;
            if (d.ok)
                continue;

            Divergence div;
            div.scheme = scheme;
            div.seed = seed;
            if (opt.shrink) {
                div.shrunk = shrink(s, cfg);
                div.complaints =
                    runSchedule(div.shrunk, cfg).complaints;
            } else {
                div.shrunk = s;
                div.complaints = d.complaints;
            }
            res.divergences.push_back(std::move(div));
        }
    }
    return res;
}

} // namespace check
} // namespace terp
