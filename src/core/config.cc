#include "core/config.hh"

#include <sstream>

namespace terp {
namespace core {

namespace {

struct SchemeRow
{
    Scheme scheme;
    const char *tag;   //!< --scheme spelling and metrics label
    const char *label; //!< the paper's name for it
};

/** The one scheme table, indexed by Scheme. */
const SchemeRow kSchemes[] = {
    {Scheme::Unprotected, "unprotected", "Unprotected"},
    {Scheme::MM, "mm", "MM"},
    {Scheme::TM, "tm", "TM"},
    {Scheme::TT, "tt", "TT"},
    {Scheme::TTNC, "ttnc", "TT"},
    {Scheme::Basic, "basic", "TM"},
};

/**
 * Scheme @p s with EW target @p ew and TEW target @p tew. Unprotected
 * has no window to target, and only the schemes that lower thread
 * permissions have a thread window, so those keep the defaults.
 */
RuntimeConfig
configFor(Scheme s, Cycles ew, Cycles tew = target::defaultTew)
{
    RuntimeConfig c;
    c.scheme = s;
    if (s != Scheme::Unprotected)
        c.ewTarget = ew;
    if (c.threadPerms())
        c.tewTarget = tew;
    return c;
}

} // namespace

const char *
schemeName(Scheme s)
{
    return kSchemes[static_cast<std::size_t>(s)].label;
}

const char *
schemeTag(Scheme s)
{
    return kSchemes[static_cast<std::size_t>(s)].tag;
}

std::vector<std::string>
schemeTags()
{
    std::vector<std::string> tags;
    for (const SchemeRow &r : kSchemes)
        tags.push_back(r.tag);
    return tags;
}

std::vector<std::string>
checkedSchemeTags()
{
    std::vector<std::string> tags = schemeTags();
    tags.erase(tags.begin()); // Unprotected
    return tags;
}

RuntimeConfig
RuntimeConfig::unprotected()
{
    return {};
}

RuntimeConfig
RuntimeConfig::mm(Cycles ew)
{
    return configFor(Scheme::MM, ew);
}

RuntimeConfig
RuntimeConfig::tm(Cycles ew, Cycles tew)
{
    return configFor(Scheme::TM, ew, tew);
}

RuntimeConfig
RuntimeConfig::tt(Cycles ew, Cycles tew)
{
    return configFor(Scheme::TT, ew, tew);
}

RuntimeConfig
RuntimeConfig::ttNoCombining(Cycles ew, Cycles tew)
{
    return configFor(Scheme::TTNC, ew, tew);
}

RuntimeConfig
RuntimeConfig::basicSemantics(Cycles ew)
{
    return configFor(Scheme::Basic, ew);
}

std::optional<RuntimeConfig>
configForScheme(const std::string &tag, Cycles ew, Cycles tew)
{
    for (const SchemeRow &r : kSchemes)
        if (tag == r.tag)
            return configFor(r.scheme, ew, tew);
    return std::nullopt;
}

std::string
RuntimeConfig::describe() const
{
    std::ostringstream os;
    os << schemeName(scheme) << "(ew=" << cyclesToUs(ewTarget)
       << "us, tew=" << cyclesToUs(tewTarget) << "us"
       << (condInstructions() ? ", cond" : "")
       << (scheme == Scheme::TT ? ", cb" : "")
       << (scheme == Scheme::Basic ? ", basic" : "")
       << (traceEnabled ? ", trace" : "") << ")";
    return os.str();
}

} // namespace core
} // namespace terp
