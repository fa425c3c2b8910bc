#include "core/config.hh"

#include <sstream>

namespace terp {
namespace core {

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::Unprotected: return "Unprotected";
      case Scheme::MM: return "MM";
      case Scheme::TM: return "TM";
      case Scheme::TT: return "TT";
      default: return "?";
    }
}

const char *
schemeTag(const RuntimeConfig &cfg)
{
    switch (cfg.scheme) {
      case Scheme::Unprotected:
        return "unprotected";
      case Scheme::MM:
        return "mm";
      case Scheme::TM:
        return cfg.basicBlocking ? "basic" : "tm";
      case Scheme::TT:
        return cfg.windowCombining ? "tt" : "ttnc";
      default:
        return "?";
    }
}

RuntimeConfig
RuntimeConfig::unprotected()
{
    RuntimeConfig c;
    c.scheme = Scheme::Unprotected;
    c.insertion = Insertion::None;
    c.randomizeOnAttach = false;
    return c;
}

RuntimeConfig
RuntimeConfig::mm(Cycles ew)
{
    RuntimeConfig c;
    c.scheme = Scheme::MM;
    c.insertion = Insertion::Manual;
    c.ewTarget = ew;
    return c;
}

RuntimeConfig
RuntimeConfig::tm(Cycles ew, Cycles tew)
{
    RuntimeConfig c;
    c.scheme = Scheme::TM;
    c.insertion = Insertion::Auto;
    c.ewTarget = ew;
    c.tewTarget = tew;
    c.threadPerms = true; // maintained via system calls
    return c;
}

RuntimeConfig
RuntimeConfig::tt(Cycles ew, Cycles tew)
{
    RuntimeConfig c;
    c.scheme = Scheme::TT;
    c.insertion = Insertion::Auto;
    c.ewTarget = ew;
    c.tewTarget = tew;
    c.condInstructions = true;
    c.windowCombining = true;
    c.threadPerms = true;
    // TERP's attach performs placement inside the (already costed)
    // system call; the separate randomization cost only arises for
    // sweep-triggered in-place re-randomization.
    c.randomizeOnAttach = false;
    return c;
}

RuntimeConfig
RuntimeConfig::ttNoCombining(Cycles ew, Cycles tew)
{
    RuntimeConfig c = tt(ew, tew);
    c.windowCombining = false;
    return c;
}

RuntimeConfig
RuntimeConfig::basicSemantics(Cycles ew)
{
    RuntimeConfig c;
    c.scheme = Scheme::TM;
    c.insertion = Insertion::Auto;
    c.ewTarget = ew;
    c.threadPerms = false;
    c.basicBlocking = true;
    return c;
}

std::optional<RuntimeConfig>
configForScheme(const std::string &tag, Cycles ew, Cycles tew)
{
    if (tag == "unprotected")
        return RuntimeConfig::unprotected();
    if (tag == "mm")
        return RuntimeConfig::mm(ew);
    if (tag == "tm")
        return RuntimeConfig::tm(ew, tew);
    if (tag == "tt")
        return RuntimeConfig::tt(ew, tew);
    if (tag == "ttnc")
        return RuntimeConfig::ttNoCombining(ew, tew);
    if (tag == "basic")
        return RuntimeConfig::basicSemantics(ew);
    return std::nullopt;
}

std::string
RuntimeConfig::describe() const
{
    std::ostringstream os;
    os << schemeName(scheme) << "(ew=" << cyclesToUs(ewTarget)
       << "us, tew=" << cyclesToUs(tewTarget) << "us"
       << (condInstructions ? ", cond" : "")
       << (windowCombining ? ", cb" : "")
       << (basicBlocking ? ", basic" : "")
       << (traceEnabled ? ", trace" : "") << ")";
    return os.str();
}

} // namespace core
} // namespace terp
