#include "trace/export.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace terp {
namespace trace {

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::RealAttach: return "real_attach";
      case EventKind::SilentAttach: return "silent_attach";
      case EventKind::RealDetach: return "real_detach";
      case EventKind::SilentDetach: return "silent_detach";
      case EventKind::Randomize: return "randomize";
      case EventKind::SweepTick: return "sweep_tick";
      case EventKind::DelayedDetach: return "delayed_detach";
      case EventKind::RegionBegin: return "region_begin";
      case EventKind::RegionEnd: return "region_end";
      case EventKind::ThreadGrant: return "thread_grant";
      case EventKind::ThreadRevoke: return "thread_revoke";
      case EventKind::AccessFault: return "access_fault";
      case EventKind::ThreadStart: return "thread_start";
      case EventKind::ThreadFinish: return "thread_finish";
      case EventKind::PmoMap: return "pmo_map";
      case EventKind::PmoUnmap: return "pmo_unmap";
      case EventKind::PmoRemap: return "pmo_remap";
      case EventKind::Crash: return "crash";
      case EventKind::Recover: return "recover";
      case EventKind::SessionStart: return "session_start";
      case EventKind::SessionEnd: return "session_end";
      case EventKind::RequestStart: return "request_start";
      case EventKind::RequestDone: return "request_done";
      case EventKind::RequestShed: return "request_shed";
      case EventKind::PowerFail: return "power_fail";
      case EventKind::Recharge: return "recharge";
      case EventKind::BlameSegment: return "blame_segment";
      default: return "?";
    }
}

namespace {

/** Human label of a (pseudo-)thread track. */
std::string
threadName(std::uint32_t tid)
{
    if (tid == TraceSink::sweeperTid)
        return "hw sweeper";
    if (tid == TraceSink::kernelTid)
        return "kernel (mappings)";
    return "thread " + std::to_string(tid);
}

/** Chrome wants monotonically usable sort indices, not raw ~0 tids. */
std::uint32_t
trackTid(std::uint32_t tid)
{
    if (tid == TraceSink::sweeperTid)
        return 1000;
    if (tid == TraceSink::kernelTid)
        return 1001;
    return tid;
}

void
printTs(std::ostream &os, Cycles ts)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", cyclesToUs(ts));
    os << buf;
}

} // namespace

void
writeChromeTrace(const TraceSink &sink, std::ostream &os,
                 const std::string &process_name)
{
    const int pid = 1;
    std::vector<Event> events = sink.events();

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\""
       << process_name << "\"}}";

    for (std::uint32_t tid : sink.tids()) {
        os << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":"
           << trackTid(tid)
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << threadName(tid) << "\"}}";
    }

    for (const Event &e : events) {
        os << ",\n";
        switch (e.kind) {
          case EventKind::RegionBegin:
          case EventKind::RegionEnd: {
            // Nestable async span per (thread, PMO): regions on the
            // same thread for different PMOs may interleave without
            // nesting, so plain B/E duration events would misrender.
            std::uint64_t id =
                (static_cast<std::uint64_t>(trackTid(e.tid)) << 20) |
                (e.pmo & 0xfffff);
            os << "{\"ph\":\""
               << (e.kind == EventKind::RegionBegin ? 'b' : 'e')
               << "\",\"cat\":\"region\",\"id\":" << id
               << ",\"pid\":" << pid << ",\"tid\":" << trackTid(e.tid)
               << ",\"name\":\"region pmo" << e.pmo << " t" << e.tid
               << "\",\"ts\":";
            printTs(os, e.ts);
            os << "}";
            break;
          }
          case EventKind::RealAttach:
          case EventKind::RealDetach: {
            // Async span per PMO: its mapped window (= the exposure
            // window). The arg carries the virtual base address.
            os << "{\"ph\":\""
               << (e.kind == EventKind::RealAttach ? 'b' : 'e')
               << "\",\"cat\":\"pmo\",\"id\":" << e.pmo
               << ",\"pid\":" << pid << ",\"tid\":" << trackTid(e.tid)
               << ",\"name\":\"pmo" << e.pmo
               << " mapped\",\"ts\":";
            printTs(os, e.ts);
            os << ",\"args\":{\"base\":\"0x" << std::hex << e.arg
               << std::dec << "\"}},\n";
            // ... plus an instant on the emitting thread's track.
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
               << ",\"tid\":" << trackTid(e.tid) << ",\"name\":\""
               << eventKindName(e.kind) << " pmo" << e.pmo
               << "\",\"ts\":";
            printTs(os, e.ts);
            os << "}";
            break;
          }
          default: {
            os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
               << ",\"tid\":" << trackTid(e.tid) << ",\"name\":\""
               << eventKindName(e.kind);
            if (e.pmo != noPmo)
                os << " pmo" << e.pmo;
            os << "\",\"ts\":";
            printTs(os, e.ts);
            os << ",\"args\":{\"arg\":" << e.arg << ",\"seq\":"
               << e.seq << "}}";
            break;
          }
        }
    }
    os << "\n]}\n";
}

void
writeJsonl(const TraceSink &sink, std::ostream &os)
{
    for (const Event &e : sink.events()) {
        os << "{\"seq\":" << e.seq << ",\"ts\":" << e.ts
           << ",\"tid\":" << e.tid << ",\"kind\":\""
           << eventKindName(e.kind) << "\"";
        if (e.pmo != noPmo)
            os << ",\"pmo\":" << e.pmo;
        os << ",\"arg\":" << e.arg << "}\n";
    }
}

bool
writeChromeTraceFile(const TraceSink &sink, const std::string &path,
                     const std::string &process_name)
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeChromeTrace(sink, f, process_name);
    return static_cast<bool>(f);
}

bool
writeJsonlFile(const TraceSink &sink, const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeJsonl(sink, f);
    return static_cast<bool>(f);
}

} // namespace trace
} // namespace terp
