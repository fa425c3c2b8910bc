#include "serve/report.hh"

#include <cstdio>
#include <sstream>

#include "core/config.hh"
#include "metrics/export.hh"

namespace terp {
namespace serve {

namespace {

std::string
us(Cycles c)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2fus", cyclesToUs(c));
    return buf;
}

std::uint64_t
counterOf(const metrics::Registry *reg, const std::string &name)
{
    if (!reg)
        return 0;
    const metrics::Counter *c = reg->findCounter(name);
    return c ? c->value() : 0;
}

/** "p50=..us p95=..us p99=..us p999=..us" for a histogram, or "-". */
std::string
tail(const metrics::Registry *reg, const std::string &name)
{
    const metrics::LogHistogram *h =
        reg ? reg->findHistogram(name) : nullptr;
    if (!h || h->summary().count() == 0)
        return "-";
    std::ostringstream os;
    os << "p50=" << us(h->quantile(0.50))
       << " p95=" << us(h->quantile(0.95))
       << " p99=" << us(h->quantile(0.99))
       << " p999=" << us(h->quantile(0.999));
    return os.str();
}

std::string
p99(const metrics::Registry *reg, const std::string &name)
{
    const metrics::LogHistogram *h =
        reg ? reg->findHistogram(name) : nullptr;
    if (!h || h->summary().count() == 0)
        return "-";
    return us(h->quantile(0.99));
}

const char *ewAll = "exposure.ew_cycles{pmo=\"all\"}";
const char *tewAll = "exposure.tew_cycles{pmo=\"all\"}";
const char *sloEw = "exposure.slo_violations{win=\"ew\"}";
const char *sloTew = "exposure.slo_violations{win=\"tew\"}";
const char *latency = "serve.request_latency_cycles";
const char *wait = "serve.queue_wait_cycles";

} // namespace

std::string
postureReport(const FleetResult &res)
{
    const ServeConfig &cfg = res.cfg;
    std::ostringstream os;
    char buf[160];

    os << "terp-serve posture report\n";
    std::snprintf(buf, sizeof(buf),
                  "config: scheme=%s shards=%u workers/shard=%u "
                  "pmos/shard=%u sessions=%u reqs/session=%u "
                  "seed=%llu\n",
                  core::schemeTag(cfg.runtime.scheme), cfg.shards,
                  cfg.workersPerShard, cfg.pmosPerShard,
                  cfg.sessions, cfg.requestsPerSession,
                  static_cast<unsigned long long>(cfg.seed));
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "load: zipf=%.2f slow=%.1f%% hold=%s queue-cap=%u "
                  "slo-ew=%s slo-tew=%s\n",
                  kZipfTheta, 100.0 * cfg.slowFraction,
                  us(cfg.slowHold).c_str(), cfg.queueCapacity,
                  us(kEwSlo).c_str(), us(kTewSlo).c_str());
    os << buf;

    std::uint64_t arrived = 0, completed = 0, shed = 0, slow = 0,
                  hwm = 0;
    for (const ShardSummary &s : res.shards) {
        arrived += s.arrived;
        completed += s.completed;
        shed += s.shed;
        slow += s.slowCompleted;
        if (s.queueHwm > hwm)
            hwm = s.queueHwm;
    }
    std::snprintf(buf, sizeof(buf),
                  "stream: generated=%llu arrived=%llu "
                  "completed=%llu shed=%llu slow-completed=%llu "
                  "slow-sessions=%u\n",
                  static_cast<unsigned long long>(res.generated),
                  static_cast<unsigned long long>(arrived),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(slow),
                  res.slowSessions);
    os << buf;
    os << "clock: horizon=" << us(res.horizon)
       << " end=" << us(res.endClock) << " epochs=" << res.epochs
       << "\n";

    const metrics::Registry *fleet = res.fleet.get();
    os << "fleet: latency " << tail(fleet, latency) << "\n";
    os << "fleet: queue-wait " << tail(fleet, wait)
       << " depth-hwm=" << hwm << "\n";
    os << "fleet: EW  " << tail(fleet, ewAll) << "\n";
    os << "fleet: TEW " << tail(fleet, tewAll) << "\n";
    os << "fleet: slo-violations ew=" << counterOf(fleet, sloEw)
       << " tew=" << counterOf(fleet, sloTew) << "\n";

    for (std::size_t k = 0; k < res.shards.size(); ++k) {
        const ShardSummary &s = res.shards[k];
        const metrics::Registry *reg =
            k < res.shardMetrics.size() ? res.shardMetrics[k].get()
                                        : nullptr;
        os << "shard " << k << ": completed=" << s.completed
           << " shed=" << s.shed << " qhwm=" << s.queueHwm
           << " lat-p99=" << p99(reg, latency)
           << " ew-p99=" << p99(reg, ewAll)
           << " tew-p99=" << p99(reg, tewAll)
           << " slo-ew=" << counterOf(reg, sloEw)
           << " slo-tew=" << counterOf(reg, sloTew) << "\n";
    }
    return os.str();
}

std::string
toJson(const FleetResult &res, unsigned hostWorkers)
{
    const ServeConfig &cfg = res.cfg;
    std::ostringstream os;
    char buf[64];
    os << "{\n";
    os << "  \"tool\": \"terp-serve\",\n";
    os << "  \"config\": {\n";
    os << "    \"scheme\": \"" << core::schemeTag(cfg.runtime.scheme)
       << "\",\n";
    os << "    \"seed\": " << cfg.seed << ",\n";
    os << "    \"shards\": " << cfg.shards << ",\n";
    os << "    \"workers_per_shard\": " << cfg.workersPerShard
       << ",\n";
    os << "    \"pmos_per_shard\": " << cfg.pmosPerShard << ",\n";
    os << "    \"sessions\": " << cfg.sessions << ",\n";
    os << "    \"requests_per_session\": " << cfg.requestsPerSession
       << ",\n";
    std::snprintf(buf, sizeof(buf), "%.17g", kZipfTheta);
    os << "    \"zipf_theta\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.17g", cfg.slowFraction);
    os << "    \"slow_fraction\": " << buf << ",\n";
    os << "    \"slow_hold_cycles\": " << cfg.slowHold << ",\n";
    os << "    \"queue_capacity\": " << cfg.queueCapacity << ",\n";
    os << "    \"ew_slo_cycles\": " << kEwSlo << ",\n";
    os << "    \"tew_slo_cycles\": " << kTewSlo << "\n";
    os << "  },\n";
    os << "  \"host\": {\n";
    os << "    \"workers\": " << hostWorkers << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6f", res.wallSeconds);
    os << "    \"wall_s\": " << buf << "\n";
    os << "  },\n";
    os << "  \"fleet\": {\n";
    os << "    \"generated\": " << res.generated << ",\n";
    os << "    \"horizon_cycles\": " << res.horizon << ",\n";
    os << "    \"end_cycles\": " << res.endClock << ",\n";
    os << "    \"epochs\": " << res.epochs << ",\n";
    os << "    \"metrics\":\n";
    os << (res.fleet ? metrics::toJson(*res.fleet, "    ")
                     : std::string("    null"));
    os << "\n  },\n";
    os << "  \"shards\": [\n";
    for (std::size_t k = 0; k < res.shards.size(); ++k) {
        const ShardSummary &s = res.shards[k];
        os << "    {\n";
        os << "      \"id\": " << k << ",\n";
        os << "      \"arrived\": " << s.arrived << ",\n";
        os << "      \"completed\": " << s.completed << ",\n";
        os << "      \"shed\": " << s.shed << ",\n";
        os << "      \"slow_completed\": " << s.slowCompleted
           << ",\n";
        os << "      \"queue_hwm\": " << s.queueHwm << ",\n";
        os << "      \"end_cycles\": " << s.endClock << ",\n";
        os << "      \"metrics\":\n";
        const auto &reg = res.shardMetrics[k];
        os << (reg ? metrics::toJson(*reg, "      ")
                   : std::string("      null"));
        os << "\n    }" << (k + 1 < res.shards.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace serve
} // namespace terp
