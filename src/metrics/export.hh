/**
 * @file
 * Registry exporters: a flat JSON document (the format terp-stats
 * reads back and terp-bench embeds as BENCH_terp.json's "metrics"
 * section) and the Prometheus text exposition format.
 */

#ifndef TERP_METRICS_EXPORT_HH
#define TERP_METRICS_EXPORT_HH

#include <string>

#include "metrics/registry.hh"

namespace terp {
namespace metrics {

/**
 * JSON export. Layout:
 * {
 *   "labels": {"scheme": "tt", ...},
 *   "counters": {"runtime.attach_syscalls": 12, ...},
 *   "gauges": {"cb.occupancy": {"value": 2, "hwm": 7}, ...},
 *   "histograms": {name: {"count","sum","min","max","mean",
 *                         "p50","p90","p99"}, ...}
 * }
 * Keys ascend; integers print exactly; doubles use %.17g (lossless
 * round-trip). @p indent prefixes every line (so the document can be
 * embedded inside another JSON object at the right depth).
 */
std::string toJson(const Registry &reg,
                   const std::string &indent = "");

/**
 * Prometheus text format. Metric names become
 * `terp_<base with . -> _>`; per-metric labels and registry labels
 * are merged (per-metric wins on a key clash). Histograms export
 * quantile series plus _count/_sum/_max; gauges export the value
 * and a `_hwm` companion.
 */
std::string toPrometheus(const Registry &reg);

} // namespace metrics
} // namespace terp

#endif // TERP_METRICS_EXPORT_HH
