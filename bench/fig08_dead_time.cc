/**
 * @file
 * Fig 8 — distribution of heap-object dead times (time from the last
 * write to an object until its deallocation), pooled over the
 * SPEC-like and Heap-Layers-like allocation workloads.
 *
 * The paper uses this distribution to pick the 2 us TEW target: in
 * 95% of cases the dead time is 2 us or larger, so a 2 us TEW
 * removes ~95% of the data-only attack surface.
 *
 * Size: 400 objects per allocation profile, 50 under --quick.
 */

#include <cstdio>

#include "bench_util.hh"
#include "harness.hh"
#include "security/dead_time.hh"
#include "workloads/alloc.hh"

using namespace terp;

void
terp::bench::fig08(bool quick, unsigned jobs, std::FILE *out)
{
    // The dead-time figure is a single pooled computation; there is
    // nothing to fan out over @p jobs.
    (void)jobs;
    const std::uint64_t objects = quick ? 50 : 400;

    std::fprintf(out, "=== Fig 8: distribution of heap-object dead times "
                 "(last write -> free) ===\n");
    std::fprintf(out, "workloads: %zu profiles x %llu objects\n\n",
                 workloads::allocProfiles().size(),
                 (unsigned long long)objects);

    auto pooled = workloads::runAllAllocWorkloads(objects, 1234);

    security::DeadTimeAnalysis analysis;
    analysis.addAll(pooled);
    const security::Histogram &h = analysis.histogram();

    std::fprintf(out, "%-16s %10s %8s\n", "dead time (us)", "count",
                 "percent");
    double lo = 0.0;
    for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        char label[32];
        if (i < h.bounds().size()) {
            std::snprintf(label, sizeof(label), "%g - %g", lo,
                          h.bounds()[i]);
            lo = h.bounds()[i];
        } else {
            std::snprintf(label, sizeof(label), "> %g", lo);
        }
        std::fprintf(out, "%-16s %10llu %7.1f%%\n", label,
                     (unsigned long long)h.bucket(i),
                     100.0 * h.fraction(i));
    }

    double above2 = analysis.surfaceReduction(2.0);
    std::fprintf(out, "\nsamples           : %llu\n",
                 (unsigned long long)analysis.sampleCount());
    std::fprintf(out, "median dead time  : %.1f us\n", analysis.medianUs());
    std::fprintf(out, "dead time >= 2 us : %.1f%%  (paper: ~95%%)\n",
                 100.0 * above2);
    std::fprintf(out, "=> a 2 us TEW target removes ~%.0f%% of the "
                 "data-only attack surface\n",
                 100.0 * above2);
    std::fprintf(out, "recommended TEW for 95%% coverage: %.1f us "
                 "(paper picks 2 us)\n",
                 analysis.recommendTew(0.95));
}
