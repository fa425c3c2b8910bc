/**
 * @file
 * In-memory span recorder of the traced mode.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into the simulator's layers. Each span knows its parent and
 * the time its children covered, so a layer's self time is its
 * duration minus its children. Calls too frequent for one span each
 * (the sweep hook) are folded into per-name aggregates that still
 * count as child time of the enclosing span.
 */

#ifndef HOSTBENCH_TRACER_HH
#define HOSTBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string label; //!< the op's key, e.g. "whisper/ctree/tt40/seed=3"
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t childNs = 0;
        int parent = -1;
    };

    struct Aggregate
    {
        std::int64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /** A span open for the scope's lifetime. */
    class Scope
    {
      public:
        Scope(Tracer &tr, std::string name, std::string label = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** End the span now; returns its duration in ms. */
        double close();

      private:
        Tracer &tr;
        int id;
        bool closed = false;
    };

    /** Fold one call of @p ns into @p name's aggregate. */
    void aggregate(const std::string &name, std::int64_t ns);

    /** Summed duration of spans named @p name. */
    double ms(const std::string &name) const;
    /** Summed self time of spans named @p name. */
    double selfMs(const std::string &name) const;
    const Aggregate &aggregateOf(const std::string &name);

    /** Chrome trace-event JSON of every span, for Perfetto. */
    bool writeChrome(const std::string &path) const;

    static std::int64_t nowNs();

  private:
    std::vector<Span> spans;
    std::vector<int> open;
    std::map<std::string, Aggregate> aggs;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACER_HH
