#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::vector<double>
SpanRecorder::durationsNs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.name == name && span.endNs >= span.startNs &&
            span.endNs != 0)
            out.push_back(static_cast<double>(span.endNs - span.startNs));
    }
    return out;
}

double
SpanRecorder::totalNs(const std::string &name) const
{
    double total = 0.0;
    for (const double ns : durationsNs(name))
        total += ns;
    return total;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    // Span and counter names are literals of this program (no quoting
    // needed); ids are indices into the span list.
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "{\"run\":%" PRIu64 ",\"id\":%zu,\"name\":\"%s\","
                     "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                     ",\"parent\":%" PRId64 "}\n",
                     runId_, i, span.name.c_str(), span.startNs, span.endNs,
                     span.parent);
    }
    for (const SpanCounter &counter : counters_) {
        std::fprintf(out,
                     "{\"run\":%" PRIu64 ",\"counter\":\"%s\","
                     "\"total_ns\":%" PRIu64 ",\"calls\":%" PRIu64 "}\n",
                     runId_, counter.name.c_str(), counter.totalNs,
                     counter.calls);
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
