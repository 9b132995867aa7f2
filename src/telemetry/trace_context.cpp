#include "telemetry/trace_context.hpp"

#include <atomic>

namespace vpm::telemetry {

namespace {

// Process-global and never reset, so ids stay unique across the
// back-to-back runs of one process (see header); atomic because a sweep's
// cell threads mint ids concurrently.
std::atomic<std::uint64_t> g_nextDecisionId{1};

} // namespace

std::uint64_t
newDecisionId()
{
    return g_nextDecisionId.fetch_add(1, std::memory_order_relaxed);
}

} // namespace vpm::telemetry
