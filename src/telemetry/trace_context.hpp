/**
 * @file
 * Causal trace context: which decision an emission is happening "because of".
 *
 * A simulation runs on one thread, so causality is ambient: whatever
 * decision id is installed while code runs is the cause of everything that
 * code emits or schedules. The context is per thread, because a sweep runs
 * several simulations at once on its cell threads and a shared one would
 * let their scopes restore each other's contexts.
 * `EventQueue::schedule()` captures the current context into the scheduled
 * event and `Simulator::dispatchOne()` reinstalls it around the callback,
 * so context flows through arbitrarily deep event chains (entry -> latched
 * wake -> exit -> retry) without any plumbing in the domain code.
 * `EventJournal::record()` stamps the current context onto every record,
 * which is how journal rows gain their `cause` field for free.
 *
 * Decision ids are minted by the management layer (one per sleep / wake /
 * migration-batch decision) from a process-global counter that is never
 * reset, so ids stay unique across the back-to-back per-policy runs a bench
 * performs even though simulated time restarts at zero.
 */

#ifndef VPM_TELEMETRY_TRACE_CONTEXT_HPP
#define VPM_TELEMETRY_TRACE_CONTEXT_HPP

#include <cstdint>

namespace vpm::telemetry {

/** The ambient cause of whatever is currently executing. */
struct TraceContext
{
    /** Decision id responsible for the current activity; 0 = none. */
    std::uint64_t cause = 0;

    /** Journal sequence number of the record that announced the cause
     *  (e.g. the migrate_decision row); 0 = unknown/none. */
    std::uint64_t causeSeq = 0;
};

namespace detail {
/** The installed context. Inline and constant-initialized, so the hot
 *  path — a schedule() capturing the context, a dispatch reinstalling
 *  it — is plain thread-local loads and stores with no call. */
inline thread_local TraceContext currentTraceContext;
} // namespace detail

/** The context installed right now ({0, 0} outside any scope). */
inline TraceContext
currentContext()
{
    return detail::currentTraceContext;
}

/** Replace the current context (prefer TraceScope, which restores). */
inline void
setCurrentContext(TraceContext context)
{
    detail::currentTraceContext = context;
}

/** Mint a fresh decision id (monotonic from 1, never reset). */
std::uint64_t newDecisionId();

/**
 * RAII installer: constructor swaps in a context, destructor restores the
 * previous one. Scopes nest; the innermost wins, which is what causality
 * means when one decision's handler makes a sub-decision.
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceContext context)
        : previous_(detail::currentTraceContext)
    {
        detail::currentTraceContext = context;
    }

    /** Convenience: install {cause, 0}. */
    explicit TraceScope(std::uint64_t cause)
        : TraceScope(TraceContext{cause, 0})
    {
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /**
     * Late-bind the announcing record's sequence number into the installed
     * context (the decision row can only be journaled after the scope is
     * open, because the row itself must carry the decision id).
     */
    void setCauseSeq(std::uint64_t seq)
    {
        detail::currentTraceContext.causeSeq = seq;
    }

    ~TraceScope() { detail::currentTraceContext = previous_; }

  private:
    TraceContext previous_;
};

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_TRACE_CONTEXT_HPP
