/**
 * @file
 * Pending-event set for the discrete-event engine.
 *
 * Events fire in (time, sequence number) order: events at equal times fire
 * in the order they were scheduled, which makes simulations deterministic.
 *
 * The queue keeps *runs*, not single events. A run is the list of pending
 * events at one instant, in scheduling order, linked through Slot::next;
 * the runs sit in a 4-ary min-heap keyed by (time, sequence number of the
 * run's head event). schedule() appends to the run opened most recently
 * when its time matches and opens a new run otherwise. Once a newer run
 * is opened an older one never grows again, so every sequence number in a
 * run is below every one in any later-opened run, and ordering the runs at
 * one instant by their head's sequence number orders all their events. The
 * per-host governors tick on whole-second offsets, so a run holds hundreds
 * of events and most pops are O(1); events at distinct times each get a
 * one-event run and a plain heap.
 *
 * Cancellation is lazy: cancel() invalidates the id and drops the closure
 * at once, but the slot stays linked into its run and returns to the free
 * list only when the run's head passes it, so appending behind a
 * cancelled tail keeps working and no list is ever searched.
 *
 * Event records live in a slot arena rather than a hash map: an EventId
 * encodes {slot, generation}, so cancel/pending are a bounds check plus a
 * generation compare, and a recycled slot reuses its callback's storage
 * instead of hitting the allocator per event. Labels are string literals
 * held by pointer, so neither schedule() nor pop() copies any text. At the
 * fleet-scale benchmarks the simulator is queue-bound, so these per-event
 * constants are what cap events/sec.
 */

#ifndef VPM_SIMCORE_EVENT_QUEUE_HPP
#define VPM_SIMCORE_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simcore/sim_time.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::sim {

/** Opaque handle identifying a scheduled event; never reused within a run. */
using EventId = std::uint64_t;

/** Sentinel meaning "no event". */
inline constexpr EventId invalidEventId = 0;

/** Work to run when an event fires. */
using EventCallback = std::function<void()>;

/**
 * Human-readable tag of an event for tracing, profiling and checkpoints.
 * Must point at storage that outlives the event — in practice a string
 * literal; "" means unlabeled.
 */
using EventLabel = const char *;

/**
 * Time-ordered set of pending events: O(1) cancel, and insert/pop that
 * cost O(1) inside a run plus O(log r) over the r pending runs.
 *
 * Not a general priority queue: times must be non-negative, and the caller
 * (normally Simulator) is responsible for never scheduling into the past.
 */
class EventQueue
{
  public:
    /** A popped, ready-to-fire event. */
    struct Fired
    {
        EventId id;
        SimTime when;
        EventCallback callback;
        EventLabel label;

        /** Causal context captured at schedule() time; the dispatcher
         *  reinstalls it around the callback so children inherit it. */
        telemetry::TraceContext context;
    };

    EventQueue() = default;

    // The queue owns callbacks which may capture anything; copying a queue
    // is almost certainly a bug, so forbid it.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Insert an event.
     *
     * @param when Absolute firing time.
     * @param callback Work to run; must be non-null.
     * @param label Optional tag for tracing (see EventLabel).
     * @return A handle usable with cancel().
     */
    EventId schedule(SimTime when, EventCallback callback,
                     EventLabel label = "");

    /**
     * Cancel a pending event.
     *
     * @return true if the event was pending and is now cancelled; false if it
     *         already fired, was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** true if the given event is still pending. */
    bool pending(EventId id) const;

    /** Number of live (non-cancelled) pending events. */
    std::size_t size() const { return liveCount_; }

    bool empty() const { return liveCount_ == 0; }

    /** Firing time of the earliest live event. Queue must be non-empty. */
    SimTime nextTime() const;

    /** Remove and return the earliest live event. Queue must be non-empty. */
    Fired pop();

    /** Drop all pending events. */
    void clear();

    /** Metadata of one live pending event (see pendingSnapshot()); the
     *  label is copied out as text, which is what a checkpoint stores. */
    struct PendingEvent
    {
        SimTime when;
        std::uint64_t seq = 0;
        std::string label;
    };

    /**
     * Metadata of every live pending event, in firing order (when, seq).
     * Callbacks are deliberately absent: std::function closures are not
     * serializable, so replay checkpoints capture this metadata and prove
     * queue equality after deterministic re-execution instead of trying
     * to persist the closures themselves (DESIGN.md "Replay &
     * checkpointing"). O(n + r log r) for r runs; read-only.
     */
    std::vector<PendingEvent> pendingSnapshot() const;

  private:
    /** Slot index meaning "end of run". */
    static constexpr std::uint32_t noSlot = 0xffffffffu;

    /**
     * Heap entry of one run: its instant, its head slot and the head's
     * seq. A run only takes appends while it is the run opened most
     * recently, so its events were scheduled back to back and their seqs
     * are consecutive: the slot k links past the head has seq + k. Moving
     * the head on bumps seq without breaking the heap order, because a
     * run at the same instant sorts before this one only if all its seqs
     * are lower.
     */
    struct Run
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t head;
    };

    /**
     * One arena slot. Recycling bumps gen, which invalidates stale
     * EventIds pointing at the slot. A steady-state schedule/fire cycle
     * allocates nothing: small captures sit in std::function's inline
     * buffer and the label is a pointer. A slot is free, linked into a
     * run and live, or linked and cancelled (!live).
     */
    struct Slot
    {
        EventCallback callback;
        EventLabel label = "";
        telemetry::TraceContext context;
        std::uint32_t next = noSlot;
        std::uint32_t gen = 0;
        bool live = false;
    };

    /**
     * EventIds pack {generation, slot + 1}: the +1 keeps invalidEventId = 0
     * unrepresentable. Uniqueness within a run holds until a single slot is
     * recycled 2^32 times, far past any simulation here.
     */
    static EventId
    encodeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    /** The Slot for id, or nullptr if id is stale, fired, or malformed. */
    const Slot *decodeLive(EventId id) const;

    /** Make a live slot dead: bump gen, drop its owned resources. The
     *  slot stays linked until unlinkHead() passes it. */
    void retire(Slot &slot);

    /** Unlink the head of the top run and free its slot, dropping the
     *  run from the heap when it empties. */
    void unlinkHead() const;

    /** Unlink cancelled slots at the top so runs_.front().head is live. */
    void skipDead() const;

    /** Heap order: (when, seq) ascending. */
    static bool
    before(const Run &a, const Run &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    void pushRun(const Run &run);
    void popRun() const;

    // Dead slots are unlinked lazily, also from the const nextTime(), so
    // the run heap, the free list and the open tail are mutable.
    mutable std::vector<Run> runs_; // 4-ary min-heap under before()
    std::vector<Slot> slots_;
    mutable std::vector<std::uint32_t> freeSlots_;
    /** Tail slot of the run opened most recently while it is still
     *  queued (noSlot once it empties), and that run's instant. */
    mutable std::uint32_t tail_ = noSlot;
    SimTime tailWhen_;
    std::size_t liveCount_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace vpm::sim

#endif // VPM_SIMCORE_EVENT_QUEUE_HPP
