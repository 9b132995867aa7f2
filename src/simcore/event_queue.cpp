#include "simcore/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "simcore/logging.hpp"

namespace vpm::sim {

const EventQueue::Slot *
EventQueue::decodeLive(EventId id) const
{
    const std::uint64_t biased = id & 0xffffffffull;
    if (biased == 0)
        return nullptr;
    const auto slot = static_cast<std::uint32_t>(biased - 1);
    if (slot >= slots_.size())
        return nullptr;
    const Slot &s = slots_[slot];
    if (!s.live || s.gen != static_cast<std::uint32_t>(id >> 32))
        return nullptr;
    return &s;
}

void
EventQueue::retire(Slot &slot)
{
    slot.live = false;
    ++slot.gen;
    // Drop captured resources now (matches the old map-erase semantics:
    // cancelling an event releases whatever its closure kept alive).
    slot.callback = nullptr;
    slot.context = {};
    --liveCount_;
}

void
EventQueue::pushRun(const Run &run)
{
    std::size_t i = runs_.size();
    runs_.push_back(run);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!before(run, runs_[parent]))
            break;
        runs_[i] = runs_[parent];
        i = parent;
    }
    runs_[i] = run;
}

void
EventQueue::popRun() const
{
    const Run last = runs_.back();
    runs_.pop_back();
    const std::size_t n = runs_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + 4, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c)
            if (before(runs_[c], runs_[best]))
                best = c;
        if (!before(runs_[best], last))
            break;
        runs_[i] = runs_[best];
        i = best;
    }
    runs_[i] = last;
}

void
EventQueue::unlinkHead() const
{
    Run &top = runs_.front();
    const std::uint32_t slot = top.head;
    const std::uint32_t next = slots_[slot].next;
    freeSlots_.push_back(slot);
    if (next != noSlot) {
        top.head = next;
        ++top.seq;
        return;
    }
    // The run is empty. If it was the one schedule() appends to, the
    // next event at its instant must open a fresh run.
    if (slot == tail_)
        tail_ = noSlot;
    popRun();
}

EventId
EventQueue::schedule(SimTime when, EventCallback callback, EventLabel label)
{
    // No PROF_ZONE here: the owning Simulator wraps push/pop in zones
    // with shared clock reads (see Simulator::dispatchOne), keeping the
    // profiled per-event cost down at fleet-scale event rates.
    if (!callback)
        panic("EventQueue::schedule: null callback (label '%s')", label);
    if (when < SimTime())
        panic("EventQueue::schedule: negative time %lld us (label '%s')",
              static_cast<long long>(when.micros()), label);

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        if (slots_.size() >
            static_cast<std::size_t>(
                std::numeric_limits<std::uint32_t>::max()) - 1)
            panic("EventQueue::schedule: slot arena overflow");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.callback = std::move(callback);
    s.label = label;
    s.context = telemetry::currentContext();
    s.next = noSlot;
    s.live = true;
    ++liveCount_;

    if (tail_ != noSlot && when == tailWhen_) {
        slots_[tail_].next = slot;
    } else {
        pushRun(Run{when, nextSeq_, slot});
        tailWhen_ = when;
    }
    tail_ = slot;
    ++nextSeq_;
    return encodeId(slot, s.gen);
}

bool
EventQueue::cancel(EventId id)
{
    // Lazy unlinking: the bumped generation kills the id now; the slot
    // stays in its run until the run's head passes it.
    if (decodeLive(id) == nullptr)
        return false;
    retire(slots_[static_cast<std::uint32_t>((id & 0xffffffffull) - 1)]);
    return true;
}

bool
EventQueue::pending(EventId id) const
{
    return decodeLive(id) != nullptr;
}

void
EventQueue::skipDead() const
{
    while (!runs_.empty() && !slots_[runs_.front().head].live)
        unlinkHead();
}

SimTime
EventQueue::nextTime() const
{
    skipDead();
    if (runs_.empty())
        panic("EventQueue::nextTime called on empty queue");
    return runs_.front().when;
}

EventQueue::Fired
EventQueue::pop()
{
    skipDead();
    if (runs_.empty())
        panic("EventQueue::pop called on empty queue");

    const Run &top = runs_.front();
    const std::uint32_t slot = top.head;
    Slot &s = slots_[slot];
    Fired fired{encodeId(slot, s.gen), top.when, std::move(s.callback),
                s.label, s.context};
    retire(s);
    unlinkHead();
    return fired;
}

void
EventQueue::clear()
{
    // Recycle every linked slot (bumping the live ones' generations) rather
    // than destroying the arena: ids handed out before clear() must stay
    // dead forever, and a fresh arena would restart generations and could
    // re-mint them.
    for (const Run &run : runs_) {
        for (std::uint32_t slot = run.head; slot != noSlot;
             slot = slots_[slot].next) {
            if (slots_[slot].live)
                retire(slots_[slot]);
            freeSlots_.push_back(slot);
        }
    }
    runs_.clear();
    tail_ = noSlot;
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSnapshot() const
{
    // Runs sorted by key, each walked in list order, yield (when, seq)
    // ascending — the exact firing order — with cancelled slots filtered
    // by the same liveness test pop() uses.
    std::vector<Run> order = runs_;
    std::sort(order.begin(), order.end(), before);
    std::vector<PendingEvent> out;
    out.reserve(liveCount_);
    for (const Run &run : order) {
        std::uint64_t seq = run.seq;
        for (std::uint32_t slot = run.head; slot != noSlot;
             slot = slots_[slot].next, ++seq) {
            const Slot &s = slots_[slot];
            if (s.live)
                out.push_back({run.when, seq, s.label});
        }
    }
    return out;
}

} // namespace vpm::sim
