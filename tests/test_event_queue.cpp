/** @file Unit tests for EventQueue. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/simulator.hpp"
#include "telemetry/profiler.hpp"

namespace vpm::sim {
namespace {

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(SimTime::seconds(3.0), [&] { order.push_back(3); });
    queue.schedule(SimTime::seconds(1.0), [&] { order.push_back(1); });
    queue.schedule(SimTime::seconds(2.0), [&] { order.push_back(2); });

    while (!queue.empty())
        queue.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInSchedulingOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(SimTime::seconds(1.0), [&, i] { order.push_back(i); });

    while (!queue.empty())
        queue.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring)
{
    EventQueue queue;
    bool fired = false;
    const EventId id =
        queue.schedule(SimTime::seconds(1.0), [&] { fired = true; });
    queue.schedule(SimTime::seconds(2.0), [] {});

    EXPECT_TRUE(queue.pending(id));
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.pending(id));
    EXPECT_EQ(queue.size(), 1u);

    while (!queue.empty())
        queue.pop().callback();
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse)
{
    EventQueue queue;
    const EventId id = queue.schedule(SimTime::seconds(1.0), [] {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse)
{
    EventQueue queue;
    EXPECT_FALSE(queue.cancel(12345));
    EXPECT_FALSE(queue.cancel(invalidEventId));
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead)
{
    EventQueue queue;
    const EventId early = queue.schedule(SimTime::seconds(1.0), [] {});
    queue.schedule(SimTime::seconds(5.0), [] {});
    queue.cancel(early);
    EXPECT_EQ(queue.nextTime(), SimTime::seconds(5.0));
}

TEST(EventQueueTest, PopReturnsLabelAndTime)
{
    EventQueue queue;
    queue.schedule(SimTime::seconds(2.0), [] {}, "my-event");
    const EventQueue::Fired fired = queue.pop();
    EXPECT_EQ(fired.when, SimTime::seconds(2.0));
    EXPECT_STREQ(fired.label, "my-event");
}

TEST(EventQueueTest, CapturesAreReleasedWhenTheEventFires)
{
    // The slot gives up its closure on pop, so a capture dies with the
    // Fired record: before the next event runs, not when the slot is
    // reused.
    Simulator simulator;
    auto token = std::make_shared<int>(7);
    const std::weak_ptr<int> weak = token;
    simulator.schedule(SimTime::seconds(1.0),
                       [token = std::move(token)] { EXPECT_EQ(*token, 7); },
                       "holder");
    bool checked = false;
    simulator.schedule(SimTime::seconds(2.0), [&] {
        EXPECT_TRUE(weak.expired());
        checked = true;
    });
    simulator.run();
    EXPECT_TRUE(checked);
}

TEST(EventQueueTest, CapturesAreReleasedOnCancel)
{
    EventQueue queue;
    auto token = std::make_shared<int>(7);
    const std::weak_ptr<int> weak = token;
    const EventId id = queue.schedule(
        SimTime::seconds(1.0), [token = std::move(token)] {}, "held");
    queue.schedule(SimTime::seconds(1.0), [] {}, "behind");
    EXPECT_FALSE(weak.expired());
    EXPECT_TRUE(queue.cancel(id));
    // Released at once, although the slot stays linked into its run.
    EXPECT_TRUE(weak.expired());
    EXPECT_STREQ(queue.pop().label, "behind");
}

TEST(EventQueueTest, SnapshotCopiesLabelText)
{
    EventQueue queue;
    queue.schedule(SimTime::seconds(2.0), [] {}, "idle-governor");
    queue.schedule(SimTime::seconds(1.0), [] {}, "dcsim.evaluate");
    queue.schedule(SimTime::seconds(1.0), [] {});
    const auto snapshot = queue.pendingSnapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot[0].label, "dcsim.evaluate");
    EXPECT_EQ(snapshot[1].label, "");
    EXPECT_EQ(snapshot[2].label, "idle-governor");
}

TEST(EventQueueTest, ProfiledDispatchLabelsAndTimesEvents)
{
    using telemetry::DispatchStats;
    using telemetry::Profiler;
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 3; ++i) {
        simulator.schedule(SimTime::seconds(i), [&] {
            ++fired;
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(50);
            while (std::chrono::steady_clock::now() < until) {
            }
        }, "profiled.tick");
    }
    simulator.schedule(SimTime::seconds(5.0), [&] { ++fired; });
    simulator.run();
    prof.setEnabled(false);

    EXPECT_EQ(fired, 4);
    EXPECT_EQ(simulator.eventsProcessed(), 4u);
    const std::vector<DispatchStats> stats = prof.dispatchStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].label, "profiled.tick");
    EXPECT_EQ(stats[0].count, 3u);
    EXPECT_GE(stats[0].totalNs, 3u * 50'000u);
    EXPECT_EQ(stats[1].label, "(unlabeled)");
    EXPECT_EQ(stats[1].count, 1u);
    bool dispatch_zone = false;
    for (const telemetry::ZoneNode &node : prof.nodes()) {
        if (node.name == "sim.dispatch") {
            dispatch_zone = true;
            EXPECT_EQ(node.calls, 4u);
        }
    }
    EXPECT_TRUE(dispatch_zone);
    prof.reset();
}

TEST(EventQueueTest, ClearDropsEverything)
{
    EventQueue queue;
    for (int i = 0; i < 10; ++i)
        queue.schedule(SimTime::seconds(i), [] {});
    queue.clear();
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, IdsAreUniqueAndMonotone)
{
    EventQueue queue;
    EventId previous = invalidEventId;
    for (int i = 0; i < 100; ++i) {
        const EventId id = queue.schedule(SimTime(), [] {});
        EXPECT_GT(id, previous);
        previous = id;
    }
}

TEST(EventQueueTest, RecycledSlotsStillYieldUniqueIds)
{
    // The arena recycles slots aggressively; the generation half of the
    // id must keep every handle unique across heavy schedule/fire/cancel
    // churn ("never reused within a run").
    EventQueue queue;
    std::set<EventId> seen;
    for (int round = 0; round < 50; ++round) {
        std::vector<EventId> ids;
        for (int i = 0; i < 8; ++i) {
            const EventId id =
                queue.schedule(SimTime::seconds(i), [] {});
            EXPECT_TRUE(seen.insert(id).second) << "duplicate id";
            ids.push_back(id);
        }
        for (std::size_t i = 0; i < ids.size(); i += 2)
            queue.cancel(ids[i]);
        while (!queue.empty())
            queue.pop();
    }
    EXPECT_EQ(seen.size(), 400u);
}

TEST(EventQueueTest, StaleIdsStayDeadAfterSlotReuse)
{
    EventQueue queue;
    const EventId first = queue.schedule(SimTime::seconds(1), [] {});
    queue.pop(); // frees the slot
    const EventId second = queue.schedule(SimTime::seconds(2), [] {});
    EXPECT_NE(first, second);
    // The old handle must not alias the new tenant of its slot.
    EXPECT_FALSE(queue.pending(first));
    EXPECT_FALSE(queue.cancel(first));
    EXPECT_TRUE(queue.pending(second));
    EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueueTest, IdsFromBeforeClearStayDead)
{
    EventQueue queue;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(queue.schedule(SimTime::seconds(i), [] {}));
    queue.clear();
    std::set<EventId> fresh;
    for (int i = 0; i < 10; ++i)
        fresh.insert(queue.schedule(SimTime::seconds(i), [] {}));
    for (const EventId id : ids) {
        EXPECT_FALSE(queue.pending(id));
        EXPECT_FALSE(fresh.contains(id)) << "pre-clear id re-minted";
    }
}

TEST(EventQueueTest, ManyCancellationsDoNotCorruptOrder)
{
    EventQueue queue;
    std::vector<EventId> ids;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
        ids.push_back(queue.schedule(SimTime::seconds(i),
                                     [&, i] { order.push_back(i); }));
    }
    // Cancel every odd event.
    for (std::size_t i = 1; i < ids.size(); i += 2)
        queue.cancel(ids[i]);

    while (!queue.empty())
        queue.pop().callback();
    ASSERT_EQ(order.size(), 25u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], static_cast<int>(2 * i));
}

/** Drain the queue, returning the labels in firing order. */
std::vector<std::string>
drainLabels(EventQueue &queue)
{
    std::vector<std::string> labels;
    while (!queue.empty())
        labels.push_back(queue.pop().label);
    return labels;
}

TEST(EventQueueRunsTest, LaterRunAtSameInstantFiresAfterEarlierOne)
{
    // A@t, B@u, C@t: B opens a run between them, so C opens a second run
    // at t, which must still fire right after A (seq order within t).
    for (const double u : {2.0, 0.5}) {
        EventQueue queue;
        queue.schedule(SimTime::seconds(1.0), [] {}, "A");
        queue.schedule(SimTime::seconds(u), [] {}, "B");
        queue.schedule(SimTime::seconds(1.0), [] {}, "C");
        const auto snapshot = queue.pendingSnapshot();
        ASSERT_EQ(snapshot.size(), 3u);
        const std::vector<std::string> expected =
            u > 1.0 ? std::vector<std::string>{"A", "C", "B"}
                    : std::vector<std::string>{"B", "A", "C"};
        for (std::size_t i = 0; i < snapshot.size(); ++i)
            EXPECT_EQ(snapshot[i].label, expected[i]);
        EXPECT_EQ(drainLabels(queue), expected);
    }
}

TEST(EventQueueRunsTest, ZeroDelaySchedulesFireAfterTheDrainingInstant)
{
    // Events scheduled at the current instant while it drains fire after
    // everything already queued there, whether they join the draining run
    // or open a new one after it emptied.
    EventQueue queue;
    for (const char *label : {"a", "b", "c"})
        queue.schedule(SimTime::seconds(1.0), [] {}, label);
    queue.schedule(SimTime::seconds(2.0), [] {}, "later");
    EXPECT_STREQ(queue.pop().label, "a");
    queue.schedule(SimTime::seconds(1.0), [] {}, "d"); // new run at 1 s
    EXPECT_STREQ(queue.pop().label, "b");
    EXPECT_STREQ(queue.pop().label, "c");
    queue.schedule(SimTime::seconds(1.0), [] {}, "e"); // appends to d's run
    EXPECT_STREQ(queue.pop().label, "d");
    EXPECT_STREQ(queue.pop().label, "e");
    queue.schedule(SimTime::seconds(1.0), [] {}, "f"); // d's run is gone
    EXPECT_EQ(drainLabels(queue), (std::vector<std::string>{"f", "later"}));
}

TEST(EventQueueRunsTest, CancelHeadMiddleTailThenAppend)
{
    EventQueue queue;
    std::vector<EventId> ids;
    for (const char *label : {"0", "1", "2", "3", "4"})
        ids.push_back(queue.schedule(SimTime::seconds(1.0), [] {}, label));
    EXPECT_TRUE(queue.cancel(ids[0])); // head
    EXPECT_TRUE(queue.cancel(ids[2])); // middle
    EXPECT_TRUE(queue.cancel(ids[4])); // tail
    // Appending behind the cancelled tail keeps the run intact.
    const EventId appended =
        queue.schedule(SimTime::seconds(1.0), [] {}, "5");
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.nextTime(), SimTime::seconds(1.0));
    std::set<EventId> seen(ids.begin(), ids.end());
    EXPECT_TRUE(seen.insert(appended).second);
    EXPECT_EQ(drainLabels(queue), (std::vector<std::string>{"1", "3", "5"}));

    // A run whose every event is cancelled still takes appends.
    const EventId only = queue.schedule(SimTime::seconds(3.0), [] {}, "x");
    EXPECT_TRUE(queue.cancel(only));
    EXPECT_TRUE(queue.empty());
    queue.schedule(SimTime::seconds(3.0), [] {}, "y");
    EXPECT_EQ(drainLabels(queue), (std::vector<std::string>{"y"}));
}

TEST(EventQueueRunsTest, ClearWithCancelledSlotsStillLinked)
{
    // Labels are held by pointer: run-time ones live here, past the queue.
    std::deque<std::string> labels;
    EventQueue queue;
    std::set<EventId> seen;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        labels.push_back(std::to_string(i));
        const EventId id = queue.schedule(SimTime::seconds(i % 2), [] {},
                                          labels.back().c_str());
        seen.insert(id);
        ids.push_back(id);
    }
    queue.cancel(ids[1]);
    queue.cancel(ids[2]);
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(queue.pendingSnapshot().empty());
    for (const EventId id : ids)
        EXPECT_FALSE(queue.pending(id));

    // Every slot came back, cancelled ones included: refilling reuses the
    // same slots (an id's low half is its slot + 1) under fresh ids, and an
    // instant used before clear() opens a new run.
    std::set<EventId> old_slots, new_slots;
    for (const EventId id : ids)
        old_slots.insert(id & 0xffffffffu);
    for (int i = 0; i < 6; ++i) {
        labels.push_back("n" + std::to_string(i));
        const EventId id = queue.schedule(SimTime::seconds(1.0), [] {},
                                          labels.back().c_str());
        EXPECT_TRUE(seen.insert(id).second) << "id re-minted after clear";
        new_slots.insert(id & 0xffffffffu);
    }
    EXPECT_EQ(new_slots, old_slots);
    EXPECT_EQ(drainLabels(queue),
              (std::vector<std::string>{"n0", "n1", "n2", "n3", "n4", "n5"}));
}

/**
 * Reference model: the pending set as (when us, seq) keys. The queue's
 * seq counts every schedule() call, across clear(), from 0.
 */
struct QueueModel
{
    std::set<std::pair<std::int64_t, std::uint64_t>> keys;
    std::map<EventId, std::pair<std::int64_t, std::uint64_t>> byId;
    std::map<std::uint64_t, EventId> idBySeq;
    std::uint64_t nextSeq = 0;
};

void
checkSnapshot(const EventQueue &queue, const QueueModel &model)
{
    const auto snapshot = queue.pendingSnapshot();
    ASSERT_EQ(snapshot.size(), model.keys.size());
    auto key = model.keys.begin();
    for (const EventQueue::PendingEvent &event : snapshot) {
        EXPECT_EQ(event.when.micros(), key->first);
        EXPECT_EQ(event.seq, key->second);
        EXPECT_EQ(event.label, std::to_string(key->second));
        ++key;
    }
}

void
runInterleaving(std::uint64_t seed)
{
    Rng rng(seed);
    std::deque<std::string> labels; // outlives the queue (see above)
    EventQueue queue;
    QueueModel model;
    std::set<EventId> issued;
    std::vector<EventId> handles; // includes fired and cancelled ones
    std::int64_t now = 0;
    // Whole-second delays make runs collide at one instant; the odd
    // microsecond offset makes one-event runs at distinct times.
    const std::int64_t delays_s[] = {0, 0, 1, 1, 2, 3, 7};

    for (int step = 0; step < 4000; ++step) {
        const double r = rng.uniform01();
        if (r < 0.45) {
            std::int64_t when =
                now + delays_s[rng.uniformInt(0, 6)] * 1'000'000;
            if (rng.uniform01() < 0.2)
                when += rng.uniformInt(1, 999);
            const std::uint64_t seq = model.nextSeq++;
            labels.push_back(std::to_string(seq));
            const EventId id = queue.schedule(SimTime::micros(when), [] {},
                                              labels.back().c_str());
            ASSERT_TRUE(issued.insert(id).second) << "duplicate id";
            ASSERT_NE(id, invalidEventId);
            handles.push_back(id);
            model.keys.insert({when, seq});
            model.byId[id] = {when, seq};
            model.idBySeq[seq] = id;
        } else if (r < 0.62) {
            if (handles.empty())
                continue;
            const EventId id = handles[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) -
                                      1))];
            const auto it = model.byId.find(id);
            const bool expected = it != model.byId.end();
            ASSERT_EQ(queue.pending(id), expected);
            ASSERT_EQ(queue.cancel(id), expected);
            if (expected) {
                model.keys.erase(it->second);
                model.idBySeq.erase(it->second.second);
                model.byId.erase(it);
            }
        } else if (r < 0.995) {
            if (model.keys.empty())
                continue;
            const auto key = *model.keys.begin();
            ASSERT_EQ(queue.nextTime().micros(), key.first);
            EventQueue::Fired fired = queue.pop();
            ASSERT_EQ(fired.when.micros(), key.first);
            ASSERT_EQ(fired.id, model.idBySeq.at(key.second));
            ASSERT_EQ(fired.label, std::to_string(key.second));
            ASSERT_FALSE(queue.pending(fired.id));
            fired.callback();
            now = key.first;
            model.keys.erase(model.keys.begin());
            model.byId.erase(fired.id);
            model.idBySeq.erase(key.second);
        } else {
            queue.clear();
            model.keys.clear();
            model.byId.clear();
            model.idBySeq.clear();
        }
        ASSERT_EQ(queue.size(), model.keys.size());
        ASSERT_EQ(queue.empty(), model.keys.empty());
        if (step % 16 == 0)
            checkSnapshot(queue, model);
    }
    checkSnapshot(queue, model);
    while (!model.keys.empty()) {
        const auto key = *model.keys.begin();
        const EventQueue::Fired fired = queue.pop();
        ASSERT_EQ(fired.when.micros(), key.first);
        ASSERT_EQ(fired.id, model.idBySeq.at(key.second));
        model.keys.erase(model.keys.begin());
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueRunsTest, RandomInterleavingsMatchReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runInterleaving(seed);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace vpm::sim
