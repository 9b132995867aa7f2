/**
 * @file
 * Golden replay outcomes: every replay preset on one small vpm-trace-1
 * day, with every ScenarioResult counter, the exact energy and a mid-run
 * state digest pinned.
 *
 * ManagerGoldenTest pins runScenario; this pins the replay session's rig
 * (preset wiring, staggered idle governors, reference trackers, close-out)
 * the same way. A refactor of those paths must leave every line
 * byte-identical; a change meant to move replay outcomes re-records the
 * table (the failure message prints the new lines).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "replay/checkpoint.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::replay {
namespace {

/**
 * 320 VM series over 8 h at 5-minute breakpoints: a triangular day
 * (10% -> 90% -> 10%) on twelve staggered phases plus integer-hash
 * jitter, so the trace bytes depend on no libm routine.
 */
std::string
writeGoldenTrace()
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "vpm_replay_golden.vpmtrc")
            .string();
    constexpr std::uint32_t kVms = 320;
    constexpr std::int64_t kSlots = 8 * 12; // 8 h of 5-minute slots
    TraceFileWriter writer(path, kVms);
    EXPECT_TRUE(writer.ok());
    for (std::uint32_t v = 0; v < kVms; ++v) {
        for (std::int64_t slot = 0; slot <= kSlots; ++slot) {
            const std::int64_t k = (slot + v % 12) % kSlots;
            const double tri =
                1.0 - static_cast<double>(std::llabs(k - kSlots / 2)) /
                          static_cast<double>(kSlots / 2);
            const double jitter =
                static_cast<double>((v * 7919u + static_cast<std::uint64_t>(
                                                     slot) * 104729u) %
                                    97u) /
                97.0 * 0.08;
            writer.append(v, slot * 300 * 1000000, 0.10 + 0.80 * tri + jitter);
        }
    }
    std::string error;
    EXPECT_TRUE(writer.finish(&error)) << error;
    return path;
}

/**
 * stateDigest() minus the "telemetry" section: that section holds
 * process-global journal counters (interned labels survive a
 * reconfigure), which earlier tests in the same process can move.
 */
std::uint64_t
simulationDigest(ReplaySession &session)
{
    const CheckpointData ckpt = session.capture();
    std::uint64_t h = fnv1a(nullptr, 0);
    const auto fold = [&h](const void *data, std::size_t n) {
        h = fnv1a(static_cast<const std::uint8_t *>(data), n, h);
    };
    fold(&ckpt.timeUs, sizeof(ckpt.timeUs));
    fold(&ckpt.eventsProcessed, sizeof(ckpt.eventsProcessed));
    for (const auto &[name, bytes] : ckpt.sections) {
        if (name == "telemetry")
            continue;
        fold(name.data(), name.size());
        fold(bytes.data(), bytes.size());
    }
    return h;
}

/** One line per run: the mid-run digest, every ScenarioResult counter,
 *  then the close-out's real-valued outcomes at %.17g. */
std::string
outcomeLine(std::uint64_t digest, const mgmt::ScenarioResult &r)
{
    const mgmt::ManagerStats &s = r.manager;
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "digest=%016llx cycles=%llu migrations=%llu balance=%llu "
        "evacuations=%llu abandoned=%llu cancelled=%llu sleeps=%llu "
        "wakes=%llu parked=%llu unparked=%llu capDenied=%llu "
        "shortfall=%llu haRestarts=%llu completed=%lld powerActions=%lld "
        "arrivals=%llu departures=%llu dvfs=%llu jointSpeed=%llu "
        "jointIdle=%llu idle=%llu crossRack=%llu crashes=%llu repairs=%llu "
        "hostWakes=%llu events=%llu energyKwh=%.17g offered=%.17g "
        "idealKwh=%.17g idleJ=%.17g wakeP99=%.17g",
        u(digest), u(s.cycles), u(s.migrationsRequested), u(s.balanceMoves),
        u(s.evacuationsStarted), u(s.evacuationsAbandoned),
        u(s.drainsCancelled), u(s.sleepsIssued), u(s.wakesIssued),
        u(s.hostsParked), u(s.hostsUnparked), u(s.wakesDeniedByCap),
        u(s.shortfallCycles), u(s.haRestarts),
        static_cast<long long>(r.metrics.migrations),
        static_cast<long long>(r.metrics.powerActions), u(r.vmArrivals),
        u(r.vmDepartures), u(r.dvfsTransitions), u(r.jointSpeedTransitions),
        u(r.jointIdleTransitions), u(r.idleTransitions),
        u(r.crossRackMigrations), u(r.hostCrashes), u(r.hostRepairs),
        u(r.wakes), u(r.eventsProcessed), r.metrics.energyKwh,
        r.offeredLoadFraction, r.idealProportionalKwh,
        r.idleTransitionJoules, r.wakeP99Seconds);
    return buf;
}

struct GoldenCase
{
    const char *policy;
    double governorPeriodS;
    const char *expected;
};

TEST(ReplayGoldenTest, PresetOutcomesMatchRecordedMatrix)
{
    telemetry::global().configure(telemetry::TelemetryConfig{});
    const std::string trace = writeGoldenTrace();

    const GoldenCase cases[] = {
        {"nopm", 0.0,
         "digest=8bd80aad7d5e69b6 cycles=33 migrations=0 balance=0"
         " evacuations=0 abandoned=0 cancelled=0 sleeps=0 wakes=0"
         " parked=0 unparked=0 capDenied=0 shortfall=0 haRestarts=0"
         " completed=0 powerActions=0 arrivals=0 departures=0 dvfs=0"
         " jointSpeed=0 jointIdle=0 idle=0 crossRack=0 crashes=0"
         " repairs=0 hostWakes=0 events=97"
         " energyKwh=102.79297126302083 offered=0.42155203755696624"
         " idealKwh=55.037834023437497 idleJ=0 wakeP99=0"},
        {"s3", 0.0,
         "digest=c5b7063ddde79490 cycles=33 migrations=201"
         " balance=128 evacuations=17 abandoned=0 cancelled=1"
         " sleeps=15 wakes=6 parked=0 unparked=0 capDenied=0"
         " shortfall=3 haRestarts=0 completed=191 powerActions=21"
         " arrivals=0 departures=0 dvfs=0 jointSpeed=0 jointIdle=0"
         " idle=0 crossRack=0 crashes=0 repairs=0 hostWakes=6"
         " events=308 energyKwh=100.97798346930905"
         " offered=0.42155203755696624 idealKwh=55.037834023437497"
         " idleJ=0 wakeP99=15"},
        {"cstates", 0.0,
         "digest=65e72acd0f1ea5c2 cycles=33 migrations=202"
         " balance=129 evacuations=17 abandoned=0 cancelled=1"
         " sleeps=0 wakes=0 parked=15 unparked=6 capDenied=0"
         " shortfall=3 haRestarts=0 completed=192 powerActions=0"
         " arrivals=0 departures=0 dvfs=0 jointSpeed=0"
         " jointIdle=1845 idle=1857 crossRack=0 crashes=0 repairs=0"
         " hostWakes=0 events=289 energyKwh=84.885181567241844"
         " offered=0.42155203755696624 idealKwh=55.037834023437497"
         " idleJ=2.2325000000000017 wakeP99=0"},
        {"joint", 60.0,
         "digest=30c5b1463f48055a cycles=33 migrations=202"
         " balance=129 evacuations=17 abandoned=0 cancelled=1"
         " sleeps=9 wakes=3 parked=15 unparked=3 capDenied=0"
         " shortfall=3 haRestarts=0 completed=192 powerActions=12"
         " arrivals=0 departures=0 dvfs=0 jointSpeed=627"
         " jointIdle=5481 idle=11173 crossRack=0 crashes=0 repairs=0"
         " hostWakes=3 events=31022 energyKwh=81.522359435523967"
         " offered=0.42155203755696624 idealKwh=55.037834023437497"
         " idleJ=7.4728000000000145 wakeP99=15"},
        {"hier", 60.0,
         "digest=0678a34c10266cfa cycles=33 migrations=0 balance=0"
         " evacuations=0 abandoned=0 cancelled=0 sleeps=26 wakes=13"
         " parked=0 unparked=0 capDenied=0 shortfall=5 haRestarts=0"
         " completed=0 powerActions=39 arrivals=0 departures=0"
         " dvfs=0 jointSpeed=0 jointIdle=4342 idle=8813 crossRack=0"
         " crashes=0 repairs=0 hostWakes=13 events=30858"
         " energyKwh=76.125062531465232 offered=0.42155203755696624"
         " idealKwh=55.037834023437497 idleJ=5.5664000000000078"
         " wakeP99=15"},
    };

    for (const GoldenCase &golden : cases) {
        ReplaySpec spec;
        spec.name = "golden";
        spec.tracePath = trace;
        spec.hosts = 64;
        spec.vms = 320;
        spec.vmCpuMhz = 5000.0;
        spec.durationHours = 8.0;
        spec.policy = golden.policy;
        spec.hierarchical = spec.policy == "hier";
        spec.governorPeriodS = golden.governorPeriodS;

        std::string error;
        std::unique_ptr<ReplaySession> session =
            ReplaySession::create(spec, &error);
        ASSERT_NE(session, nullptr) << golden.policy << ": " << error;
        session->runTo(sim::SimTime::hours(4.0));
        const std::uint64_t digest = simulationDigest(*session);
        EXPECT_EQ(outcomeLine(digest, session->finish()), golden.expected)
            << "preset " << golden.policy;
    }
    std::filesystem::remove(trace);
}

} // namespace
} // namespace vpm::replay
