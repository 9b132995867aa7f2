/**
 * @file
 * F13 — Production replay at scale: stream a 1M-VM-day vpm-trace-2
 * demand file through the time-major block feed while the hierarchical
 * manager and a fleet of per-host idle governors run the day on top.
 *
 * Paper analogue: none directly — this is the systems claim behind the
 * replay subsystem (DESIGN.md, "Replay & checkpointing"): production
 * demand traces are far larger than RAM, so the reader must stream. The
 * bench generates a synthetic plateau-heavy trace (one series per VM,
 * 15-minute samples with per-sample jitter so no two breakpoints merge),
 * then drives a full ReplaySession day off it:
 *
 *  - full: 100k hosts / 1M VMs x 24 h = 1M VM-days, ~100M breakpoints —
 *    the trace file is hundreds of MB while the reader holds one block
 *    and a 16-byte span per series, which is the whole point;
 *  - quick: 2k hosts / 20k VMs, same dynamics at CI cost;
 *  - the rig's idle governors (spec.governorPeriodS) tick every host
 *    every 5 minutes (hosts x 288 ticks/day), swept as one event per
 *    whole-second cohort, so the "sim events" count is cohort sweeps plus
 *    evaluations and manager events, not one event per tick.
 *
 * Determinism: the trace is seeded, the session is spec-built, and all
 * scheduling is main-thread — the policy table and --json report are
 * byte-identical at any --threads. Wall-clock facts (peak RSS, block
 * loads) go to stderr and --bench-json only.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "telemetry/profiler.hpp"

namespace {

/**
 * One series per VM: a staggered day/night plateau (night 0.10–0.20,
 * day 0.70–0.90, ramp phase spread over 4 h) sampled every 15 minutes
 * with ±0.02 jitter. The jitter keeps every breakpoint distinct — the
 * writer's equal-level merge would otherwise collapse the plateaus and
 * understate the streaming volume a production trace carries.
 */
bool
generateTrace(const std::string &path, int vms, double hours,
              std::uint64_t seed, std::uint64_t &total_samples,
              std::string *error)
{
    using namespace vpm;
    replay::TraceFileWriter writer(path,
                                   static_cast<std::uint32_t>(vms));
    if (!writer.ok()) {
        *error = "cannot open '" + path + "' for writing";
        return false;
    }
    sim::Rng rng(seed);
    constexpr double kSampleS = 900.0;
    const auto samples =
        static_cast<std::int64_t>(hours * 3600.0 / kSampleS);
    for (int v = 0; v < vms; ++v) {
        const double night = rng.uniform(0.10, 0.20);
        const double day = rng.uniform(0.70, 0.90);
        const double rise_h = 6.0 + rng.uniform(0.0, 4.0);
        const double fall_h = 18.0 + rng.uniform(0.0, 4.0);
        for (std::int64_t s = 0; s < samples; ++s) {
            const double t_h = static_cast<double>(s) * kSampleS / 3600.0;
            const double base =
                (t_h >= rise_h && t_h < fall_h) ? day : night;
            const double util = base + rng.uniform(-0.02, 0.02);
            writer.append(static_cast<std::uint32_t>(v),
                          static_cast<std::int64_t>(
                              static_cast<double>(s) * kSampleS * 1e6),
                          util);
        }
    }
    total_samples = writer.totalSamples();
    return writer.finish(error);
}

void
runBody(const vpm::bench::BenchArgs &args, const std::string &trace_path)
{
    using namespace vpm;

    const int hosts =
        args.hosts > 0 ? args.hosts : (args.quick ? 2000 : 100000);
    const int vms = args.vms > 0 ? args.vms : hosts * 10;

    replay::ReplaySpec spec;
    spec.name = "f13";
    spec.tracePath = trace_path;
    spec.hosts = hosts;
    spec.vms = vms;
    spec.durationHours = 24.0;
    spec.policy = "hier";
    spec.hierarchical = true;
    spec.governorPeriodS = 300.0;

    const auto file_bytes = static_cast<std::uint64_t>(
        std::filesystem::file_size(trace_path));
    bench::banner(
        "F13", "production replay: streaming trace + fleet day",
        std::to_string(hosts) + " hosts, " + std::to_string(vms) +
            " VMs, 24 h from a " +
            std::to_string(file_bytes >> 20) +
            " MiB vpm-trace-2 file through a " +
            std::to_string(spec.windowBytes >> 20) +
            " MiB window; hierarchical manager + 5-min idle governors" +
            (args.quick ? " [--quick: 2k hosts]" : ""));

    std::string error;
    std::unique_ptr<replay::ReplaySession> session =
        replay::ReplaySession::create(spec, &error);
    if (!session) {
        std::fprintf(stderr, "bench_f13_replay: %s\n", error.c_str());
        std::exit(1);
    }

    const mgmt::ScenarioResult result = session->finish();
    if (!session->error().empty()) {
        std::fprintf(stderr, "bench_f13_replay: %s\n",
                     session->error().c_str());
        std::exit(1);
    }

    bench::JsonReport report(args.jsonPath, "F13");
    report.add("Hier@" + std::to_string(hosts), result);
    report.write();

    // Deterministic facts only; wall-clock lives in --bench-json/stderr.
    const replay::TraceFileInfo &info = session->trace().info();
    stats::Table table(
        "streamed replay day",
        {"hosts", "VMs", "trace samples", "trace MiB", "window MiB",
         "energy kWh", "satisfaction", "SLA viol", "avg hosts on",
         "sim events"});
    table.addRow({std::to_string(hosts), std::to_string(vms),
                  std::to_string(info.totalSamples),
                  std::to_string(file_bytes >> 20),
                  std::to_string(spec.windowBytes >> 20),
                  stats::fmt(result.metrics.energyKwh),
                  stats::fmtPercent(result.metrics.satisfaction, 2),
                  stats::fmtPercent(result.metrics.violationFraction, 2),
                  stats::fmt(result.metrics.averageHostsOn, 1),
                  std::to_string(result.eventsProcessed)});
    table.print(std::cout);

    std::fprintf(stderr,
                 "[bench_f13_replay] streaming: %llu block loads, peak "
                 "RSS %lld KiB (trace file %llu KiB)\n",
                 static_cast<unsigned long long>(
                     session->trace().chunkLoads()),
                 static_cast<long long>(
                     telemetry::Profiler::peakRssKb()),
                 static_cast<unsigned long long>(file_bytes >> 10));

    std::cout << "\nTakeaway: the replay reader holds the demand working "
                 "set at the configured\nwindow no matter how large the "
                 "trace file is — a full fleet day replays from\na "
                 "larger-than-RAM trace with flat memory (use --bench-json "
                 "for events/sec\nand peak RSS).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("f13_replay", argc, argv);

    const int hosts =
        args.hosts > 0 ? args.hosts : (args.quick ? 2000 : 100000);
    const int vms = args.vms > 0 ? args.vms : hosts * 10;

    // Generate once, outside the measured body: warmup and --repeat runs
    // re-stream the same file, so the harness measures the reader, not
    // the generator.
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("vpm_f13_" + std::to_string(vms) + ".vpmtrc"))
            .string();
    std::uint64_t total_samples = 0;
    std::string error;
    if (!generateTrace(trace_path, vms, 24.0, 20130613u, total_samples,
                       &error)) {
        std::fprintf(stderr, "bench_f13_replay: trace generation: %s\n",
                     error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "[bench_f13_replay] trace ready: %s (%d series, %llu "
                 "breakpoints)\n",
                 trace_path.c_str(), vms,
                 static_cast<unsigned long long>(total_samples));

    const int rc =
        vpm::bench::runBench(args, [&] { runBody(args, trace_path); });
    std::error_code ec;
    std::filesystem::remove(trace_path, ec);
    return rc;
}
