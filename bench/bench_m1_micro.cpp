/**
 * @file
 * M1 — Engineering microbenchmarks.
 *
 * Not a paper figure: throughput of the building blocks, so regressions
 * in the simulator core show up before they distort experiment runtimes.
 *
 * Two modes share the same micro bodies:
 *  - default: google-benchmark (statistical timing), when every argument
 *    is one of its --benchmark_* flags;
 *  - harness: any other argument hands the whole argv to the shared bench
 *    parser (--quick, --threads, --bench-json, …; a --benchmark_* flag
 *    mixed in is then a usage error) and runs one fixed pass per micro
 *    under the common measurement harness, which is what produces the
 *    machine-readable BENCH_m1_micro.json that bench_compare gates on.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "bench_util.hpp"
#include "core/placement.hpp"
#include "core/scenario.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/simulator.hpp"
#include "workload/diurnal.hpp"

namespace {

using namespace vpm;

void
microEventQueue(int n)
{
    sim::Rng rng(1);
    sim::EventQueue queue;
    for (int i = 0; i < n; ++i) {
        queue.schedule(sim::SimTime::micros(static_cast<std::int64_t>(
                           rng.next() % 1000000)),
                       [] {});
    }
    while (!queue.empty())
        benchmark::DoNotOptimize(queue.pop().when);
}

/**
 * @p n self-rescheduling events on a 300 s period at whole-second
 * offsets, popped and re-armed until each has fired @p rounds times: the
 * same-instant cohorts that per-host idle governors put in the queue,
 * where the random-time micro above gives every event its own instant.
 */
void
microEventQueueCohort(int n, int rounds)
{
    const sim::SimTime period = sim::SimTime::seconds(300.0);
    sim::EventQueue queue;
    for (int i = 0; i < n; ++i)
        queue.schedule(sim::SimTime::seconds(i % 300), [] {});
    for (std::int64_t fired = 0;
         fired < static_cast<std::int64_t>(n) * rounds; ++fired) {
        sim::EventQueue::Fired event = queue.pop();
        benchmark::DoNotOptimize(event.when);
        queue.schedule(event.when + period, std::move(event.callback));
    }
}

void
microSimulatorDispatch(int n)
{
    sim::Simulator simulator;
    int remaining = n;
    std::function<void()> tick = [&] {
        if (--remaining > 0)
            simulator.schedule(sim::SimTime::micros(10), tick);
    };
    simulator.schedule(sim::SimTime(), tick);
    simulator.run();
}

void
microDiurnalQuery(const workload::DiurnalTrace &trace, int iterations)
{
    std::int64_t minute = 0;
    for (int i = 0; i < iterations; ++i) {
        benchmark::DoNotOptimize(trace.utilizationAt(sim::SimTime::minutes(
            static_cast<double>(minute++ % 10000))));
    }
}

void
microPlanRebalance(int hosts_n)
{
    sim::Rng rng(3);
    std::vector<mgmt::PlannedHost> hosts;
    for (int h = 0; h < hosts_n; ++h)
        hosts.push_back({h, 32000.0, 131072.0, true});
    std::vector<mgmt::PlannedVm> vms;
    for (int v = 0; v < hosts_n * 5; ++v) {
        vms.push_back({v, static_cast<int>(rng.uniformInt(0, hosts_n - 1)),
                       rng.uniform(500.0, 8000.0),
                       rng.uniform(1024.0, 8192.0), true});
    }
    mgmt::PlacementModel model(hosts, vms);
    benchmark::DoNotOptimize(
        mgmt::planRebalance(model, 0.8, 0.25, hosts_n,
                            mgmt::PackingHeuristic::BestFitDecreasing));
}

void
microScenarioHour()
{
    mgmt::ScenarioConfig config;
    config.hostCount = 8;
    config.vmCount = 40;
    config.duration = sim::SimTime::hours(1.0);
    config.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
    benchmark::DoNotOptimize(mgmt::runScenario(config).metrics.energyKwh);
}

// ---- google-benchmark mode -------------------------------------------

void
BM_EventQueueScheduleAndPop(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state)
        microEventQueue(n);
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void
BM_EventQueuePeriodicCohort(benchmark::State &state)
{
    const auto n = static_cast<int>(state.range(0));
    constexpr int rounds = 4;
    for (auto _ : state)
        microEventQueueCohort(n, rounds);
    state.SetItemsProcessed(state.iterations() * n * rounds);
}
BENCHMARK(BM_EventQueuePeriodicCohort)->Arg(1024)->Arg(16384);

void
BM_SimulatorEventDispatch(benchmark::State &state)
{
    for (auto _ : state)
        microSimulatorDispatch(10000);
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void
BM_DiurnalTraceQuery(benchmark::State &state)
{
    workload::DiurnalConfig config;
    const workload::DiurnalTrace trace(config);
    for (auto _ : state)
        microDiurnalQuery(trace, 1);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiurnalTraceQuery);

void
BM_PlanRebalance(benchmark::State &state)
{
    const auto hosts_n = static_cast<int>(state.range(0));
    for (auto _ : state)
        microPlanRebalance(hosts_n);
    state.SetItemsProcessed(state.iterations() * hosts_n);
}
BENCHMARK(BM_PlanRebalance)->Arg(16)->Arg(64)->Arg(256);

void
BM_EndToEndScenarioHour(benchmark::State &state)
{
    for (auto _ : state)
        microScenarioHour();
}
BENCHMARK(BM_EndToEndScenarioHour)->Unit(benchmark::kMillisecond);

// ---- shared measurement-harness mode ---------------------------------

void
runBody(const bench::BenchArgs &args)
{
    bench::banner("M1", "engineering microbenchmarks (harness mode)",
                  args.quick
                      ? "one reduced pass per micro [--quick]"
                      : "one fixed pass per micro; default mode runs "
                        "google-benchmark instead");

    const int scale = args.quick ? 1 : 4;
    {
        PROF_ZONE("m1.event_queue");
        microEventQueue(16384 * scale);
    }
    {
        PROF_ZONE("m1.event_queue_cohort");
        microEventQueueCohort(16384 * scale, 4);
    }
    {
        PROF_ZONE("m1.dispatch");
        microSimulatorDispatch(10000 * scale);
    }
    {
        PROF_ZONE("m1.diurnal_query");
        workload::DiurnalConfig config;
        const workload::DiurnalTrace trace(config);
        microDiurnalQuery(trace, 100000 * scale);
    }
    {
        PROF_ZONE("m1.plan_rebalance");
        microPlanRebalance(args.quick ? 64 : 256);
    }
    {
        PROF_ZONE("m1.scenario_hour");
        microScenarioHour();
    }
    std::printf("harness pass complete (see --profile / --bench-json "
                "output)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Harness mode unless every argument is google-benchmark's own
    // (--benchmark_filter=... etc.), which then passes through untouched.
    const bool harness =
        std::any_of(argv + 1, argv + argc, [](const char *arg) {
            return !std::string_view(arg).starts_with("--benchmark_");
        });
    if (harness) {
        const bench::BenchArgs args =
            bench::parseArgs("m1_micro", argc, argv);
        return bench::runBench(args, [&] { runBody(args); });
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
