#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/manager.hpp"
#include "datacenter/datacenter_sim.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "stats/summary.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"
#include "workload/mix.hpp"

namespace perfbench {

namespace {

using namespace vpm;

constexpr int kFleetDayHosts = 50000;
constexpr int kReplayDayHosts = 10000;
constexpr int kConsolidationHosts = 2048;

/** The traced run times one governor tick in this many. */
constexpr std::uint64_t kGovernorSampleEvery = 16;

/** Unit-cost probes are sized to stay well under a second each. */
constexpr std::uint64_t kProbeMaxEvents = 4'000'000;
constexpr std::uint64_t kProbeMaxSpanCalls = 16'000'000;
constexpr double kProbeTargetNs = 3e8;

double
seconds(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) / 1e9;
}

double
percentile(std::vector<double> values, double fraction)
{
    return values.empty() ? 0.0
                          : stats::percentileExact(std::move(values),
                                                   fraction);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A probe stores its result here, so its loop cannot be elided. */
volatile double g_probeSink = 0.0;

void
keep(double value)
{
    g_probeSink = value;
}

/** Span helpers that do nothing on the untraced run. */
std::int64_t
beginSpan(SpanRecorder *tracer, const char *name, std::int64_t parent)
{
    return tracer ? tracer->begin(name, parent) : -1;
}

void
endSpan(SpanRecorder *tracer, std::int64_t id)
{
    if (tracer)
        tracer->end(id);
}

/** Invariants every workload's outcome must satisfy. */
void
checkOutcome(const mgmt::ScenarioResult &result,
             std::vector<std::string> &violations)
{
    const dc::RunMetrics &m = result.metrics;
    if (!std::isfinite(m.energyKwh) || m.energyKwh <= 0.0)
        violations.push_back("energy is not finite and positive");
    if (!(m.satisfaction >= 0.0 && m.satisfaction <= 1.0))
        violations.push_back("satisfaction outside [0, 1]");
    if (!(m.violationFraction >= 0.0 && m.violationFraction <= 1.0))
        violations.push_back("SLA violation fraction outside [0, 1]");
}

/** Every live VM sits on exactly one host, and that host lists it. */
void
checkPlacement(const dc::Cluster &cluster,
               std::vector<std::string> &violations)
{
    std::vector<std::uint32_t> listed(cluster.vmCount(), 0);
    for (const auto &host_ptr : cluster.hosts()) {
        for (const dc::VmId id : host_ptr->vmIds()) {
            if (static_cast<std::size_t>(id) >= listed.size() ||
                cluster.vm(id).host() != host_ptr->id()) {
                violations.push_back("host " +
                                     std::to_string(host_ptr->id()) +
                                     " lists a VM placed elsewhere");
                return;
            }
            ++listed[static_cast<std::size_t>(id)];
        }
    }
    for (const auto &vm_ptr : cluster.vms()) {
        const std::uint32_t want =
            vm_ptr->placed() && !vm_ptr->retired() ? 1u : 0u;
        if (listed[static_cast<std::size_t>(vm_ptr->id())] != want) {
            violations.push_back("VM " + std::to_string(vm_ptr->id()) +
                                 " is listed by " +
                                 std::to_string(
                                     listed[static_cast<std::size_t>(
                                         vm_ptr->id())]) +
                                 " hosts");
            return;
        }
    }
}

/** Fleet-wide wake count, as runScenario reports it. */
std::uint64_t
completedWakes(const dc::Cluster &cluster)
{
    std::uint64_t wakes = 0;
    for (const auto &host_ptr : cluster.hosts())
        wakes += host_ptr->powerFsm().wakeLatenciesSeconds().size();
    return wakes;
}

/** Close every idle hierarchy and total its transitions. */
void
finishHierarchies(dc::Cluster &cluster, sim::SimTime now,
                  mgmt::ScenarioResult &result)
{
    for (const auto &host_ptr : cluster.hosts()) {
        power::IdleHierarchy *hier = host_ptr->idleHierarchy();
        if (hier == nullptr)
            continue;
        hier->finish(now);
        result.idleTransitions += hier->transitions();
        result.idleTransitionJoules += hier->transitionEnergyJoules();
    }
}

/**
 * Per-host idle governor, one self-rescheduling event per host on a
 * staggered period: report busy cores to the C-state hierarchy and ask for
 * full descent of the rest. With timing on, one callback in
 * kGovernorSampleEvery is timed into a (total ns, calls) counter; timing
 * every one would double the traced run's cost of a 150 ns callback.
 */
class GovernorRig
{
  public:
    GovernorRig(sim::Simulator &simulator, dc::Cluster &cluster,
                sim::SimTime period, bool timed)
        : simulator_(simulator), cluster_(cluster), period_(period),
          timed_(timed)
    {
    }

    GovernorRig(const GovernorRig &) = delete;
    GovernorRig &operator=(const GovernorRig &) = delete;

    /** Contiguous host blocks share a first-tick time, as in F12. */
    void
    start()
    {
        const std::size_t count = cluster_.hostCount();
        const auto spread = static_cast<std::size_t>(
            std::max(1.0, period_.toSeconds()));
        for (std::size_t h = 0; h < count; ++h) {
            const auto offset = sim::SimTime::seconds(
                static_cast<double>(h * spread / count));
            const auto id = static_cast<dc::HostId>(h);
            simulator_.schedule(offset, [this, id] { tick(id); },
                                "idle-governor");
        }
    }

    std::uint64_t tickNs() const { return tickNs_; }
    std::uint64_t ticks() const { return ticks_; }

  private:
    void
    tick(dc::HostId h)
    {
        if (timed_ && ++seen_ % kGovernorSampleEvery == 0) {
            const std::uint64_t t0 = nowNs();
            govern(cluster_.host(h));
            tickNs_ += nowNs() - t0;
            ++ticks_;
        } else {
            govern(cluster_.host(h));
        }
        simulator_.schedule(period_, [this, h] { tick(h); },
                            "idle-governor");
    }

    static void
    govern(dc::Host &host)
    {
        power::IdleHierarchy *hier = host.idleHierarchy();
        if (hier == nullptr || !hier->active())
            return;
        const int cores = hier->spec().coreCount;
        const int busy = std::min(
            cores, static_cast<int>(std::ceil(host.utilization() * cores)));
        const int core_depth =
            static_cast<int>(hier->spec().coreStates.size());
        const int pkg_depth =
            static_cast<int>(hier->spec().packageStates.size());
        if (hier->wouldChange(busy, core_depth, pkg_depth)) {
            hier->setBusyCores(busy);
            hier->requestDepth(core_depth, pkg_depth);
        }
    }

    sim::Simulator &simulator_;
    dc::Cluster &cluster_;
    sim::SimTime period_;
    bool timed_;
    std::uint64_t seen_ = 0;
    std::uint64_t tickNs_ = 0;
    std::uint64_t ticks_ = 0;
};

/**
 * Evaluation hooks registered just before and just after
 * VpmManager::start(), so the pair brackets every management cycle. The
 * after-hook also closes one datacenter.step span per evaluation (wall
 * time between consecutive evaluations) and tracks the pending-event
 * depth the event-core probe replays.
 */
class ManagerBracket
{
  public:
    ManagerBracket(SpanRecorder &tracer, const sim::Simulator &simulator,
                   const mgmt::VpmManager &manager)
        : tracer_(tracer), simulator_(simulator), manager_(manager)
    {
    }

    ManagerBracket(const ManagerBracket &) = delete;
    ManagerBracket &operator=(const ManagerBracket &) = delete;

    void
    installBefore(dc::DatacenterSim &dcsim)
    {
        dcsim.addEvaluationHook([this] {
            cyclesBefore_ = manager_.stats().cycles;
            cycleStartNs_ = nowNs();
        });
    }

    void
    installAfter(dc::DatacenterSim &dcsim)
    {
        dcsim.addEvaluationHook([this] {
            const std::uint64_t t = nowNs();
            if (manager_.stats().cycles != cyclesBefore_)
                tracer_.add("core.cycle", cycleStartNs_, t, parent_);
            if (lastStepNs_ != 0)
                tracer_.add("datacenter.step", lastStepNs_, t, parent_);
            lastStepNs_ = t;
            maxPending_ = std::max(maxPending_, simulator_.pendingCount());
        });
    }

    void setParent(std::int64_t parent) { parent_ = parent; }
    std::size_t maxPending() const { return maxPending_; }

  private:
    SpanRecorder &tracer_;
    const sim::Simulator &simulator_;
    const mgmt::VpmManager &manager_;
    std::int64_t parent_ = -1;
    std::uint64_t cyclesBefore_ = 0;
    std::uint64_t cycleStartNs_ = 0;
    std::uint64_t lastStepNs_ = 0;
    std::size_t maxPending_ = 0;
};

/** Self-rescheduling no-op event for the event-core probe. */
struct ProbeTick
{
    sim::Simulator *simulator;
    sim::SimTime period;

    void
    operator()() const
    {
        simulator->schedule(period, *this, "probe");
    }
};

/**
 * ns per event of the workload's schedule shape: @p depth pending
 * self-rescheduling events staggered over @p period, replayed through
 * Simulator::schedule and runUntil with no-op callbacks until about
 * @p events (capped) have fired.
 */
double
probeEventCore(SpanRecorder &tracer, std::int64_t parent,
               std::uint64_t events, std::size_t depth, sim::SimTime period)
{
    events = std::clamp<std::uint64_t>(events, 1, kProbeMaxEvents);
    depth = std::max<std::size_t>(depth, 1);
    sim::Simulator probe;
    for (std::size_t d = 0; d < depth; ++d) {
        const auto offset = sim::SimTime::micros(
            period.micros() * static_cast<std::int64_t>(d) /
            static_cast<std::int64_t>(depth));
        probe.schedule(offset, ProbeTick{&probe, period}, "probe");
    }
    const double rounds =
        static_cast<double>(events) / static_cast<double>(depth);
    const std::uint64_t t0 = nowNs();
    probe.runUntil(period * rounds);
    const std::uint64_t t1 = nowNs();
    tracer.add("probe.simcore", t0, t1, parent);
    return ratio(static_cast<double>(t1 - t0),
                 static_cast<double>(probe.eventsProcessed()));
}

/**
 * ns per DemandTrace::spanAt call over every VM's trace at every
 * evaluation instant of the day (instants strided so the probe makes at
 * most kProbeMaxSpanCalls calls). Instant-major, like the evaluation loop.
 */
double
probeSpans(SpanRecorder &tracer, std::int64_t parent,
           const std::vector<workload::TracePtr> &traces, sim::SimTime day,
           sim::SimTime interval)
{
    if (traces.empty())
        return 0.0;
    const auto instants =
        static_cast<std::uint64_t>(day.micros() / interval.micros());
    const std::uint64_t per_instant = traces.size();
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, (instants * per_instant + kProbeMaxSpanCalls - 1) /
               kProbeMaxSpanCalls);
    double sink = 0.0;
    std::uint64_t calls = 0;
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t k = 0; k < instants; k += stride) {
        const sim::SimTime t = sim::SimTime::micros(
            interval.micros() * static_cast<std::int64_t>(k));
        for (const workload::TracePtr &trace : traces)
            sink += trace->spanAt(t).utilization;
        calls += per_instant;
    }
    const std::uint64_t t1 = nowNs();
    tracer.add("probe.workload.span", t0, t1, parent);
    keep(sink);
    return ratio(static_cast<double>(t1 - t0), static_cast<double>(calls));
}

/**
 * ns per VM of DatacenterSim::evaluate() called repeatedly after the day
 * ends: every span is valid, so the time is the sample pass plus the host
 * pass.
 */
double
probeEvaluate(SpanRecorder &tracer, std::int64_t parent,
              dc::DatacenterSim &dcsim, std::size_t placed_vms)
{
    if (placed_vms == 0)
        return 0.0;
    std::uint64_t t0 = nowNs();
    dcsim.evaluate(); // also sizes the loop
    const double once = static_cast<double>(nowNs() - t0);
    const int repeats = std::clamp(
        static_cast<int>(kProbeTargetNs / std::max(once, 1.0)), 3, 200);
    t0 = nowNs();
    for (int i = 0; i < repeats; ++i)
        dcsim.evaluate();
    const std::uint64_t t1 = nowNs();
    tracer.add("probe.datacenter.evaluate", t0, t1, parent);
    return static_cast<double>(t1 - t0) /
           (static_cast<double>(repeats) * static_cast<double>(placed_vms));
}

/**
 * Layer counts that every workload reads from its outcome, so each
 * per-layer metric has a value on every workload (0 where the workload
 * bypasses the layer).
 */
void
fillOutcomeLayers(const mgmt::ScenarioResult &result,
                  std::map<std::string, double> &layers)
{
    const mgmt::ManagerStats &mgr = result.manager;
    layers["simcore.events"] = static_cast<double>(result.eventsProcessed);
    layers["power.idle_transitions"] =
        static_cast<double>(result.idleTransitions);
    layers["power.actions"] =
        static_cast<double>(result.metrics.powerActions);
    layers["datacenter.migrations"] =
        static_cast<double>(result.metrics.migrations);
    layers["datacenter.sla_viol_pct"] =
        100.0 * result.metrics.violationFraction;
    layers["core.cycles"] = static_cast<double>(mgr.cycles);
    layers["core.sleeps"] = static_cast<double>(mgr.sleepsIssued);
    layers["core.wakes"] = static_cast<double>(mgr.wakesIssued);
    layers["core.migrations_requested"] =
        static_cast<double>(mgr.migrationsRequested);
    layers["core.migration_yield"] =
        ratio(static_cast<double>(result.metrics.migrations),
              static_cast<double>(mgr.migrationsRequested));
    layers["core.evacuation_abandon_ratio"] =
        ratio(static_cast<double>(mgr.evacuationsAbandoned),
              static_cast<double>(mgr.evacuationsStarted));
}

/** Manager and step timings from the bracket's spans. */
void
fillBracketLayers(const SpanRecorder &tracer, std::size_t hosts,
                  std::map<std::string, double> &layers)
{
    const std::vector<double> cycles = tracer.durationsNs("core.cycle");
    const std::vector<double> steps = tracer.durationsNs("datacenter.step");
    layers["core.cycle_us_p50"] = percentile(cycles, 0.5) / 1e3;
    layers["core.cycle_us_p90"] = percentile(cycles, 0.9) / 1e3;
    layers["core.cycle_ns_per_host"] =
        ratio(percentile(cycles, 0.5), static_cast<double>(hosts));
    layers["datacenter.step_ms_p50"] = percentile(steps, 0.5) / 1e6;
    layers["datacenter.step_ms_p95"] = percentile(steps, 0.95) / 1e6;
}

RunReport
runFleetDay(const WorkloadOptions &options, SpanRecorder *tracer)
{
    const int hosts = options.hosts > 0 ? options.hosts : kFleetDayHosts;
    const int vms = options.vms > 0 ? options.vms : hosts * 10;
    const sim::SimTime day = sim::SimTime::hours(24.0);
    const sim::SimTime interval = sim::SimTime::minutes(5.0);

    // Input (not timed): 16 shared day/night step traces. The seed jitters
    // each group's levels and ramp times; group g ramps up about 06:00 +
    // g/4 h and down twelve hours later.
    constexpr int kPhaseGroups = 16;
    sim::Rng rng(options.seed);
    std::vector<workload::TracePtr> patterns;
    for (int g = 0; g < kPhaseGroups; ++g) {
        const double shift = 0.25 * g + rng.uniform(0.0, 0.25);
        const double night = rng.uniform(0.13, 0.17);
        const double peak = rng.uniform(0.86, 0.92);
        patterns.push_back(std::make_shared<workload::StepTrace>(
            std::vector<workload::StepTrace::Step>{
                {sim::SimTime(), night},
                {sim::SimTime::hours(6.0 + shift), peak},
                {sim::SimTime::hours(18.0 + shift), night}}));
    }

    RunReport report;
    const std::int64_t root = beginSpan(tracer, "fleet_day", -1);
    const std::uint64_t setup_start = nowNs();
    const std::int64_t setup_span = beginSpan(tracer, "setup", root);

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const dc::HostConfig host_config;
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    for (int h = 0; h < hosts; ++h)
        cluster.addHost(host_config, power_spec);
    const power::IdleHierarchySpec hier_spec = power::modernIdleHierarchy();
    for (const auto &host_ptr : cluster.hosts())
        host_ptr->attachIdleHierarchy(
            std::make_unique<power::IdleHierarchy>(simulator, hier_spec));

    // Striped placement over the first 80% of hosts; the empty tail is
    // what the manager sleeps at night.
    const int loaded_hosts = std::max(1, hosts * 4 / 5);
    for (int v = 0; v < vms; ++v) {
        workload::VmWorkloadSpec spec;
        spec.name = "vm" + std::to_string(v);
        spec.cpuMhz = 2000.0;
        spec.memoryMb = 2048.0;
        spec.trace = patterns[static_cast<std::size_t>(v) % patterns.size()];
        const dc::Vm &vm = cluster.addVm(std::move(spec));
        cluster.placeVm(vm.id(), static_cast<dc::HostId>(v % loaded_hosts));
    }

    dc::MigrationEngine migration(simulator, cluster, {});
    dc::DatacenterConfig dc_config;
    dc_config.evaluationInterval = interval;
    dc::DatacenterSim dcsim(simulator, cluster, migration, dc_config);

    mgmt::VpmConfig manager_config;
    manager_config.hierarchical = true;
    manager_config.hostsPerRack = 32;
    manager_config.racksPerPod = 16;
    manager_config.period = sim::SimTime::minutes(15.0);
    manager_config.loadBalance = false;
    mgmt::VpmManager manager(simulator, cluster, migration, dcsim,
                             manager_config);
    std::unique_ptr<ManagerBracket> bracket;
    if (tracer) {
        bracket =
            std::make_unique<ManagerBracket>(*tracer, simulator, manager);
        bracket->installBefore(dcsim);
    }
    manager.start();
    if (bracket)
        bracket->installAfter(dcsim);
    dcsim.start();

    GovernorRig governor(simulator, cluster, interval, tracer != nullptr);
    governor.start();
    endSpan(tracer, setup_span);
    report.setupS = seconds(setup_start, nowNs());

    const std::uint64_t run_start = nowNs();
    const std::int64_t day_span = beginSpan(tracer, "day", root);
    if (bracket)
        bracket->setParent(day_span);
    mgmt::ScenarioResult &result = report.result;
    result.metrics = dcsim.runFor(day);
    endSpan(tracer, day_span);
    report.runS = seconds(run_start, nowNs());

    result.manager = manager.stats();
    finishHierarchies(cluster, simulator.now(), result);
    result.wakes = completedWakes(cluster);
    result.eventsProcessed = simulator.eventsProcessed();
    checkOutcome(result, report.violations);
    checkPlacement(cluster, report.violations);

    if (tracer) {
        std::map<std::string, double> &layers = report.layers;
        fillOutcomeLayers(result, layers);
        fillBracketLayers(*tracer, cluster.hostCount(), layers);
        tracer->addCounter("power.governor_tick", governor.tickNs(),
                           governor.ticks());
        layers["power.governor_tick_ns"] =
            ratio(static_cast<double>(governor.tickNs()),
                  static_cast<double>(governor.ticks()));
        const std::int64_t probes = beginSpan(tracer, "probes", root);
        layers["simcore.ns_per_event"] =
            probeEventCore(*tracer, probes, result.eventsProcessed,
                           bracket->maxPending(), interval);
        std::vector<workload::TracePtr> traces;
        traces.reserve(static_cast<std::size_t>(vms));
        for (int v = 0; v < vms; ++v)
            traces.push_back(
                patterns[static_cast<std::size_t>(v) % patterns.size()]);
        layers["workload.span_ns"] =
            probeSpans(*tracer, probes, traces, day, interval);
        layers["datacenter.evaluate_ns_per_vm"] = probeEvaluate(
            *tracer, probes, dcsim, static_cast<std::size_t>(vms));
        endSpan(tracer, probes);
    }
    endSpan(tracer, root);
    return report;
}

/** Configure the process-global telemetry as an operator would run it:
 *  journal and time-series store on, watchdog rules, snapshot target. */
void
enableTelemetry(const WorkloadOptions &options,
                std::vector<std::string> &violations)
{
    telemetry::TelemetryConfig config;
    config.enabled = true;
    config.seriesRowsEnabled = false;
    config.timeseriesEnabled = true;
    telemetry::Telemetry &sink = telemetry::global();
    sink.configure(config);
    if (!options.snapshotPath.empty())
        sink.setSnapshotTarget(options.snapshotPath);
    if (options.watchdogPath.empty())
        return;
    std::ifstream in(options.watchdogPath);
    std::ostringstream rules;
    rules << in.rdbuf();
    std::string error;
    if (!in || !sink.watchdog().configure(rules.str(), &error))
        violations.push_back("watchdog rules '" + options.watchdogPath +
                             "': " + (error.empty() ? "unreadable" : error));
}

RunReport
runConsolidation(const WorkloadOptions &options, SpanRecorder *tracer)
{
    const mgmt::ScenarioConfig config =
        consolidationScenario(options.seed, options.hosts, options.vms);
    RunReport report;
    if (options.telemetry)
        enableTelemetry(options, report.violations);

    // Input (not timed): the enterprise-mix draw, as runScenario makes it.
    sim::Rng rng(config.seed);
    std::vector<workload::VmWorkloadSpec> fleet =
        workload::makeEnterpriseMix(rng, config.vmCount, config.mix);
    std::vector<workload::TracePtr> traces;
    if (tracer) {
        for (const workload::VmWorkloadSpec &spec : fleet)
            traces.push_back(spec.trace);
    }

    // The rig of mgmt::runScenario for this config, built by hand so
    // evaluation hooks can bracket the manager.
    const std::int64_t root = beginSpan(tracer, "consolidation", -1);
    const std::uint64_t setup_start = nowNs();
    const std::int64_t setup_span = beginSpan(tracer, "setup", root);
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < config.hostCount; ++h)
        cluster.addHost(config.hostConfig, config.powerSpec);
    for (workload::VmWorkloadSpec &spec : fleet)
        cluster.addVm(std::move(spec));
    mgmt::staticInitialPlacement(cluster, config.manager.antiAffinityGroups);

    dc::MigrationEngine migration(simulator, cluster, config.migration);
    dc::DatacenterSim dcsim(simulator, cluster, migration,
                            config.datacenter);
    mgmt::VpmManager manager(simulator, cluster, migration, dcsim,
                             config.manager);
    std::unique_ptr<ManagerBracket> bracket;
    if (tracer) {
        bracket =
            std::make_unique<ManagerBracket>(*tracer, simulator, manager);
        bracket->installBefore(dcsim);
    }
    manager.start();
    if (bracket)
        bracket->installAfter(dcsim);
    dcsim.start();
    endSpan(tracer, setup_span);
    report.setupS = seconds(setup_start, nowNs());

    const std::uint64_t run_start = nowNs();
    const std::int64_t day_span = beginSpan(tracer, "day", root);
    if (bracket)
        bracket->setParent(day_span);
    mgmt::ScenarioResult &result = report.result;
    result.metrics = dcsim.runFor(config.duration);
    endSpan(tracer, day_span);
    report.runS = seconds(run_start, nowNs());

    result.manager = manager.stats();
    result.wakes = completedWakes(cluster);
    result.eventsProcessed = simulator.eventsProcessed();
    checkOutcome(result, report.violations);
    checkPlacement(cluster, report.violations);

    if (tracer) {
        std::map<std::string, double> &layers = report.layers;
        fillOutcomeLayers(result, layers);
        fillBracketLayers(*tracer, cluster.hostCount(), layers);
        if (options.telemetry) {
            telemetry::Telemetry &sink = telemetry::global();
            layers["telemetry.journal_records"] =
                static_cast<double>(sink.journal().recorded());
            layers["telemetry.ts_bytes"] =
                static_cast<double>(sink.timeseries().memoryBytes());
            if (!options.snapshotPath.empty()) {
                const std::uint64_t t0 = nowNs();
                if (!sink.writeSnapshotFiles())
                    report.violations.push_back(
                        "cannot write the time-series snapshot");
                const std::uint64_t t1 = nowNs();
                tracer->add("telemetry.snapshot", t0, t1, root);
                layers["telemetry.snapshot_ms"] =
                    static_cast<double>(t1 - t0) / 1e6;
            }
        }
        const std::int64_t probes = beginSpan(tracer, "probes", root);
        layers["simcore.ns_per_event"] =
            probeEventCore(*tracer, probes, result.eventsProcessed,
                           bracket->maxPending(),
                           config.datacenter.evaluationInterval);
        layers["workload.span_ns"] =
            probeSpans(*tracer, probes, traces, config.duration,
                       config.datacenter.evaluationInterval);
        layers["datacenter.evaluate_ns_per_vm"] = probeEvaluate(
            *tracer, probes, dcsim, cluster.vmCount());
        endSpan(tracer, probes);
    }
    endSpan(tracer, root);
    return report;
}

/** Pending events at capture time, from the checkpoint's event section
 *  (it opens with the u64 count, host-endian). */
std::size_t
pendingAtCapture(const replay::CheckpointData &ckpt)
{
    const std::vector<std::uint8_t> *events = ckpt.section("events");
    std::uint64_t count = 0;
    if (events != nullptr && events->size() >= sizeof(count))
        std::memcpy(&count, events->data(), sizeof(count));
    return static_cast<std::size_t>(count);
}

/** Replay-layer decode throughput: a fresh open, then every VM's series
 *  walked span by span from its first sample to its last. MB/s of file. */
double
probeDecode(SpanRecorder &tracer, std::int64_t parent,
            const std::string &path, std::size_t window_bytes,
            std::vector<std::string> &violations)
{
    const auto file_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    const std::uint64_t t0 = nowNs();
    std::string error;
    const std::shared_ptr<replay::TraceFile> file =
        replay::TraceFile::open(path, window_bytes, &error);
    if (!file) {
        violations.push_back("decode probe: " + error);
        return 0.0;
    }
    double sink = 0.0;
    for (std::uint32_t v = 0; v < file->info().vmCount; ++v) {
        const workload::TracePtr trace = file->vmTrace(v);
        sim::SimTime t;
        for (;;) {
            const workload::DemandSpan span = trace->spanAt(t);
            sink += span.utilization;
            if (span.validUntil <= t || span.validUntil == sim::SimTime::max())
                break;
            t = span.validUntil;
        }
    }
    const std::uint64_t t1 = nowNs();
    tracer.add("probe.replay.decode", t0, t1, parent);
    keep(sink);
    return ratio(file_bytes / 1e6, seconds(t0, t1));
}

RunReport
runReplayDay(const WorkloadOptions &options, SpanRecorder *tracer)
{
    replay::ReplaySpec spec;
    spec.name = "replay_day";
    spec.tracePath = options.tracePath;
    spec.hosts = options.hosts > 0 ? options.hosts : kReplayDayHosts;
    spec.vms = options.vms > 0 ? options.vms : kReplayDayVms;
    spec.durationHours = 24.0;
    spec.policy = "hier";
    spec.hierarchical = true;
    spec.governorPeriodS = 300.0;
    spec.seed = options.seed;

    RunReport report;
    std::error_code ec;
    const auto trace_bytes = std::filesystem::file_size(spec.tracePath, ec);
    report.facts["replay.window_mb"] =
        static_cast<double>(spec.windowBytes) / (1024.0 * 1024.0);
    report.facts["replay.trace_mb"] =
        ec ? 0.0 : static_cast<double>(trace_bytes) / (1024.0 * 1024.0);

    const std::int64_t root = beginSpan(tracer, "replay_day", -1);
    const std::uint64_t setup_start = nowNs();
    const std::int64_t setup_span = beginSpan(tracer, "setup", root);
    std::string error;
    std::unique_ptr<replay::ReplaySession> session =
        replay::ReplaySession::create(spec, &error);
    endSpan(tracer, setup_span);
    report.setupS = seconds(setup_start, nowNs());
    if (!session) {
        report.violations.push_back("ReplaySession::create: " + error);
        endSpan(tracer, root);
        return report;
    }

    // The traced run pauses at every evaluation instant (pausing is
    // observation-free), giving one datacenter.step span per interval.
    const sim::SimTime interval = sim::SimTime::seconds(spec.evalIntervalS);
    const auto run_until = [&](sim::SimTime horizon, std::int64_t parent) {
        if (!tracer) {
            session->runTo(horizon);
            return;
        }
        while (session->now() < horizon) {
            const sim::SimTime next =
                std::min(horizon, session->now() + interval);
            const std::uint64_t t0 = nowNs();
            session->runTo(next);
            tracer->add("datacenter.step", t0, nowNs(), parent);
        }
    };

    const std::uint64_t run_start = nowNs();
    const std::int64_t day_span = beginSpan(tracer, "day", root);
    run_until(sim::SimTime::hours(spec.durationHours / 2.0), day_span);
    const std::int64_t capture_span =
        beginSpan(tracer, "replay.capture", day_span);
    const replay::CheckpointData ckpt = session->capture();
    endSpan(tracer, capture_span);
    run_until(session->duration(), day_span);
    const std::int64_t finish_span =
        beginSpan(tracer, "replay.finish", day_span);
    report.result = session->finish();
    endSpan(tracer, finish_span);
    endSpan(tracer, day_span);
    report.runS = seconds(run_start, nowNs());

    const mgmt::ScenarioResult &result = report.result;
    checkOutcome(result, report.violations);
    std::uint64_t capture_bytes = ckpt.specJson.size();
    for (const auto &[name, bytes] : ckpt.sections)
        capture_bytes += name.size() + bytes.size();

    if (tracer) {
        std::map<std::string, double> &layers = report.layers;
        fillOutcomeLayers(result, layers);
        const std::vector<double> steps =
            tracer->durationsNs("datacenter.step");
        layers["datacenter.step_ms_p50"] = percentile(steps, 0.5) / 1e6;
        layers["datacenter.step_ms_p95"] = percentile(steps, 0.95) / 1e6;
        layers["replay.chunk_loads"] =
            static_cast<double>(session->trace().chunkLoads());
        layers["replay.capture_ms"] =
            tracer->totalNs("replay.capture") / 1e6;
        layers["replay.capture_bytes"] = static_cast<double>(capture_bytes);

        const std::int64_t probes = beginSpan(tracer, "probes", root);
        layers["simcore.ns_per_event"] =
            probeEventCore(*tracer, probes, result.eventsProcessed,
                           pendingAtCapture(ckpt), interval);
        layers["replay.decode_mb_per_s"] =
            probeDecode(*tracer, probes, spec.tracePath, spec.windowBytes,
                        report.violations);
        std::string open_error;
        const std::shared_ptr<replay::TraceFile> file =
            replay::TraceFile::open(spec.tracePath, spec.windowBytes,
                                    &open_error);
        if (file) {
            std::vector<workload::TracePtr> traces;
            traces.reserve(static_cast<std::size_t>(spec.vms));
            for (int v = 0; v < spec.vms; ++v)
                traces.push_back(file->vmTrace(
                    static_cast<std::uint32_t>(v) % file->info().vmCount));
            layers["workload.span_ns"] = probeSpans(
                *tracer, probes, traces,
                sim::SimTime::hours(spec.durationHours), interval);
        } else {
            report.violations.push_back("span probe: " + open_error);
        }
        endSpan(tracer, probes);
    }
    endSpan(tracer, root);
    return report;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const Workload w : {Workload::FleetDay, Workload::ReplayDay,
                             Workload::Consolidation}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::FleetDay:
        return "fleet_day";
      case Workload::ReplayDay:
        return "replay_day";
      case Workload::Consolidation:
        return "consolidation";
    }
    return "?";
}

RunReport
runWorkload(Workload workload, const WorkloadOptions &options,
            SpanRecorder *tracer)
{
    switch (workload) {
      case Workload::FleetDay:
        return runFleetDay(options, tracer);
      case Workload::ReplayDay:
        return runReplayDay(options, tracer);
      case Workload::Consolidation:
        return runConsolidation(options, tracer);
    }
    return {};
}

std::uint64_t
outcomeDigest(const mgmt::ScenarioResult &result)
{
    std::vector<std::uint8_t> bytes;
    const auto put = [&bytes](const auto value) {
        std::uint8_t raw[sizeof(value)];
        std::memcpy(raw, &value, sizeof(value));
        bytes.insert(bytes.end(), raw, raw + sizeof(value));
    };
    const dc::RunMetrics &m = result.metrics;
    put(m.energyKwh);
    put(m.satisfaction);
    put(m.violationFraction);
    put(m.p95LatencyFactor);
    put(m.migrations);
    put(m.powerActions);
    put(m.averageHostsOn);
    put(result.wakes);
    put(result.idleTransitions);
    return replay::fnv1a(bytes.data(), bytes.size());
}

mgmt::ScenarioConfig
consolidationScenario(std::uint64_t seed, int hosts, int vms)
{
    mgmt::ScenarioConfig config;
    config.hostCount = hosts > 0 ? hosts : kConsolidationHosts;
    config.vmCount = vms > 0 ? vms : config.hostCount * 5;
    config.duration = sim::SimTime::hours(24.0);
    config.seed = seed;
    config.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
    // F7's per-cycle limits: management traffic scales with the fleet.
    config.manager.maxMigrationsPerCycle = std::max(10, config.hostCount / 2);
    config.manager.maxEvacuationsPerCycle =
        std::max(1, config.hostCount / 16);
    return config;
}

bool
generateReplayTrace(const std::string &path, int vms, std::uint64_t seed,
                    std::string *error)
{
    replay::TraceFileWriter writer(path, static_cast<std::uint32_t>(vms));
    if (!writer.ok()) {
        *error = "cannot open '" + path + "' for writing";
        return false;
    }
    sim::Rng rng(seed);
    constexpr double kSampleS = 900.0;
    constexpr std::int64_t kSamples = 24 * 3600 / 900;
    for (int v = 0; v < vms; ++v) {
        const double night = rng.uniform(0.10, 0.20);
        const double peak = rng.uniform(0.70, 0.90);
        const double rise_h = 6.0 + rng.uniform(0.0, 4.0);
        const double fall_h = 18.0 + rng.uniform(0.0, 4.0);
        for (std::int64_t s = 0; s < kSamples; ++s) {
            const double t_h = static_cast<double>(s) * kSampleS / 3600.0;
            const double base = (t_h >= rise_h && t_h < fall_h) ? peak : night;
            writer.append(static_cast<std::uint32_t>(v),
                          static_cast<std::int64_t>(static_cast<double>(s) *
                                                    kSampleS * 1e6),
                          base + rng.uniform(-0.02, 0.02));
        }
    }
    return writer.finish(error);
}

} // namespace perfbench
