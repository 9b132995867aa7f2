#include "replay/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <ostream>
#include <thread>

#include "datacenter/cluster.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "simcore/byte_append.hpp"
#include "simcore/logging.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/ci.hpp"
#include "sweep/runner.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::replay {

namespace {

constexpr const char *kSpecSchema = "vpm-replay-spec-1";

std::string
numToken(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Resolve @p policy against @p spec into the policy fields of @p out
 * (manager, idleHierarchy, jointPolicy). The preset names match
 * tools/sweep's policy column (runner.cpp buildScenario) so branch
 * matrices line up with sweep matrices, but the settings differ: "joint"
 * runs a 3-cycle speed window at the evaluation-interval period (the
 * sweep's runs 15 cycles at the default period), hosts sleep through S3
 * when exit_latency_s is 0 (the sweep always uses the synthetic state),
 * and "hier" — the consolidation-free hyperscale preset (C-states plus
 * host sleep, no balancing migrations) that bench_f13_replay runs — is
 * replay-only. The two tables stay separate: a shared one would branch
 * on its caller.
 */
bool
buildPreset(const ReplaySpec &spec, const std::string &policy,
            mgmt::ScenarioConfig &out, std::string *error)
{
    const std::string sleep_state = spec.exitLatencyS > 0.0 ? "SYNTH" : "S3";
    const sim::SimTime joint_period =
        sim::SimTime::seconds(spec.evalIntervalS);

    if (policy == "nopm") {
        out.manager = mgmt::makePolicy(mgmt::PolicyKind::NoPM);
    } else if (policy == "s3") {
        out.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
        out.manager.sleepState = sleep_state;
    } else if (policy == "cstates" || policy == "hier") {
        out.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
        out.manager.sleepState = sleep_state;
        // "cstates" keeps every host on (the pure C-state ablation);
        // "hier" keeps host sleep so the hyperscale day gets its nightly
        // empty-tail sleep wave, but drops balancing migrations — at
        // fleet scale triage is rack-level, not per-VM (F12's rig).
        out.manager.hostSleep = policy == "hier";
        out.manager.loadBalance = policy == "cstates";
        out.idleHierarchy = power::modernIdleHierarchy();
        mgmt::JointPolicyConfig idle_only;
        idle_only.controlSpeed = false;
        idle_only.period = joint_period;
        out.jointPolicy = idle_only;
    } else if (policy == "joint") {
        out.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
        out.manager.sleepState = sleep_state;
        out.manager.parkedReserve = 3;
        out.idleHierarchy = power::modernIdleHierarchy();
        mgmt::JointPolicyConfig joint_policy;
        joint_policy.period = joint_period;
        joint_policy.speedWindowCycles = 3;
        joint_policy.speedSurgeGuard = 2.0;
        out.jointPolicy = joint_policy;
    } else {
        if (error != nullptr)
            *error = "unknown replay policy '" + policy +
                     "' (expected nopm|s3|cstates|joint|hier)";
        return false;
    }
    out.manager.period = sim::SimTime::minutes(spec.managerPeriodMin);
    out.manager.hierarchical = spec.hierarchical;
    return true;
}

bool
validateSpec(const ReplaySpec &spec, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "replay spec: " + what;
        return false;
    };
    if (spec.tracePath.empty())
        return fail("trace_path is required");
    if (spec.hosts < 1)
        return fail("hosts must be >= 1");
    if (spec.vms < 0)
        return fail("vms must be >= 0 (0 = one VM per trace series)");
    if (!(spec.vmCpuMhz > 0.0) || !(spec.vmMemoryMb > 0.0))
        return fail("vm_cpu_mhz and vm_memory_mb must be positive");
    // Every time field becomes integer SimTime microseconds; casting a
    // value that is not finite or exceeds INT64_MAX us is undefined
    // behaviour, so reject it before any SimTime is built (the negated
    // compare also catches NaN and infinities).
    const struct
    {
        const char *field;
        double value;
        double secondsPerUnit;
    } times[] = {{"duration_hours", spec.durationHours, 3600.0},
                 {"eval_interval_s", spec.evalIntervalS, 1.0},
                 {"manager_period_min", spec.managerPeriodMin, 60.0},
                 {"exit_latency_s", spec.exitLatencyS, 1.0},
                 {"governor_period_s", spec.governorPeriodS, 1.0}};
    for (const auto &t : times) {
        const double us = std::fabs(t.value) * t.secondsPerUnit *
                          static_cast<double>(sim::SimTime::ticksPerSecond);
        if (!(us < 0x1p63))
            return fail(std::string(t.field) + " out of range");
    }
    if (!(spec.durationHours > 0.0))
        return fail("duration_hours must be positive");
    if (!(spec.evalIntervalS > 0.0))
        return fail("eval_interval_s must be positive");
    if (!(spec.managerPeriodMin > 0.0))
        return fail("manager_period_min must be positive");
    const std::int64_t eval_us =
        sim::SimTime::seconds(spec.evalIntervalS).micros();
    const std::int64_t period_us =
        sim::SimTime::minutes(spec.managerPeriodMin).micros();
    if (eval_us <= 0 || period_us % eval_us != 0)
        return fail("manager period must be a multiple of the evaluation "
                    "interval");
    if (!(spec.loadedFraction > 0.0) || spec.loadedFraction > 1.0)
        return fail("loaded_fraction must be in (0, 1]");
    if (spec.exitLatencyS < 0.0)
        return fail("exit_latency_s must be >= 0");
    if (spec.governorPeriodS < 0.0)
        return fail("governor_period_s must be >= 0");
    mgmt::ScenarioConfig preset;
    if (!buildPreset(spec, spec.policy, preset, error))
        return false;
    if (spec.governorPeriodS > 0.0 && !preset.idleHierarchy)
        return fail("governor_period_s needs an idle-hierarchy preset "
                    "(cstates|joint|hier)");
    return true;
}

using sim::appendBytes;
using sim::appendPod;

void
putAggregate(std::vector<std::uint8_t> &out, const dc::FleetAggregate &agg)
{
    appendPod<std::uint64_t>(out, agg.begin);
    appendPod<std::uint64_t>(out, agg.end);
    appendPod<double>(out, agg.demandMhz);
    appendPod<double>(out, agg.onEffectiveCapMhz);
    appendPod<double>(out, agg.cpuCapacityMhz);
    appendPod<std::int64_t>(out, agg.hostsOn);
    appendPod<std::int64_t>(out, agg.hostsAsleep);
    appendPod<std::int64_t>(out, agg.hostsTransitioning);
    appendPod<std::int64_t>(out, agg.emptyOn);
    out.push_back(agg.changed ? 1 : 0);
}

} // namespace

std::string
writeSpecJson(const ReplaySpec &spec)
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"" + std::string(kSpecSchema) + "\",\n";
    out += "  \"name\": \"" + telemetry::jsonEscape(spec.name) + "\",\n";
    out += "  \"trace_path\": \"" + telemetry::jsonEscape(spec.tracePath) +
           "\",\n";
    out += "  \"hosts\": " + std::to_string(spec.hosts) + ",\n";
    out += "  \"vms\": " + std::to_string(spec.vms) + ",\n";
    out += "  \"vm_cpu_mhz\": " + numToken(spec.vmCpuMhz) + ",\n";
    out += "  \"vm_memory_mb\": " + numToken(spec.vmMemoryMb) + ",\n";
    out += "  \"duration_hours\": " + numToken(spec.durationHours) + ",\n";
    out += "  \"eval_interval_s\": " + numToken(spec.evalIntervalS) + ",\n";
    out += "  \"manager_period_min\": " + numToken(spec.managerPeriodMin) +
           ",\n";
    out += "  \"policy\": \"" + telemetry::jsonEscape(spec.policy) + "\",\n";
    out += "  \"exit_latency_s\": " + numToken(spec.exitLatencyS) + ",\n";
    out += "  \"loaded_fraction\": " + numToken(spec.loadedFraction) + ",\n";
    out += std::string("  \"hierarchical\": ") +
           (spec.hierarchical ? "true" : "false") + ",\n";
    out += "  \"seed\": " + std::to_string(spec.seed) + ",\n";
    out += "  \"window_bytes\": " + std::to_string(spec.windowBytes) + ",\n";
    out += "  \"governor_period_s\": " + numToken(spec.governorPeriodS) +
           "\n";
    out += "}\n";
    return out;
}

bool
parseSpecJson(const std::string &text, ReplaySpec &out, std::string *error)
{
    telemetry::JsonValue doc;
    if (!telemetry::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        if (error != nullptr)
            *error = "replay spec: not a JSON object";
        return false;
    }
    if (telemetry::stringOr(doc.find("schema"), "") != kSpecSchema) {
        if (error != nullptr)
            *error = std::string("replay spec: schema is not \"") +
                     kSpecSchema + "\"";
        return false;
    }
    ReplaySpec spec;
    // Integer fields are range-checked before the cast: converting an
    // out-of-range double ("hosts": 1e300, "window_bytes": -1) to an
    // integer is undefined behaviour. The range is [lo, end).
    const auto integral = [&](const char *key, double fallback, double lo,
                              double end, double &value) {
        value = telemetry::numberOr(doc.find(key), fallback);
        if (value >= lo && value < end)
            return true;
        if (error != nullptr)
            *error = std::string("replay spec: ") + key + " out of range";
        return false;
    };
    constexpr double kIntLo = std::numeric_limits<int>::min();
    constexpr double kIntEnd = std::numeric_limits<int>::max() + 1.0;
    constexpr double kU64End = 0x1p64;
    double hosts = 0.0, vms = 0.0, seed = 0.0, window_bytes = 0.0;
    if (!integral("hosts", spec.hosts, kIntLo, kIntEnd, hosts) ||
        !integral("vms", spec.vms, kIntLo, kIntEnd, vms) ||
        !integral("seed", static_cast<double>(spec.seed), 0.0, kU64End,
                  seed) ||
        !integral("window_bytes", static_cast<double>(spec.windowBytes),
                  0.0, kU64End, window_bytes))
        return false;
    spec.hosts = static_cast<int>(hosts);
    spec.vms = static_cast<int>(vms);
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.windowBytes = static_cast<std::uint64_t>(window_bytes);
    spec.name = telemetry::stringOr(doc.find("name"), spec.name);
    spec.tracePath = telemetry::stringOr(doc.find("trace_path"), "");
    spec.vmCpuMhz = telemetry::numberOr(doc.find("vm_cpu_mhz"),
                                        spec.vmCpuMhz);
    spec.vmMemoryMb = telemetry::numberOr(doc.find("vm_memory_mb"),
                                          spec.vmMemoryMb);
    spec.durationHours = telemetry::numberOr(doc.find("duration_hours"),
                                             spec.durationHours);
    spec.evalIntervalS = telemetry::numberOr(doc.find("eval_interval_s"),
                                             spec.evalIntervalS);
    spec.managerPeriodMin = telemetry::numberOr(
        doc.find("manager_period_min"), spec.managerPeriodMin);
    spec.policy = telemetry::stringOr(doc.find("policy"), spec.policy);
    spec.exitLatencyS = telemetry::numberOr(doc.find("exit_latency_s"),
                                            spec.exitLatencyS);
    spec.loadedFraction = telemetry::numberOr(doc.find("loaded_fraction"),
                                              spec.loadedFraction);
    spec.hierarchical = telemetry::boolOr(doc.find("hierarchical"),
                                          spec.hierarchical);
    spec.governorPeriodS = telemetry::numberOr(
        doc.find("governor_period_s"), spec.governorPeriodS);
    if (!validateSpec(spec, error))
        return false;
    out = std::move(spec);
    return true;
}

ReplaySession::~ReplaySession() = default;

sim::SimTime
ReplaySession::now() const
{
    return simulator_.now();
}

sim::SimTime
ReplaySession::duration() const
{
    return sim::SimTime::hours(spec_.durationHours);
}

std::unique_ptr<ReplaySession>
ReplaySession::create(const ReplaySpec &spec, std::string *error)
{
    if (!validateSpec(spec, error))
        return nullptr;

    std::unique_ptr<ReplaySession> session(new ReplaySession);
    session->spec_ = spec;
    session->rng_ = sim::Rng(spec.seed);
    session->trace_ =
        TraceFile::open(spec.tracePath,
                        static_cast<std::size_t>(spec.windowBytes), error);
    if (!session->trace_)
        return nullptr;
    session->buildFleet(error);
    if (!session->cluster_)
        return nullptr;
    return session;
}

void
ReplaySession::buildFleet(std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "replay session: " + what;
        cluster_.reset();
    };

    const std::uint32_t trace_vms = trace_->info().vmCount;
    if (trace_vms == 0)
        return fail("trace has no VM series");
    const int vm_count =
        spec_.vms > 0 ? spec_.vms : static_cast<int>(trace_vms);

    mgmt::ScenarioConfig config;
    if (!buildPreset(spec_, spec_.policy, config, error)) {
        cluster_.reset();
        return;
    }
    config.powerSpec = spec_.exitLatencyS > 0.0
                           ? power::bladeWithSyntheticState(
                                 sim::SimTime::seconds(spec_.exitLatencyS))
                           : power::enterpriseBlade2013();
    config.datacenter.evaluationInterval =
        sim::SimTime::seconds(spec_.evalIntervalS);

    const int loaded_hosts = std::max(
        1, static_cast<int>(static_cast<double>(spec_.hosts) *
                            spec_.loadedFraction));
    const int worst_per_host =
        (vm_count + loaded_hosts - 1) / loaded_hosts;
    if (static_cast<double>(worst_per_host) * spec_.vmMemoryMb >
        config.hostConfig.memoryCapacityMb)
        return fail("fleet does not fit: " +
                    std::to_string(worst_per_host) + " VMs x " +
                    numToken(spec_.vmMemoryMb) + " MB exceeds host memory; "
                    "grow hosts or loaded_fraction");

    cluster_ = std::make_unique<dc::Cluster>(simulator_);
    for (int h = 0; h < spec_.hosts; ++h)
        cluster_->addHost(config.hostConfig, config.powerSpec);

    for (int v = 0; v < vm_count; ++v) {
        workload::VmWorkloadSpec vm_spec;
        vm_spec.name = "vm" + std::to_string(v);
        vm_spec.cpuMhz = spec_.vmCpuMhz;
        vm_spec.memoryMb = spec_.vmMemoryMb;
        vm_spec.trace = trace_->seriesTrace(
            static_cast<std::uint32_t>(v) % trace_vms);
        cluster_->addVm(std::move(vm_spec));
    }

    // Striped placement over the loaded prefix: deterministic, spreads
    // every trace phase across the loaded hosts, and leaves the tail
    // empty for the consolidation policy to park or sleep.
    for (int v = 0; v < vm_count; ++v)
        cluster_->placeVm(static_cast<dc::VmId>(v),
                          static_cast<dc::HostId>(v % loaded_hosts));

    // The governor ticks are scheduled here, ahead of the first
    // evaluation, which dcsim's start() schedules at the first runTo().
    rig_ = std::make_unique<mgmt::Rig>(simulator_, *cluster_, config);
    // The trace's span table advances with the evaluation clock; the
    // demand refresh reads it.
    rig_->dcsim().setDemandFeed(
        [trace = trace_](sim::SimTime now, std::string *feed_error) {
            return trace->feedTo(now, feed_error);
        });
    if (spec_.governorPeriodS > 0.0)
        rig_->startIdleGovernors(
            sim::SimTime::seconds(spec_.governorPeriodS));
}

bool
ReplaySession::runTo(sim::SimTime t)
{
    if (finished_)
        sim::fatal("ReplaySession::runTo after finish()");
    if (t < simulator_.now())
        sim::fatal("ReplaySession::runTo into the past");
    if (!started_) {
        rig_->dcsim().start();
        started_ = true;
    }
    if (error().empty())
        simulator_.runUntil(t);
    return error().empty();
}

const std::string &
ReplaySession::error() const
{
    return rig_->dcsim().feedError();
}

CheckpointData
ReplaySession::capture()
{
    CheckpointData ckpt;
    ckpt.specJson = writeSpecJson(spec_);
    ckpt.timeUs = simulator_.now().micros();
    ckpt.eventsProcessed = simulator_.eventsProcessed();

    // Section order is the format's producer contract (checkpoint.hpp):
    // fleet, tree, events, rng, policy, telemetry.
    std::vector<std::uint8_t> fleet;
    cluster_->fleet().appendSnapshot(fleet);
    ckpt.sections.emplace_back("fleet", std::move(fleet));

    std::vector<std::uint8_t> tree;
    const dc::FleetTree &fleet_tree = rig_->manager().fleetTree();
    if (fleet_tree.configured()) {
        appendPod<std::uint64_t>(tree, fleet_tree.racks().size());
        for (const dc::FleetAggregate &agg : fleet_tree.racks())
            putAggregate(tree, agg);
        appendPod<std::uint64_t>(tree, fleet_tree.pods().size());
        for (const dc::FleetAggregate &agg : fleet_tree.pods())
            putAggregate(tree, agg);
        putAggregate(tree, fleet_tree.root());
    }
    ckpt.sections.emplace_back("tree", std::move(tree));

    std::vector<std::uint8_t> events;
    {
        const auto pending = simulator_.pendingSnapshot();
        appendPod<std::uint64_t>(events, pending.size());
        for (const auto &event : pending) {
            appendPod<std::int64_t>(events, event.when.micros());
            appendPod<std::uint64_t>(events, event.seq);
            appendPod<std::uint64_t>(events, event.label.size());
            appendBytes(events, event.label.data(), event.label.size());
        }
        appendPod<std::int64_t>(events, simulator_.now().micros());
        appendPod<std::uint64_t>(events, simulator_.eventsProcessed());
    }
    ckpt.sections.emplace_back("events", std::move(events));

    std::vector<std::uint8_t> rng;
    for (const std::uint64_t word : rng_.state())
        appendPod<std::uint64_t>(rng, word);
    rng.push_back(rng_.hasSpareNormal() ? 1 : 0);
    appendPod<double>(rng, rng_.spareNormal());
    ckpt.sections.emplace_back("rng", std::move(rng));

    std::vector<std::uint8_t> policy;
    {
        std::vector<std::uint8_t> manager_state;
        rig_->manager().serializeState(manager_state);
        appendPod<std::uint64_t>(policy, manager_state.size());
        appendBytes(policy, manager_state.data(), manager_state.size());
        const mgmt::JointPolicyController *joint = rig_->joint();
        policy.push_back(joint != nullptr ? 1 : 0);
        if (joint != nullptr) {
            std::vector<std::uint8_t> joint_state;
            joint->serializeState(joint_state);
            appendPod<std::uint64_t>(policy, joint_state.size());
            appendBytes(policy, joint_state.data(), joint_state.size());
        }
    }
    ckpt.sections.emplace_back("policy", std::move(policy));

    std::vector<std::uint8_t> telem;
    {
        const telemetry::Telemetry &global = telemetry::global();
        telem.push_back(global.enabled() ? 1 : 0);
        appendPod<std::uint64_t>(telem, global.journal().size());
        appendPod<std::uint64_t>(telem, global.journal().recorded());
        appendPod<std::uint64_t>(telem, global.journal().labelCount());
        appendPod<std::uint64_t>(telem, global.timeseries().seriesCount());
        appendPod<std::uint64_t>(telem, global.timeseries().memoryBytes());
    }
    ckpt.sections.emplace_back("telemetry", std::move(telem));
    return ckpt;
}

std::uint64_t
ReplaySession::stateDigest()
{
    const CheckpointData ckpt = capture();
    std::uint64_t h = fnv1a(nullptr, 0);
    const auto fold = [&h](const void *data, std::size_t n) {
        h = fnv1a(static_cast<const std::uint8_t *>(data), n, h);
    };
    fold(&ckpt.timeUs, sizeof(ckpt.timeUs));
    fold(&ckpt.eventsProcessed, sizeof(ckpt.eventsProcessed));
    for (const auto &[name, bytes] : ckpt.sections) {
        fold(name.data(), name.size());
        fold(bytes.data(), bytes.size());
    }
    return h;
}

bool
ReplaySession::applyVariant(const std::string &policy, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "applyVariant: " + what;
        return false;
    };
    if (finished_)
        return fail("session already finished");
    if (spec_.policy != "joint")
        return fail("branching requires the 'joint' base preset (got '" +
                    spec_.policy + "')");
    if (policy == "hier")
        return fail("'hier' differs structurally (no balancing) and is "
                    "not reachable from a running 'joint' session");

    mgmt::ScenarioConfig target;
    if (!buildPreset(spec_, policy, target, error))
        return false;

    rig_->manager().applyPolicyDelta(target.manager);

    bool reset_freq = false;
    if (policy == "cstates") {
        // Keep the idle half of the governor, drop the speed half.
        rig_->joint()->setControlSpeed(false);
        reset_freq = true;
    } else if (policy == "s3" || policy == "nopm") {
        // No C-state management in the variant: the governor goes
        // passive (still counting cycles so the evaluation cadence stays
        // identical) and already-descended hierarchies wake.
        rig_->joint()->setActive(false);
        reset_freq = true;
        for (const auto &host_ptr : cluster_->hosts()) {
            power::IdleHierarchy *hier = host_ptr->idleHierarchy();
            if (hier != nullptr && host_ptr->isOn())
                hier->wakeAll();
        }
    }

    if (reset_freq) {
        bool changed = false;
        for (const auto &host_ptr : cluster_->hosts()) {
            if (host_ptr->frequencyFraction() != 1.0) {
                host_ptr->setFrequencyFraction(1.0);
                changed = true;
            }
        }
        if (changed)
            rig_->dcsim().reallocate();
    }
    return true;
}

mgmt::ScenarioResult
ReplaySession::finish()
{
    if (finished_)
        sim::fatal("ReplaySession::finish called twice");
    runTo(duration());
    finished_ = true;
    return rig_->collect();
}

std::unique_ptr<ReplaySession>
restoreCheckpoint(const CheckpointData &ckpt, bool verify,
                  std::string *error)
{
    ReplaySpec spec;
    if (!parseSpecJson(ckpt.specJson, spec, error))
        return nullptr;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(spec, error);
    if (!session)
        return nullptr;
    if (!session->runTo(sim::SimTime::micros(ckpt.timeUs))) {
        if (error != nullptr)
            *error = session->error();
        return nullptr;
    }
    if (!verify)
        return session;

    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "checkpoint verification failed: " + what;
        return nullptr;
    };
    const CheckpointData again = session->capture();
    if (again.eventsProcessed != ckpt.eventsProcessed)
        return fail("events processed: checkpoint " +
                    std::to_string(ckpt.eventsProcessed) +
                    ", re-execution " +
                    std::to_string(again.eventsProcessed));
    if (again.sections.size() != ckpt.sections.size())
        return fail("section count differs");
    for (std::size_t s = 0; s < ckpt.sections.size(); ++s) {
        const auto &[want_name, want] = ckpt.sections[s];
        const auto &[got_name, got] = again.sections[s];
        if (want_name != got_name)
            return fail("section order: expected '" + want_name +
                        "', re-execution produced '" + got_name + "'");
        if (want.size() != got.size())
            return fail("section '" + want_name + "': size " +
                        std::to_string(want.size()) + " vs " +
                        std::to_string(got.size()));
        for (std::size_t i = 0; i < want.size(); ++i) {
            if (want[i] != got[i])
                return fail("section '" + want_name +
                            "' diverges at byte " + std::to_string(i));
        }
    }
    return session;
}

namespace {

/** Branch skeleton: the sweep's axis layout, one seed, one repeat. */
telemetry::SweepCell
branchSkeleton(const sweep::CellSpec &spec, const ReplaySpec &base)
{
    telemetry::SweepCell cell;
    cell.id = spec.id;
    cell.index = spec.index;
    cell.axes = sweep::cellAxes(spec);
    cell.seeds = {base.seed};
    cell.repeats = 1;
    return cell;
}

void
addSingleSample(telemetry::SweepCell &cell, const std::string &name,
                double value)
{
    telemetry::CellMetric metric;
    metric.name = name;
    metric.ci = stats::confidenceInterval({value});
    cell.metrics.push_back(std::move(metric));
}

} // namespace

bool
runBranches(const CheckpointData &ckpt,
            const sweep::SweepManifest &manifest,
            const std::vector<sweep::CellSpec> &cells,
            const BranchOptions &options, telemetry::SweepMatrix &out,
            std::ostream &log, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "branch: " + what;
        return false;
    };

    ReplaySpec spec;
    if (!parseSpecJson(ckpt.specJson, spec, error))
        return false;
    if (spec.policy != "joint")
        return fail("checkpoint was taken with policy '" + spec.policy +
                    "'; branching needs a 'joint' base");

    // The policy axis is the branch dimension; every other axis is fleet
    // geometry, which a mid-run fork cannot change — require singletons
    // matching the checkpoint's spec.
    if (manifest.workloads.size() != 1)
        return fail("the workload axis must be a singleton (the trace IS "
                    "the workload)");
    if (manifest.exitLatenciesS.size() != 1 ||
        manifest.exitLatenciesS[0] != spec.exitLatencyS)
        return fail("exit_latency_s must be exactly [" +
                    numToken(spec.exitLatencyS) +
                    "] (the checkpoint's blade)");
    if (manifest.loadScales.size() != 1)
        return fail("load_scale must be a singleton (demand comes from "
                    "the trace)");
    if (manifest.hostCounts.size() != 1 ||
        manifest.hostCounts[0] != spec.hosts)
        return fail("hosts must be exactly [" + std::to_string(spec.hosts) +
                    "] (the checkpoint's fleet)");
    int resolved_vms = spec.vms;
    if (resolved_vms == 0) {
        std::shared_ptr<TraceFile> trace = TraceFile::open(
            spec.tracePath, 1u << 20, error);
        if (!trace)
            return false;
        resolved_vms = static_cast<int>(trace->info().vmCount);
    }
    if (manifest.vmCounts.size() != 1 ||
        manifest.vmCounts[0] != resolved_vms)
        return fail("vms must be exactly [" + std::to_string(resolved_vms) +
                    "] (the checkpoint's fleet)");
    if (manifest.durationHours != spec.durationHours)
        return fail("duration_hours must equal the spec's " +
                    numToken(spec.durationHours) +
                    " (branches race to the same finish line)");
    for (const sweep::CellSpec &cell_spec : cells) {
        if (cell_spec.policy == "hier")
            return fail("policy 'hier' is not branchable from 'joint'");
    }

    if (options.verify) {
        std::unique_ptr<ReplaySession> probe =
            restoreCheckpoint(ckpt, true, error);
        if (!probe)
            return false;
        log << "[branch] checkpoint verified at t=" << ckpt.timeUs
            << " us (" << ckpt.eventsProcessed << " events)\n";
    }

    // Branch workers own whole sessions; each simulation must be
    // single-threaded (same contract as runSweep).
    sim::setGlobalThreads(1);

    out.name = manifest.name;
    out.threads = options.threads;
    out.exec = "branch";
    out.cells.assign(cells.size(), telemetry::SweepCell{});

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::mutex log_mutex;
    const std::string manifest_hash = sweep::manifestContentHash(manifest);

    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;
            const sweep::CellSpec &cell_spec = cells[i];
            telemetry::SweepCell cell = branchSkeleton(cell_spec, spec);
            cell.manifestHash = manifest_hash;

            const auto t0 = std::chrono::steady_clock::now();
            std::string cell_error;
            std::unique_ptr<ReplaySession> session =
                ReplaySession::create(spec, &cell_error);
            bool ok = session != nullptr;
            if (ok) {
                ok = session->runTo(sim::SimTime::micros(ckpt.timeUs));
                if (!ok)
                    cell_error = session->error();
                else if (cell_spec.policy != "joint")
                    ok = session->applyVariant(cell_spec.policy,
                                               &cell_error);
            }
            mgmt::ScenarioResult result;
            if (ok) {
                result = session->finish();
                ok = session->error().empty();
                if (!ok)
                    cell_error = session->error();
            }
            if (ok) {
                const auto t1 = std::chrono::steady_clock::now();
                const double ms =
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count();
                addSingleSample(cell, "energy_j",
                                result.metrics.energyKwh * 3.6e6);
                addSingleSample(cell, "sla_violation_pct",
                                result.metrics.violationFraction * 100.0);
                addSingleSample(cell, "wake_p99_s", result.wakeP99Seconds);
                addSingleSample(cell, "wall_ms", ms);
                addSingleSample(
                    cell, "events_per_sec",
                    ms > 0.0 ? static_cast<double>(result.eventsProcessed) /
                                   (ms / 1000.0)
                             : 0.0);
                cell.status = telemetry::CellStatus::Ok;
            } else {
                cell.status = telemetry::CellStatus::Failed;
                cell.error = cell_error;
            }

            const std::size_t finished =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            {
                const std::lock_guard<std::mutex> guard(log_mutex);
                log << "[branch] " << finished << "/" << cells.size()
                    << " " << cell_spec.id << " -> "
                    << telemetry::toString(cell.status)
                    << (cell.error.empty() ? "" : ": " + cell.error)
                    << "\n";
            }
            out.cells[cell_spec.index] = std::move(cell);
        }
    };

    const int workers = std::max(1, options.threads);
    if (workers == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return true;
}

} // namespace vpm::replay
