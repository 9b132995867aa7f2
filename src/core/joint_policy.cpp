#include "core/joint_policy.hpp"

#include <algorithm>
#include <cmath>

#include "power/breakeven.hpp"
#include "power/idle_hierarchy.hpp"
#include "simcore/byte_append.hpp"
#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::mgmt {

JointPolicyController::JointPolicyController(dc::Cluster &cluster,
                                             dc::DatacenterSim &dcsim,
                                             const JointPolicyConfig &config)
    : cluster_(cluster), dcsim_(dcsim), config_(config)
{
    if (config_.controlSpeed) {
        if (config_.speedLevels.empty())
            sim::fatal("JointPolicyController: no speed levels");
        for (std::size_t i = 0; i < config_.speedLevels.size(); ++i) {
            const double f = config_.speedLevels[i];
            if (f <= 0.0 || f > 1.0)
                sim::fatal("JointPolicyController: level %g outside (0, 1]",
                           f);
            if (i > 0 && f <= config_.speedLevels[i - 1])
                sim::fatal("JointPolicyController: levels must be "
                           "ascending");
        }
        if (config_.speedLevels.back() != 1.0)
            sim::fatal("JointPolicyController: highest level must be 1.0 "
                       "(nominal)");
    }
    if (config_.targetUtilization <= 0.0 ||
        config_.targetUtilization > 1.0) {
        sim::fatal("JointPolicyController: target utilization %g outside "
                   "(0, 1]", config_.targetUtilization);
    }
    if (config_.period <= sim::SimTime())
        sim::fatal("JointPolicyController: period must be positive");
    if (config_.period.micros() %
            dcsim_.config().evaluationInterval.micros() != 0) {
        sim::fatal("JointPolicyController: period must be a multiple of "
                   "the evaluation interval");
    }
    if (config_.latencyBound < sim::SimTime())
        sim::fatal("JointPolicyController: negative latency bound");
    if (config_.idleEwmaAlpha <= 0.0 || config_.idleEwmaAlpha > 1.0)
        sim::fatal("JointPolicyController: EWMA alpha %g outside (0, 1]",
                   config_.idleEwmaAlpha);
    if (config_.speedWindowCycles < 1)
        sim::fatal("JointPolicyController: speed window %d wants >= 1",
                   config_.speedWindowCycles);
    if (config_.speedSurgeGuard < 1.0)
        sim::fatal("JointPolicyController: surge guard %g wants >= 1",
                   config_.speedSurgeGuard);
    if (!config_.controlSpeed && !config_.controlIdle)
        sim::fatal("JointPolicyController: both knobs disabled");

    rhoEwma_.assign(cluster_.hosts().size(), -1.0);
    demandWindow_.assign(cluster_.hosts().size(), {});
}

void
JointPolicyController::start()
{
    if (started_)
        sim::panic("JointPolicyController::start called twice");
    started_ = true;
    evaluationsPerCycle_ = static_cast<std::uint64_t>(
        config_.period.micros() /
        dcsim_.config().evaluationInterval.micros());

    dcsim_.addEvaluationHook([this] {
        ++evaluationsSeen_;
        if ((evaluationsSeen_ - 1) % evaluationsPerCycle_ == 0)
            controlCycle();
    });
}

const JointPolicyController::Ladder &
JointPolicyController::ladderFor(const power::IdleHierarchySpec &spec)
{
    for (const Ladder &ladder : ladders_) {
        if (ladder.spec == &spec)
            return ladder;
    }
    // Each level amortizes against its own baseline draw.
    const double bound_s = config_.latencyBound.toSeconds();
    const auto rungs = [bound_s](double baseline_watts,
                                 const std::vector<power::IdleStateSpec> &
                                     states) {
        std::vector<double> out;
        for (const power::IdleStateSpec &state : states) {
            if (state.exitLatency.toSeconds() > bound_s)
                break;
            const std::optional<double> be = power::breakEvenSecondsFor(
                baseline_watts, state.powerWatts,
                state.roundTripEnergyJoules(),
                state.roundTripLatency().toSeconds());
            if (!be)
                break;
            out.push_back(*be);
        }
        return out;
    };
    Ladder ladder;
    ladder.spec = &spec;
    ladder.core = rungs(spec.corePowerC0Watts, spec.coreStates);
    ladder.package = rungs(spec.uncorePowerC0Watts, spec.packageStates);
    ladders_.push_back(std::move(ladder));
    return ladders_.back();
}

void
JointPolicyController::controlCycle()
{
    PROF_ZONE("mgmt.joint_cycle");
    ++cycles_;
    if (!active_)
        return;
    if (rhoEwma_.size() < cluster_.hosts().size()) {
        rhoEwma_.resize(cluster_.hosts().size(), -1.0);
        demandWindow_.resize(cluster_.hosts().size());
    }

    const double period_s = config_.period.toSeconds();
    bool any_speed_change = false;

    for (const auto &host_ptr : cluster_.hosts()) {
        dc::Host &host = *host_ptr;
        if (!host.isOn()) {
            // Forget the pre-sleep demand history: the fleet the host
            // rejoins with after a wake has nothing to do with the one
            // it was drained of.
            demandWindow_[static_cast<std::size_t>(host.id())].clear();
            continue;
        }

        const double demand =
            host.vmDemandMhz() + host.migrationOverheadMhz();

        // Speed first: the idle prediction below is made at the chosen
        // operating point, because slowing down shrinks the idle share.
        if (config_.controlSpeed) {
            // Size the frequency for the window's peak, so a recurring
            // demand step lands on a level that can already serve it.
            std::vector<double> &window =
                demandWindow_[static_cast<std::size_t>(host.id())];
            if (demand <= 0.0) {
                // An empty (drained or parked) host holds nominal: slow
                // idle cores cost nothing extra — the hierarchy owns
                // idle power — and placement must be able to load the
                // host at full capacity the moment it is reclaimed.
                window.clear();
            } else {
                window.push_back(demand);
                if (static_cast<int>(window.size()) >
                    config_.speedWindowCycles) {
                    window.erase(window.begin());
                }
            }
            // Downshifting needs a full window of evidence — a host
            // fresh out of a wake or park (empty history) stays at
            // nominal until the window fills, because placement is
            // about to load it.
            double chosen = config_.speedLevels.back();
            if (static_cast<int>(window.size()) >=
                config_.speedWindowCycles) {
                const double peak =
                    *std::max_element(window.begin(), window.end());
                for (const double f : config_.speedLevels) {
                    if (peak <= config_.targetUtilization *
                                    host.cpuCapacityMhz() * f &&
                        config_.speedSurgeGuard * peak <=
                            host.cpuCapacityMhz() * f) {
                        chosen = f;
                        break;
                    }
                }
            }
            if (host.frequencyFraction() != chosen) {
                host.setFrequencyFraction(chosen);
                ++speedTransitions_;
                any_speed_change = true;
            }
        }

        power::IdleHierarchy *hier = host.idleHierarchy();
        if (hier == nullptr || !config_.controlIdle || !hier->active())
            continue;
        const power::IdleHierarchySpec &spec = hier->spec();

        // Predicted idle interval: EWMA the utilization at the chosen
        // frequency, then take the un-utilized share of the period as the
        // expected per-core idle interval (SleepScale's estimator reduced
        // to its first moment).
        const double capacity = host.effectiveCpuCapacityMhz();
        const double rho = std::clamp(
            capacity > 0.0 ? demand / capacity : 1.0, 0.0, 1.0);
        double &ewma = rhoEwma_[static_cast<std::size_t>(host.id())];
        ewma = ewma < 0.0
                   ? rho
                   : config_.idleEwmaAlpha * rho +
                         (1.0 - config_.idleEwmaAlpha) * ewma;
        const double expected_idle_s = period_s * (1.0 - ewma);

        // Provision busy cores from demand with the same headroom rule as
        // the speed choice; the remainder are sleepable.
        const double per_core_mhz =
            capacity / static_cast<double>(spec.coreCount);
        int busy = spec.coreCount;
        if (demand <= 0.0) {
            busy = 0;
        } else if (per_core_mhz > 0.0) {
            busy = static_cast<int>(std::ceil(
                demand / (config_.targetUtilization * per_core_mhz)));
        }
        busy = std::clamp(busy, 0, spec.coreCount);

        // Deepest state per level whose break-even fits the prediction
        // and whose exit respects the latency bound.
        const Ladder &ladder = ladderFor(spec);
        int core_depth = 0;
        for (const double be : ladder.core) {
            if (be > expected_idle_s)
                break;
            ++core_depth;
        }
        int pkg_depth = 0;
        for (const double be : ladder.package) {
            if (be > expected_idle_s)
                break;
            ++pkg_depth;
        }

        // Only cycles that move a level mint a decision id, so the trace
        // attributes exactly the idle_transition records this cycle
        // caused and quiet cycles stay free.
        if (hier->wouldChange(busy, core_depth, pkg_depth)) {
            const std::uint64_t before = hier->transitions();
            const std::uint64_t decision = telemetry::newDecisionId();
            telemetry::TraceScope scope(decision);
            hier->setBusyCores(busy);
            hier->requestDepth(core_depth, pkg_depth);
            idleTransitions_ += hier->transitions() - before;
        }
    }

    // Frequencies moved: grants and power draws must follow.
    if (any_speed_change)
        dcsim_.reallocate();
}

void
JointPolicyController::serializeState(std::vector<std::uint8_t> &out) const
{
    using sim::appendBytes;
    using sim::appendPod;
    appendPod<std::uint64_t>(out, active_ ? 1 : 0);
    appendPod<std::uint64_t>(out, config_.controlSpeed ? 1 : 0);
    appendPod<std::uint64_t>(out, evaluationsSeen_);
    appendPod<std::uint64_t>(out, speedTransitions_);
    appendPod<std::uint64_t>(out, idleTransitions_);
    appendPod<std::uint64_t>(out, cycles_);
    appendPod<std::uint64_t>(out, rhoEwma_.size());
    appendBytes(out, rhoEwma_.data(), rhoEwma_.size() * sizeof(double));
    appendPod<std::uint64_t>(out, demandWindow_.size());
    for (const std::vector<double> &window : demandWindow_) {
        appendPod<std::uint64_t>(out, window.size());
        appendBytes(out, window.data(), window.size() * sizeof(double));
    }
}

} // namespace vpm::mgmt
