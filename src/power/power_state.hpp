/**
 * @file
 * Descriptors for server power states and whole-host power specifications.
 *
 * This is the substitution for the paper's real hardware: every decision the
 * management layer makes depends only on (power draw per state, transition
 * latency, transition energy), and those are exactly the quantities captured
 * here. Default parameter sets calibrated to the magnitudes the paper
 * reports for 2013-era enterprise blades live in server_models.hpp.
 */

#ifndef VPM_POWER_POWER_STATE_HPP
#define VPM_POWER_POWER_STATE_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "power/power_curve.hpp"
#include "simcore/sim_time.hpp"

namespace vpm::power {

/**
 * A sleep (low-power) state a host can be put into, ACPI-style.
 *
 * Entry and exit are modelled as fixed-latency phases during which the host
 * is unavailable and draws a fixed average power. This matches how the paper
 * characterizes its prototype: a suspend ramp, a flat sleeping floor, and a
 * resume ramp.
 */
struct SleepStateSpec
{
    /** Short name, e.g. "S3" or "S5". Unique within a HostPowerSpec. */
    std::string name;

    /** Power draw while asleep, in watts (e.g. ~12 W for suspend-to-RAM). */
    double sleepPowerWatts = 0.0;

    /** Time to enter the state; the host is unavailable throughout. */
    sim::SimTime entryLatency;

    /** Time to exit the state (resume/boot); unavailable throughout. */
    sim::SimTime exitLatency;

    /** Average power draw during entry, in watts. */
    double entryPowerWatts = 0.0;

    /** Average power draw during exit, in watts. */
    double exitPowerWatts = 0.0;

    /** Total energy consumed by one entry transition, in joules. */
    double
    entryEnergyJoules() const
    {
        return entryPowerWatts * entryLatency.toSeconds();
    }

    /** Total energy consumed by one exit transition, in joules. */
    double
    exitEnergyJoules() const
    {
        return exitPowerWatts * exitLatency.toSeconds();
    }

    /** Round-trip (enter + exit) transition time. */
    sim::SimTime
    roundTripLatency() const
    {
        return entryLatency + exitLatency;
    }

    /** Round-trip transition energy, in joules. */
    double
    roundTripEnergyJoules() const
    {
        return entryEnergyJoules() + exitEnergyJoules();
    }
};

/**
 * Full power specification of a host model: the active-power curve plus the
 * catalog of sleep states the platform supports.
 */
class HostPowerSpec
{
  public:
    /**
     * @param model Human-readable model name (shows up in reports).
     * @param curve Active (S0) utilization-to-power curve; must be non-null.
     * @param sleep_states Supported sleep states; names must be unique.
     */
    HostPowerSpec(std::string model, std::shared_ptr<const PowerCurve> curve,
                  std::vector<SleepStateSpec> sleep_states);

    const std::string &model() const { return model_; }

    /** Active power at the given utilization in [0, 1], in watts. */
    double
    activePowerWatts(double utilization) const
    {
        return curve_->powerAt(utilization);
    }

    /** Active power at zero utilization (S0 idle floor), in watts. */
    double idlePowerWatts() const { return curve_->powerAt(0.0); }

    /** Active power at full utilization, in watts. */
    double peakPowerWatts() const { return curve_->powerAt(1.0); }

    /** The underlying curve (for plotting / characterization benches). */
    const PowerCurve &curve() const { return *curve_; }

    /** All supported sleep states, in the order given at construction. */
    const std::vector<SleepStateSpec> &sleepStates() const { return states_; }

    /**
     * Look up a sleep state by name.
     * @return nullptr if the platform does not support the state.
     */
    const SleepStateSpec *findSleepState(const std::string &name) const;

    /**
     * The deepest state (lowest sleep power) whose exit latency does not
     * exceed the given bound.
     * @return nullptr if no state qualifies.
     */
    const SleepStateSpec *
    deepestStateWithin(sim::SimTime max_exit_latency) const;

    /**
     * Same model name, the same curve object and every sleep state equal
     * bit for bit: two such specs give every host the same draws and
     * latencies, so a cluster keeps one copy of them.
     */
    bool sameAs(const HostPowerSpec &other) const;

  private:
    std::string model_;
    std::shared_ptr<const PowerCurve> curve_;
    std::vector<SleepStateSpec> states_;
};

} // namespace vpm::power

#endif // VPM_POWER_POWER_STATE_HPP
