/**
 * @file
 * Per-host power-state machine.
 *
 * Models the firmware behaviour the paper's prototype exposes to the
 * management plane: a host is either On (serving VMs), in a sleep state, or
 * mid-transition. Transitions take real time and cannot be aborted — a wake
 * request that arrives while the host is still suspending is latched and
 * honoured the moment entry completes (this is exactly the race the paper's
 * low-latency states make cheap and traditional states make painful).
 */

#ifndef VPM_POWER_POWER_STATE_MACHINE_HPP
#define VPM_POWER_POWER_STATE_MACHINE_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "power/power_state.hpp"
#include "simcore/random.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::power {

/** Coarse phase of the host power FSM. */
enum class PowerPhase
{
    On,       ///< active (S0); the only phase in which VMs can run
    Entering, ///< transitioning into a sleep state; unavailable
    Asleep,   ///< parked in a sleep state; unavailable
    Exiting,  ///< resuming/booting; unavailable
};

/** Human-readable phase name, for logs and tables. */
const char *toString(PowerPhase phase);

/**
 * The power FSM of a single host.
 *
 * Drives itself with events on the owning Simulator. Observers (the Host
 * model, stats collectors) subscribe to phase changes; the machine exposes
 * the instantaneous power draw so an EnergyMeter fed from the observer
 * integrates exactly.
 */
class PowerStateMachine
{
  public:
    /**
     * Notification of a phase change, fired at the simulated time of the
     * change after the machine's state has been updated.
     */
    using PhaseObserver = std::function<void(PowerPhase from, PowerPhase to)>;

    /**
     * @param simulator Owning event loop; must outlive the machine.
     * @param spec Power specification; must outlive the machine.
     */
    PowerStateMachine(sim::Simulator &simulator, const HostPowerSpec &spec);

    PowerStateMachine(const PowerStateMachine &) = delete;
    PowerStateMachine &operator=(const PowerStateMachine &) = delete;

    /** @name Inspection */
    ///@{
    PowerPhase phase() const { return phase_; }

    /** true iff the host is On (can run VMs right now). */
    bool isOn() const { return phase_ == PowerPhase::On; }

    /**
     * The sleep state the host is in / entering / exiting; nullptr when On.
     */
    const SleepStateSpec *sleepState() const { return state_; }

    /** true if a wake was requested while the machine was still entering. */
    bool wakePending() const { return wakePending_; }

    /**
     * Time until the host becomes On again, assuming a wake request now.
     * Zero when On. When Entering, includes the remaining entry time.
     */
    sim::SimTime timeToAvailable() const;

    /**
     * Instantaneous power draw, in watts.
     * @param utilization CPU utilization in [0, 1]; only used when On.
     */
    double powerWatts(double utilization) const;

    const HostPowerSpec &spec() const { return spec_; }
    ///@}

    /** @name Commands */
    ///@{
    /**
     * Begin entering the named sleep state.
     *
     * Only legal when On (the manager must have evacuated the host first).
     * @return false if the host is not On or the state is unknown; the
     *         request is then ignored.
     */
    bool requestSleep(const std::string &state_name);

    /**
     * Request that the host come back On.
     *
     * Legal when Asleep (starts the exit transition) or Entering (latches a
     * pending wake that fires when entry completes).
     * @return false if the host is already On or Exiting, or while wakes
     *         are inhibited (hardware down for repair).
     */
    bool requestWake();

    /**
     * Hard power loss (crash, PSU failure, pulled cord): the machine drops
     * immediately into the named sleep state from ANY phase — no entry
     * transition, no entry energy. Any in-flight transition is abandoned.
     * Exiting later still pays the state's full exit latency (reboot).
     */
    void forceOff(const std::string &state_name);

    /**
     * Inhibit or re-allow wakes. While inhibited, requestWake() is refused
     * — models hardware that is physically down for repair so management
     * retries cannot revive it early.
     */
    void setWakeInhibited(bool inhibited) { wakeInhibited_ = inhibited; }

    bool wakeInhibited() const { return wakeInhibited_; }
    ///@}

    /** @name Failure injection */
    ///@{
    /**
     * Make each wake attempt fail with the given probability; a failed
     * attempt costs a full exit latency, after which the machine retries
     * automatically. Used by resilience tests and the failure-injection
     * benches. Pass probability 0 to disable.
     */
    void setWakeFailure(double probability, sim::Rng *rng);
    ///@}

    /** @name Lifetime statistics */
    ///@{
    std::uint64_t sleepCount() const { return sleepCount_; }
    std::uint64_t wakeCount() const { return wakeCount_; }
    std::uint64_t wakeRetryCount() const { return wakeRetryCount_; }

    /** Cumulative time spent in the given phase so far. */
    sim::SimTime timeInPhase(PowerPhase phase) const;

    /**
     * End-to-end latency of every completed wake, in seconds, in
     * completion order: requestWake() (including wakes latched while the
     * machine was still Entering, which pay the remaining entry time) to
     * the return to On, retries included. The sweep orchestrator's wake
     * p99 aggregates these across the fleet; one double per wake, and
     * wakes are management-rate events, so the memory cost is trivial.
     */
    const std::vector<double> &wakeLatenciesSeconds() const
    {
        return wakeLatenciesSeconds_;
    }
    ///@}

    /** Subscribe to phase changes. Observers are invoked in order added. */
    void addObserver(PhaseObserver observer);

    /** @name Telemetry */
    ///@{
    /**
     * Identify this machine's timeline in the global telemetry journal
     * (normally the owning host's id and name; the testbed allocates
     * synthetic tracks). Also registers the track's display name. Without
     * a track set, transitions are journaled under track -1.
     */
    void setTelemetryTrack(std::int32_t track, std::string_view name);

    /** Set the track alone, for an owner that names it in the journal
     *  itself (a cluster names its hosts' tracks lazily). */
    void setTelemetryTrack(std::int32_t track) { telemetryTrack_ = track; }

    std::int32_t telemetryTrack() const { return telemetryTrack_; }
    ///@}

  private:
    void setPhase(PowerPhase next);
    void onEntryComplete();
    void onExitComplete();
    void beginExit();

    sim::Simulator &simulator_;
    const HostPowerSpec &spec_;

    PowerPhase phase_ = PowerPhase::On;
    const SleepStateSpec *state_ = nullptr;
    bool wakePending_ = false;
    /** Cause of a latched wake, captured at requestWake() and reinstalled
     *  when entry completes — the exit must be attributed to the wake
     *  decision, not to the sleep decision whose entry event runs it. */
    telemetry::TraceContext wakeContext_;
    bool wakeInhibited_ = false;
    sim::EventId transitionEvent_ = sim::invalidEventId;
    sim::SimTime transitionEnd_;

    double wakeFailureProb_ = 0.0;
    sim::Rng *failureRng_ = nullptr;

    std::uint64_t sleepCount_ = 0;
    std::uint64_t wakeCount_ = 0;
    std::uint64_t wakeRetryCount_ = 0;

    /** When the in-flight wake was requested (latch time for wakes that
     *  arrive mid-entry); meaningful while a wake is pending/exiting. */
    sim::SimTime wakeRequestedAt_;
    std::vector<double> wakeLatenciesSeconds_;

    sim::SimTime phaseEnteredAt_;
    std::array<sim::SimTime, 4> timeInPhase_{}; ///< indexed by PowerPhase
    std::int32_t telemetryTrack_ = -1;

    std::vector<PhaseObserver> observers_;
};

} // namespace vpm::power

#endif // VPM_POWER_POWER_STATE_MACHINE_HPP
