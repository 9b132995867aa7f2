#include "power/power_state_machine.hpp"

#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::power {

const char *
toString(PowerPhase phase)
{
    switch (phase) {
      case PowerPhase::On:
        return "On";
      case PowerPhase::Entering:
        return "Entering";
      case PowerPhase::Asleep:
        return "Asleep";
      case PowerPhase::Exiting:
        return "Exiting";
    }
    sim::panic("toString: invalid PowerPhase %d", static_cast<int>(phase));
}

PowerStateMachine::PowerStateMachine(sim::Simulator &simulator,
                                     const HostPowerSpec &spec)
    : simulator_(simulator), spec_(spec),
      phaseEnteredAt_(simulator.now())
{
    // A cluster host gets three observers: its own, its idle hierarchy's
    // and the datacenter sim's. One block up front, not three regrowths.
    observers_.reserve(3);
}

sim::SimTime
PowerStateMachine::timeToAvailable() const
{
    switch (phase_) {
      case PowerPhase::On:
        return sim::SimTime();
      case PowerPhase::Exiting:
        return transitionEnd_ - simulator_.now();
      case PowerPhase::Asleep:
        return state_->exitLatency;
      case PowerPhase::Entering:
        return (transitionEnd_ - simulator_.now()) + state_->exitLatency;
    }
    sim::panic("timeToAvailable: invalid phase");
}

double
PowerStateMachine::powerWatts(double utilization) const
{
    switch (phase_) {
      case PowerPhase::On:
        return spec_.activePowerWatts(utilization);
      case PowerPhase::Entering:
        return state_->entryPowerWatts;
      case PowerPhase::Asleep:
        return state_->sleepPowerWatts;
      case PowerPhase::Exiting:
        return state_->exitPowerWatts;
    }
    sim::panic("powerWatts: invalid phase");
}

bool
PowerStateMachine::requestSleep(const std::string &state_name)
{
    if (phase_ != PowerPhase::On) {
        sim::warn("requestSleep('%s') ignored: host is %s",
                  state_name.c_str(), toString(phase_));
        return false;
    }
    const SleepStateSpec *state = spec_.findSleepState(state_name);
    if (!state) {
        sim::warn("requestSleep: host model '%s' has no state '%s'",
                  spec_.model().c_str(), state_name.c_str());
        return false;
    }

    state_ = state;
    wakePending_ = false;
    ++sleepCount_;
    setPhase(PowerPhase::Entering);
    transitionEnd_ = simulator_.now() + state->entryLatency;
    transitionEvent_ = simulator_.scheduleAt(
        transitionEnd_, [this] { onEntryComplete(); }, "psm.entry");
    return true;
}

bool
PowerStateMachine::requestWake()
{
    if (wakeInhibited_) {
        sim::debug("requestWake refused: wakes inhibited (host down)");
        return false;
    }
    switch (phase_) {
      case PowerPhase::On:
      case PowerPhase::Exiting:
        return false;
      case PowerPhase::Entering:
        // Cannot abort a firmware transition; latch the wake instead.
        wakePending_ = true;
        wakeContext_ = telemetry::currentContext();
        wakeRequestedAt_ = simulator_.now();
        return true;
      case PowerPhase::Asleep:
        wakeRequestedAt_ = simulator_.now();
        beginExit();
        return true;
    }
    sim::panic("requestWake: invalid phase");
}

void
PowerStateMachine::forceOff(const std::string &state_name)
{
    const SleepStateSpec *state = spec_.findSleepState(state_name);
    if (!state)
        sim::fatal("forceOff: host model '%s' has no state '%s'",
                   spec_.model().c_str(), state_name.c_str());

    // Abandon any in-flight transition: power is simply gone.
    if (transitionEvent_ != sim::invalidEventId) {
        simulator_.cancel(transitionEvent_);
        transitionEvent_ = sim::invalidEventId;
    }
    state_ = state;
    wakePending_ = false;
    // Always notify (even Asleep -> Asleep): the sleep power may have
    // changed and observers keep energy meters exact.
    setPhase(PowerPhase::Asleep);
}

void
PowerStateMachine::setWakeFailure(double probability, sim::Rng *rng)
{
    if (probability < 0.0 || probability > 1.0)
        sim::fatal("setWakeFailure: probability %g outside [0, 1]",
                   probability);
    if (probability > 0.0 && !rng)
        sim::fatal("setWakeFailure: non-zero probability requires an RNG");
    wakeFailureProb_ = probability;
    failureRng_ = rng;
}

void
PowerStateMachine::setPhase(PowerPhase next)
{
    const PowerPhase from = phase_;
    const sim::SimTime now = simulator_.now();
    const sim::SimTime spent = now - phaseEnteredAt_;
    timeInPhase_[static_cast<std::size_t>(from)] += spent;
    phaseEnteredAt_ = now;
    phase_ = next;

    telemetry::Telemetry &tel = telemetry::global();
    if (tel.enabled()) {
        // The journal entry closes the phase just left: its duration and an
        // energy estimate at that phase's draw. For the On phase the exact
        // utilization history is unknown here, so charge idle active power —
        // a host the manager sleeps has been evacuated anyway.
        const double dur_s = static_cast<double>(spent.micros()) * 1e-6;
        double watts = 0.0;
        switch (from) {
          case PowerPhase::On:
            watts = spec_.activePowerWatts(0.0);
            break;
          case PowerPhase::Entering:
            watts = state_ ? state_->entryPowerWatts : 0.0;
            break;
          case PowerPhase::Asleep:
            watts = state_ ? state_->sleepPowerWatts : 0.0;
            break;
          case PowerPhase::Exiting:
            watts = state_ ? state_->exitPowerWatts : 0.0;
            break;
        }
        tel.journal().powerTransition(
            now.micros(), telemetryTrack_, toString(from), toString(next),
            state_ ? std::string_view(state_->name) : std::string_view(),
            dur_s, watts * dur_s);
    }

    sim::debug("host power phase %s -> %s at %s", toString(from),
               toString(next), now.toString().c_str());
    for (const PhaseObserver &observer : observers_)
        observer(from, next);
}

void
PowerStateMachine::onEntryComplete()
{
    transitionEvent_ = sim::invalidEventId;
    setPhase(PowerPhase::Asleep);
    if (wakePending_) {
        wakePending_ = false;
        // This event runs under the sleep decision's context; the exit
        // belongs to the wake decision latched earlier.
        telemetry::TraceScope scope(wakeContext_);
        beginExit();
    }
}

void
PowerStateMachine::beginExit()
{
    if (phase_ != PowerPhase::Asleep)
        sim::panic("beginExit: host is %s, not Asleep", toString(phase_));
    ++wakeCount_;
    setPhase(PowerPhase::Exiting);
    transitionEnd_ = simulator_.now() + state_->exitLatency;
    transitionEvent_ = simulator_.scheduleAt(
        transitionEnd_, [this] { onExitComplete(); }, "psm.exit");
}

void
PowerStateMachine::onExitComplete()
{
    transitionEvent_ = sim::invalidEventId;

    if (wakeFailureProb_ > 0.0 && failureRng_ &&
        failureRng_->bernoulli(wakeFailureProb_)) {
        // The resume attempt failed; pay another exit latency and retry.
        ++wakeRetryCount_;
        sim::warn("host wake attempt failed at %s; retrying",
                  simulator_.now().toString().c_str());
        transitionEnd_ = simulator_.now() + state_->exitLatency;
        transitionEvent_ = simulator_.scheduleAt(
            transitionEnd_, [this] { onExitComplete(); }, "psm.exit.retry");
        return;
    }

    // The wake completed; charge its end-to-end latency (latch wait +
    // remaining entry + exits, retries included) to the wake that asked.
    wakeLatenciesSeconds_.push_back(
        (simulator_.now() - wakeRequestedAt_).toSeconds());

    // Notify before clearing state_ so the journal can still name the sleep
    // state the host is waking out of. Observers see phase() == On, which
    // never consults state_.
    setPhase(PowerPhase::On);
    state_ = nullptr;
}

sim::SimTime
PowerStateMachine::timeInPhase(PowerPhase phase) const
{
    sim::SimTime total = timeInPhase_[static_cast<std::size_t>(phase)];
    if (phase == phase_)
        total += simulator_.now() - phaseEnteredAt_;
    return total;
}

void
PowerStateMachine::setTelemetryTrack(std::int32_t track,
                                     std::string_view name)
{
    telemetryTrack_ = track;
    telemetry::global().journal().registerTrack(telemetry::TrackDomain::Host,
                                                track, name);
}

void
PowerStateMachine::addObserver(PhaseObserver observer)
{
    if (!observer)
        sim::panic("PowerStateMachine::addObserver: null observer");
    observers_.push_back(std::move(observer));
}

} // namespace vpm::power
