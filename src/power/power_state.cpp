#include "power/power_state.hpp"

#include <bit>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "simcore/logging.hpp"

namespace vpm::power {

HostPowerSpec::HostPowerSpec(std::string model,
                             std::shared_ptr<const PowerCurve> curve,
                             std::vector<SleepStateSpec> sleep_states)
    : model_(std::move(model)), curve_(std::move(curve)),
      states_(std::move(sleep_states))
{
    if (!curve_)
        sim::fatal("HostPowerSpec '%s': power curve must be non-null",
                   model_.c_str());

    std::unordered_set<std::string> names;
    for (const SleepStateSpec &state : states_) {
        if (state.name.empty())
            sim::fatal("HostPowerSpec '%s': sleep state with empty name",
                       model_.c_str());
        if (!names.insert(state.name).second)
            sim::fatal("HostPowerSpec '%s': duplicate sleep state '%s'",
                       model_.c_str(), state.name.c_str());
        if (state.sleepPowerWatts < 0.0 || state.entryPowerWatts < 0.0 ||
            state.exitPowerWatts < 0.0) {
            sim::fatal("HostPowerSpec '%s': sleep state '%s' has negative "
                       "power", model_.c_str(), state.name.c_str());
        }
        if (state.entryLatency < sim::SimTime() ||
            state.exitLatency < sim::SimTime()) {
            sim::fatal("HostPowerSpec '%s': sleep state '%s' has negative "
                       "latency", model_.c_str(), state.name.c_str());
        }
    }
}

const SleepStateSpec *
HostPowerSpec::findSleepState(const std::string &name) const
{
    for (const SleepStateSpec &state : states_) {
        if (state.name == name)
            return &state;
    }
    return nullptr;
}

const SleepStateSpec *
HostPowerSpec::deepestStateWithin(sim::SimTime max_exit_latency) const
{
    const SleepStateSpec *best = nullptr;
    for (const SleepStateSpec &state : states_) {
        if (state.exitLatency > max_exit_latency)
            continue;
        if (!best || state.sleepPowerWatts < best->sleepPowerWatts)
            best = &state;
    }
    return best;
}

bool
HostPowerSpec::sameAs(const HostPowerSpec &other) const
{
    const auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    if (model_ != other.model_ || curve_ != other.curve_ ||
        states_.size() != other.states_.size())
        return false;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const SleepStateSpec &a = states_[i];
        const SleepStateSpec &b = other.states_[i];
        if (a.name != b.name ||
            !same_bits(a.sleepPowerWatts, b.sleepPowerWatts) ||
            a.entryLatency != b.entryLatency ||
            a.exitLatency != b.exitLatency ||
            !same_bits(a.entryPowerWatts, b.entryPowerWatts) ||
            !same_bits(a.exitPowerWatts, b.exitPowerWatts))
            return false;
    }
    return true;
}

} // namespace vpm::power
