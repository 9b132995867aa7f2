#include "power/idle_hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::power {

const std::string IdleHierarchy::kC0 = "C0";

const char *
toString(IdleLevel level)
{
    switch (level) {
      case IdleLevel::Core:
        return "core";
      case IdleLevel::Package:
        return "pkg";
    }
    return "unknown";
}

void
IdleHierarchySpec::validate() const
{
    if (coreCount <= 0)
        sim::fatal("IdleHierarchySpec: core count must be positive");
    if (corePowerC0Watts < 0.0 || uncorePowerC0Watts < 0.0)
        sim::fatal("IdleHierarchySpec: C0 powers must be non-negative");
    if (coreStates.empty() && packageStates.empty())
        sim::fatal("IdleHierarchySpec: no idle states at any level");
    if (coreStates.size() > kMaxStatesPerLevel ||
        packageStates.size() > kMaxStatesPerLevel)
        sim::fatal("IdleHierarchySpec: %zu core and %zu package states; "
                   "at most %zu per level", coreStates.size(),
                   packageStates.size(), kMaxStatesPerLevel);

    double prev = corePowerC0Watts;
    for (const IdleStateSpec &state : coreStates) {
        if (state.name.empty())
            sim::fatal("IdleHierarchySpec: unnamed core state");
        if (state.powerWatts >= prev)
            sim::fatal("IdleHierarchySpec: core state '%s' (%g W) does not "
                       "descend below its parent (%g W)",
                       state.name.c_str(), state.powerWatts, prev);
        if (state.entryEnergyJoules < 0.0 || state.exitEnergyJoules < 0.0)
            sim::fatal("IdleHierarchySpec: core state '%s' has negative "
                       "transition energy", state.name.c_str());
        prev = state.powerWatts;
    }

    prev = uncorePowerC0Watts;
    int prev_gate = 0;
    for (const IdleStateSpec &state : packageStates) {
        if (state.name.empty())
            sim::fatal("IdleHierarchySpec: unnamed package state");
        if (state.powerWatts >= prev)
            sim::fatal("IdleHierarchySpec: package state '%s' (%g W) does "
                       "not descend below its parent (%g W)",
                       state.name.c_str(), state.powerWatts, prev);
        if (state.requiredChildDepth < 0 ||
            state.requiredChildDepth >
                static_cast<int>(coreStates.size())) {
            sim::fatal("IdleHierarchySpec: package state '%s' requires "
                       "child depth %d but only %zu core states exist",
                       state.name.c_str(), state.requiredChildDepth,
                       coreStates.size());
        }
        if (state.requiredChildDepth < prev_gate)
            sim::fatal("IdleHierarchySpec: package state '%s' relaxes the "
                       "child-depth gate (%d < %d) — deeper states must "
                       "require at least as deep children",
                       state.name.c_str(), state.requiredChildDepth,
                       prev_gate);
        prev = state.powerWatts;
        prev_gate = state.requiredChildDepth;
    }
}

double
IdleHierarchySpec::maxSavingsWatts() const
{
    double savings = 0.0;
    if (!coreStates.empty()) {
        savings += static_cast<double>(coreCount) *
                   (corePowerC0Watts - coreStates.back().powerWatts);
    }
    if (!packageStates.empty())
        savings += uncorePowerC0Watts - packageStates.back().powerWatts;
    return savings;
}

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameStates(const std::vector<IdleStateSpec> &a,
           const std::vector<IdleStateSpec> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const IdleStateSpec &x = a[i];
        const IdleStateSpec &y = b[i];
        if (x.name != y.name || !sameBits(x.powerWatts, y.powerWatts) ||
            x.entryLatency != y.entryLatency ||
            x.exitLatency != y.exitLatency ||
            !sameBits(x.entryEnergyJoules, y.entryEnergyJoules) ||
            !sameBits(x.exitEnergyJoules, y.exitEnergyJoules) ||
            x.requiredChildDepth != y.requiredChildDepth)
            return false;
    }
    return true;
}

} // namespace

bool
IdleHierarchySpec::sameAs(const IdleHierarchySpec &other) const
{
    return coreCount == other.coreCount &&
           sameBits(corePowerC0Watts, other.corePowerC0Watts) &&
           sameBits(uncorePowerC0Watts, other.uncorePowerC0Watts) &&
           sameStates(coreStates, other.coreStates) &&
           sameStates(packageStates, other.packageStates);
}

std::shared_ptr<const IdleHierarchySpec>
IdleHierarchySpec::shared(const IdleHierarchySpec &spec)
{
    // Weak entries: a spec lives exactly as long as its hierarchies, and
    // a dead one is pruned when the next new spec is added. Fleets hold a
    // handful of distinct specs, so a linear scan suffices.
    static std::mutex mutex;
    static std::vector<std::weak_ptr<const IdleHierarchySpec>> table;
    spec.validate();
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::weak_ptr<const IdleHierarchySpec> &entry : table) {
        std::shared_ptr<const IdleHierarchySpec> live = entry.lock();
        if (live && live->sameAs(spec))
            return live;
    }
    std::erase_if(table, [](const auto &entry) { return entry.expired(); });
    auto fresh = std::make_shared<const IdleHierarchySpec>(spec);
    table.push_back(fresh);
    return fresh;
}

IdleHierarchy::IdleHierarchy(sim::Simulator &simulator,
                             const IdleHierarchySpec &spec)
    : spec_(IdleHierarchySpec::shared(spec)), simulator_(simulator)
{
    lastAccrual_ = simulator_.now();
    coreSpanStart_ = lastAccrual_;
    packageSpanStart_ = lastAccrual_;
}

const std::string &
IdleHierarchy::coreStateName(int depth) const
{
    return depth > 0 ? spec_->coreStates[static_cast<std::size_t>(depth - 1)]
                           .name
                     : kC0;
}

const std::string &
IdleHierarchy::packageStateName(int depth) const
{
    return depth > 0
               ? spec_->packageStates[static_cast<std::size_t>(depth - 1)]
                     .name
               : kC0;
}

void
IdleHierarchy::accrueResidency(sim::SimTime now)
{
    const double dt = (now - lastAccrual_).toSeconds();
    lastAccrual_ = now;
    if (!active_ || dt <= 0.0)
        return;
    const int idle = spec_->coreCount - busyCores_;
    coreResidencyS_[0] += static_cast<double>(busyCores_) * dt;
    coreResidencyS_[static_cast<std::size_t>(coreDepth_)] +=
        static_cast<double>(idle) * dt;
    packageResidencyS_[static_cast<std::size_t>(packageDepth_)] += dt;
}

int
IdleHierarchy::gatedPackageDepth(int wanted, int busy, int core_depth) const
{
    // A package state may hold only while EVERY core is idle and resident
    // at least as deep as the state's gate — the hierarchy's descent rule.
    if (busy > 0)
        return 0;
    int allowed = 0;
    const int limit = std::min(
        wanted, static_cast<int>(spec_->packageStates.size()));
    for (int d = 1; d <= limit; ++d) {
        if (core_depth <
            spec_->packageStates[static_cast<std::size_t>(d - 1)]
                .requiredChildDepth)
            break;
        allowed = d;
    }
    return allowed;
}

void
IdleHierarchy::refreshDerived(bool transitioned, double joules)
{
    const int idle = spec_->coreCount - busyCores_;
    double savings = 0.0;
    sim::SimTime wake;
    if (active_ && coreDepth_ > 0 && idle > 0) {
        const IdleStateSpec &state =
            spec_->coreStates[static_cast<std::size_t>(coreDepth_ - 1)];
        savings += static_cast<double>(idle) *
                   (spec_->corePowerC0Watts - state.powerWatts);
        wake = std::max(wake, state.exitLatency);
    }
    if (active_ && packageDepth_ > 0) {
        const IdleStateSpec &state =
            spec_->packageStates[static_cast<std::size_t>(packageDepth_ - 1)];
        savings += spec_->uncorePowerC0Watts - state.powerWatts;
        // Levels repower in parallel: resume costs the MAX exit latency
        // along the path, not the sum.
        wake = std::max(wake, state.exitLatency);
    }
    savingsWatts_ = savings;
    wakeLatency_ = wake;
    if (onUpdate_)
        onUpdate_(Update{wake, transitioned, joules});
}

void
IdleHierarchy::applyTarget(int busy, int core_depth, int pkg_depth,
                           bool charge_energy)
{
    busy = std::clamp(busy, 0, spec_->coreCount);
    core_depth = std::clamp(core_depth, 0,
                            static_cast<int>(spec_->coreStates.size()));
    pkg_depth = gatedPackageDepth(pkg_depth, busy, core_depth);

    const sim::SimTime now = simulator_.now();
    accrueResidency(now);

    telemetry::EventJournal &journal = telemetry::global().journal();
    const bool journal_on = journal.enabled() && track_ >= 0;

    const int idle_before = spec_->coreCount - busyCores_;
    const int idle_after = spec_->coreCount - busy;
    const int d0 = coreDepth_;
    const int d1 = core_depth;

    // Group moves at the core level: the idle block re-targets, cores
    // crossing the busy/idle boundary enter or leave it. At most two
    // distinct (from, to) groups change per command.
    struct Move
    {
        int from, to, count;
    };
    Move moves[2];
    int move_count = 0;
    if (d0 == d1) {
        if (d0 > 0 && idle_after != idle_before) {
            if (idle_after > idle_before)
                moves[move_count++] = {0, d0, idle_after - idle_before};
            else
                moves[move_count++] = {d0, 0, idle_before - idle_after};
        }
    } else {
        const int stay = std::min(idle_before, idle_after);
        if (stay > 0)
            moves[move_count++] = {d0, d1, stay};
        if (idle_after > idle_before)
            moves[move_count++] = {0, d1, idle_after - idle_before};
        else if (idle_before > idle_after)
            moves[move_count++] = {d0, 0, idle_before - idle_after};
    }

    double joules = 0.0;
    bool core_changed = false;
    const double core_span = (now - coreSpanStart_).toSeconds();
    for (int m = 0; m < move_count; ++m) {
        const Move &move = moves[m];
        if (move.from == move.to || move.count <= 0)
            continue;
        core_changed = true;
        double move_joules = 0.0;
        if (charge_energy) {
            if (move.from > 0)
                move_joules += spec_->coreStates[static_cast<std::size_t>(
                                                    move.from - 1)]
                                   .exitEnergyJoules;
            if (move.to > 0)
                move_joules += spec_->coreStates[static_cast<std::size_t>(
                                                    move.to - 1)]
                                   .entryEnergyJoules;
            move_joules *= static_cast<double>(move.count);
            joules += move_joules;
        }
        ++transitions_;
        if (journal_on) {
            journal.idleTransition(now.micros(), track_,
                                   toString(IdleLevel::Core),
                                   coreStateName(move.from),
                                   coreStateName(move.to), move.count,
                                   core_span, move_joules);
        }
    }
    if (core_changed)
        coreSpanStart_ = now;

    bool pkg_changed = false;
    if (pkg_depth != packageDepth_) {
        pkg_changed = true;
        double pkg_joules = 0.0;
        if (charge_energy) {
            if (packageDepth_ > 0)
                pkg_joules +=
                    spec_->packageStates[static_cast<std::size_t>(
                                            packageDepth_ - 1)]
                        .exitEnergyJoules;
            if (pkg_depth > 0)
                pkg_joules +=
                    spec_->packageStates[static_cast<std::size_t>(
                                            pkg_depth - 1)]
                        .entryEnergyJoules;
            joules += pkg_joules;
        }
        ++transitions_;
        if (journal_on) {
            journal.idleTransition(now.micros(), track_,
                                   toString(IdleLevel::Package),
                                   packageStateName(packageDepth_),
                                   packageStateName(pkg_depth), 1,
                                   (now - packageSpanStart_).toSeconds(),
                                   pkg_joules);
        }
        packageSpanStart_ = now;
    }

    busyCores_ = busy;
    coreDepth_ = d1;
    packageDepth_ = pkg_depth;
    const bool transitioned = core_changed || pkg_changed;
    if (transitioned)
        transitionJoules_ += joules;
    refreshDerived(transitioned, joules);
}

void
IdleHierarchy::setBusyCores(int busy)
{
    if (!active_)
        return;
    applyTarget(busy, coreDepth_, packageDepth_, true);
}

void
IdleHierarchy::requestDepth(int core_depth, int pkg_depth)
{
    if (!active_)
        return;
    applyTarget(busyCores_, core_depth, pkg_depth, true);
}

void
IdleHierarchy::descendFully()
{
    if (!active_)
        return;
    // Caller asserts the host is drained: the policy's busy count is a
    // stale demand estimate at this point, so override it — every core is
    // genuinely idle and the whole tree may bottom out.
    applyTarget(0, static_cast<int>(spec_->coreStates.size()),
                static_cast<int>(spec_->packageStates.size()), true);
}

void
IdleHierarchy::wakeAll()
{
    if (!active_)
        return;
    applyTarget(busyCores_, 0, 0, true);
}

void
IdleHierarchy::pause()
{
    if (!active_)
        return;
    // Forced exits ride the system transition the power FSM charges, so
    // no transition energy is billed here — only the residency closes.
    applyTarget(0, 0, 0, false);
    active_ = false;
    refreshDerived(false, 0.0);
}

void
IdleHierarchy::resume()
{
    if (active_)
        return;
    const sim::SimTime now = simulator_.now();
    active_ = true;
    lastAccrual_ = now;
    coreSpanStart_ = now;
    packageSpanStart_ = now;
    refreshDerived(false, 0.0);
}

bool
IdleHierarchy::wouldChange(int busy, int core_depth, int pkg_depth) const
{
    if (!active_)
        return false;
    busy = std::clamp(busy, 0, spec_->coreCount);
    core_depth = std::clamp(core_depth, 0,
                            static_cast<int>(spec_->coreStates.size()));
    const int pkg = gatedPackageDepth(pkg_depth, busy, core_depth);
    return busy != busyCores_ || core_depth != coreDepth_ ||
           pkg != packageDepth_;
}

bool
IdleHierarchy::fullyDescended() const
{
    if (!active_ || busyCores_ > 0)
        return false;
    if (coreDepth_ != static_cast<int>(spec_->coreStates.size()))
        return false;
    return packageDepth_ == static_cast<int>(spec_->packageStates.size());
}

double
IdleHierarchy::coreResidencySeconds(int depth) const
{
    if (depth < 0 || depth > static_cast<int>(spec_->coreStates.size()))
        return 0.0;
    return coreResidencyS_[static_cast<std::size_t>(depth)];
}

double
IdleHierarchy::packageResidencySeconds(int depth) const
{
    if (depth < 0 || depth > static_cast<int>(spec_->packageStates.size()))
        return 0.0;
    return packageResidencyS_[static_cast<std::size_t>(depth)];
}

void
IdleHierarchy::finish(sim::SimTime t)
{
    accrueResidency(t);
}

void
IdleHierarchy::setUpdateHook(std::function<void(const Update &)> hook)
{
    onUpdate_ = std::move(hook);
}

} // namespace vpm::power
