/**
 * @file
 * Demand traces: time-indexed CPU utilization signals for VMs.
 *
 * A trace maps simulated time to a utilization fraction in [0, 1] of the
 * owning VM's configured size. Traces are pure functions of time (plus a
 * seed): querying the same instant twice gives the same answer, which keeps
 * simulations replayable regardless of how the scheduler interleaves
 * queries.
 *
 * This file defines the interface plus the simple combinators; the
 * stochastic generators (diurnal, random walk, bursty) live in their own
 * headers.
 */

#ifndef VPM_WORKLOAD_DEMAND_TRACE_HPP
#define VPM_WORKLOAD_DEMAND_TRACE_HPP

#include <memory>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace vpm::workload {

/**
 * A demand sample together with its validity horizon: the trace value is
 * exactly @p utilization over the half-open window [t, validUntil), where
 * t is the query time. validUntil == t means "valid only at t" (the
 * conservative answer every trace may give); sim::SimTime::max() means
 * "constant forever from here".
 *
 * The span contract is exact, not approximate: for every t' in the
 * window, utilizationAt(t') must return the same double, bit for bit.
 * Consumers (the evaluation loop) rely on this to skip re-sampling
 * without changing simulation results.
 */
struct DemandSpan
{
    double utilization = 0.0;
    sim::SimTime validUntil;
};

/** A time-indexed utilization signal in [0, 1]. */
class DemandTrace
{
  public:
    virtual ~DemandTrace() = default;

    /**
     * Demanded utilization at time @p t, as a fraction of the VM's size.
     * Implementations clamp to [0, 1].
     */
    virtual double utilizationAt(sim::SimTime t) const = 0;

    /**
     * Demanded utilization at @p t plus how long that value stays exact
     * (see DemandSpan). The default is the safe point-span
     * {utilizationAt(t), t}; piecewise-constant traces override this so
     * callers can sample once per constant segment instead of once per
     * evaluation tick.
     */
    virtual DemandSpan spanAt(sim::SimTime t) const
    {
        return {utilizationAt(t), t};
    }

    /**
     * True when spanAt(t) is known to always return the point span
     * {utilizationAt(t), t} — i.e. the signal varies continuously and a
     * fresh sample is needed at every evaluation anyway. Bulk samplers
     * (FleetStore's demand-refresh kernel) use this to skip the span
     * plumbing and the validity bookkeeping for such traces; the sampled
     * values are identical either way. Defaults to false (the generic
     * span path is always correct), so only traces whose point-ness is
     * provable from their configuration override it.
     */
    virtual bool pointSpan() const { return false; }

    /**
     * Hint that spanAt() will be called soon: a trace whose span lookup
     * reads memory beyond its own object may start fetching it. Bulk
     * samplers (FleetStore's demand-refresh kernel) call this a few VMs
     * ahead. Must not change any observable state; the default does
     * nothing.
     */
    virtual void prefetchSpan() const {}

    /**
     * True when prefetchSpan() does something. Bulk samplers read it once
     * at registration and hint only such traces, so a fleet without any
     * pays no per-VM branch on trace kind.
     */
    virtual bool hasSpanPrefetch() const { return false; }
};

/** Shared handle to a trace; traces are immutable once built. */
using TracePtr = std::shared_ptr<const DemandTrace>;

/** A flat trace: the same utilization forever. */
class ConstantTrace : public DemandTrace
{
  public:
    /** @param level Utilization in [0, 1]; clamped. */
    explicit ConstantTrace(double level);

    double utilizationAt(sim::SimTime t) const override;
    DemandSpan spanAt(sim::SimTime t) const override;

  private:
    double level_;
};

/**
 * Piecewise-constant schedule: utilization steps to a new level at each
 * breakpoint and holds until the next.
 */
class StepTrace : public DemandTrace
{
  public:
    /** A (start time, level) pair; the level holds from the start time on. */
    struct Step
    {
        sim::SimTime start;
        double level;
    };

    /**
     * @param steps Breakpoints sorted by start time; the first step's level
     *        also applies before its start time. Must be non-empty.
     */
    explicit StepTrace(std::vector<Step> steps);

    double utilizationAt(sim::SimTime t) const override;
    DemandSpan spanAt(sim::SimTime t) const override;

  private:
    std::vector<Step> steps_;
};

/** Multiplies an inner trace by a factor (clamped back into [0, 1]). */
class ScaledTrace : public DemandTrace
{
  public:
    ScaledTrace(TracePtr inner, double factor);

    double utilizationAt(sim::SimTime t) const override;
    DemandSpan spanAt(sim::SimTime t) const override;

    /** Point iff the inner trace is: both paths scale the same inner
     *  utilization by the same factor, so they stay bit-identical. */
    bool pointSpan() const override { return inner_->pointSpan(); }
    void prefetchSpan() const override { inner_->prefetchSpan(); }
    bool hasSpanPrefetch() const override
    {
        return inner_->hasSpanPrefetch();
    }

  private:
    TracePtr inner_;
    double factor_;
};

/**
 * Overlays a transient spike on an inner trace: during [start, start+width)
 * the utilization is raised to at least @p level. Used by the agility
 * experiments (F6) to model a sudden load surge.
 */
class SpikeTrace : public DemandTrace
{
  public:
    SpikeTrace(TracePtr inner, sim::SimTime start, sim::SimTime width,
               double level);

    double utilizationAt(sim::SimTime t) const override;
    DemandSpan spanAt(sim::SimTime t) const override;

  private:
    TracePtr inner_;
    sim::SimTime start_;
    sim::SimTime width_;
    double level_;
};

/** Shifts an inner trace in time: value(t) = inner(t + offset). */
class TimeShiftedTrace : public DemandTrace
{
  public:
    TimeShiftedTrace(TracePtr inner, sim::SimTime offset);

    double utilizationAt(sim::SimTime t) const override;
    DemandSpan spanAt(sim::SimTime t) const override;

  private:
    TracePtr inner_;
    sim::SimTime offset_;
};

} // namespace vpm::workload

#endif // VPM_WORKLOAD_DEMAND_TRACE_HPP
