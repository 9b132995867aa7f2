/**
 * @file
 * Live-migration engine.
 *
 * Live migration is the mechanism every decision of the management layer is
 * executed through, and its cost model shapes the paper's overhead results:
 * a migration takes memory-size/bandwidth time (with a dirty-page retransmit
 * factor), taxes CPU on both endpoints while in flight, and each host only
 * sustains a few concurrent migrations. Requests beyond the concurrency cap
 * (or waiting for a departure to free destination memory) queue FIFO. Each
 * completion drains the queue in order: a request is re-examined only when
 * an input of its admission checks moved since it last waited — its
 * endpoints' admission epochs, or their racks' uplink epochs — and is then
 * dropped if no longer valid, started if admitted, or left waiting. A
 * request whose inputs did not move would wait again, so skipping it is
 * exact (DESIGN.md "Migration admission epochs").
 */

#ifndef VPM_DATACENTER_MIGRATION_HPP
#define VPM_DATACENTER_MIGRATION_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "datacenter/cluster.hpp"
#include "datacenter/topology.hpp"
#include "simcore/simulator.hpp"
#include "stats/summary.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::dc {

/** Cost-model knobs for live migration. */
struct MigrationConfig
{
    /** Usable migration bandwidth per stream, in MB/s (10 GbE ~ 1100). */
    double bandwidthMbPerSec = 1100.0;

    /** Fixed setup/switchover overhead per migration. */
    sim::SimTime fixedOverhead = sim::SimTime::seconds(2.0);

    /** Memory retransmit factor for pages dirtied during pre-copy. */
    double dirtyPageFactor = 1.3;

    /**
     * Additional dirty-page factor per unit of VM CPU utilization: a VM
     * running flat out re-dirties pages during pre-copy, so its copy
     * takes (dirtyPageFactor + utilizationDirtyFactor * utilization)
     * times its memory. 0 restores the size-only model.
     */
    double utilizationDirtyFactor = 0.6;

    /** Max concurrent migrations touching one host (in + out). */
    int maxConcurrentPerHost = 2;

    /** CPU overhead charged to both endpoints, as a fraction of VM size. */
    double cpuTaxFraction = 0.10;
};

/** Orchestrates live migrations over a Cluster. */
class MigrationEngine
{
  public:
    /** Fired when a migration lands, after the VM has moved. */
    using CompletionHandler =
        std::function<void(VmId vm, HostId source, HostId dest)>;

    MigrationEngine(sim::Simulator &simulator, Cluster &cluster,
                    const MigrationConfig &config = {});

    MigrationEngine(const MigrationEngine &) = delete;
    MigrationEngine &operator=(const MigrationEngine &) = delete;

    /**
     * Request a live migration of @p vm to @p dest.
     *
     * Rejected immediately (returns false, warning logged) if the VM is
     * already migrating or queued, unplaced, already on @p dest, or if
     * @p dest is not On / lacks memory headroom. Otherwise the migration
     * starts now or queues behind the per-host concurrency cap.
     */
    bool request(VmId vm, HostId dest);

    /** true if the VM is in flight or queued. */
    bool involved(VmId vm) const;

    /**
     * Destination of the VM's in-flight or queued migration.
     * @return invalidHostId if the VM is not involved in one.
     */
    HostId destinationOf(VmId vm) const;

    /** Every VM in flight or queued, with its destination (unordered). */
    const std::unordered_map<VmId, HostId> &involvedVms() const
    {
        return involved_;
    }

    /**
     * Duration of migrating @p vm if it started right now, under the cost
     * model including its current activity (busy VMs re-dirty pages
     * during pre-copy and take longer). Assumes the configured flat
     * bandwidth; with a topology attached the endpoint-aware overload is
     * what start() charges.
     */
    sim::SimTime expectedDuration(const Vm &vm) const;

    /** Endpoint-aware duration (rack locality decides the bandwidth). */
    sim::SimTime expectedDuration(const Vm &vm, HostId source,
                                  HostId dest) const;

    /**
     * Attach a network topology: cross-rack migrations then ride the
     * (slower) uplink bandwidth and compete for per-rack uplink slots.
     * Pass nullptr to restore the flat network. The topology must
     * outlive the engine. Queued requests are all re-examined at the next
     * drain (their recorded uplink epochs belong to the old network).
     */
    void setTopology(Topology *topology);

    /** @name Counters */
    ///@{
    int activeCount() const { return activeCount_; }
    std::size_t queuedCount() const { return queue_.size(); }
    std::uint64_t startedCount() const { return started_; }
    std::uint64_t completedCount() const { return completed_; }

    /** Queued requests later dropped because revalidation failed. */
    std::uint64_t droppedCount() const { return dropped_; }

    /** In-flight migrations abandoned because an endpoint lost power
     *  mid-copy (the VM stays on its source). */
    std::uint64_t abortedCount() const { return aborted_; }

    /** Completed migrations that crossed racks (0 on a flat network). */
    std::uint64_t crossRackCount() const { return crossRack_; }

    /** Summary of completed migration durations, in seconds. */
    const stats::Summary &durations() const { return durations_; }
    ///@}

    /** Subscribe to migration completions (single handler). */
    void setOnComplete(CompletionHandler handler);

    /**
     * Audit the admission gate against a from-scratch evaluation: every
     * queued request whose recorded epochs still match (the next drain
     * would skip it) must evaluate to "wait" under the pure admission
     * predicates. Panics, naming the VM and host ids, on a request that
     * should have started or been dropped, or on a queued VM the engine
     * no longer books. Requests whose epochs moved are the next drain's
     * to re-examine and make no claim.
     */
    void auditQueue() const;

    const MigrationConfig &config() const { return config_; }

  private:
    /** The admission epochs of a request's endpoints and their racks. */
    struct AdmissionStamp
    {
        std::uint64_t source = 0;
        std::uint64_t dest = 0;
        std::uint64_t sourceUplink = 0; ///< 0 on a flat network
        std::uint64_t destUplink = 0;   ///< 0 on a flat network

        bool operator==(const AdmissionStamp &) const = default;
    };

    struct Request
    {
        VmId vm;
        HostId dest;

        /** Causal context at request() time; a queued migration that only
         *  starts from a later completion event must still be attributed
         *  to the decision that requested it. */
        telemetry::TraceContext context;

        /** The VM's host and the stamp when this request last evaluated
         *  to "wait"; invalidHostId forces the next drain to re-examine. */
        HostId source = invalidHostId;
        AdmissionStamp stamp;
    };

    /** Why a migration of @p vm to @p dest is invalid, or nullptr. Pure:
     *  the audit re-evaluates it. */
    const char *invalidReason(const Vm &vm, HostId dest) const;

    /** Validation shared by request() and queue drain: invalidReason(),
     *  with the reason logged. */
    bool validate(const Vm &vm, HostId dest, bool is_queued_retry) const;

    AdmissionStamp stampOf(HostId source, HostId dest) const;

    /** true if the request's admission inputs may have moved since it
     *  last waited, so the drain must re-examine it. */
    bool admissionInputsMoved(const Request &req) const;

    /** Book / unbook @p vm as involved. The booking is an input of
     *  memoryFitsAfterPending() on the VM's host, so both bump it. */
    void book(VmId vm, HostId dest);
    void unbook(VmId vm);

    /** true if both endpoints have a free migration slot. */
    bool slotsFree(HostId source, HostId dest) const;

    /**
     * Optimistic memory check: fits once every resident VM already booked
     * to leave the destination has left. Gates admission to the queue.
     */
    bool memoryFitsAfterPending(const Vm &vm, HostId dest) const;

    /**
     * Strict memory check gating migration start: resident memory plus
     * reservations of in-flight inbound migrations.
     */
    bool memoryFitsNow(const Vm &vm, HostId dest) const;

    void start(VmId vm, HostId dest);
    void complete(VmId vm, HostId source, HostId dest);
    void drainQueue();

    sim::Simulator &simulator_;
    Cluster &cluster_;
    MigrationConfig config_;
    Topology *topology_ = nullptr;

    std::vector<Request> queue_; ///< FIFO; compacted in place by drains
    std::unordered_map<VmId, HostId> involved_;
    std::unordered_map<VmId, sim::SimTime> activeDurations_;
    int activeCount_ = 0;
    std::uint64_t started_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t aborted_ = 0;
    std::uint64_t crossRack_ = 0;
    stats::Summary durations_;
    CompletionHandler onComplete_;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_MIGRATION_HPP
