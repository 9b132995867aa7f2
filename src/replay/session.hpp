/**
 * @file
 * ReplaySession: a fully-described, checkpointable simulation run driven
 * by a vpm-trace-2 demand file.
 *
 * Where runScenario() draws its fleet from the stochastic enterprise mix,
 * a replay session is built from a ReplaySpec — a small, serializable
 * recipe (trace path, fleet geometry, policy preset, seed) that is
 * embedded verbatim in every checkpoint, so a checkpoint alone suffices
 * to rebuild the exact session that produced it. The session exposes the
 * three replay primitives:
 *
 *  - runTo(t): advance the simulation to t without closing any meter —
 *    pausing is observation-free, which is what makes "paused + resumed"
 *    byte-identical to "never paused";
 *  - capture(): snapshot every determinism-bearing piece of state into
 *    named vpm-ckpt-1 sections (fleet columns, tree aggregates, pending
 *    events, RNG, policy state, telemetry counters);
 *  - finish(): run to the configured duration and close out metrics,
 *    exactly once, producing the same mgmt::ScenarioResult shape the
 *    sweep and bench layers already consume.
 *
 * Restore is verified re-execution (see checkpoint.hpp): rebuild from the
 * embedded spec, runTo(capture time), byte-compare a fresh capture.
 * What-if branching forks N policy variants off one checkpoint by
 * re-executing the shared prefix once per branch and switching policy
 * knobs at the fork point (applyVariant), then racing the variants to the
 * end of the run into a vpm-sweep-1 matrix.
 */

#ifndef VPM_REPLAY_SESSION_HPP
#define VPM_REPLAY_SESSION_HPP

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "replay/checkpoint.hpp"
#include "replay/trace_file.hpp"
#include "sweep/manifest.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace vpm::replay {

/**
 * The complete recipe for one replay session ("vpm-replay-spec-1" JSON).
 * Every field participates in checkpoint identity: two sessions built
 * from equal specs against the same trace file are byte-identical at
 * every simulated instant.
 */
struct ReplaySpec
{
    std::string name = "replay";

    /** vpm-trace-2 demand file; VM v samples series (v % series count). */
    std::string tracePath;

    int hosts = 8;

    /** VM count; 0 means one VM per trace series. */
    int vms = 0;

    double vmCpuMhz = 2000.0;
    double vmMemoryMb = 2048.0;
    double durationHours = 24.0;
    double evalIntervalS = 300.0;
    double managerPeriodMin = 15.0;

    /**
     * Policy preset: "nopm" (no power management), "s3" (host sleep
     * only), "cstates" (idle hierarchy only, hosts stay on), "joint"
     * (hierarchy + joint speed/sleep governor + host sleep — the only
     * valid branching base, since every other preset is reachable from
     * it by disabling knobs), "hier" (hierarchy + idle-only governor,
     * no load balancing — the hyperscale bench preset).
     */
    std::string policy = "joint";

    /** > 0: hosts use the synthetic-deep-state blade at this exit
     *  latency (the F9/F11 agility axis) instead of the stock S3 blade. */
    double exitLatencyS = 0.0;

    /** VMs are striped over the first loadedFraction of hosts, leaving
     *  the rest empty for the consolidation policy to park or sleep. */
    double loadedFraction = 0.8;

    /** Hierarchical (rack/pod) management geometry in the manager. */
    bool hierarchical = false;

    std::uint64_t seed = 42;

    /** Slice-cache budget of the trace reader's per-series views (the
     *  session's own VMs read the fed span table instead). */
    std::uint64_t windowBytes = 8ull << 20;

    /**
     * > 0: every host runs an idle-governor tick on this period
     * (mgmt::Rig::startIdleGovernors: staggered across the fleet, one
     * event per whole-second cohort of hosts) — the OS tick that reports
     * busy cores to the C-state hierarchy and demotes the idle ones. This
     * is the fleet-of-governors load the hyperscale benches (F12/F13) run
     * under; it requires a hierarchy preset. Part of the spec, so
     * checkpoints rebuild the exact same event schedule.
     */
    double governorPeriodS = 0.0;
};

/** Serialize @p spec as canonical vpm-replay-spec-1 JSON (stable field
 *  order, %.17g numbers — byte-stable for checkpoint embedding). */
std::string writeSpecJson(const ReplaySpec &spec);

/** Parse vpm-replay-spec-1 JSON. @return false with @p error set on
 *  malformed JSON, a schema mismatch, or out-of-range fields. */
bool parseSpecJson(const std::string &text, ReplaySpec &out,
                   std::string *error);

/** One live replay run. Single-owner, not copyable; all methods are
 *  main-thread (the simulation's shard workers never touch it). */
class ReplaySession
{
  public:
    /** Build a session (opens the trace, builds the cluster, places the
     *  fleet, wires the policy). @return nullptr with @p error set on an
     *  unopenable/invalid trace, an unknown policy preset, or a fleet
     *  that cannot fit the cluster. */
    static std::unique_ptr<ReplaySession> create(const ReplaySpec &spec,
                                                 std::string *error);

    ~ReplaySession();

    ReplaySession(const ReplaySession &) = delete;
    ReplaySession &operator=(const ReplaySession &) = delete;

    const ReplaySpec &spec() const { return spec_; }
    sim::SimTime now() const;
    sim::SimTime duration() const;

    /** Advance simulation to @p t (>= now). Never closes meters, so any
     *  number of pauses leaves the run bit-identical to an unpaused one.
     *  @return false, with error() set, once the trace feed failed (a
     *  corrupt block); the run stops there and goes no further. */
    bool runTo(sim::SimTime t);

    /** Why the run stopped early ("" while it is sound). */
    const std::string &error() const;

    /** Snapshot all determinism-bearing state (see checkpoint.hpp).
     *  Read-only: capturing does not perturb the run. */
    CheckpointData capture();

    /** FNV-1a over a fresh capture's sections — the compact state
     *  fingerprint the replay CLI embeds in result JSON. */
    std::uint64_t stateDigest();

    /**
     * Switch to @p policy at the current instant (what-if branching).
     * Only valid from the "joint" base preset; runtime-safe manager
     * knobs move via applyPolicyDelta, the joint controller is disabled
     * or narrowed, lowered frequencies reset to nominal, and idle
     * hierarchies wake when the variant stops managing them. @return
     * false with @p error set for an unknown/unreachable variant.
     */
    bool applyVariant(const std::string &policy, std::string *error);

    /** Run to the configured duration and close out metrics. Call
     *  exactly once; the session is read-only afterwards. The result is
     *  meaningless when error() is set afterwards. */
    mgmt::ScenarioResult finish();

    /** Streaming-reader diagnostics (bench reporting). */
    const TraceFile &trace() const { return *trace_; }

  private:
    ReplaySession() = default;

    void buildFleet(std::string *error);

    ReplaySpec spec_;
    sim::Simulator simulator_;
    sim::Rng rng_{0};
    std::shared_ptr<TraceFile> trace_;
    std::unique_ptr<dc::Cluster> cluster_;
    std::unique_ptr<mgmt::Rig> rig_;
    bool started_ = false;
    bool finished_ = false;
};

/**
 * Rebuild the checkpoint's session and re-execute it to the capture
 * time; with @p verify, a fresh capture is byte-compared section by
 * section against the checkpoint (mismatch = the binary or its inputs
 * changed; the restore is refused with the section name and first
 * differing byte offset in @p error). @return nullptr with @p error set.
 */
std::unique_ptr<ReplaySession>
restoreCheckpoint(const CheckpointData &ckpt, bool verify,
                  std::string *error);

/** Branch-race knobs. */
struct BranchOptions
{
    int threads = 1;    ///< branches in flight (each sim single-threaded)
    bool verify = true; ///< verify the checkpoint once before branching
};

/**
 * Fork one policy variant per grid cell off @p ckpt and race them to the
 * end of the run. The manifest reuses the tools/sweep grid format with
 * the policy axis as the branch dimension; every other axis must be a
 * singleton matching the checkpoint's spec (a branch cannot change the
 * fleet mid-run). Cells land in @p out as a vpm-sweep-1 matrix in
 * canonical order — deterministic metrics byte-identical at any thread
 * count — gateable by sweep_compare and the Pareto report like any sweep.
 * @return false with @p error set on a grid/checkpoint mismatch or a
 * failed verification.
 */
bool runBranches(const CheckpointData &ckpt,
                 const sweep::SweepManifest &manifest,
                 const std::vector<sweep::CellSpec> &cells,
                 const BranchOptions &options, telemetry::SweepMatrix &out,
                 std::ostream &log, std::string *error);

} // namespace vpm::replay

#endif // VPM_REPLAY_SESSION_HPP
