/**
 * @file
 * The sweep execution engine: runs grid cells concurrently, aggregates
 * per-seed scenario results into interval estimates, and assembles the
 * "vpm-sweep-1" matrix.
 *
 * Concurrency model: `--threads N` means N cells IN FLIGHT, each cell's
 * simulation strictly single-threaded (the orchestrator pins the global
 * sim worker pool to inline mode before spawning workers). Workers pull
 * cell indices from an atomic cursor, results land in a slot vector
 * indexed by canonical cell index, and every artifact is emitted from
 * that vector in index order — so the matrix, tables and frontier are
 * byte-identical at any thread count (wall-clock metrics excepted, and
 * those never enter the policy tables).
 *
 * Two execution modes:
 *  - inproc: the cell body runs on the worker thread. Fastest, but a
 *    misconfigured cell that trips sim::fatal takes the whole sweep down
 *    (the simulator treats config errors as programming errors), and
 *    per-cell timeouts cannot be enforced.
 *  - process: the worker re-executes this binary with `--cell <index>`,
 *    giving real isolation — a crashed cell becomes status "failed", a
 *    cell past --timeout-s is killed and becomes "timeout".
 *
 * Resume: each finished cell is persisted to <out>/cells/cell_<index>.json
 * as it completes. With `--resume`, cells whose file exists, parses and
 * carries the expected id are reloaded instead of re-run; everything else
 * (including a half-written file from a killed sweep) re-runs.
 */

#ifndef VPM_SWEEP_RUNNER_HPP
#define VPM_SWEEP_RUNNER_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/manifest.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace vpm::sweep {

/** How cells are executed. */
enum class ExecMode
{
    InProc,  ///< cell body on the worker thread (fast, shared fate)
    Process, ///< child process per cell (isolation, timeouts)
};

/** Orchestrator knobs (the tools/sweep CLI surface). */
struct RunOptions
{
    std::string outDir;      ///< artifact directory (created if missing)
    int threads = 1;         ///< concurrent cells
    int repeatsOverride = 0; ///< >0 overrides the manifest's repeats
    ExecMode exec = ExecMode::InProc;
    double timeoutS = 0.0;   ///< per-cell kill timer (process mode; 0=off)
    bool resume = false;     ///< reuse existing per-cell files

    /** Path of this binary (argv[0]) — how process mode re-executes. */
    std::string selfExe;

    /** Manifest path handed to child processes. */
    std::string manifestPath;
};

/**
 * Run ONE cell in-process: repeats × seeds scenario executions,
 * aggregated into the cell's interval metrics. Deterministic metrics
 * sample over seeds; wall_ms/events_per_sec sample over repeats.
 */
telemetry::SweepCell runCell(const SweepManifest &manifest,
                             const CellSpec &spec, int repeats);

/** A cell's axis assignment in matrix column order (numbers at %g) —
 *  shared by sweep cells and replay branch cells so their matrices line
 *  up. */
std::vector<telemetry::AxisValue> cellAxes(const CellSpec &spec);

/** The per-cell resume/result file path for a cell index. */
std::string cellFilePath(const std::string &out_dir, std::uint64_t index);

/**
 * Run the whole grid per @p options and return the assembled matrix
 * (cells in canonical index order). Progress lines go to @p log (stderr
 * in the CLI). Never throws on cell failure — failures are cells with
 * status failed/timeout; returns false only when the environment itself
 * is unusable (output directory cannot be created, process mode without
 * a self executable).
 */
bool runSweep(const SweepManifest &manifest,
              const std::vector<CellSpec> &cells, const RunOptions &options,
              telemetry::SweepMatrix &out, std::ostream &log,
              std::string *error);

} // namespace vpm::sweep

#endif // VPM_SWEEP_RUNNER_HPP
