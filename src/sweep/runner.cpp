#include "sweep/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#if !defined(_WIN32)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/scenario.hpp"
#include "power/server_models.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/ci.hpp"

namespace vpm::sweep {

namespace {

std::string
axisNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/**
 * The cell -> scenario mapping, modeled on the F11 policy grid so sweep
 * results line up with the bench figures: every policy sees the same
 * blade with the synthetic deep state at the cell's exit latency, the
 * same consolidation period, and the same fleet (per seed).
 */
mgmt::ScenarioConfig
buildScenario(const SweepManifest &manifest, const CellSpec &spec,
              std::uint64_t seed)
{
    mgmt::ScenarioConfig config;
    config.hostCount = spec.hosts;
    config.vmCount = spec.vms;
    config.duration = sim::SimTime::hours(manifest.durationHours);
    config.seed = seed;
    config.mix.loadScale = spec.loadScale;
    config.powerSpec = power::bladeWithSyntheticState(
        sim::SimTime::seconds(spec.exitLatencyS));

    if (spec.workload == "surge")
        config.transformFleet = mgmt::addSurgeSchedule;

    if (spec.policy == "nopm") {
        config.manager = mgmt::makePolicy(mgmt::PolicyKind::NoPM);
        return config;
    }
    mgmt::applyIdleArm(config, spec.policy == "s3"
                                   ? mgmt::IdleArm::S3Only
                               : spec.policy == "cstates"
                                   ? mgmt::IdleArm::CStatesOnly
                                   : mgmt::IdleArm::Joint);
    return config;
}

void
addMetric(telemetry::SweepCell &cell, const std::string &name,
          const std::vector<double> &samples)
{
    telemetry::CellMetric metric;
    metric.name = name;
    metric.ci = stats::confidenceInterval(samples);
    cell.metrics.push_back(std::move(metric));
}

telemetry::SweepCell
skeletonCell(const CellSpec &spec, const SweepManifest &manifest,
             int repeats)
{
    telemetry::SweepCell cell;
    cell.id = spec.id;
    cell.index = spec.index;
    cell.axes = cellAxes(spec);
    cell.seeds = manifest.seeds;
    cell.repeats = repeats;
    cell.manifestHash = manifestContentHash(manifest);
    return cell;
}

} // namespace

std::vector<telemetry::AxisValue>
cellAxes(const CellSpec &spec)
{
    return {
        {"policy", spec.policy},
        {"workload", spec.workload},
        {"exit_latency_s", axisNum(spec.exitLatencyS)},
        {"load_scale", axisNum(spec.loadScale)},
        {"hosts", std::to_string(spec.hosts)},
        {"vms", std::to_string(spec.vms)},
    };
}

telemetry::SweepCell
runCell(const SweepManifest &manifest, const CellSpec &spec, int repeats)
{
    telemetry::SweepCell cell = skeletonCell(spec, manifest, repeats);

    std::vector<double> energy_j;
    std::vector<double> sla_pct;
    std::vector<double> wake_p99;
    std::vector<double> wall_ms;
    std::vector<double> events_per_sec;

    for (int repeat = 0; repeat < repeats; ++repeat) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t events = 0;
        for (const std::uint64_t seed : manifest.seeds) {
            const mgmt::ScenarioResult result =
                mgmt::runScenario(buildScenario(manifest, spec, seed));
            events += result.eventsProcessed;
            if (repeat == 0) {
                // Deterministic metrics: one sample per seed; later
                // repeats reproduce these values bit-for-bit, so only
                // the wall clock below gains information from them.
                energy_j.push_back(result.metrics.energyKwh * 3.6e6);
                sla_pct.push_back(result.metrics.violationFraction *
                                  100.0);
                wake_p99.push_back(result.wakeP99Seconds);
            }
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        wall_ms.push_back(ms);
        events_per_sec.push_back(
            ms > 0.0 ? static_cast<double>(events) / (ms / 1000.0) : 0.0);
    }

    addMetric(cell, "energy_j", energy_j);
    addMetric(cell, "sla_violation_pct", sla_pct);
    addMetric(cell, "wake_p99_s", wake_p99);
    addMetric(cell, "wall_ms", wall_ms);
    addMetric(cell, "events_per_sec", events_per_sec);
    cell.status = telemetry::CellStatus::Ok;
    return cell;
}

std::string
cellFilePath(const std::string &out_dir, std::uint64_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "cell_%05llu.json",
                  static_cast<unsigned long long>(index));
    return out_dir + "/cells/" + name;
}

namespace {

/**
 * Try to reload a finished cell from a previous run. A cell only resumes
 * when its id matches, it finished Ok, AND it was produced by a manifest
 * with the same content hash — an edited grid (duration, axis values,
 * seeds) used to be silently trusted because the cell id alone cannot see
 * changes to duration or the seed list. A hash mismatch sets @p stale so
 * the caller can say why the cell is re-running.
 */
bool
tryResume(const std::string &path, const CellSpec &spec,
          const std::string &manifest_hash, telemetry::SweepCell &out,
          bool &stale)
{
    stale = false;
    std::ifstream in(path);
    if (!in)
        return false;
    telemetry::SweepCell cell;
    std::string error;
    if (!telemetry::readCellJson(in, cell, &error))
        return false;
    if (cell.id != spec.id || cell.status != telemetry::CellStatus::Ok)
        return false;
    if (cell.manifestHash != manifest_hash) {
        stale = true;
        return false;
    }
    out = std::move(cell);
    return true;
}

void
persistCell(const std::string &path, const telemetry::SweepCell &cell)
{
    // Write-then-rename so a killed sweep never leaves a half-written
    // file that a later --resume would half-trust.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        telemetry::writeCellJson(cell, out);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
}

#if !defined(_WIN32)
/** Run one cell as a child process; never throws. */
telemetry::SweepCell
runCellProcess(const SweepManifest &manifest, const CellSpec &spec,
               int repeats, const RunOptions &options)
{
    telemetry::SweepCell cell = skeletonCell(spec, manifest, repeats);
    const std::string cell_out = cellFilePath(options.outDir, spec.index);
    const std::string index_str = std::to_string(spec.index);
    const std::string repeats_str = std::to_string(repeats);

    const pid_t pid = ::fork();
    if (pid < 0) {
        cell.status = telemetry::CellStatus::Failed;
        cell.error = "fork failed";
        return cell;
    }
    if (pid == 0) {
        const char *argv[] = {options.selfExe.c_str(),
                              options.manifestPath.c_str(),
                              "--cell",
                              index_str.c_str(),
                              "--cell-out",
                              cell_out.c_str(),
                              "--repeats",
                              repeats_str.c_str(),
                              nullptr};
        ::execv(options.selfExe.c_str(),
                const_cast<char *const *>(argv));
        ::_exit(127); // exec failed
    }

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(options.timeoutS > 0.0
                                          ? options.timeoutS
                                          : 1e9);
    int wait_status = 0;
    bool timed_out = false;
    for (;;) {
        const pid_t done = ::waitpid(pid, &wait_status, WNOHANG);
        if (done == pid)
            break;
        if (done < 0) {
            cell.status = telemetry::CellStatus::Failed;
            cell.error = "waitpid failed";
            return cell;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &wait_status, 0);
            timed_out = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    if (timed_out) {
        cell.status = telemetry::CellStatus::Timeout;
        cell.error = "killed after " + axisNum(options.timeoutS) + " s";
        return cell;
    }
    if (WIFSIGNALED(wait_status)) {
        cell.status = telemetry::CellStatus::Failed;
        cell.error =
            "terminated by signal " + std::to_string(WTERMSIG(wait_status));
        return cell;
    }
    if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
        cell.status = telemetry::CellStatus::Failed;
        cell.error = "exit status " +
                     std::to_string(WIFEXITED(wait_status)
                                        ? WEXITSTATUS(wait_status)
                                        : -1);
        return cell;
    }

    // The child wrote the finished cell; read it back.
    std::ifstream in(cell_out);
    telemetry::SweepCell parsed;
    std::string error;
    if (!in || !telemetry::readCellJson(in, parsed, &error)) {
        cell.status = telemetry::CellStatus::Failed;
        cell.error = "child produced no readable cell file: " + error;
        return cell;
    }
    return parsed;
}
#endif

} // namespace

bool
runSweep(const SweepManifest &manifest, const std::vector<CellSpec> &cells,
         const RunOptions &options, telemetry::SweepMatrix &out,
         std::ostream &log, std::string *error)
{
    const int repeats = options.repeatsOverride > 0
                            ? options.repeatsOverride
                            : manifest.repeats;

    std::error_code ec;
    std::filesystem::create_directories(options.outDir + "/cells", ec);
    if (ec) {
        if (error)
            *error = "cannot create output directory '" + options.outDir +
                     "': " + ec.message();
        return false;
    }
#if defined(_WIN32)
    if (options.exec == ExecMode::Process) {
        if (error)
            *error = "process execution mode is not supported on Windows";
        return false;
    }
#else
    if (options.exec == ExecMode::Process && options.selfExe.empty()) {
        if (error)
            *error = "process mode needs the sweep executable path";
        return false;
    }
#endif

    // Each cell's simulation must be single-threaded: the cell worker
    // threads ARE the parallelism. This also forces the lazy global pool
    // to initialize before any worker races to do it.
    sim::setGlobalThreads(1);

    out.name = manifest.name;
    out.threads = options.threads;
    out.exec = options.exec == ExecMode::InProc ? "inproc" : "process";
    out.cells.assign(cells.size(), telemetry::SweepCell{});

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::mutex log_mutex;
    const std::string manifest_hash = manifestContentHash(manifest);

    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;
            const CellSpec &spec = cells[i];
            const std::string path =
                cellFilePath(options.outDir, spec.index);

            telemetry::SweepCell cell;
            bool resumed = false;
            bool stale = false;
            if (options.resume &&
                tryResume(path, spec, manifest_hash, cell, stale)) {
                resumed = true;
            } else {
                if (stale) {
                    const std::lock_guard<std::mutex> guard(log_mutex);
                    log << "[sweep] " << spec.id
                        << ": stale cell (manifest changed), re-running\n";
                }
#if !defined(_WIN32)
                if (options.exec == ExecMode::Process)
                    cell = runCellProcess(manifest, spec, repeats, options);
                else
                    cell = runCell(manifest, spec, repeats);
#else
                cell = runCell(manifest, spec, repeats);
#endif
                persistCell(path, cell);
            }

            const std::size_t finished =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            {
                const std::lock_guard<std::mutex> guard(log_mutex);
                log << "[sweep] " << finished << "/" << cells.size() << " "
                    << spec.id << " -> " << toString(cell.status)
                    << (resumed ? " (resumed)" : "")
                    << (cell.error.empty() ? "" : ": " + cell.error)
                    << "\n";
            }
            out.cells[spec.index] = std::move(cell);
        }
    };

    const int workers = std::max(1, options.threads);
    if (workers == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return true;
}

} // namespace vpm::sweep
