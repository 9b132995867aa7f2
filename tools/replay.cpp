/**
 * @file
 * replay — production replay mode: stream recorded demand traces through
 * the simulator, checkpoint mid-run, restore with byte-exact verification,
 * and fork what-if policy branches off one checkpoint.
 *
 * Subcommands:
 *
 *     replay gen-trace --out <file.vpmtrc> [--vms <n>] [--hours <h>]
 *            [--seed <s>] [--load-scale <x>] [--sample-interval-s <s>]
 *            [--quantum <q>] [--chunk-samples <n>]
 *         Synthesize an enterprise-mix fleet and write its demand series
 *         as a vpm-trace-1 file (the stand-in for a production recorder).
 *
 *     replay run (--spec <spec.json> | --trace <file> [spec flags])
 *            [--checkpoint <file.vpmckpt> --checkpoint-hours <h>]
 *            [--json <out.json>] [--threads <n>]
 *         Run a replay session end to end; optionally snapshot a
 *         vpm-ckpt-1 checkpoint mid-run. The result JSON (metrics +
 *         state digest) is byte-identical at any --threads value.
 *
 *     replay resume --checkpoint <file.vpmckpt> [--json <out.json>]
 *            [--threads <n>] [--no-verify]
 *         Rebuild the checkpoint's session, re-execute to the capture
 *         time, byte-verify every state section, and run to the end.
 *
 *     replay branch --checkpoint <file.vpmckpt> --grid <manifest.json>
 *            --out <dir> [--threads <n>] [--no-verify]
 *         Fork one policy variant per grid cell off the checkpoint and
 *         race them, emitting a vpm-sweep-1 matrix plus reports — ready
 *         for sweep_compare and the Pareto gate.
 *
 *     replay inspect (--trace <file> | --checkpoint <file>)
 *         Print the artifact's header facts.
 *
 * Exit codes: 0 ok, 1 some branch cells failed, 2 usage error, 3 bad
 * input / runtime failure, 4 checkpoint verification failure.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "replay/checkpoint.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/flag_parser.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "sweep/manifest.hpp"
#include "sweep/report.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/sweep_matrix.hpp"
#include "workload/mix.hpp"
#include "workload/trace_sampler.hpp"

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: replay <subcommand> [options]\n"
        "  gen-trace --out <file> [--vms <n>] [--hours <h>] [--seed <s>]\n"
        "            [--load-scale <x>] [--sample-interval-s <s>]\n"
        "            [--quantum <q>] [--chunk-samples <n>]\n"
        "  run       (--spec <json> | --trace <file> [spec flags])\n"
        "            [--checkpoint <file> --checkpoint-hours <h>]\n"
        "            [--json <out>] [--threads <n>]\n"
        "            spec flags: --hosts --vms --policy --duration-hours\n"
        "            --eval-interval-s --manager-period-min\n"
        "            --exit-latency-s --loaded-fraction --hierarchical\n"
        "            --seed --window-bytes --governor-period-s\n"
        "  resume    --checkpoint <file> [--json <out>] [--threads <n>]\n"
        "            [--no-verify]\n"
        "  branch    --checkpoint <file> --grid <manifest> --out <dir>\n"
        "            [--threads <n>] [--no-verify]\n"
        "  inspect   (--trace <file> | --checkpoint <file>)\n"
        "exit codes: 0 ok, 1 branch cells failed, 2 usage, 3 bad input,\n"
        "            4 verification failure\n");
}

/** A subcommand's parser: diagnostics read "replay <cmd>: <reason>". */
vpm::sim::FlagParser
subcommandFlags(const char *cmd)
{
    return vpm::sim::FlagParser(std::string("replay ") + cmd, printUsage);
}

std::string
num17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Deterministic result JSON: metrics that are byte-identical at any
 *  thread count, plus the state digest — the CI cmp artifact. */
void
writeResultJson(const vpm::replay::ReplaySession &session,
                const vpm::mgmt::ScenarioResult &result,
                std::uint64_t digest, std::ostream &out)
{
    char digest_hex[20];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    const vpm::replay::ReplaySpec &spec = session.spec();
    out << "{\n";
    out << "  \"schema\": \"vpm-replay-result-1\",\n";
    out << "  \"name\": \"" << vpm::telemetry::jsonEscape(spec.name)
        << "\",\n";
    out << "  \"policy\": \"" << vpm::telemetry::jsonEscape(spec.policy)
        << "\",\n";
    out << "  \"hosts\": " << spec.hosts << ",\n";
    out << "  \"duration_hours\": " << num17(spec.durationHours) << ",\n";
    out << "  \"seed\": " << spec.seed << ",\n";
    out << "  \"state_digest\": \"" << digest_hex << "\",\n";
    out << "  \"events_processed\": " << result.eventsProcessed << ",\n";
    out << "  \"metrics\": {\n";
    out << "    \"energy_kwh\": " << num17(result.metrics.energyKwh)
        << ",\n";
    out << "    \"average_power_w\": "
        << num17(result.metrics.averagePowerWatts) << ",\n";
    out << "    \"sla_violation_pct\": "
        << num17(result.metrics.violationFraction * 100.0) << ",\n";
    out << "    \"satisfaction\": " << num17(result.metrics.satisfaction)
        << ",\n";
    out << "    \"average_hosts_on\": "
        << num17(result.metrics.averageHostsOn) << ",\n";
    out << "    \"migrations\": " << result.metrics.migrations << ",\n";
    out << "    \"power_actions\": " << result.metrics.powerActions
        << ",\n";
    out << "    \"offered_load\": " << num17(result.offeredLoadFraction)
        << ",\n";
    out << "    \"ideal_proportional_kwh\": "
        << num17(result.idealProportionalKwh) << ",\n";
    out << "    \"wakes\": " << result.wakes << ",\n";
    out << "    \"wake_p99_s\": " << num17(result.wakeP99Seconds) << ",\n";
    out << "    \"idle_transitions\": " << result.idleTransitions << ",\n";
    out << "    \"joint_speed_transitions\": "
        << result.jointSpeedTransitions << ",\n";
    out << "    \"joint_idle_transitions\": "
        << result.jointIdleTransitions << ",\n";
    out << "    \"manager_cycles\": " << result.manager.cycles << ",\n";
    out << "    \"sleeps_issued\": " << result.manager.sleepsIssued
        << ",\n";
    out << "    \"wakes_issued\": " << result.manager.wakesIssued << "\n";
    out << "  }\n";
    out << "}\n";
}

int
cmdGenTrace(int argc, char **argv)
{
    std::string out_path;
    int vms = 100;
    double hours = 24.0;
    std::uint64_t seed = 42;
    double load_scale = 1.0;
    double sample_interval_s = 900.0;
    std::uint32_t quantum = 10000;
    std::uint32_t chunk_samples = 512;

    vpm::sim::FlagParser flags = subcommandFlags("gen-trace");
    flags.flag("--out", out_path)
        .flag("--vms", vms, 1)
        .flag("--hours", hours, 1e-9)
        .flag("--seed", seed, 0)
        .flag("--load-scale", load_scale, 1e-9)
        .flag("--sample-interval-s", sample_interval_s, 1e-9)
        .flag("--quantum", quantum, 1)
        .flag("--chunk-samples", chunk_samples, 2)
        .parseOrExit(argc, argv);
    if (out_path.empty())
        flags.fail("--out is required");

    vpm::sim::Rng rng(seed);
    vpm::workload::MixConfig mix;
    mix.loadScale = load_scale;
    const std::vector<vpm::workload::VmWorkloadSpec> fleet =
        vpm::workload::makeEnterpriseMix(rng, vms, mix);

    vpm::replay::TraceFileWriter writer(
        out_path, static_cast<std::uint32_t>(vms), quantum, chunk_samples);
    if (!writer.ok()) {
        std::fprintf(stderr, "replay: cannot write '%s'\n",
                     out_path.c_str());
        return 3;
    }
    const vpm::sim::SimTime end = vpm::sim::SimTime::hours(hours);
    const vpm::sim::SimTime interval =
        vpm::sim::SimTime::seconds(sample_interval_s);
    for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(vms); ++v) {
        const std::vector<vpm::workload::TraceSample> samples =
            vpm::workload::sampleTrace(*fleet[v].trace, vpm::sim::SimTime(),
                                       end, interval);
        for (const vpm::workload::TraceSample &sample : samples)
            writer.append(v, sample.tUs, sample.utilization);
    }
    std::string error;
    if (!writer.finish(&error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::printf("replay: wrote '%s': %d VMs, %.17g h, %llu breakpoints\n",
                out_path.c_str(), vms, hours,
                static_cast<unsigned long long>(writer.totalSamples()));
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string spec_path;
    std::string checkpoint_path;
    double checkpoint_hours = -1.0;
    std::string json_path;
    int threads = 0;
    vpm::replay::ReplaySpec spec;

    vpm::sim::FlagParser flags = subcommandFlags("run");
    flags.flag("--spec", spec_path)
        .flag("--trace", spec.tracePath)
        .flag("--hosts", spec.hosts, 1)
        .flag("--vms", spec.vms, 0)
        .flag("--policy", spec.policy)
        .flag("--duration-hours", spec.durationHours, 1e-9)
        .flag("--eval-interval-s", spec.evalIntervalS, 1e-9)
        .flag("--manager-period-min", spec.managerPeriodMin, 1e-9)
        .flag("--exit-latency-s", spec.exitLatencyS, 0.0)
        .flag("--loaded-fraction", spec.loadedFraction, 1e-9)
        .flag("--hierarchical", spec.hierarchical)
        .flag("--seed", spec.seed, 0)
        .flag("--window-bytes", spec.windowBytes, 1)
        .flag("--governor-period-s", spec.governorPeriodS, 0.0)
        .flag("--checkpoint", checkpoint_path)
        .flag("--checkpoint-hours", checkpoint_hours, 0.0)
        .flag("--json", json_path)
        .threads("--threads", threads)
        .parseOrExit(argc, argv);
    static constexpr const char *kSpecFlags[] = {
        "--trace",           "--hosts",           "--vms",
        "--policy",          "--duration-hours",  "--eval-interval-s",
        "--manager-period-min", "--exit-latency-s",
        "--loaded-fraction", "--hierarchical",    "--seed",
        "--window-bytes",    "--governor-period-s"};
    const bool have_flags =
        std::any_of(std::begin(kSpecFlags), std::end(kSpecFlags),
                    [&](const char *name) { return flags.seen(name); });

    if (!spec_path.empty() && have_flags)
        flags.fail("--spec excludes inline spec flags");
    std::string error;
    if (!spec_path.empty()) {
        std::ifstream in(spec_path);
        if (!in) {
            std::fprintf(stderr, "replay: cannot open spec '%s'\n",
                         spec_path.c_str());
            return 3;
        }
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        if (!vpm::replay::parseSpecJson(text, spec, &error)) {
            std::fprintf(stderr, "replay: '%s': %s\n", spec_path.c_str(),
                         error.c_str());
            return 3;
        }
    } else if (spec.tracePath.empty()) {
        flags.fail("--spec or --trace is required");
    }
    if (!checkpoint_path.empty() && checkpoint_hours < 0.0)
        flags.fail("--checkpoint needs --checkpoint-hours");
    if (checkpoint_hours >= spec.durationHours && !checkpoint_path.empty())
        flags.fail("--checkpoint-hours must be < duration");

    if (threads > 0)
        vpm::sim::setGlobalThreads(static_cast<unsigned>(threads));

    std::unique_ptr<vpm::replay::ReplaySession> session =
        vpm::replay::ReplaySession::create(spec, &error);
    if (!session) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }

    if (!checkpoint_path.empty()) {
        session->runTo(vpm::sim::SimTime::hours(checkpoint_hours));
        const vpm::replay::CheckpointData ckpt = session->capture();
        if (!vpm::replay::writeCheckpoint(ckpt, checkpoint_path, &error)) {
            std::fprintf(stderr, "replay: %s\n", error.c_str());
            return 3;
        }
        std::fprintf(stderr,
                     "replay: checkpoint '%s' at %.17g h (%llu events)\n",
                     checkpoint_path.c_str(), checkpoint_hours,
                     static_cast<unsigned long long>(ckpt.eventsProcessed));
    }

    const vpm::mgmt::ScenarioResult result = session->finish();
    const std::uint64_t digest = session->stateDigest();
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "replay: cannot write '%s'\n",
                         json_path.c_str());
            return 3;
        }
        writeResultJson(*session, result, digest, out);
    } else {
        writeResultJson(*session, result, digest, std::cout);
    }
    return 0;
}

int
cmdResume(int argc, char **argv)
{
    std::string checkpoint_path;
    std::string json_path;
    int threads = 0;
    bool verify = true;

    vpm::sim::FlagParser flags = subcommandFlags("resume");
    flags.flag("--checkpoint", checkpoint_path)
        .flag("--json", json_path)
        .threads("--threads", threads)
        .flag("--no-verify", verify, false)
        .parseOrExit(argc, argv);
    if (checkpoint_path.empty())
        flags.fail("--checkpoint is required");

    if (threads > 0)
        vpm::sim::setGlobalThreads(static_cast<unsigned>(threads));

    vpm::replay::CheckpointData ckpt;
    std::string error;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::unique_ptr<vpm::replay::ReplaySession> session =
        vpm::replay::restoreCheckpoint(ckpt, verify, &error);
    if (!session) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return error.find("verification failed") != std::string::npos ? 4
                                                                      : 3;
    }
    if (verify)
        std::fprintf(stderr,
                     "replay: checkpoint verified, resuming at %lld us\n",
                     static_cast<long long>(ckpt.timeUs));

    const vpm::mgmt::ScenarioResult result = session->finish();
    const std::uint64_t digest = session->stateDigest();
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "replay: cannot write '%s'\n",
                         json_path.c_str());
            return 3;
        }
        writeResultJson(*session, result, digest, out);
    } else {
        writeResultJson(*session, result, digest, std::cout);
    }
    return 0;
}

int
cmdBranch(int argc, char **argv)
{
    std::string checkpoint_path;
    std::string grid_path;
    std::string out_dir;
    vpm::replay::BranchOptions options;

    vpm::sim::FlagParser flags = subcommandFlags("branch");
    flags.flag("--checkpoint", checkpoint_path)
        .flag("--grid", grid_path)
        .flag("--out", out_dir)
        .threads("--threads", options.threads)
        .flag("--no-verify", options.verify, false)
        .parseOrExit(argc, argv);
    if (checkpoint_path.empty() || grid_path.empty() || out_dir.empty())
        flags.fail("--checkpoint, --grid and --out are required");

    vpm::replay::CheckpointData ckpt;
    std::string error;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::ifstream grid_in(grid_path);
    if (!grid_in) {
        std::fprintf(stderr, "replay: cannot open grid '%s'\n",
                     grid_path.c_str());
        return 3;
    }
    vpm::sweep::SweepManifest manifest;
    if (!vpm::sweep::parseManifest(grid_in, manifest, &error)) {
        std::fprintf(stderr, "replay: '%s': %s\n", grid_path.c_str(),
                     error.c_str());
        return 3;
    }
    const std::vector<vpm::sweep::CellSpec> cells =
        vpm::sweep::expandGrid(manifest);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "replay: cannot create '%s': %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 3;
    }

    vpm::telemetry::SweepMatrix matrix;
    if (!vpm::replay::runBranches(ckpt, manifest, cells, options, matrix,
                                  std::cerr, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return error.find("verification failed") != std::string::npos ? 4
                                                                      : 3;
    }

    {
        std::ofstream out(out_dir + "/matrix.json");
        vpm::telemetry::writeSweepJson(matrix, out);
    }
    const vpm::sweep::ParetoReport pareto =
        vpm::sweep::paretoFrontier(matrix);
    {
        std::ofstream out(out_dir + "/report.txt");
        vpm::sweep::writePolicyTable(matrix, out);
        out << "\n";
        vpm::sweep::writeParetoText(pareto, out);
    }
    {
        std::ofstream out(out_dir + "/report.csv");
        vpm::sweep::writePolicyCsv(matrix, out);
    }

    std::size_t failed = 0;
    for (const vpm::telemetry::SweepCell &cell : matrix.cells)
        if (cell.status != vpm::telemetry::CellStatus::Ok)
            ++failed;
    std::printf("replay branch '%s': %zu variants (%zu failed) -> "
                "%s/matrix.json\n",
                manifest.name.c_str(), matrix.cells.size(), failed,
                out_dir.c_str());
    return failed > 0 ? 1 : 0;
}

int
cmdInspect(int argc, char **argv)
{
    std::string trace_path;
    std::string checkpoint_path;
    vpm::sim::FlagParser flags = subcommandFlags("inspect");
    flags.flag("--trace", trace_path)
        .flag("--checkpoint", checkpoint_path)
        .parseOrExit(argc, argv);
    if (trace_path.empty() == checkpoint_path.empty())
        flags.fail("exactly one of --trace/--checkpoint is required");

    std::string error;
    if (!trace_path.empty()) {
        const std::shared_ptr<vpm::replay::TraceFile> trace =
            vpm::replay::TraceFile::open(trace_path, 1u << 20, &error);
        if (!trace) {
            std::fprintf(stderr, "replay: %s\n", error.c_str());
            return 3;
        }
        const vpm::replay::TraceFileInfo &info = trace->info();
        std::printf("vpm-trace-1 '%s'\n", trace_path.c_str());
        std::printf("  vms:               %u\n", info.vmCount);
        std::printf("  quantum:           %u\n", info.quantum);
        std::printf("  samples_per_chunk: %u\n", info.samplesPerChunk);
        std::printf("  total_samples:     %llu\n",
                    static_cast<unsigned long long>(info.totalSamples));
        return 0;
    }

    vpm::replay::CheckpointData ckpt;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::printf("vpm-ckpt-1 '%s'\n", checkpoint_path.c_str());
    std::printf("  time_us:          %lld\n",
                static_cast<long long>(ckpt.timeUs));
    std::printf("  events_processed: %llu\n",
                static_cast<unsigned long long>(ckpt.eventsProcessed));
    std::printf("  sections:\n");
    for (const auto &[name, bytes] : ckpt.sections)
        std::printf("    %-10s %zu bytes\n", name.c_str(), bytes.size());
    std::printf("  spec:\n%s", ckpt.specJson.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        printUsage(stdout);
        return 0;
    }
    // Each subcommand parses its own argv: argv[1] (its name) plays the
    // part of argv[0].
    if (cmd == "gen-trace")
        return cmdGenTrace(argc - 1, argv + 1);
    if (cmd == "run")
        return cmdRun(argc - 1, argv + 1);
    if (cmd == "resume")
        return cmdResume(argc - 1, argv + 1);
    if (cmd == "branch")
        return cmdBranch(argc - 1, argv + 1);
    if (cmd == "inspect")
        return cmdInspect(argc - 1, argv + 1);
    vpm::sim::FlagParser("replay", printUsage)
        .fail("unknown subcommand '" + cmd + "'");
}
