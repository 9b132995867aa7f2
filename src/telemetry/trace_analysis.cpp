#include "telemetry/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <type_traits>

#include "telemetry/event_journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json_util.hpp"

namespace vpm::telemetry {

namespace {

double
usToS(std::int64_t us)
{
    return static_cast<double>(us) * 1e-6;
}

} // namespace

std::vector<TraceRecord>
recordsFromJournal(const EventJournal &journal)
{
    std::vector<TraceRecord> out;
    for (const JournalEvent &ev : journal.sortedEvents()) {
        TraceRecord rec;
        rec.timeUs = ev.timeUs;
        rec.seq = ev.seq;
        rec.kind = toString(ev.kind);
        rec.track = journal.trackName(ev.domain, ev.track);
        if (rec.track.empty())
            rec.track =
                std::string(toString(ev.domain)) + std::to_string(ev.track);
        if (ev.domain == TrackDomain::Host)
            rec.host = ev.track;
        else if (ev.domain == TrackDomain::Vm)
            rec.vm = ev.track;
        rec.cause = ev.cause;
        rec.causeSeq = ev.causeSeq;
        rec.textA = journal.label(ev.labelA);
        rec.textB = journal.label(ev.labelB);
        rec.textC = journal.label(ev.labelC);
        rec.a = ev.a;
        rec.b = ev.b;
        rec.c = ev.c;
        out.push_back(std::move(rec));
    }
    return out;
}

bool
parseJournalLine(const std::string &line, TraceRecord &out)
{
    using Kind = JsonValue::Kind;
    JsonValue doc;
    if (line.empty() || !parseJson(line, doc, nullptr))
        return false;
    const JsonValue *t = doc.find("t_us", Kind::Number);
    const JsonValue *kind = doc.find("kind", Kind::String);
    if (t == nullptr || kind == nullptr)
        return false;

    TraceRecord rec;
    rec.timeUs = static_cast<std::int64_t>(t->number);
    rec.kind = kind->string;
    // Undo the per-kind field naming back into the JournalEvent slots.
    const auto text = [&](const char *key, std::string &slot) {
        if (const JsonValue *v = doc.find(key, Kind::String))
            slot = v->string;
    };
    const auto num = [&](const char *key, auto &slot) {
        if (const JsonValue *v = doc.find(key, Kind::Number))
            slot = static_cast<std::remove_reference_t<decltype(slot)>>(
                v->number);
    };
    num("seq", rec.seq);
    text("track", rec.track);
    num("host", rec.host);
    num("vm", rec.vm);
    num("cause", rec.cause);
    num("cause_seq", rec.causeSeq);
    if (rec.kind == "power_transition") {
        text("from", rec.textA);
        text("to", rec.textB);
        text("state", rec.textC);
        num("dur_s", rec.a);
        num("joules", rec.b);
    } else if (rec.kind == "migration_start") {
        num("src", rec.a);
        num("dst", rec.b);
        num("expected_s", rec.c);
    } else if (rec.kind == "migration_finish") {
        num("src", rec.a);
        num("dst", rec.b);
        num("dur_s", rec.c);
    } else if (rec.kind == "migration_abort") {
        text("reason", rec.textA);
        num("src", rec.a);
        num("dst", rec.b);
    } else if (rec.kind == "forecast") {
        text("predictor", rec.textA);
        num("forecast", rec.a);
        num("actual", rec.b);
    } else if (rec.kind == "sleep_decision") {
        text("state", rec.textA);
        num("expected_idle_s", rec.a);
        num("idle_w", rec.b);
        num("sleep_w", rec.c);
    } else if (rec.kind == "wake_decision") {
        text("reason", rec.textA);
    } else if (rec.kind == "migrate_decision") {
        text("reason", rec.textA);
        num("moves", rec.a);
        num("subject_host", rec.b);
    } else if (rec.kind == "sla_violation") {
        num("satisfaction", rec.a);
        num("demand_mhz", rec.b);
    } else if (rec.kind == "idle_transition") {
        text("level", rec.textA);
        text("from", rec.textB);
        text("to", rec.textC);
        num("cores", rec.a);
        num("dur_s", rec.b);
        num("joules", rec.c);
    } else if (rec.kind == "alert") {
        text("rule", rec.textA);
        text("op", rec.textB);
        text("series", rec.textC);
        num("value", rec.a);
        num("threshold", rec.b);
        num("buckets", rec.c);
    }
    out = std::move(rec);
    return true;
}

std::vector<TraceRecord>
readJournalFile(std::istream &in)
{
    std::vector<TraceRecord> out;
    std::string line;
    TraceRecord rec;
    while (std::getline(in, line)) {
        if (parseJournalLine(line, rec))
            out.push_back(std::move(rec));
    }
    return out;
}

namespace {

/** One completed migration with its reconstructed start time. */
struct FinishedMigration
{
    std::int64_t startUs;
    std::int64_t finishUs;
    std::int32_t dst;
};

/** Per-host transition index plus lookup helpers. */
struct TransitionIndex
{
    std::map<std::int32_t, std::vector<const TraceRecord *>> byHost;
    std::set<const TraceRecord *> used; ///< fallback matching bookkeeping

    /**
     * First transition on @p host at or after @p fromUs whose closed phase
     * is @p from (and, when @p to is non-null, whose next phase is @p to).
     * With a non-zero @p cause only records stamped with it match; with
     * cause 0 (legacy traces) the first unused record matches.
     */
    const TraceRecord *
    find(std::int32_t host, std::int64_t fromUs, const char *from,
         const char *to, std::uint64_t cause)
    {
        const auto it = byHost.find(host);
        if (it == byHost.end())
            return nullptr;
        for (const TraceRecord *rec : it->second) {
            if (rec->timeUs < fromUs || rec->textA != from)
                continue;
            if (to && rec->textB != to)
                continue;
            if (cause != 0) {
                if (rec->cause == cause)
                    return rec;
            } else if (!used.contains(rec)) {
                used.insert(rec);
                return rec;
            }
        }
        return nullptr;
    }

    /** Any transition closing a @p from span at or after @p fromUs,
     *  regardless of cause. Distinguishes "the journal ended before the
     *  span closed" (truncated) from "the span closed under the wrong
     *  cause" (a broken chain). */
    bool
    any(std::int32_t host, std::int64_t fromUs, const char *from) const
    {
        const auto it = byHost.find(host);
        if (it == byHost.end())
            return false;
        for (const TraceRecord *rec : it->second) {
            if (rec->timeUs >= fromUs && rec->textA == from)
                return true;
        }
        return false;
    }
};

} // namespace

TraceAnalysis
analyzeTrace(const std::vector<TraceRecord> &records,
             const AnalyzerOptions &options)
{
    TraceAnalysis analysis;

    TransitionIndex transitions;
    std::vector<FinishedMigration> migrations;
    std::vector<const TraceRecord *> wake_decisions, sleep_decisions,
        violations;

    for (const TraceRecord &rec : records) {
        if (rec.kind == "power_transition" && rec.host >= 0) {
            transitions.byHost[rec.host].push_back(&rec);
        } else if (rec.kind == "migration_finish") {
            const auto dur_us = static_cast<std::int64_t>(rec.c * 1e6 + 0.5);
            migrations.push_back({rec.timeUs - dur_us, rec.timeUs,
                                  static_cast<std::int32_t>(rec.b)});
        } else if (rec.kind == "wake_decision") {
            wake_decisions.push_back(&rec);
        } else if (rec.kind == "sleep_decision") {
            sleep_decisions.push_back(&rec);
        } else if (rec.kind == "sla_violation") {
            violations.push_back(&rec);
        } else if (rec.kind == "idle_transition") {
            ++analysis.idleTransitions;
            if (rec.cause != 0)
                ++analysis.idleTransitionsAttributed;
            analysis.idleTransitionJoules += rec.c;
        } else if (rec.kind == "alert") {
            const bool known_op = rec.textB == "above" ||
                                  rec.textB == "below" ||
                                  rec.textB == "rate_above" ||
                                  rec.textB == "absence";
            if (rec.textA.empty() || !known_op || rec.c < 1.0) {
                ++analysis.malformedAlerts;
                continue;
            }
            AlertSummary *summary = nullptr;
            for (AlertSummary &existing : analysis.alerts) {
                if (existing.rule == rec.textA) {
                    summary = &existing;
                    break;
                }
            }
            if (!summary) {
                AlertSummary fresh;
                fresh.rule = rec.textA;
                fresh.op = rec.textB;
                fresh.series = rec.textC;
                fresh.firstUs = rec.timeUs;
                fresh.firstCause = rec.cause;
                analysis.alerts.push_back(std::move(fresh));
                summary = &analysis.alerts.back();
            }
            ++summary->count;
            summary->lastUs = rec.timeUs;
            if (rec.cause != 0)
                ++summary->attributed;
        }
    }

    const auto window_us =
        static_cast<std::int64_t>(options.respreadWindowS * 1e6 + 0.5);

    // ---- Wake chains -----------------------------------------------------
    for (const TraceRecord *wd : wake_decisions) {
        WakeChain chain;
        chain.decisionId = wd->cause;
        chain.host = wd->host;
        chain.hostName = wd->track;
        chain.reason = wd->textA;
        chain.decisionUs = wd->timeUs;

        // The exit's beginning is journaled as the record *closing* the
        // Asleep span. With a latched wake it appears only once the entry
        // completes — that gap is the decision's wait component.
        const TraceRecord *exit_start = transitions.find(
            wd->host, wd->timeUs, "Asleep", "Exiting", chain.decisionId);
        if (exit_start) {
            chain.exitStartUs = exit_start->timeUs;
            const TraceRecord *on =
                transitions.find(wd->host, exit_start->timeUs, "Exiting",
                                 "On", chain.decisionId);
            if (on)
                chain.onUs = on->timeUs;
        }

        if (chain.onUs >= 0) {
            // Respread: migrations landing on the woken host that started
            // within the window after it came On.
            chain.serviceUs = chain.onUs;
            for (const FinishedMigration &mig : migrations) {
                if (mig.dst != chain.host || mig.startUs < chain.onUs ||
                    mig.startUs > chain.onUs + window_us)
                    continue;
                ++chain.inboundMigrations;
                chain.serviceUs = std::max(chain.serviceUs, mig.finishUs);
            }
            chain.waitS = usToS(chain.exitStartUs - chain.decisionUs);
            chain.resumeS = usToS(chain.onUs - chain.exitStartUs);
            chain.respreadS = usToS(chain.serviceUs - chain.onUs);
            chain.endToEndS = usToS(chain.serviceUs - chain.decisionUs);
            chain.complete = true;
        } else {
            // Missing records are legitimate only when the journal ended
            // while the host was still mid-transition: no record exists
            // anywhere that would have closed the missing span.
            const char *missing_from = exit_start ? "Exiting" : "Asleep";
            const std::int64_t after =
                exit_start ? exit_start->timeUs : wd->timeUs;
            chain.truncated =
                !transitions.any(wd->host, after, missing_from);
        }
        analysis.wakes.push_back(std::move(chain));
    }

    // ---- Sleep chains ----------------------------------------------------
    for (const TraceRecord *sd : sleep_decisions) {
        SleepChain chain;
        chain.decisionId = sd->cause;
        chain.host = sd->host;
        chain.hostName = sd->track;
        chain.state = sd->textA;
        chain.decisionUs = sd->timeUs;
        chain.idleW = sd->b;
        chain.sleepW = sd->c;

        double spent_j = 0.0, episode_s = 0.0;
        const TraceRecord *entry = transitions.find(
            sd->host, sd->timeUs, "Entering", "Asleep", chain.decisionId);
        const TraceRecord *woke = nullptr;
        if (entry) {
            chain.entryS = entry->a;
            spent_j += entry->b;
            // The asleep span closes when the wake's exit begins; its
            // cause is the wake decision that ended this episode. Walk
            // past forceOff's Asleep->Asleep re-notes, accumulating.
            std::int64_t at = entry->timeUs;
            for (;;) {
                const TraceRecord *close =
                    transitions.find(sd->host, at, "Asleep", nullptr, 0);
                if (!close)
                    break;
                chain.asleepS += close->a;
                spent_j += close->b;
                at = close->timeUs;
                if (close->textB != "Asleep") {
                    woke = close;
                    break;
                }
            }
        }
        if (woke) {
            chain.wakeUs = woke->timeUs;
            chain.wakeDecisionId = woke->cause;
            const TraceRecord *on = transitions.find(
                sd->host, woke->timeUs, "Exiting", "On", woke->cause);
            if (on) {
                chain.backOnUs = on->timeUs;
                chain.exitS = on->a;
                spent_j += on->b;
            }
        }
        chain.open = chain.backOnUs < 0;
        episode_s = chain.entryS + chain.asleepS + chain.exitS;
        chain.netSavedJ = chain.idleW * episode_s - spent_j;
        chain.grossSavedJ = (chain.idleW - chain.sleepW) * chain.asleepS;
        analysis.sleeps.push_back(std::move(chain));
    }

    // ---- Violation attribution -------------------------------------------
    // Episode windows run from the sleep decision until the woken host is
    // serving again (the matching wake chain's service point when known).
    std::vector<std::int64_t> window_end(analysis.sleeps.size());
    for (std::size_t i = 0; i < analysis.sleeps.size(); ++i) {
        const SleepChain &sc = analysis.sleeps[i];
        std::int64_t end = sc.open ? std::numeric_limits<std::int64_t>::max()
                                   : sc.backOnUs;
        if (sc.wakeDecisionId != 0) {
            for (const WakeChain &wc : analysis.wakes) {
                if (wc.decisionId == sc.wakeDecisionId && wc.serviceUs >= 0)
                    end = std::max(end, wc.serviceUs);
            }
        }
        window_end[i] = end;
    }
    analysis.violations = violations.size();
    for (const TraceRecord *violation : violations) {
        // Latest decision whose window covers the violation; else the
        // latest decision before it (capacity parked earlier and not yet
        // respread is still the cause of a shortfall).
        std::size_t best = analysis.sleeps.size();
        bool best_covers = false;
        for (std::size_t i = 0; i < analysis.sleeps.size(); ++i) {
            const SleepChain &sc = analysis.sleeps[i];
            if (sc.decisionUs > violation->timeUs)
                continue;
            const bool covers = window_end[i] >= violation->timeUs;
            if (best == analysis.sleeps.size() ||
                (covers && !best_covers) ||
                (covers == best_covers &&
                 sc.decisionUs >= analysis.sleeps[best].decisionUs)) {
                best = i;
                best_covers = covers;
            }
        }
        if (best < analysis.sleeps.size()) {
            ++analysis.sleeps[best].violationsCharged;
            ++analysis.violationsAttributed;
        }
    }

    // ---- Summary ---------------------------------------------------------
    int complete = 0;
    for (const WakeChain &chain : analysis.wakes) {
        if (!chain.complete)
            continue;
        ++complete;
        analysis.totalWaitS += chain.waitS;
        analysis.totalResumeS += chain.resumeS;
        analysis.totalRespreadS += chain.respreadS;
        analysis.meanEndToEndS += chain.endToEndS;
        analysis.maxEndToEndS =
            std::max(analysis.maxEndToEndS, chain.endToEndS);
        if (chain.waitS >= chain.resumeS && chain.waitS >= chain.respreadS)
            ++analysis.dominatedByWait;
        else if (chain.resumeS >= chain.respreadS)
            ++analysis.dominatedByResume;
        else
            ++analysis.dominatedByRespread;
    }
    if (complete > 0)
        analysis.meanEndToEndS /= complete;
    return analysis;
}

void
writeAnalysisText(const TraceAnalysis &analysis, std::ostream &out)
{
    char buf[256];
    out << "wake-latency decomposition (" << analysis.wakes.size()
        << " chains)\n";
    if (!analysis.wakes.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "  %-9s %-8s %-20s %12s %9s %9s %11s %12s %5s\n",
                      "decision", "host", "reason", "decided at", "wait s",
                      "resume s", "respread s", "end-to-end s", "migs");
        out << buf;
        for (const WakeChain &chain : analysis.wakes) {
            if (chain.complete) {
                std::snprintf(
                    buf, sizeof(buf),
                    "  #%-8llu %-8s %-20s %11.1fs %9.3f %9.3f %11.3f "
                    "%12.3f %5d\n",
                    static_cast<unsigned long long>(chain.decisionId),
                    chain.hostName.c_str(), chain.reason.c_str(),
                    usToS(chain.decisionUs), chain.waitS, chain.resumeS,
                    chain.respreadS, chain.endToEndS,
                    chain.inboundMigrations);
            } else {
                std::snprintf(
                    buf, sizeof(buf), "  #%-8llu %-8s %-20s %11.1fs %s\n",
                    static_cast<unsigned long long>(chain.decisionId),
                    chain.hostName.c_str(), chain.reason.c_str(),
                    usToS(chain.decisionUs),
                    chain.truncated ? "(truncated by end of journal)"
                                    : "(INCOMPLETE: missing records)");
            }
            out << buf;
        }
        const double total_s = analysis.totalWaitS + analysis.totalResumeS +
                               analysis.totalRespreadS;
        const auto pct = [&](double v) {
            return total_s > 0.0 ? 100.0 * v / total_s : 0.0;
        };
        std::snprintf(buf, sizeof(buf),
                      "  mean end-to-end %.3f s, max %.3f s\n",
                      analysis.meanEndToEndS, analysis.maxEndToEndS);
        out << buf;
        std::snprintf(buf, sizeof(buf),
                      "  critical path: wait %.1f s (%.0f%%), resume %.1f s "
                      "(%.0f%%), respread %.1f s (%.0f%%); dominant in "
                      "%d/%d/%d chains\n",
                      analysis.totalWaitS, pct(analysis.totalWaitS),
                      analysis.totalResumeS, pct(analysis.totalResumeS),
                      analysis.totalRespreadS, pct(analysis.totalRespreadS),
                      analysis.dominatedByWait, analysis.dominatedByResume,
                      analysis.dominatedByRespread);
        out << buf;
    }

    out << "\nper-decision sleep attribution (" << analysis.sleeps.size()
        << " episodes)\n";
    if (!analysis.sleeps.empty()) {
        std::snprintf(buf, sizeof(buf),
                      "  %-9s %-8s %-6s %12s %10s %13s %6s\n", "decision",
                      "host", "state", "decided at", "slept s",
                      "net saved J", "viol");
        out << buf;
        for (const SleepChain &chain : analysis.sleeps) {
            std::snprintf(
                buf, sizeof(buf),
                "  #%-8llu %-8s %-6s %11.1fs %10.1f %13.0f %6llu%s\n",
                static_cast<unsigned long long>(chain.decisionId),
                chain.hostName.c_str(), chain.state.c_str(),
                usToS(chain.decisionUs), chain.asleepS, chain.netSavedJ,
                static_cast<unsigned long long>(chain.violationsCharged),
                chain.open ? "  (still asleep at end of journal)" : "");
            out << buf;
        }
    }

    if (analysis.idleTransitions > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "\nidle-hierarchy transitions: %llu total, %llu attributed to "
            "a decision, %.3f J of transition energy\n",
            static_cast<unsigned long long>(analysis.idleTransitions),
            static_cast<unsigned long long>(
                analysis.idleTransitionsAttributed),
            analysis.idleTransitionJoules);
        out << buf;
    }

    if (!analysis.alerts.empty() || analysis.malformedAlerts > 0) {
        out << "\nwatchdog alerts (" << analysis.alerts.size()
            << " rules tripped)\n";
        std::snprintf(buf, sizeof(buf),
                      "  %-20s %-10s %-24s %6s %12s %12s %10s\n", "rule",
                      "op", "series", "trips", "first at", "last at",
                      "decision");
        out << buf;
        for (const AlertSummary &alert : analysis.alerts) {
            char cause[24];
            if (alert.firstCause != 0)
                std::snprintf(cause, sizeof(cause), "#%llu",
                              static_cast<unsigned long long>(
                                  alert.firstCause));
            else
                std::snprintf(cause, sizeof(cause), "-");
            std::snprintf(
                buf, sizeof(buf),
                "  %-20s %-10s %-24s %6llu %11.1fs %11.1fs %10s\n",
                alert.rule.c_str(), alert.op.c_str(), alert.series.c_str(),
                static_cast<unsigned long long>(alert.count),
                usToS(alert.firstUs), usToS(alert.lastUs), cause);
            out << buf;
        }
        if (analysis.malformedAlerts > 0) {
            std::snprintf(buf, sizeof(buf),
                          "  %llu MALFORMED alert records\n",
                          static_cast<unsigned long long>(
                              analysis.malformedAlerts));
            out << buf;
        }
    }

    std::snprintf(buf, sizeof(buf),
                  "\nSLA violations: %llu total, %llu attributed, %llu "
                  "unattributed\n",
                  static_cast<unsigned long long>(analysis.violations),
                  static_cast<unsigned long long>(
                      analysis.violationsAttributed),
                  static_cast<unsigned long long>(
                      analysis.violations - analysis.violationsAttributed));
    out << buf;
}

void
writeAnalysisJson(const TraceAnalysis &analysis, std::ostream &out)
{
    out << "{\"wakes\":[";
    bool first = true;
    for (const WakeChain &chain : analysis.wakes) {
        if (!first)
            out << ',';
        first = false;
        out << "{\"decision\":" << chain.decisionId
            << ",\"host\":" << chain.host << ",\"host_name\":\""
            << jsonEscape(chain.hostName) << "\",\"reason\":\""
            << jsonEscape(chain.reason)
            << "\",\"decision_us\":" << chain.decisionUs
            << ",\"complete\":" << (chain.complete ? "true" : "false")
            << ",\"truncated\":" << (chain.truncated ? "true" : "false");
        if (chain.complete) {
            out << ",\"wait_s\":" << fmtDouble(chain.waitS)
                << ",\"resume_s\":" << fmtDouble(chain.resumeS)
                << ",\"respread_s\":" << fmtDouble(chain.respreadS)
                << ",\"end_to_end_s\":" << fmtDouble(chain.endToEndS)
                << ",\"inbound_migrations\":" << chain.inboundMigrations;
        }
        out << '}';
    }
    out << "],\"sleeps\":[";
    first = true;
    for (const SleepChain &chain : analysis.sleeps) {
        if (!first)
            out << ',';
        first = false;
        out << "{\"decision\":" << chain.decisionId
            << ",\"host\":" << chain.host << ",\"host_name\":\""
            << jsonEscape(chain.hostName) << "\",\"state\":\""
            << jsonEscape(chain.state)
            << "\",\"decision_us\":" << chain.decisionUs
            << ",\"entry_s\":" << fmtDouble(chain.entryS)
            << ",\"asleep_s\":" << fmtDouble(chain.asleepS)
            << ",\"exit_s\":" << fmtDouble(chain.exitS)
            << ",\"net_saved_j\":" << fmtDouble(chain.netSavedJ)
            << ",\"gross_saved_j\":" << fmtDouble(chain.grossSavedJ)
            << ",\"wake_decision\":" << chain.wakeDecisionId
            << ",\"violations_charged\":" << chain.violationsCharged
            << ",\"open\":" << (chain.open ? "true" : "false") << '}';
    }
    out << "],\"alerts\":[";
    first = true;
    for (const AlertSummary &alert : analysis.alerts) {
        if (!first)
            out << ',';
        first = false;
        out << "{\"rule\":\"" << jsonEscape(alert.rule) << "\",\"op\":\""
            << jsonEscape(alert.op) << "\",\"series\":\""
            << jsonEscape(alert.series) << "\",\"count\":" << alert.count
            << ",\"first_us\":" << alert.firstUs
            << ",\"last_us\":" << alert.lastUs
            << ",\"first_cause\":" << alert.firstCause
            << ",\"attributed\":" << alert.attributed << '}';
    }
    out << "],\"malformed_alerts\":" << analysis.malformedAlerts
        << ",\"violations\":{\"total\":" << analysis.violations
        << ",\"attributed\":" << analysis.violationsAttributed
        << "},\"idle_transitions\":{\"total\":" << analysis.idleTransitions
        << ",\"attributed\":" << analysis.idleTransitionsAttributed
        << ",\"joules\":" << fmtDouble(analysis.idleTransitionJoules)
        << "},\"summary\":{\"wake_chains\":" << analysis.wakes.size()
        << ",\"total_wait_s\":" << fmtDouble(analysis.totalWaitS)
        << ",\"total_resume_s\":" << fmtDouble(analysis.totalResumeS)
        << ",\"total_respread_s\":" << fmtDouble(analysis.totalRespreadS)
        << ",\"mean_end_to_end_s\":" << fmtDouble(analysis.meanEndToEndS)
        << ",\"max_end_to_end_s\":" << fmtDouble(analysis.maxEndToEndS)
        << ",\"dominant\":{\"wait\":" << analysis.dominatedByWait
        << ",\"resume\":" << analysis.dominatedByResume
        << ",\"respread\":" << analysis.dominatedByRespread << "}}}\n";
}

bool
analysisPassesChecks(const TraceAnalysis &analysis,
                     const AnalyzerOptions &options, std::string *why)
{
    char buf[256];
    for (const WakeChain &chain : analysis.wakes) {
        if (chain.truncated)
            continue;
        if (!chain.complete) {
            if (why) {
                std::snprintf(
                    buf, sizeof(buf),
                    "wake chain (decision %llu, host %s) is missing its "
                    "exit or resume transition",
                    static_cast<unsigned long long>(chain.decisionId),
                    chain.hostName.c_str());
                *why = buf;
            }
            return false;
        }
        const double sum = chain.waitS + chain.resumeS + chain.respreadS;
        const double tolerance_s =
            static_cast<double>(options.toleranceUs) * 1e-6;
        if (std::fabs(sum - chain.endToEndS) > tolerance_s + 1e-12) {
            if (why) {
                std::snprintf(
                    buf, sizeof(buf),
                    "wake chain (decision %llu) components sum to %.6f s "
                    "but end-to-end is %.6f s",
                    static_cast<unsigned long long>(chain.decisionId), sum,
                    chain.endToEndS);
                *why = buf;
            }
            return false;
        }
    }
    if (analysis.malformedAlerts > 0) {
        if (why) {
            std::snprintf(buf, sizeof(buf),
                          "%llu malformed alert records (missing rule/op or "
                          "non-positive streak)",
                          static_cast<unsigned long long>(
                              analysis.malformedAlerts));
            *why = buf;
        }
        return false;
    }
    if (analysis.violationsAttributed < analysis.violations) {
        if (why) {
            std::snprintf(buf, sizeof(buf),
                          "%llu of %llu SLA violations not attributable to "
                          "a sleep decision",
                          static_cast<unsigned long long>(
                              analysis.violations -
                              analysis.violationsAttributed),
                          static_cast<unsigned long long>(
                              analysis.violations));
            *why = buf;
        }
        return false;
    }
    if (why)
        why->clear();
    return true;
}

} // namespace vpm::telemetry
