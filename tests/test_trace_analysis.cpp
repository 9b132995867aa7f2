/** @file Unit tests for causal-chain reconstruction (TraceAnalyzer). */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/event_journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/trace_analysis.hpp"

namespace vpm::telemetry {
namespace {

TraceRecord
record(std::int64_t t_us, std::string kind)
{
    TraceRecord rec;
    rec.timeUs = t_us;
    rec.kind = std::move(kind);
    return rec;
}

TraceRecord
transition(std::int64_t t_us, std::int32_t host, const char *from,
           const char *to, double dur_s, double joules, std::uint64_t cause)
{
    TraceRecord rec = record(t_us, "power_transition");
    rec.host = host;
    rec.track = "host" + std::to_string(host);
    rec.textA = from;
    rec.textB = to;
    rec.textC = "S3";
    rec.a = dur_s;
    rec.b = joules;
    rec.cause = cause;
    return rec;
}

/**
 * One full episode on host 0: sleep decision 1 at t=100s, asleep at 102s,
 * wake decision 2 at t=500s (latched exits don't apply: host is Asleep),
 * On at 510s, one inbound migration landing at 540s, and an SLA
 * violation at t=505s while the host was still waking.
 */
std::vector<TraceRecord>
canonicalEpisode()
{
    std::vector<TraceRecord> records;

    TraceRecord sleep = record(100'000'000, "sleep_decision");
    sleep.host = 0;
    sleep.track = "host00";
    sleep.cause = 1;
    sleep.textA = "S3";
    sleep.a = 600.0; // expected idle
    sleep.b = 220.0; // idle watts
    sleep.c = 8.0;   // sleep watts
    records.push_back(sleep);

    // On span closes as the entry begins (cause: sleep decision 1).
    records.push_back(
        transition(100'000'000, 0, "On", "Entering", 50.0, 11000.0, 1));
    // Entry span: 2 s to suspend.
    records.push_back(
        transition(102'000'000, 0, "Entering", "Asleep", 2.0, 300.0, 1));

    TraceRecord wake = record(500'000'000, "wake_decision");
    wake.host = 0;
    wake.track = "host00";
    wake.cause = 2;
    wake.textA = "capacity-shortfall";
    records.push_back(wake);

    // Asleep span closes as the exit begins (cause: wake decision 2).
    records.push_back(
        transition(500'000'000, 0, "Asleep", "Exiting", 398.0, 3184.0, 2));
    // Exit span: 10 s to resume.
    records.push_back(
        transition(510'000'000, 0, "Exiting", "On", 10.0, 1500.0, 2));

    TraceRecord violation = record(505'000'000, "sla_violation");
    violation.vm = 3;
    violation.track = "vm03";
    violation.a = 0.8;
    violation.b = 2000.0;
    records.push_back(violation);

    // Respread migration: starts at 520s (after On), lands at 540s.
    TraceRecord mig = record(540'000'000, "migration_finish");
    mig.vm = 3;
    mig.track = "vm03";
    mig.a = 1.0; // src
    mig.b = 0.0; // dst = the woken host
    mig.c = 20.0;
    mig.cause = 2;
    records.push_back(mig);

    return records;
}

TEST(TraceAnalysisTest, WakeChainDecomposesAndSums)
{
    const TraceAnalysis analysis = analyzeTrace(canonicalEpisode());

    ASSERT_EQ(analysis.wakes.size(), 1u);
    const WakeChain &chain = analysis.wakes[0];
    EXPECT_TRUE(chain.complete);
    EXPECT_FALSE(chain.truncated);
    EXPECT_EQ(chain.decisionId, 2u);
    EXPECT_EQ(chain.host, 0);
    EXPECT_EQ(chain.reason, "capacity-shortfall");
    EXPECT_DOUBLE_EQ(chain.waitS, 0.0);      // host was already Asleep
    EXPECT_DOUBLE_EQ(chain.resumeS, 10.0);   // exit latency
    EXPECT_DOUBLE_EQ(chain.respreadS, 30.0); // On 510s -> landed 540s
    EXPECT_DOUBLE_EQ(chain.endToEndS, 40.0);
    EXPECT_EQ(chain.inboundMigrations, 1);
    EXPECT_DOUBLE_EQ(chain.waitS + chain.resumeS + chain.respreadS,
                     chain.endToEndS);

    std::string why;
    EXPECT_TRUE(analysisPassesChecks(analysis, {}, &why)) << why;
}

TEST(TraceAnalysisTest, SleepChainEnergyAccounting)
{
    const TraceAnalysis analysis = analyzeTrace(canonicalEpisode());

    ASSERT_EQ(analysis.sleeps.size(), 1u);
    const SleepChain &chain = analysis.sleeps[0];
    EXPECT_EQ(chain.decisionId, 1u);
    EXPECT_EQ(chain.wakeDecisionId, 2u);
    EXPECT_FALSE(chain.open);
    EXPECT_DOUBLE_EQ(chain.entryS, 2.0);
    EXPECT_DOUBLE_EQ(chain.asleepS, 398.0);
    EXPECT_DOUBLE_EQ(chain.exitS, 10.0);
    // idle watts over the episode minus joules actually spent in it.
    const double episode_s = 2.0 + 398.0 + 10.0;
    const double spent_j = 300.0 + 3184.0 + 1500.0;
    EXPECT_DOUBLE_EQ(chain.netSavedJ, 220.0 * episode_s - spent_j);
    EXPECT_DOUBLE_EQ(chain.grossSavedJ, (220.0 - 8.0) * 398.0);
}

TEST(TraceAnalysisTest, ViolationChargedToCoveringSleepDecision)
{
    const TraceAnalysis analysis = analyzeTrace(canonicalEpisode());
    EXPECT_EQ(analysis.violations, 1u);
    EXPECT_EQ(analysis.violationsAttributed, 1u);
    ASSERT_EQ(analysis.sleeps.size(), 1u);
    EXPECT_EQ(analysis.sleeps[0].violationsCharged, 1u);
}

TEST(TraceAnalysisTest, MissingExitRecordFailsCheckUnlessTruncated)
{
    // Mis-attribute the Exiting->On record (wrong cause): the exit
    // demonstrably completed, so the chain is broken, not truncated.
    std::vector<TraceRecord> broken = canonicalEpisode();
    for (TraceRecord &rec : broken) {
        if (rec.kind == "power_transition" && rec.textA == "Exiting")
            rec.cause = 999;
    }

    TraceAnalysis analysis = analyzeTrace(broken);
    ASSERT_EQ(analysis.wakes.size(), 1u);
    EXPECT_FALSE(analysis.wakes[0].complete);
    std::string why;
    EXPECT_FALSE(analysisPassesChecks(analysis, {}, &why));
    EXPECT_NE(why.find("missing"), std::string::npos);

    // Truncated journal: chain cut off mid-exit is not an error.
    std::vector<TraceRecord> truncated;
    for (const TraceRecord &rec : canonicalEpisode()) {
        if (rec.timeUs >= 510'000'000)
            continue; // journal ended while Exiting
        truncated.push_back(rec);
    }
    analysis = analyzeTrace(truncated);
    ASSERT_EQ(analysis.wakes.size(), 1u);
    EXPECT_FALSE(analysis.wakes[0].complete);
    EXPECT_TRUE(analysis.wakes[0].truncated);
    // The violation is still covered: the episode never closed (open).
    EXPECT_TRUE(analysisPassesChecks(analysis, {}, &why)) << why;
}

TEST(TraceAnalysisTest, RespreadWindowBoundsInboundAttribution)
{
    std::vector<TraceRecord> records = canonicalEpisode();
    // A migration landing on the host long after the respread window
    // must not stretch the chain.
    TraceRecord late = record(900'000'000, "migration_finish");
    late.vm = 9;
    late.track = "vm09";
    late.a = 1.0;
    late.b = 0.0;
    late.c = 20.0;
    records.push_back(late);

    AnalyzerOptions options;
    options.respreadWindowS = 60.0;
    const TraceAnalysis analysis = analyzeTrace(records, options);
    ASSERT_EQ(analysis.wakes.size(), 1u);
    EXPECT_EQ(analysis.wakes[0].inboundMigrations, 1);
    EXPECT_DOUBLE_EQ(analysis.wakes[0].respreadS, 30.0);
}

TEST(TraceAnalysisTest, JsonlRoundTripReachesSameAnalysis)
{
    // Serialize the canonical episode the way the exporter would, parse
    // it back, and confirm the analysis is unchanged.
    const char *jsonl =
        R"({"t_us":100000000,"seq":1,"kind":"sleep_decision","track":"host00","host":0,"cause":1,"state":"S3","expected_idle_s":600,"idle_w":220,"sleep_w":8}
{"t_us":100000000,"seq":2,"kind":"power_transition","track":"host00","host":0,"cause":1,"from":"On","to":"Entering","state":"S3","dur_s":50,"joules":11000}
{"t_us":102000000,"seq":3,"kind":"power_transition","track":"host00","host":0,"cause":1,"from":"Entering","to":"Asleep","state":"S3","dur_s":2,"joules":300}
{"t_us":500000000,"seq":4,"kind":"wake_decision","track":"host00","host":0,"cause":2,"reason":"capacity-shortfall"}
{"t_us":500000000,"seq":5,"kind":"power_transition","track":"host00","host":0,"cause":2,"from":"Asleep","to":"Exiting","state":"S3","dur_s":398,"joules":3184}
{"t_us":510000000,"seq":6,"kind":"power_transition","track":"host00","host":0,"cause":2,"from":"Exiting","to":"On","state":"S3","dur_s":10,"joules":1500}
{"t_us":505000000,"seq":7,"kind":"sla_violation","track":"vm03","vm":3,"satisfaction":0.8,"demand_mhz":2000}
{"t_us":540000000,"seq":8,"kind":"migration_finish","track":"vm03","vm":3,"cause":2,"src":1,"dst":0,"dur_s":20}
)";
    std::istringstream in(jsonl);
    const std::vector<TraceRecord> records = readJournalFile(in);
    ASSERT_EQ(records.size(), 8u);

    const TraceAnalysis analysis = analyzeTrace(records);
    ASSERT_EQ(analysis.wakes.size(), 1u);
    EXPECT_TRUE(analysis.wakes[0].complete);
    EXPECT_DOUBLE_EQ(analysis.wakes[0].endToEndS, 40.0);
    ASSERT_EQ(analysis.sleeps.size(), 1u);
    EXPECT_EQ(analysis.sleeps[0].violationsCharged, 1u);
    std::string why;
    EXPECT_TRUE(analysisPassesChecks(analysis, {}, &why)) << why;
}

TEST(TraceAnalysisTest, ParseRejectsMalformedLines)
{
    TraceRecord rec;
    EXPECT_FALSE(parseJournalLine("", rec));
    EXPECT_FALSE(parseJournalLine("not json", rec));
    EXPECT_FALSE(parseJournalLine(R"({"kind":"forecast"})", rec));
    EXPECT_FALSE(parseJournalLine(R"({"t_us":5})", rec));
    EXPECT_TRUE(
        parseJournalLine(R"({"t_us":5,"kind":"forecast"})", rec));
    EXPECT_EQ(rec.timeUs, 5);
    EXPECT_EQ(rec.kind, "forecast");
}

TEST(TraceAnalysisTest, WritersEmitStableShapes)
{
    const TraceAnalysis analysis = analyzeTrace(canonicalEpisode());

    std::ostringstream text;
    writeAnalysisText(analysis, text);
    EXPECT_NE(text.str().find("wake-latency decomposition"),
              std::string::npos);
    EXPECT_NE(text.str().find("capacity-shortfall"), std::string::npos);

    std::ostringstream json;
    writeAnalysisJson(analysis, json);
    EXPECT_NE(json.str().find("\"wakes\":[{\"decision\":2"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"end_to_end_s\":40"), std::string::npos);
    EXPECT_NE(json.str().find(
                  "\"violations\":{\"total\":1,\"attributed\":1}"),
              std::string::npos);
}

TEST(TraceAnalysisTest, ComponentSumToleranceIsEnforced)
{
    // Forge a chain whose components cannot sum: end-to-end is computed
    // from the same timestamps, so force the mismatch through a doctored
    // analysis rather than a trace.
    TraceAnalysis analysis = analyzeTrace(canonicalEpisode());
    ASSERT_EQ(analysis.wakes.size(), 1u);
    analysis.wakes[0].respreadS += 0.001; // 1 ms > 1 us tolerance
    std::string why;
    EXPECT_FALSE(analysisPassesChecks(analysis, {}, &why));
    EXPECT_NE(why.find("sum"), std::string::npos);

    AnalyzerOptions loose;
    loose.toleranceUs = 10'000;
    EXPECT_TRUE(analysisPassesChecks(analysis, loose, &why)) << why;
}

TEST(TraceAnalysisTest, EscapedRuleNameRoundTripsExactly)
{
    const std::string rule = "a\tb\x01" "c\"d\\e\n";
    EventJournal journal;
    journal.configure(16, true);
    journal.alert(1'000'000, rule, "above", "cluster.power.watts", 512.5,
                  500.0, 2);

    // JSONL -> parseJournalLine: the journal's own escapes decode exactly.
    std::ostringstream jsonl;
    writeJournalJsonl(journal, jsonl);
    TraceRecord rec;
    std::string line = jsonl.str();
    line.pop_back(); // trailing newline
    ASSERT_TRUE(parseJournalLine(line, rec)) << line;
    EXPECT_EQ(rec.textA, rule);
    EXPECT_EQ(rec.a, 512.5);

    // -> trace_analyze --json -> parseJson: the analysis escapes it again.
    std::istringstream in(jsonl.str());
    const TraceAnalysis analysis = analyzeTrace(readJournalFile(in));
    ASSERT_EQ(analysis.alerts.size(), 1u);
    std::ostringstream json;
    writeAnalysisJson(analysis, json);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json.str(), doc, &error)) << error;
    const JsonValue *alerts = doc.find("alerts");
    ASSERT_NE(alerts, nullptr);
    ASSERT_EQ(alerts->array.size(), 1u);
    EXPECT_EQ(stringOr(alerts->array[0].find("rule"), ""), rule);
}

} // namespace
} // namespace vpm::telemetry
