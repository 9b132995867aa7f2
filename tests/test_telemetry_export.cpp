/** @file Golden-output tests for the telemetry exporters. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::telemetry {
namespace {

/**
 * A small but kind-complete journal with integer-friendly values, so the
 * golden strings are stable against formatting ambiguity.
 */
void
populate(Telemetry &telemetry)
{
    TelemetryConfig config;
    config.enabled = true;
    config.journalCapacity = 64;
    telemetry.configure(config);

    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 0, "host00");
    journal.registerTrack(TrackDomain::Vm, 7, "vm07");

    // Recorded out of order on purpose: exporters must sort by time.
    journal.powerTransition(2'000'000, 0, "On", "Entering", "S3", 2.0,
                            310.0);
    journal.migrationStart(1'000'000, 7, 0, 1, 3.0);
    journal.forecast(3'000'000, "ewma", 1000.0, 1250.0);
    journal.migrationFinish(4'000'000, 7, 0, 1, 3.0);
    journal.sleepDecision(5'000'000, 0, "S3", 600.0);
    journal.wakeDecision(6'000'000, 0, "capacity-shortfall");
    journal.slaViolation(7'000'000, 7, 0.5, 2000.0);

    telemetry.metrics().gauge("cluster.hosts.on").set(8.0);
    telemetry.sampleSeries(1'000'000);
}

TEST(TelemetryExportTest, JournalJsonlGolden)
{
    Telemetry telemetry;
    populate(telemetry);

    std::ostringstream out;
    writeJournalJsonl(telemetry.journal(), out);

    const char *expected =
        R"({"t_us":1000000,"seq":2,"kind":"migration_start","track":"vm07","vm":7,"src":0,"dst":1,"expected_s":3}
{"t_us":2000000,"seq":1,"kind":"power_transition","track":"host00","host":0,"from":"On","to":"Entering","state":"S3","dur_s":2,"joules":310}
{"t_us":3000000,"seq":3,"kind":"forecast","track":"manager0","predictor":"ewma","forecast":1000,"actual":1250}
{"t_us":4000000,"seq":4,"kind":"migration_finish","track":"vm07","vm":7,"src":0,"dst":1,"dur_s":3}
{"t_us":5000000,"seq":5,"kind":"sleep_decision","track":"host00","host":0,"state":"S3","expected_idle_s":600,"idle_w":0,"sleep_w":0}
{"t_us":6000000,"seq":6,"kind":"wake_decision","track":"host00","host":0,"reason":"capacity-shortfall"}
{"t_us":7000000,"seq":7,"kind":"sla_violation","track":"vm07","vm":7,"satisfaction":0.5,"demand_mhz":2000}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, MetricsCsvGolden)
{
    Telemetry telemetry;
    populate(telemetry);

    std::ostringstream out;
    writeMetricsCsv(telemetry, out);
    EXPECT_EQ(out.str(), "t_us,gauge.cluster.hosts.on\n1000000,8\n");
}

TEST(TelemetryExportTest, ChromeTraceGolden)
{
    Telemetry telemetry;
    populate(telemetry);

    std::ostringstream out;
    writeChromeTrace(telemetry, out);

    const char *expected =
        R"({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"hosts"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"migrations"}},
{"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"manager"}},
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"metrics"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"host00"}},
{"ph":"M","pid":2,"tid":7,"name":"thread_name","args":{"name":"vm07"}},
{"ph":"X","cat":"power","name":"On","pid":1,"tid":0,"ts":0,"dur":2000000,"args":{"to":"Entering","joules":310}},
{"ph":"C","name":"forecast","pid":3,"tid":0,"ts":3000000,"args":{"forecast":1000,"actual":1250}},
{"ph":"X","cat":"migration","name":"migrate host0->host1","pid":2,"tid":7,"ts":1000000,"dur":3000000,"args":{"seconds":3}},
{"ph":"i","s":"p","cat":"decision","name":"sleep(S3) host00","pid":3,"tid":0,"ts":5000000,"args":{"expected_idle_s":600}},
{"ph":"i","s":"p","cat":"decision","name":"wake host00","pid":3,"tid":0,"ts":6000000,"args":{"reason":"capacity-shortfall"}},
{"ph":"i","s":"t","cat":"sla","name":"SLA violation vm07","pid":2,"tid":7,"ts":7000000,"args":{"satisfaction":0.5}},
{"ph":"C","name":"cluster.hosts.on","pid":0,"tid":0,"ts":1000000,"args":{"value":8}}
],"displayTimeUnit":"ms"}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, InFlightMigrationRenderedWithExpectedDuration)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    telemetry.journal().migrationStart(1'000'000, 3, 0, 1, 5.0);

    std::ostringstream out;
    writeChromeTrace(telemetry, out);
    EXPECT_NE(out.str().find("migrate(in flight) host0->host1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"dur\":5000000"), std::string::npos);
}

TEST(TelemetryExportTest, IdleTransitionsRenderedAsHostSpans)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 4, "host04");
    journal.idleTransition(3'000'000, 4, "core", "C0", "C6", 12, 1.5, 0.25);
    journal.idleTransition(5'000'000, 4, "pkg", "PC0", "PC6", 1, 0.5, 2.0);

    std::ostringstream out;
    writeChromeTrace(telemetry, out);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(out.str(), doc, &error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::vector<const JsonValue *> spans;
    for (const JsonValue &ev : events->array)
        if (stringOr(ev.find("cat"), "") == "idle")
            spans.push_back(&ev);
    ASSERT_EQ(spans.size(), 2u);

    const JsonValue &core = *spans[0];
    EXPECT_EQ(stringOr(core.find("ph"), ""), "X");
    EXPECT_EQ(stringOr(core.find("name"), ""), "core C0");
    EXPECT_EQ(numberOr(core.find("pid"), -1), 1.0); // the hosts process
    EXPECT_EQ(numberOr(core.find("tid"), -1), 4.0);
    EXPECT_EQ(numberOr(core.find("ts"), -1), 1'500'000.0);
    EXPECT_EQ(numberOr(core.find("dur"), -1), 1'500'000.0);
    ASSERT_NE(core.find("args"), nullptr);
    EXPECT_EQ(stringOr(core.find("args")->find("to"), ""), "C6");
    EXPECT_EQ(numberOr(core.find("args")->find("cores"), -1), 12.0);
    EXPECT_EQ(numberOr(core.find("args")->find("joules"), -1), 0.25);

    const JsonValue &pkg = *spans[1];
    EXPECT_EQ(stringOr(pkg.find("name"), ""), "pkg PC0");
    EXPECT_EQ(numberOr(pkg.find("ts"), -1), 4'500'000.0);
    EXPECT_EQ(numberOr(pkg.find("dur"), -1), 500'000.0);
    ASSERT_NE(pkg.find("args"), nullptr);
    EXPECT_EQ(stringOr(pkg.find("args")->find("to"), ""), "PC6");
    EXPECT_EQ(numberOr(pkg.find("args")->find("cores"), -1), 1.0);
    EXPECT_EQ(numberOr(pkg.find("args")->find("joules"), -1), 2.0);
}

TEST(TelemetryExportTest, AbortedMigrationNamedAndReasoned)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    telemetry.journal().migrationStart(1'000'000, 3, 0, 1, 5.0);
    telemetry.journal().migrationAbort(2'000'000, 3, 0, 1,
                                       "endpoint lost power");

    std::ostringstream out;
    writeChromeTrace(telemetry, out);
    EXPECT_NE(out.str().find("migrate(aborted) host0->host1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"reason\":\"endpoint lost power\""),
              std::string::npos);
}

TEST(TelemetryExportTest, CauseAndMigrateDecisionFieldsInJsonl)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 3, "host03");

    std::uint64_t decision_seq = 0;
    {
        TraceScope scope(42);
        decision_seq =
            journal.migrateDecision(1'000'000, "evacuate", 2, 3);
        TraceScope inner(TraceContext{42, decision_seq});
        journal.powerTransition(2'000'000, 3, "On", "Entering", "S3", 2.0,
                                310.0);
    }
    // Outside any scope: no cause fields at all.
    journal.wakeDecision(3'000'000, 3, "capacity-shortfall");

    std::ostringstream out;
    writeJournalJsonl(journal, out);
    const std::string expected =
        "{\"t_us\":1000000,\"seq\":1,\"kind\":\"migrate_decision\","
        "\"track\":\"manager0\",\"cause\":42,"
        "\"reason\":\"evacuate\",\"moves\":2,\"subject_host\":3}\n"
        "{\"t_us\":2000000,\"seq\":2,\"kind\":\"power_transition\","
        "\"track\":\"host03\",\"host\":3,\"cause\":42,\"cause_seq\":1,"
        "\"from\":\"On\",\"to\":\"Entering\",\"state\":\"S3\","
        "\"dur_s\":2,\"joules\":310}\n"
        "{\"t_us\":3000000,\"seq\":3,\"kind\":\"wake_decision\","
        "\"track\":\"host03\",\"host\":3,"
        "\"reason\":\"capacity-shortfall\"}\n";
    EXPECT_EQ(decision_seq, 1u);
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, ControlCharactersInLabelsAreEscaped)
{
    // Labels are free text (track names come from user-supplied VM/host
    // names): quotes, backslashes and raw control bytes must come out as
    // valid JSON escapes, never as raw bytes that corrupt the stream.
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 0, "host\t0\n\x01");
    journal.wakeDecision(1'000'000, 0, "line1\nline2\ttab\x02! \"q\" back\\slash");

    std::ostringstream jsonl;
    writeJournalJsonl(journal, jsonl);
    const char *expected =
        R"({"t_us":1000000,"seq":1,"kind":"wake_decision","track":"host\t0\n\u0001","host":0,"reason":"line1\nline2\ttab\u0002! \"q\" back\\slash"}
)";
    EXPECT_EQ(jsonl.str(), expected);

    // The Chrome trace writer shares the same escaper.
    std::ostringstream chrome;
    writeChromeTrace(telemetry, chrome);
    EXPECT_NE(chrome.str().find(R"("name":"host\t0\n\u0001")"),
              std::string::npos);
    EXPECT_EQ(chrome.str().find('\x01'), std::string::npos);
}

TEST(TelemetryExportTest, DisabledTelemetryExportsEmptyShells)
{
    Telemetry telemetry; // disabled

    std::ostringstream jsonl, csv, chrome;
    writeJournalJsonl(telemetry.journal(), jsonl);
    writeMetricsCsv(telemetry, csv);
    writeChromeTrace(telemetry, chrome);

    EXPECT_EQ(jsonl.str(), "");
    EXPECT_EQ(csv.str(), "t_us\n");
    // Still a valid trace file: metadata only, no events.
    EXPECT_NE(chrome.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(chrome.str().find("\"ph\":\"X\""), std::string::npos);
}

} // namespace
} // namespace vpm::telemetry
