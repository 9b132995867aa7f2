/**
 * @file The one command-line flag parser (simcore/flag_parser.hpp) that
 * every tool, bench and example hands argv to, tested through parse()
 * so nothing here exits the test process.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "simcore/flag_parser.hpp"
#include "simcore/thread_pool.hpp"

namespace vpm::sim {
namespace {

using Outcome = FlagParser::Outcome;

/** A parser with one flag of each kind, like a small tool's. */
struct Fixture
{
    bool quick = false;
    std::string out;
    int hosts = 8;
    std::uint32_t quantum = 10000;
    double hours = 24.0;
    int threads = 1;
    int watch = 0;
    std::string path;
    FlagParser parser{"tool", [](std::FILE *) {}};

    Fixture()
    {
        parser.flag("--quick", quick)
            .flag("--out", out)
            .flag("--hosts", hosts, 1)
            .flag("--quantum", quantum, 1)
            .flag("--hours", hours, 1e-9)
            .threads("--threads", threads)
            .optionalValue("--watch", watch, 2, 1)
            .operand("input", path);
    }

    FlagParser::Result
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "tool");
        return parser.parse(static_cast<int>(args.size()), args.data());
    }
};

TEST(FlagParserTest, BindsEveryKindOfFlag)
{
    Fixture f;
    const FlagParser::Result r =
        f.parse({"--quick", "--out", "o.json", "--hosts", "16", "in.txt",
                 "--quantum", "4294967295", "--hours", "0.5", "--threads",
                 "8"});
    ASSERT_EQ(r.outcome, Outcome::Run) << r.error;
    EXPECT_TRUE(f.quick);
    EXPECT_EQ(f.out, "o.json");
    EXPECT_EQ(f.hosts, 16);
    EXPECT_EQ(f.quantum, 4294967295u);
    EXPECT_EQ(f.hours, 0.5);
    EXPECT_EQ(f.threads, 8);
    EXPECT_EQ(f.path, "in.txt");
    EXPECT_TRUE(f.parser.seen("--hosts"));
    EXPECT_FALSE(f.parser.seen("--watch"));
}

TEST(FlagParserTest, RejectsMissingValue)
{
    Fixture f;
    const FlagParser::Result r = f.parse({"in.txt", "--hosts"});
    EXPECT_EQ(r.outcome, Outcome::Error);
    EXPECT_EQ(r.error, "--hosts needs a value");
}

TEST(FlagParserTest, RejectsTrailingJunkAndEmptyTokens)
{
    for (const char *bad : {"8x", "", " 8", "eight", "0x10"}) {
        Fixture f;
        const FlagParser::Result r = f.parse({"in.txt", "--hosts", bad});
        EXPECT_EQ(r.outcome, Outcome::Error) << "'" << bad << "'";
        EXPECT_EQ(r.error, std::string("--hosts wants an integer in [1, "
                                       "2147483647], got '") +
                               bad + "'");
        EXPECT_EQ(f.hosts, 8) << "a rejected value must not be stored";
    }
    Fixture f;
    EXPECT_EQ(f.parse({"in.txt", "--hours", "1h"}).outcome, Outcome::Error);
    EXPECT_EQ(f.parse({"in.txt", "--hours", ""}).outcome, Outcome::Error);
}

TEST(FlagParserTest, RejectsValuesBelowTheMinimum)
{
    Fixture f;
    EXPECT_EQ(f.parse({"in.txt", "--hosts", "0"}).outcome, Outcome::Error);
    EXPECT_EQ(f.parse({"in.txt", "--hours", "0"}).outcome, Outcome::Error);
    EXPECT_EQ(f.parse({"in.txt", "--quantum", "-1"}).outcome,
              Outcome::Error);
}

TEST(FlagParserTest, RejectsValuesAboveTheDestinationType)
{
    // The value that used to wrap to 2 VMs / a zero quantum after a
    // static_cast from long long.
    Fixture f;
    const FlagParser::Result hosts =
        f.parse({"in.txt", "--hosts", "4294967298"});
    EXPECT_EQ(hosts.outcome, Outcome::Error);
    EXPECT_EQ(f.hosts, 8);
    const FlagParser::Result quantum =
        f.parse({"in.txt", "--quantum", "4294967296"});
    EXPECT_EQ(quantum.outcome, Outcome::Error);
    EXPECT_EQ(quantum.error, "--quantum wants an integer in [1, 4294967295], "
                             "got '4294967296'");
    EXPECT_EQ(f.quantum, 10000u);
}

TEST(FlagParserTest, RejectsThreadCountsAboveTheBound)
{
    Fixture f;
    const std::string at_bound = std::to_string(kMaxThreads);
    ASSERT_EQ(f.parse({"in.txt", "--threads", at_bound.c_str()}).outcome,
              Outcome::Run);
    EXPECT_EQ(f.threads, static_cast<int>(kMaxThreads));

    const std::string above = std::to_string(kMaxThreads + 1);
    const FlagParser::Result r =
        f.parse({"in.txt", "--threads", above.c_str()});
    EXPECT_EQ(r.outcome, Outcome::Error);
    EXPECT_EQ(r.error, "--threads wants an integer in [1, " + at_bound +
                           "], got '" + above + "'");
    EXPECT_EQ(f.parse({"in.txt", "--threads", "100000"}).outcome,
              Outcome::Error);
    EXPECT_EQ(f.parse({"in.txt", "--threads", "0"}).outcome, Outcome::Error);
}

TEST(FlagParserTest, RejectsUnknownFlags)
{
    Fixture f;
    const FlagParser::Result r = f.parse({"in.txt", "--bogus"});
    EXPECT_EQ(r.outcome, Outcome::Error);
    EXPECT_EQ(r.error, "unknown option '--bogus'");
    EXPECT_EQ(f.parse({"-x", "in.txt"}).outcome, Outcome::Error);
}

TEST(FlagParserTest, OperandsMustBeExactlyThere)
{
    Fixture f;
    const FlagParser::Result extra = f.parse({"in.txt", "other.txt"});
    EXPECT_EQ(extra.outcome, Outcome::Error);
    EXPECT_EQ(extra.error, "unexpected argument 'other.txt'");

    const FlagParser::Result missing = f.parse({"--quick"});
    EXPECT_EQ(missing.outcome, Outcome::Error);
    EXPECT_EQ(missing.error, "missing input");

    // "-" is an operand (stdin/stdout by convention), not a flag.
    ASSERT_EQ(f.parse({"-"}).outcome, Outcome::Run);
    EXPECT_EQ(f.path, "-");
}

TEST(FlagParserTest, HelpAnywhereWinsOverErrors)
{
    Fixture f;
    EXPECT_EQ(f.parse({"--help"}).outcome, Outcome::Help);
    EXPECT_EQ(f.parse({"--bogus", "--hosts", "x", "--help"}).outcome,
              Outcome::Help);
    EXPECT_EQ(f.parse({"-h"}).outcome, Outcome::Error);
    f.parser.helpAlias("-h");
    EXPECT_EQ(f.parse({"-h"}).outcome, Outcome::Help);
    // --version means something only to programs that declare one.
    EXPECT_EQ(f.parse({"--version"}).outcome, Outcome::Error);
    f.parser.version("tool 1\n");
    EXPECT_EQ(f.parse({"--version"}).outcome, Outcome::Version);
}

TEST(FlagParserTest, OptionalValueTakesOnlyAValidNextToken)
{
    Fixture f;
    ASSERT_EQ(f.parse({"--watch", "in.txt"}).outcome, Outcome::Run);
    EXPECT_EQ(f.watch, 2);
    EXPECT_EQ(f.path, "in.txt");

    ASSERT_EQ(f.parse({"--watch", "5", "in.txt"}).outcome, Outcome::Run);
    EXPECT_EQ(f.watch, 5);

    ASSERT_EQ(f.parse({"in.txt", "--watch", "--quick"}).outcome,
              Outcome::Run);
    EXPECT_EQ(f.watch, 2);
    EXPECT_TRUE(f.quick);
}

TEST(FlagParserTest, ValueMayLookLikeAFlag)
{
    std::int64_t since = 0;
    std::string json;
    FlagParser parser{"tool", [](std::FILE *) {}};
    parser.flag("--since-us", since, LLONG_MIN).flag("--json", json);
    const char *argv[] = {"tool", "--since-us", "-5", "--json", "-"};
    ASSERT_EQ(parser.parse(5, argv).outcome, Outcome::Run);
    EXPECT_EQ(since, -5);
    EXPECT_EQ(json, "-");
}

TEST(FlagParserTest, ChoicesSwitchesAndVariadicOperands)
{
    enum class Mode { A, B };
    Mode mode = Mode::A;
    bool verify = true;
    std::vector<double> seconds;
    FlagParser parser{"tool", [](std::FILE *) {}};
    parser.choice("--mode", mode, {{"a", Mode::A}, {"b", Mode::B}})
        .flag("--no-verify", verify, false)
        .operand("seconds", FlagValue::numbers(seconds, kPositive),
                 FlagParser::Arity::Many);

    const char *ok[] = {"tool", "10", "--mode", "b", "0.5", "--no-verify"};
    ASSERT_EQ(parser.parse(6, ok).outcome, Outcome::Run);
    EXPECT_EQ(mode, Mode::B);
    EXPECT_FALSE(verify);
    EXPECT_EQ(seconds, (std::vector<double>{10.0, 0.5}));

    const char *bad_mode[] = {"tool", "--mode", "c"};
    const FlagParser::Result r = parser.parse(3, bad_mode);
    EXPECT_EQ(r.outcome, Outcome::Error);
    EXPECT_EQ(r.error, "--mode wants one of a|b, got 'c'");

    const char *zero[] = {"tool", "0"};
    const FlagParser::Result z = parser.parse(2, zero);
    EXPECT_EQ(z.outcome, Outcome::Error);
    EXPECT_EQ(z.error, "seconds wants a number > 0, got '0'");
}

} // namespace
} // namespace vpm::sim
