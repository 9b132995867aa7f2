/**
 * @file
 * The one command-line protocol every program in the tree follows. A
 * program binds each of its flags and operands to a typed destination
 * and hands argv over; the parser owns everything else:
 *
 *  - `--help` (plus any alias the program adds, e.g. `-h`) anywhere on
 *    the line prints the program's usage text to stdout and exits 0;
 *    `--version`, for programs that declare one, prints its line the
 *    same way;
 *  - an unknown flag, a flag without its value, a malformed or
 *    out-of-range value, and a missing or surplus operand print
 *    `<prog>: <reason>` and the usage text to stderr and exit 2.
 *
 * A token that starts with '-' (other than "-" itself) is a flag; any
 * other token is the next operand. A flag's value is always the next
 * token, so `--since-us -5` works. Values go through sim::parseInteger /
 * sim::parseNumber (the whole token must be the value), integers are
 * range-checked against their destination type so nothing narrows
 * silently, and every `--threads` flag is capped at sim::kMaxThreads.
 *
 * Header-only, so no library the benchmark links gains code.
 */

#ifndef VPM_SIMCORE_FLAG_PARSER_HPP
#define VPM_SIMCORE_FLAG_PARSER_HPP

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/parse_number.hpp"
#include "simcore/thread_pool.hpp"

namespace vpm::sim {

/** As a number's minimum: admits exactly the numbers > 0. */
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/** A typed destination for one flag value or operand. */
struct FlagValue
{
    /** What a valid value looks like, for the diagnostic
     *  ("<flag> wants <wants>, got '<text>'"). */
    std::string wants;
    /** Stores a valid @p text; false (destination untouched) otherwise. */
    std::function<bool(const char *text)> store;

    /** Base-10 integer in [@p min, @p max], clipped to @p Int's range. */
    template <class Int>
    static FlagValue
    integer(Int &dest, long long min, long long max = LLONG_MAX)
    {
        static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
        using Limits = std::numeric_limits<Int>;
        min = std::max(min, static_cast<long long>(Limits::min()));
        if (static_cast<unsigned long long>(Limits::max()) <
            static_cast<unsigned long long>(max))
            max = static_cast<long long>(Limits::max());
        std::string wants = "an integer " +
                            (max == LLONG_MAX
                                 ? ">= " + std::to_string(min)
                                 : "in [" + std::to_string(min) + ", " +
                                       std::to_string(max) + "]");
        return {std::move(wants), [&dest, min, max](const char *token) {
                    const std::optional<long long> v =
                        parseInteger(token, min, max);
                    if (v)
                        dest = static_cast<Int>(*v);
                    return v.has_value();
                }};
    }

    /** Finite number no smaller than @p min. */
    static FlagValue
    number(double &dest, double min = -HUGE_VAL)
    {
        return numberInto(min, [&dest](double v) { dest = v; });
    }

    /** Like number(), but every value is appended (a variadic operand). */
    static FlagValue
    numbers(std::vector<double> &dest, double min)
    {
        return numberInto(min, [&dest](double v) { dest.push_back(v); });
    }

    /** Any string, stored verbatim. */
    static FlagValue
    text(std::string &dest)
    {
        return {"a value", [&dest](const char *token) {
                    dest = token;
                    return true;
                }};
    }

    /** One of a fixed set of names, stored as the name's value. */
    template <class T>
    static FlagValue
    oneOf(T &dest, std::initializer_list<std::pair<const char *, T>> names)
    {
        std::vector<std::pair<std::string, T>> table(names.begin(),
                                                     names.end());
        std::string wants = "one of ";
        for (std::size_t i = 0; i < table.size(); ++i)
            wants += (i > 0 ? "|" : "") + table[i].first;
        return {std::move(wants),
                [&dest, table = std::move(table)](const char *token) {
                    for (const auto &[name, value] : table) {
                        if (name == token) {
                            dest = value;
                            return true;
                        }
                    }
                    return false;
                }};
    }

  private:
    static FlagValue
    numberInto(double min, std::function<void(double)> put)
    {
        std::string wants = "a number";
        if (min == kPositive) {
            wants += " > 0";
        } else if (min != -HUGE_VAL) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), " >= %g", min);
            wants += buf;
        }
        return {std::move(wants),
                [min, put = std::move(put)](const char *token) {
                    const std::optional<double> v = parseNumber(token, min);
                    if (v)
                        put(*v);
                    return v.has_value();
                }};
    }
};

/** Binds a program's flags and operands, then parses argv (see @file). */
class FlagParser
{
  public:
    enum class Outcome
    {
        Run,     ///< every token bound; the program goes on
        Help,    ///< print usage to stdout, exit 0
        Version, ///< print the version line to stdout, exit 0
        Error,   ///< print `<prog>: <error>` and usage to stderr, exit 2
    };
    struct Result
    {
        Outcome outcome = Outcome::Run;
        std::string error;
    };
    enum class Arity
    {
        Required, ///< exactly one token
        Optional, ///< zero or one token
        Many,     ///< zero or more tokens (must be the last operand)
    };

    /** @p prog prefixes every diagnostic; @p usage prints the program's
     *  one usage text to the given stream. */
    FlagParser(std::string prog, std::function<void(std::FILE *)> usage)
        : prog_(std::move(prog)), usage_(std::move(usage))
    {
    }

    /** Another spelling of `--help`. */
    FlagParser &
    helpAlias(const char *name)
    {
        helpNames_.emplace_back(name);
        return *this;
    }

    /** Makes `--version` print @p line (newline included) and exit 0. */
    FlagParser &
    version(std::string line)
    {
        version_ = std::move(line);
        return *this;
    }

    /** A switch: present stores @p value (`--no-verify` passes false). */
    FlagParser &
    flag(const char *name, bool &dest, bool value = true)
    {
        const auto set = [&dest, value](const char *) {
            dest = value;
            return true;
        };
        add(name, Kind::Switch).value = {"", set};
        return *this;
    }

    /** A flag that takes the next token as its value. */
    FlagParser &
    flag(const char *name, FlagValue value)
    {
        add(name, Kind::Value).value = std::move(value);
        return *this;
    }

    FlagParser &
    flag(const char *name, std::string &dest)
    {
        return flag(name, FlagValue::text(dest));
    }

    template <class Int,
              std::enable_if_t<std::is_integral_v<Int> &&
                                   !std::is_same_v<Int, bool>,
                               int> = 0>
    FlagParser &
    flag(const char *name, Int &dest, long long min,
         long long max = LLONG_MAX)
    {
        return flag(name, FlagValue::integer(dest, min, max));
    }

    FlagParser &
    flag(const char *name, double &dest, double min = -HUGE_VAL)
    {
        return flag(name, FlagValue::number(dest, min));
    }

    template <class T>
    FlagParser &
    choice(const char *name, T &dest,
           std::initializer_list<std::pair<const char *, T>> names)
    {
        return flag(name, FlagValue::oneOf(dest, names));
    }

    /** A worker-thread count: an integer in [1, sim::kMaxThreads]. */
    FlagParser &
    threads(const char *name, int &dest)
    {
        return flag(name, dest, 1, kMaxThreads);
    }

    /**
     * A flag whose value may be left out: present alone it stores
     * @p bare; the next token becomes its value only when it does not
     * start with '-' and is a valid value (otherwise it is parsed as the
     * next flag or operand).
     */
    template <class Int>
    FlagParser &
    optionalValue(const char *name, Int &dest, Int bare, long long min)
    {
        Binding &b = add(name, Kind::OptionalValue);
        b.value = FlagValue::integer(dest, min);
        b.bare = [&dest, bare] { dest = bare; };
        return *this;
    }

    /** A required string operand. */
    FlagParser &
    operand(const char *name, std::string &dest)
    {
        return operand(name, FlagValue::text(dest), Arity::Required);
    }

    /** Operands bind in declaration order. */
    FlagParser &
    operand(const char *name, FlagValue value, Arity arity)
    {
        Binding &b = add(name, Kind::Operand);
        b.value = std::move(value);
        b.arity = arity;
        return *this;
    }

    /** Parse argv[1..argc) into the bound destinations. Prints nothing
     *  and never exits; parseOrExit() acts on the outcome. */
    Result
    parse(int argc, const char *const *argv)
    {
        for (Binding &b : bindings_)
            b.seen = false;
        for (int i = 1; i < argc; ++i) {
            const std::string_view token = argv[i];
            if (token == "--help" ||
                std::find(helpNames_.begin(), helpNames_.end(), token) !=
                    helpNames_.end())
                return {Outcome::Help, {}};
            if (token == "--version" && !version_.empty())
                return {Outcome::Version, {}};
        }

        std::size_t next_operand = 0;
        for (int i = 1; i < argc; ++i) {
            const char *token = argv[i];
            if (token[0] != '-' || token[1] == '\0') {
                Binding *b = nextOperand(next_operand);
                if (b == nullptr)
                    return error("unexpected argument '" +
                                 std::string(token) + "'");
                if (!b->value.store(token))
                    return badValue(*b, token);
                b->seen = true;
                if (b->arity != Arity::Many)
                    ++next_operand;
                continue;
            }
            Binding *b = findFlag(token);
            if (b == nullptr)
                return error("unknown option '" + std::string(token) + "'");
            b->seen = true;
            if (b->kind == Kind::Switch) {
                b->value.store(token);
            } else if (b->kind == Kind::OptionalValue) {
                b->bare();
                if (i + 1 < argc && argv[i + 1][0] != '-' &&
                    b->value.store(argv[i + 1]))
                    ++i;
            } else if (i + 1 >= argc) {
                return error(b->name + " needs a value");
            } else if (!b->value.store(argv[++i])) {
                return badValue(*b, argv[i]);
            }
        }

        for (const Binding &b : bindings_)
            if (b.kind == Kind::Operand && b.arity == Arity::Required &&
                !b.seen)
                return error("missing " + b.name);
        return {};
    }

    /** parse(), then act on the outcome (see @file); returns only on Run. */
    void
    parseOrExit(int argc, const char *const *argv)
    {
        const Result result = parse(argc, argv);
        switch (result.outcome) {
          case Outcome::Run:
            return;
          case Outcome::Help:
            usage_(stdout);
            std::exit(0);
          case Outcome::Version:
            std::fputs(version_.c_str(), stdout);
            std::exit(0);
          case Outcome::Error:
            fail(result.error);
        }
    }

    /** Report a usage error the bindings cannot express (a flag that
     *  needs another, flags that exclude each other): `<prog>: <reason>`
     *  and usage to stderr, exit 2. */
    [[noreturn]] void
    fail(const std::string &reason) const
    {
        std::fprintf(stderr, "%s: %s\n", prog_.c_str(), reason.c_str());
        usage_(stderr);
        std::exit(2);
    }

    /** Whether the last parse() met flag or operand @p name. */
    bool
    seen(std::string_view name) const
    {
        for (const Binding &b : bindings_)
            if (b.name == name)
                return b.seen;
        return false;
    }

  private:
    enum class Kind
    {
        Switch,
        Value,
        OptionalValue,
        Operand,
    };
    struct Binding
    {
        std::string name;
        Kind kind = Kind::Switch;
        FlagValue value;               ///< a Switch's ignores the token
        std::function<void()> bare;    ///< OptionalValue without its value
        Arity arity = Arity::Required; ///< Operand
        bool seen = false;
    };

    Binding &
    add(const char *name, Kind kind)
    {
        Binding &b = bindings_.emplace_back();
        b.name = name;
        b.kind = kind;
        return b;
    }

    Binding *
    findFlag(std::string_view token)
    {
        for (Binding &b : bindings_)
            if (b.kind != Kind::Operand && b.name == token)
                return &b;
        return nullptr;
    }

    /** The @p index-th operand binding, or nullptr past the last. */
    Binding *
    nextOperand(std::size_t index)
    {
        for (Binding &b : bindings_)
            if (b.kind == Kind::Operand && index-- == 0)
                return &b;
        return nullptr;
    }

    static Result
    error(std::string reason)
    {
        return {Outcome::Error, std::move(reason)};
    }

    static Result
    badValue(const Binding &b, const char *text)
    {
        return error(b.name + " wants " + b.value.wants + ", got '" +
                     text + "'");
    }

    std::string prog_;
    std::function<void(std::FILE *)> usage_;
    std::vector<std::string> helpNames_;
    std::string version_;
    std::vector<Binding> bindings_;
};

} // namespace vpm::sim

#endif // VPM_SIMCORE_FLAG_PARSER_HPP
