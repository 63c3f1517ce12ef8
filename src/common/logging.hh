/**
 * @file
 * Logging and error-reporting primitives in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated; this is a bug in the
 *            simulator itself. Aborts so a debugger/core dump is useful.
 * fatal()  — the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments). Exits with code 1.
 * warn()   — something is modelled approximately; the run continues.
 * inform() — plain status output.
 *
 * Thread-safety: the sinks are mutex-guarded and the level is atomic,
 * so concurrent experiment cells (see common/thread_pool.hh) may log
 * freely without interleaving mid-line.
 */

#ifndef QEI_COMMON_LOGGING_HH
#define QEI_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <source_location>
#include <string>
#include <string_view>
#include <type_traits>

#include "format.hh"

namespace qei {

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Process-wide log verbosity; defaults to Warn so tests stay quiet. */
LogLevel logLevel();

/** Set the process-wide log verbosity. */
void setLogLevel(LogLevel level);

/**
 * A format string that remembers where it was written. Its implicit
 * constructor takes std::source_location::current() as a default
 * argument, which is evaluated at the caller's conversion — so panic(),
 * fatal() and simAssert() report the line that called them, not a line
 * in this header.
 */
struct SourceFormat
{
    template <typename S>
        requires std::is_convertible_v<const S&, std::string_view>
    SourceFormat(const S& fmt_str, std::source_location where =
                                       std::source_location::current())
        : str(fmt_str), loc(where)
    {
    }

    std::string_view str;
    std::source_location loc;
};

namespace detail {

[[noreturn]] void panicImpl(std::string_view msg,
                            std::source_location loc);
[[noreturn]] void fatalImpl(std::string_view msg,
                            std::source_location loc);
void warnImpl(std::string_view msg);
void informImpl(std::string_view msg);
void debugImpl(std::string_view msg);

} // namespace detail

/** Abort with a formatted message; use for simulator bugs only. */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
panic(SourceFormat fmt_str, const Args&... args)
{
    detail::panicImpl(fmt(fmt_str.str, args...), fmt_str.loc);
}

/** Exit(1) with a formatted message; use for user/config errors. */
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void
fatal(SourceFormat fmt_str, const Args&... args)
{
    detail::fatalImpl(fmt(fmt_str.str, args...), fmt_str.loc);
}

/** Non-fatal warning about approximate or suspicious behaviour. */
template <typename... Args>
void
warn(std::string_view fmt_str, const Args&... args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::warnImpl(fmt(fmt_str, args...));
}

/** Informational status message. */
template <typename... Args>
void
inform(std::string_view fmt_str, const Args&... args)
{
    if (logLevel() >= LogLevel::Info)
        detail::informImpl(fmt(fmt_str, args...));
}

/** Debug-level trace message. */
template <typename... Args>
void
debugLog(std::string_view fmt_str, const Args&... args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::debugImpl(fmt(fmt_str, args...));
}

/**
 * Check an invariant that must hold regardless of user input.
 * Unlike assert(), stays active in release builds. The passing path is
 * one inlined branch; formatting happens only in the cold panic().
 */
template <typename... Args>
[[gnu::always_inline]] inline void
simAssert(bool cond, SourceFormat fmt_str, const Args&... args)
{
    if (!cond) [[unlikely]]
        panic(fmt_str, args...);
}

} // namespace qei

#endif // QEI_COMMON_LOGGING_HH
