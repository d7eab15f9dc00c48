/**
 * @file
 * Logging and error-reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * - panic():  an internal simulator bug; never the user's fault.
 * - fatal():  the simulation cannot continue due to a configuration or
 *             usage error.
 * - warn():   something is off but the simulation proceeds.
 * - inform(): plain status output.
 *
 * panic() and fatal() throw exceptions (rather than aborting) so that
 * unit tests can assert on them.
 */

#ifndef SIMCORE_LOGGING_HH
#define SIMCORE_LOGGING_HH

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sim {

/** Thrown by panic(): an internal simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** Thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

namespace detail {

inline void
streamAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
streamAll(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    streamAll(os, rest...);
}

/** Concatenate heterogeneous arguments into one message string. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    streamAll(os, args...);
    return os.str();
}

} // namespace detail

/** Global verbosity control for warn()/inform(). */
enum class LogLevel { Quiet, Warn, Inform, Debug };

/** Set the process-wide log level (default: Warn). */
void setLogLevel(LogLevel level);

/**
 * Install a sim-time source for log timestamps. With a clock
 * installed every warn/inform/debug line is prefixed with the
 * current sim time as "[<s>.<9-digit ns>] "; without one the output
 * is byte-identical to the historical format. Pass an empty function
 * to uninstall (the bench harness installs the event queue's clock
 * while BMCAST_TRACE is armed and uninstalls it at teardown).
 */
void setLogClock(std::function<std::uint64_t()> clock);

/**
 * Per-component verbosity: messages whose text starts with
 * @p componentPrefix (components conventionally lead their messages
 * with name() + ": ") use @p level instead of the global one. The
 * longest matching prefix wins, so setLogLevelFor("node0.vmm", ...)
 * covers "node0.vmm.copy" until a more specific override exists.
 */
void setLogLevelFor(const std::string &componentPrefix,
                    LogLevel level);

/** Drop every per-component override. */
void clearLogLevelOverrides();

/** Emit a warning to stderr (if the log level allows). */
void warnStr(const std::string &msg);
/** Emit an informational message to stdout (if the log level allows). */
void informStr(const std::string &msg);
/** Emit a debug message to stderr (if the log level allows). */
void debugStr(const std::string &msg);

/** Report an internal simulator bug and throw PanicError. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(detail::concat("panic: ", args...));
}

/** Report an unrecoverable user error and throw FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(detail::concat("fatal: ", args...));
}

/** Warn without stopping the simulation. */
template <typename... Args>
void
warn(const Args &...args)
{
    warnStr(detail::concat(args...));
}

/** Print a status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    informStr(detail::concat(args...));
}

/** Print a debug message (only at LogLevel::Debug). */
template <typename... Args>
void
debug(const Args &...args)
{
    debugStr(detail::concat(args...));
}

/** panic() unless the condition holds. */
template <typename... Args>
void
panicIfNot(bool cond, const Args &...args)
{
    if (!cond)
        panic(args...);
}

/** fatal() if the condition holds. */
template <typename... Args>
void
fatalIf(bool cond, const Args &...args)
{
    if (cond)
        fatal(args...);
}

} // namespace sim

#endif // SIMCORE_LOGGING_HH
