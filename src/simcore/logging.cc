#include "simcore/logging.hh"

#include <cstdio>
#include <iostream>
#include <map>
#include <utility>

namespace sim {

namespace {

LogLevel gLevel = LogLevel::Warn;
std::function<std::uint64_t()> gLogClock;
/** Per-component overrides; longest matching prefix wins. */
std::map<std::string, LogLevel> gOverrides;

/** "[<s>.<9-digit ns>] " when a clock is installed; "" otherwise, so
 *  clock-less output stays byte-identical to the historical format. */
std::string
stamp()
{
    if (!gLogClock)
        return {};
    const std::uint64_t t = gLogClock();
    char buf[40];
    std::snprintf(buf, sizeof buf, "[%llu.%09llu] ",
                  static_cast<unsigned long long>(t / 1000000000ULL),
                  static_cast<unsigned long long>(t % 1000000000ULL));
    return buf;
}

/** Effective level for @p msg: the longest registered component
 *  prefix the message starts with, else the global level. */
LogLevel
levelFor(const std::string &msg)
{
    LogLevel level = gLevel;
    std::size_t best = 0;
    for (const auto &[prefix, l] : gOverrides) {
        if (prefix.size() >= best &&
            msg.compare(0, prefix.size(), prefix) == 0) {
            best = prefix.size();
            level = l;
        }
    }
    return level;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    gLevel = level;
}

void
setLogClock(std::function<std::uint64_t()> clock)
{
    gLogClock = std::move(clock);
}

void
setLogLevelFor(const std::string &componentPrefix, LogLevel level)
{
    gOverrides[componentPrefix] = level;
}

void
clearLogLevelOverrides()
{
    gOverrides.clear();
}

void
warnStr(const std::string &msg)
{
    if (levelFor(msg) >= LogLevel::Warn)
        std::cerr << "warn: " << stamp() << msg << std::endl;
}

void
informStr(const std::string &msg)
{
    if (levelFor(msg) >= LogLevel::Inform)
        std::cout << "info: " << stamp() << msg << std::endl;
}

void
debugStr(const std::string &msg)
{
    if (levelFor(msg) >= LogLevel::Debug)
        std::cerr << "debug: " << stamp() << msg << std::endl;
}

} // namespace sim
