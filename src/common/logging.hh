/**
 * @file
 * Error reporting in the gem5 style.
 *
 * panic() — internal invariant violated (simulator bug).
 * fatal() — user error (bad configuration / arguments).
 * warn()  — suspicious but survivable condition.
 *
 * panic() and fatal() both print their message to stderr and throw
 * SimError: a driver that does not catch it terminates, and a test
 * can assert on it.
 */

#ifndef TP_COMMON_LOGGING_HH
#define TP_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace tp {

/** Exception thrown by panic()/fatal() so tests can assert on them. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list ap);

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and throw SimError.
 *
 * Use when something happened that should never happen regardless of
 * user input, i.e. a simulator bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and throw SimError.
 *
 * Use for invalid configurations or arguments; not a simulator bug.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; never stops the simulation. */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert a simulator invariant; on failure calls panic() with the
 * stringified condition. Enabled in all build types (unlike assert()).
 */
#define tp_assert(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::tp::panic("assertion '%s' failed at %s:%d",               \
                        #cond, __FILE__, __LINE__);                     \
        }                                                               \
    } while (0)

} // namespace tp

#endif // TP_COMMON_LOGGING_HH
