/**
 * @file
 * Minimal child-process management for local runner processes.
 *
 * Subprocess wraps the fork/exec/waitpid plumbing the dispatch
 * coordinator (harness/dispatch) needs for its local runners: spawn
 * a binary with an argv vector, optionally redirecting stdout/stderr
 * to files, poll or block for its exit, and kill it. The child
 * inherits the parent's environment and working directory — local
 * runners are always same-machine, same-build peers of the driver.
 *
 * Exit reporting folds normal exits and signal deaths into one
 * ExitStatus so callers can render "exit 3" vs "killed by signal 9"
 * without touching waitpid macros.
 */

#ifndef TP_COMMON_SUBPROCESS_HH
#define TP_COMMON_SUBPROCESS_HH

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace tp {

/** How a child process ended. */
struct ExitStatus
{
    /** True when the child was terminated by a signal. */
    bool signaled = false;
    /** Exit code when !signaled, signal number when signaled. */
    int code = 0;

    /** @return whether the child exited normally with code 0. */
    bool ok() const { return !signaled && code == 0; }

    /** @return "exit N" or "signal N" for diagnostics. */
    std::string describe() const;
};

/** Spawn-time options. */
struct SubprocessOptions
{
    /** Redirect the child's stdout to this file (empty = inherit). */
    std::string stdoutPath;
    /** Redirect the child's stderr to this file (empty = inherit). */
    std::string stderrPath;
};

/**
 * One spawned child process. Movable, not copyable; destroying a
 * still-running Subprocess kills (SIGKILL) and reaps it, so a driver
 * error path never leaks orphan workers.
 */
class Subprocess
{
  public:
    /**
     * Fork and exec `argv` (argv[0] is the binary; resolved via
     * PATH when it contains no slash).
     *
     * @throws SimError when the fork or a redirection file fails;
     *         an exec failure surfaces as exit status 127.
     */
    static Subprocess spawn(const std::vector<std::string> &argv,
                            const SubprocessOptions &options = {});

    /**
     * An empty handle (no child): poll() reports nothing, wait() and
     * kill() are no-ops. Assign a spawn()ed instance over it.
     */
    Subprocess() = default;

    Subprocess(Subprocess &&other) noexcept;
    Subprocess &operator=(Subprocess &&other) noexcept;
    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;
    ~Subprocess();

    /** @return the child's pid (valid until reaped). */
    pid_t pid() const { return pid_; }

    /**
     * Non-blocking poll.
     *
     * @return the exit status once the child has ended, std::nullopt
     *         while it is still running. Idempotent after exit.
     */
    std::optional<ExitStatus> poll();

    /** Block until the child ends; @return its exit status. */
    ExitStatus wait();

    /** Send `sig` (default SIGKILL); no-op once the child ended. */
    void kill(int sig = 9);

  private:
    pid_t pid_ = -1;
    std::optional<ExitStatus> status_;
};

} // namespace tp

#endif // TP_COMMON_SUBPROCESS_HH
