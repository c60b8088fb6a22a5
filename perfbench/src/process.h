/**
 * @file
 * Child processes and process-level measurements: spawning the system
 * under test, waiting for its readiness line, and reading its CPU time
 * and peak resident memory from /proc.
 */

#ifndef PERFBENCH_PROCESS_H
#define PERFBENCH_PROCESS_H

#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/** Seconds on the monotonic clock. */
double nowSec();

/**
 * A spawned child with one of its output streams captured through a
 * pipe. The destructor kills and reaps a child still running, so no
 * process outlives its owner.
 */
class ChildProcess
{
  public:
    ChildProcess() = default;
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    /**
     * Start @p argv with @p env added to this process's environment.
     * @p captureFd (1 or 2) is piped back for waitForText(); the other
     * stream is inherited. @return false with @p err on failure.
     */
    bool spawn(const std::vector<std::string> &argv,
               const std::vector<std::string> &env, int captureFd,
               std::string *err);

    /**
     * Read the captured stream until it contains @p needle.
     * @return false on EOF or after @p timeoutSec.
     */
    bool waitForText(const std::string &needle, double timeoutSec);

    /**
     * Wait up to @p timeoutSec for exit, then kill. @return the exit
     * status (-1 when killed or not started).
     */
    int wait(double timeoutSec);

    pid_t
    pid() const
    {
        return pid_;
    }

  private:
    void closePipe();

    pid_t pid_ = -1;
    int fd_ = -1;
    std::string captured_;
};

/** CPU seconds of @p pid summed over its live threads, or -1. */
double processCpuSec(pid_t pid);

/** CPU seconds of this process. */
double selfCpuSec();

/** Peak resident set (VmHWM) of @p pid in MiB; 0 means this process. */
double peakRssMb(pid_t pid);

/** Absolute path of the running executable. */
std::string selfExePath();

} // namespace perfbench

#endif // PERFBENCH_PROCESS_H
