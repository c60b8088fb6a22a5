#include "process.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ChildProcess::~ChildProcess()
{
    if (pid_ > 0)
        wait(0.0);
    closePipe();
}

void
ChildProcess::closePipe()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
ChildProcess::spawn(const std::vector<std::string> &argv,
                    const std::vector<std::string> &env, int captureFd,
                    std::string *err)
{
    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, p[1], captureFd);

    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    std::vector<char *> envp;
    for (char **e = environ; *e; e++)
        envp.push_back(*e);
    for (const std::string &e : env)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);

    int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(),
                         envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(p[1]);
    if (rc != 0) {
        ::close(p[0]);
        pid_ = -1;
        *err = "spawn " + argv[0] + ": " + std::strerror(rc);
        return false;
    }
    fd_ = p[0];
    captured_.clear();
    return true;
}

bool
ChildProcess::waitForText(const std::string &needle, double timeoutSec)
{
    double deadline = nowSec() + timeoutSec;
    while (captured_.find(needle) == std::string::npos) {
        double left = deadline - nowSec();
        if (fd_ < 0 || left <= 0)
            return false;
        pollfd pfd = {fd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        char buf[4096];
        ssize_t n = ::read(fd_, buf, sizeof buf);
        if (n <= 0)
            return false;
        captured_.append(buf, static_cast<std::size_t>(n));
    }
    return true;
}

int
ChildProcess::wait(double timeoutSec)
{
    if (pid_ <= 0)
        return -1;
    // Drain the captured stream while waiting so a chatty child never
    // blocks on a full pipe.
    double deadline = nowSec() + timeoutSec;
    int status = 0;
    for (;;) {
        pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_)
            break;
        if (r < 0 && errno != EINTR) {
            pid_ = -1;
            return -1;
        }
        if (nowSec() >= deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
            closePipe();
            return -1;
        }
        if (fd_ >= 0) {
            pollfd pfd = {fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 5) > 0) {
                char buf[4096];
                if (::read(fd_, buf, sizeof buf) <= 0)
                    closePipe();
            }
        } else {
            ::usleep(2000);
        }
    }
    pid_ = -1;
    closePipe();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double
processCpuSec(pid_t pid)
{
    // Per-thread scheduler run time is kept in nanoseconds, unlike the
    // clock-tick totals of /proc/<pid>/stat; the server's threads live
    // as long as the process, so their sum is its CPU time.
    const std::string base = "/proc/" + std::to_string(pid);
    std::error_code ec;
    double ns = 0.0;
    bool any = false;
    for (const auto &task :
         std::filesystem::directory_iterator(base + "/task", ec)) {
        std::ifstream ss(task.path() / "schedstat");
        double run = 0.0;
        if (ss >> run) {
            ns += run;
            any = true;
        }
    }
    if (any)
        return ns * 1e-9;

    std::ifstream in(base + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; i++) {
        if (i == 14)
            utime = std::stoull(field);
        else if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
        static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
selfCpuSec()
{
    timespec ts = {};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                             : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return "";
    return std::string(buf, static_cast<std::size_t>(n));
}

} // namespace perfbench
