#include "serve_load.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include <poll.h>
#include <sys/socket.h>

#include "process.h"
#include "service/net.h"

namespace perfbench {

namespace {

/** Request id at the head of a reply line `{"id":N,...`, or -1. */
long long
replyId(const std::string &line)
{
    static const char kPrefix[] = "{\"id\":";
    if (line.compare(0, sizeof kPrefix - 1, kPrefix) != 0)
        return -1;
    const char *p = line.c_str() + sizeof kPrefix - 1;
    char *end = nullptr;
    long long id = std::strtoll(p, &end, 10);
    return end == p ? -1 : id;
}

} // namespace

std::size_t
OpenLoopResult::answered() const
{
    return static_cast<std::size_t>(
        std::count_if(recv.begin(), recv.end(),
                      [](double t) { return t >= 0; }));
}

std::vector<double>
OpenLoopResult::latenciesMs() const
{
    std::vector<double> v;
    v.reserve(recv.size());
    for (std::size_t i = 0; i < recv.size(); i++)
        if (recv[i] >= 0)
            v.push_back((recv[i] - due[i]) * 1e3);
    return v;
}

std::vector<double>
OpenLoopResult::latenessMs() const
{
    std::vector<double> v;
    v.reserve(sent.size());
    for (std::size_t i = 0; i < sent.size(); i++)
        v.push_back((sent[i] - due[i]) * 1e3);
    return v;
}

double
OpenLoopResult::achievedRate() const
{
    if (sent.size() < 2 || sent.back() <= sent.front())
        return 0.0;
    return static_cast<double>(sent.size() - 1) /
        (sent.back() - sent.front());
}

OpenLoopResult
runOpenLoop(const std::vector<int> &fds,
            const std::vector<std::string> &lines, std::uint64_t firstId,
            double rate, double drainSec)
{
    const std::size_t n = lines.size();
    OpenLoopResult r;
    r.offeredRate = rate;
    r.due.resize(n);
    r.sent.assign(n, 0.0);
    r.recv.assign(n, -1.0);
    r.replies.resize(n);
    if (n == 0 || fds.empty())
        return r;

    const double t0 = nowSec() + 0.002;
    for (std::size_t i = 0; i < n; i++)
        r.due[i] = t0 + static_cast<double>(i) / rate;
    r.startSec = t0;

    std::vector<pollfd> pfds;
    for (int fd : fds)
        pfds.push_back({fd, POLLIN, 0});
    std::vector<std::string> bufs(fds.size());

    std::size_t next = 0, got = 0;
    bool broken = false;
    while (got < n) {
        double now = nowSec();
        if (!broken && next < n && now >= r.due[next]) {
            r.sent[next] = now;
            if (!rfh::netSendLine(fds[next % fds.size()], lines[next]))
                broken = true;
            next++;
            continue;
        }
        if (broken && next < n) {
            for (; next < n; next++)
                r.sent[next] = r.due[next];
        }
        double until = next < n ? r.due[next] : r.sent[n - 1] + drainSec;
        if (next >= n && now >= until)
            break;
        double wait = std::max(0.0, until - now);
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wait);
        ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
        int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0)
            continue;
        for (std::size_t c = 0; c < pfds.size(); c++) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char tmp[65536];
            ssize_t k = ::recv(pfds[c].fd, tmp, sizeof tmp, 0);
            if (k <= 0) {
                pfds[c].fd = -1;  // Peer closed: stop polling it.
                continue;
            }
            double at = nowSec();
            std::string &buf = bufs[c];
            buf.append(tmp, static_cast<std::size_t>(k));
            std::size_t start = 0, nl;
            while ((nl = buf.find('\n', start)) != std::string::npos) {
                std::string line = buf.substr(start, nl - start);
                start = nl + 1;
                long long id = replyId(line);
                if (id < static_cast<long long>(firstId))
                    continue;
                std::size_t idx = static_cast<std::size_t>(id) -
                    static_cast<std::size_t>(firstId);
                if (idx >= n || r.recv[idx] >= 0)
                    continue;
                r.recv[idx] = at;
                r.replies[idx] = std::move(line);
                got++;
            }
            buf.erase(0, start);
        }
    }
    r.endSec = t0;
    for (double t : r.recv)
        r.endSec = std::max(r.endSec, t);
    return r;
}

bool
roundTrip(int fd, const std::string &line, std::string &reply,
          double timeoutSec)
{
    if (!rfh::netSendLine(fd, line))
        return false;
    pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeoutSec * 1000)) <= 0)
        return false;
    std::string buf;
    return rfh::netReadLine(fd, buf, reply);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace perfbench
