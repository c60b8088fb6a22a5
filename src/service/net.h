/**
 * @file
 * Shared Unix-socket client plumbing for the service tools.
 *
 * The load generator and the corpus client speak the same
 * NDJSON-over-AF_UNIX transport; the line-level helpers live here so
 * both use identical framing, connect retry, and partial-send
 * handling.
 */

#ifndef RFH_SERVICE_NET_H
#define RFH_SERVICE_NET_H

#include <string>

namespace rfh {

/**
 * Connect to the Unix socket at @p path, retrying for a few seconds
 * (tooling starts servers in the background and the socket may not
 * exist yet). @return the connected fd, or -1.
 */
int netConnect(const std::string &path);

/** Send @p line plus the newline terminator, handling partial sends. */
bool netSendLine(int fd, const std::string &line);

/**
 * Read one newline-terminated line into @p line (terminator
 * stripped), buffering extra bytes in @p buf across calls. @return
 * false on EOF or transport error.
 */
bool netReadLine(int fd, std::string &buf, std::string &line);

/** Close @p fd (no-op for negative fds). */
void netClose(int fd);

} // namespace rfh

#endif // RFH_SERVICE_NET_H
