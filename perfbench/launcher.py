"""Spawn the CLI for the benchmark from a process that stays small.

Linux charges a child's ``ru_maxrss`` with the resident set of the process
that forked it, as it was when the child called exec.  The benchmark parses
megabytes of JSON, so children it spawned itself would report its peak
instead of their own.  This process is started first, imports almost
nothing, and spawns every child.  Protocol over a SOCK_SEQPACKET socket
(file descriptor in argv[1]): each request is the NUL-separated argv plus
one file descriptor for the child's stdout; each reply is
``"<exit code> <user+sys cpu s> <maxrss KiB>"``.  An empty read ends it.
"""

import os
import socket
import sys


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        data, fds, _, _ = socket.recv_fds(sock, 1 << 16, 1)
        if not data:
            return
        argv = data.decode().split("\0")
        try:
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, fds[0], 1),
                (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
            ])
        finally:
            os.close(fds[0])
        _, status, usage = os.wait4(pid, 0)
        cpu = usage.ru_utime + usage.ru_stime
        reply = f"{os.waitstatus_to_exitcode(status)} {cpu!r} {usage.ru_maxrss}"
        sock.sendall(reply.encode())


if __name__ == "__main__":
    main()
