"""Spawn the measured processes for run.py; report time, peak RSS and output.

run.py starts this as ``python3 -S perfbench/launcher.py`` from the root
of the checkout.  It reads one JSON request per line on stdin,
``{"argv": [...], "env": {...}}``, runs that process to completion
(killing it after TIMEOUT_S seconds), and answers with one JSON line:
wall seconds from spawn to reap, ``ru_maxrss`` in MB (from
``os.wait4``), exit code, SHA-256 and length of stdout, stdout itself
when it is at most KEEP_STDOUT_BYTES (else null), stderr, and this
process's own peak resident size.

It exists to stay small.  A child's ``ru_maxrss`` starts from the peak
resident size of the process that forks it, and run.py's own peak is as
large as a whole gmlu run; this process imports little and holds no
large output (stdout is hashed as it arrives), so its peak stays below
that of every process it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import sys
import time

KEEP_STDOUT_BYTES = 1 << 16
TIMEOUT_S = 150.0


def _own_peak_mb() -> float:
    """Peak resident size of this process's memory (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def spawn(argv: list[str], env: dict[str, str]) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    digest, out_len, out, err = hashlib.sha256(), 0, [], []
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = TIMEOUT_S - (time.perf_counter() - start)
            if left <= 0:
                proc.kill()
            for key, _ in sel.select(timeout=max(left, 1.0)):
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                elif key.fileobj is proc.stderr:
                    err.append(data)
                else:
                    digest.update(data)
                    out_len += len(data)
                    if out is not None:
                        out.append(data)
                        if out_len > KEEP_STDOUT_BYTES:
                            out = None
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": seconds,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "stdout_sha256": digest.hexdigest(),
        "stdout_bytes": out_len,
        "stdout": None if out is None else b"".join(out).decode(errors="replace"),
        "stderr": b"".join(err).decode(errors="replace"),
        "launcher_mb": _own_peak_mb(),
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["env"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
