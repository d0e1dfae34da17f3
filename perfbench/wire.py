"""permuqd's wire protocol and process lifecycle, benchmark side.

Frames are a 4-byte big-endian payload length followed by one JSON
object. The timed traffic goes through perfbench-loadgen (loadgen.cpp);
this module writes its schedules, reads back its replies, and handles
the daemon's lifecycle over short control connections. Neither links
anything of the program, so the end-to-end numbers depend only on
permuqd's flags and on the protocol.
"""

import os
import re
import socket
import struct
import subprocess
import time
import zlib

from gen import control_payload

def frame(payload):
    return struct.pack(">I", len(payload)) + payload


def clean_env(**pinned):
    """The caller's environment without any PERMUQ_* variable, plus the
    pinned ones."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERMUQ_")}
    env.update({k: str(v) for k, v in pinned.items()})
    return env


def proc_cpu_seconds(pid):
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_hwm_mib(pid):
    """Peak resident set (VmHWM) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


class Reply:
    """One response: its arrival time (CLOCK_MONOTONIC seconds), the
    envelope at the front of the payload, and the CRC-32 of its plan
    fragment. Uncached payloads sit whole in a spool file; of a cached
    one only the envelope is kept."""

    __slots__ = ("arrived", "head", "crc", "spool", "offset", "size")

    def payload_bytes(self):
        with open(self.spool, "rb") as f:
            f.seek(self.offset)
            return f.read(self.size)


FRAGMENT_RE = re.compile(rb'"compile_ms":[-0-9.eE+]+,')


def fragment_crc(payload):
    """CRC-32 of a result payload's plan fragment: everything after the
    per-request envelope (id, cached, queue_ms, compile_ms)."""
    m = FRAGMENT_RE.search(payload, 0, 256)
    return zlib.crc32(memoryview(payload)[m.end():-1]) if m else None


def write_schedule(path, entries):
    """entries: (id, due offset seconds, connection, payload)."""
    with open(path, "wb") as f:
        for req_id, due, conn, payload in entries:
            f.write(struct.pack(">QQII", req_id, int(due * 1e9), conn,
                                len(payload)) + payload)


def run_loadgen(binary, args, outdir):
    """Run perfbench-loadgen and read back what it recorded. Returns
    ({id: Reply}, [(id, due s, sent s)])."""
    os.makedirs(outdir, exist_ok=True)
    out = subprocess.run([binary] + [str(a) for a in args], cwd=outdir,
                         capture_output=True, text=True, timeout=170)
    if out.returncode not in (0, 3):
        raise RuntimeError("perfbench-loadgen failed: " + out.stderr[-500:])
    sent = []
    with open(os.path.join(outdir, "sent.tsv")) as f:
        for line in f:
            req_id, due, at = line.split()
            sent.append((int(req_id), int(due) * 1e-9, int(at) * 1e-9))
    replies = {}
    with open(os.path.join(outdir, "recv.tsv")) as f:
        for line in f:
            req_id, conn, arrived, offset, size, crc = map(int, line.split())
            reply = Reply()
            reply.arrived = arrived * 1e-9
            reply.spool = os.path.join(outdir, f"conn{conn}.spool")
            reply.offset = offset
            reply.size = size
            payload = reply.payload_bytes()
            reply.head = payload[:256]
            reply.crc = crc if crc >= 0 else fragment_crc(payload)
            replies[req_id] = reply
    return replies, sent


class Connection:
    """A control connection to permuqd (ping, shutdown): one request at
    a time, replies read on the calling thread."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, payload):
        """Send one request; returns (arrival CLOCK_MONOTONIC seconds,
        reply payload)."""
        self.sock.sendall(frame(payload))
        head = self._read(4)
        body = self._read(struct.unpack(">I", head)[0])
        return time.monotonic(), body

    def _read(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise RuntimeError("permuqd closed the connection")
            buf += chunk
        return buf

    def close(self):
        self.sock.close()


def leftover_daemons(binary):
    """Pids of running processes of @p binary (a daemon left by an
    earlier run would share the machine with the one measured)."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.readlink(f"/proc/{entry}/exe") == binary:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


class Daemon:
    """A permuqd process of the benchmark's own: ephemeral port written
    to a port file, readiness by ping/pong, ended by the protocol's
    shutdown request and required to exit cleanly."""

    def __init__(self, binary, workdir, flags, env):
        others = leftover_daemons(binary)
        if others:
            raise RuntimeError(f"permuqd already running: pids {others}")
        self.port_file = os.path.join(workdir, f"permuqd-{os.getpid()}.port")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        self.log_path = os.path.join(workdir, "permuqd.log")
        self.log = open(self.log_path, "ab")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--port-file", self.port_file] + flags,
            env=env, stdout=self.log, stderr=self.log)
        self.port = None
        self.ids = 1 << 40

    def next_id(self):
        self.ids += 1
        return self.ids

    def wait_ready(self, timeout=30.0):
        """Wait for the port file and a pong; returns the seconds from
        spawn to pong."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None:
                raise RuntimeError("permuqd exited during start-up; see " +
                                   self.log_path)
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
            except (OSError, ValueError):
                pass
            if self.port is None:
                if time.monotonic() > deadline:
                    raise RuntimeError("permuqd wrote no port file")
                time.sleep(0.001)
        conn = Connection(self.port)
        try:
            arrived, reply = conn.call(control_payload(self.next_id(),
                                                       "ping"))
            if b'"type":"pong"' not in reply:
                raise RuntimeError("permuqd did not answer ping")
            return arrived - self.started
        finally:
            conn.close()

    def cpu_seconds(self):
        return proc_cpu_seconds(self.proc.pid)

    def hwm_mib(self):
        return proc_hwm_mib(self.proc.pid)

    def shutdown(self, timeout=30.0):
        """Protocol shutdown; raises unless permuqd acknowledged and
        exited with status 0."""
        try:
            conn = Connection(self.port)
            _, reply = conn.call(control_payload(self.next_id(),
                                                 "shutdown"))
            conn.close()
            if b'"type":"ok"' not in reply:
                raise RuntimeError("permuqd did not acknowledge shutdown")
            code = self.proc.wait(timeout)
            if code != 0:
                raise RuntimeError(f"permuqd exited with status {code}")
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
