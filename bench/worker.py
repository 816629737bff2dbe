"""The generator process: one set-up of a workload and, unless told to stop
after set-up, one measured run of it.

Set-up is everything a user pays before the first measured operation:
importing braidauth, generating the key pool (each key timed on its own),
for the TCP workloads spawning the verifier process and waiting for its first
accepted connection, and the warm-up operations. The warm-up transcript is
hashed for the correctness gate.

Usage: python3 worker.py --workload W --seed N --seconds T --out-dir DIR
       [--trace] [--setup-only]
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Why each workload exists is recorded in BENCHMARK.json. Exponents are 2/2
# for both schemes; the key pool alternates scheme 1 and scheme 2. "tail" is
# the latency percentile reported: the highest of run.py's ladder that leaves
# at least 10 samples beyond it at the median sample count of a 30 s run,
# fixed per workload so that it does not move with throughput (local-n64 runs
# about 100 rounds, on the edge of p90, so it keeps p75). "rss_at" is the
# measured round after which the in-process workloads read their peak RSS:
# the pair memo grows with the work done, so a peak read at the end of a
# timed run would grow with throughput.
WORKLOADS = {
    "local-n16": {"kind": "local", "n": 16, "L": 128, "keys": 16, "warm": 4, "tail": 90.0,
                  "rss_at": 40},
    "local-n64": {"kind": "local", "n": 64, "L": 64, "keys": 16, "warm": 4, "tail": 75.0,
                  "rss_at": 40},
    "tcp-n8": {"kind": "tcp", "n": 8, "L": 16, "keys": 32, "warm": 4, "tail": 95.0,
               "provers": 2, "fuzzers": 0},
    "tcp-hostile": {"kind": "tcp", "n": 8, "L": 16, "keys": 32, "warm": 4, "tail": 95.0,
                    "provers": 1, "fuzzers": 1},
}
EXPONENTS = (2, 2)
MIN_CANONICAL_LENGTH = 3
TCP_ROUNDS = 3
CHALLENGE_LENGTH = 16
SESSION_TIMEOUT_S = 10.0
FUZZ_TIMEOUT_S = 5.0
STARTUP_TIMEOUT_S = 30.0
LOOPBACK = "127.0.0.1"
# An ERROR frame: length 2 (type byte and code), type 0x05.
ERROR_FRAME_HEAD = b"\x00\x00\x00\x02\x05"


def _round_record(P, keys, cfg, vrng):
    """One honest round through the public protocol functions."""
    if isinstance(keys, P.SchemeIKeyPair):
        ch = P.challenge1(keys.public, cfg, vrng)
        resp = P.respond1(keys, ch.Y)
        ok = P.verify1(keys.public, ch.c, ch.d, resp)
    else:
        ch = P.challenge2(keys.public, cfg, vrng)
        resp = P.respond2(keys, ch.Y)
        ok = P.verify2(keys.public, ch.b, resp)
    return P.RoundRecord(ch.Y, resp.digest, ok)


def _scheme(P, keys) -> int:
    return 1 if isinstance(keys, P.SchemeIKeyPair) else 2


def _key_pool(P, cfg, rng, count: int, tracer):
    pool, keygen_ms = [], []
    for i in range(count):
        if tracer is not None:
            tracer.set_ctx(("keygen", i))
        t = time.perf_counter()
        if i % 2 == 0:
            keys = P.keygen1(cfg, *EXPONENTS, rng)
        else:
            keys = P.keygen2(cfg, *EXPONENTS, rng)
        keygen_ms.append((time.perf_counter() - t) * 1e3)
        pool.append(keys)
    return pool, keygen_ms


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(lines: str) -> str:
    return hashlib.sha256(lines.encode()).hexdigest()


# ---------------------------------------------------------------------------
# In-process rounds
# ---------------------------------------------------------------------------

def run_local(spec, seed, seconds, tracer, setup_only, t_begin):
    from braidauth import DeterministicRng, SamplerConfig
    from braidauth import braid
    from braidauth import protocol as P

    cfg = SamplerConfig(
        n=spec["n"], word_length=spec["L"], min_canonical_length=MIN_CANONICAL_LENGTH, seed=seed
    )
    pool, keygen_ms = _key_pool(P, cfg, DeterministicRng(seed, "bench-keys"), spec["keys"], tracer)
    vrng = DeterministicRng(seed, "bench-verifier")
    warm = []
    for i in range(spec["warm"]):
        if tracer is not None:
            tracer.set_ctx(("warm", i))
        warm.append(_round_record(P, pool[i % len(pool)], cfg, vrng))
    out = {
        "setup_s": time.perf_counter() - t_begin,
        "keygen_ms": keygen_ms,
        "digest": _digest(P.transcript_text(P.Transcript(tuple(warm), True))),
        "warm_ok": all(r.accepted for r in warm),
    }
    if setup_only:
        return out

    do_round = _round_record
    if tracer is not None:
        do_round = tracer.wrap("bench.round", _round_record, lambda args, _: _scheme(P, args[1]))
    ops = []  # (start_s, end_s, error or None when accepted)
    mark0 = {"caches": tracer.cache_counts()} if tracer is not None else None
    w0 = time.perf_counter_ns()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = spec["warm"]
    rss = None
    while time.perf_counter() < deadline:
        keys = pool[i % len(pool)]
        if tracer is not None:
            tracer.set_ctx(("round", i))
        t = time.perf_counter()
        rec = do_round(P, keys, cfg, vrng)
        ops.append((t, time.perf_counter(), None if rec.accepted else "rejected"))
        i += 1
        if len(ops) == spec["rss_at"]:
            rss = _peak_rss_mb()
    w1 = time.perf_counter_ns()
    mark1 = None
    if tracer is not None:
        mark1 = {"caches": tracer.cache_counts(), "pair_memo": len(getattr(braid, "_PAIR_MEMO", ()))}
    out.update(
        ops=ops,
        elapsed_s=ops[-1][1] - t0,
        window_ns=[w0, w1],
        peak_rss_mb=rss if rss is not None else _peak_rss_mb(),
        rss_after_ops=min(len(ops), spec["rss_at"]),
        marks=[mark0, mark1],
    )
    return out


# ---------------------------------------------------------------------------
# TCP sessions against a verifier process
# ---------------------------------------------------------------------------

class _Recorder:
    """Socket stand-in that keeps every byte a session sent and received."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data):
        self._sock.sendall(data)
        self.sent += data

    def recv(self, size):
        data = self._sock.recv(size)
        self.received += data
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()
        return False

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _frames(data: bytes):
    """Split a byte stream into (type, payload) frames."""
    out, i = [], 0
    while i + 4 <= len(data):
        (length,) = struct.unpack_from(">I", data, i)
        body = data[i + 4 : i + 4 + length]
        out.append((body[0], bytes(body[1:])))
        i += 4 + length
    return out


def _transcript_lines(rec: _Recorder) -> list[str]:
    """``Y=… Z=… verdict=…`` lines of one session, read off the wire: Y is the
    canonical encoding the verifier sent, Z the digest the prover returned."""
    got = _frames(rec.received)
    challenges = [p for t, p in got if t == 0x02]
    verdicts = [p[0] for t, p in got if t == 0x04]
    responses = [p for t, p in _frames(rec.sent) if t == 0x03]
    return [
        f"Y={y.hex()} Z={z.hex()} verdict={v}"
        for y, z, v in zip(challenges, responses, verdicts)
    ]


class _Server:
    """The verifier subprocess; stopped and reaped by close() on every path."""

    def __init__(self, seed: int, spans_path: str | None):
        cmd = [
            sys.executable, os.path.join(HERE, "server.py"), "--src", SRC,
            "--seed", str(seed), "--rounds", str(TCP_ROUNDS),
            "--word-length", str(CHALLENGE_LENGTH),
        ]
        if spans_path:
            cmd += ["--spans", spans_path]
        # The server exits at end of input, so it also ends if this process dies.
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self._line("PORT", STARTUP_TIMEOUT_S))
        except BaseException:
            self.close()
            raise

    def _line(self, tag: str, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(tag + " "):
            raise RuntimeError(f"verifier process did not answer {tag!r} (got {line!r})")
        return line[len(tag) + 1 :]

    def mark(self) -> dict:
        self.proc.stdin.write("mark\n")
        self.proc.stdin.flush()
        return json.loads(self._line("MARK", 10.0))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in the verifier's /proc status")

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def _fuzz_once(port: int, frame: bytes):
    """Fire and close: connect, send one malformed frame and close at once,
    without waiting for the server's answer.

    Returns (outcome, connect seconds or None). The outcome is "sent";
    "reset" when the server hung up before the whole frame was sent, which
    it may do once it has refused the frame; or "no-connect" when no
    connection was made within ``FUZZ_TIMEOUT_S``.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(FUZZ_TIMEOUT_S)
        t = time.perf_counter()
        try:
            sock.connect((LOOPBACK, port))
        except OSError:
            return "no-connect", None
        connect_s = time.perf_counter() - t
        try:
            sock.sendall(frame)
        except OSError:
            return "reset", connect_s
        return "sent", connect_s
    finally:
        sock.close()


def run_tcp(spec, seed, seconds, tracer, setup_only, t_begin, spans_path):
    from braidauth import DeterministicRng, SamplerConfig, netpair
    from braidauth import protocol as P
    from fuzz import malformed_frames

    cfg = SamplerConfig(
        n=spec["n"], word_length=spec["L"], min_canonical_length=MIN_CANONICAL_LENGTH, seed=seed
    )
    pool, keygen_ms = _key_pool(P, cfg, DeterministicRng(seed, "bench-keys"), spec["keys"], tracer)
    # The verifier's challenge stream, derived from the workload seed.
    server_seed = int.from_bytes(hashlib.sha256(f"bench-server:{seed}".encode()).digest()[:8], "big")
    server = _Server(server_seed, spans_path)
    try:
        # Warm-up: sequential sessions on this thread, recorded off the wire.
        recorders = []
        real_connect = socket.create_connection

        def recording_connect(*args, **kwargs):
            recorders.append(_Recorder(real_connect(*args, **kwargs)))
            return recorders[-1]

        warm_ok = True
        socket.create_connection = recording_connect
        try:
            for i in range(spec["warm"]):
                if tracer is not None:
                    tracer.set_ctx(("warm", i))
                verdicts = netpair.run_prover(LOOPBACK, server.port, pool[i % len(pool)],
                                              timeout=SESSION_TIMEOUT_S)
                warm_ok &= len(verdicts) == TCP_ROUNDS and all(v.accepted for v in verdicts)
        finally:
            socket.create_connection = real_connect
        lines = [line for rec in recorders for line in _transcript_lines(rec)]
        warm_ok &= len(lines) == spec["warm"] * TCP_ROUNDS
        out = {
            "setup_s": time.perf_counter() - t_begin,
            "keygen_ms": keygen_ms,
            "digest": _digest("\n".join(lines)),
            "warm_ok": warm_ok,
        }
        if setup_only:
            return out

        nproc = len(os.sched_getaffinity(0))
        provers = max(1, min(spec["provers"], nproc - spec["fuzzers"]))
        ops, fuzz = [], []
        run_prover = netpair.run_prover
        if tracer is not None:
            run_prover = tracer.wrap("bench.session", run_prover, lambda args, _: _scheme(P, args[2]))

        def prover(tid: int) -> None:
            j = 0
            while time.perf_counter() < deadline:
                keys = pool[(tid + j * provers) % len(pool)]
                if tracer is not None:
                    tracer.set_ctx(("session", tid, j))
                j += 1
                t = time.perf_counter()
                try:
                    verdicts = run_prover(LOOPBACK, server.port, keys, timeout=SESSION_TIMEOUT_S)
                    ok = len(verdicts) == TCP_ROUNDS and all(v.accepted for v in verdicts)
                    err = None if ok else "rejected"
                except Exception as exc:  # counted as a failed session; the loop goes on
                    err = f"{type(exc).__name__}: {exc}"
                ops.append((t, time.perf_counter(), err))

        def fuzzer() -> None:
            # Closed loop: the next frame goes out as soon as the last one is
            # sent, so the rate is set by how fast the server takes connections.
            frames = malformed_frames(seed)
            while time.perf_counter() < deadline:
                kind, frame = next(frames)
                t = time.perf_counter()
                outcome, connect_s = _fuzz_once(server.port, frame)
                fuzz.append({"start": t, "end": time.perf_counter(), "kind": kind,
                             "outcome": outcome, "connect_s": connect_s})

        gen0 = {"caches": tracer.cache_counts()} if tracer is not None else None
        mark0 = server.mark() if tracer is not None else None
        cpu0 = server.cpu_s()
        w0 = time.perf_counter_ns()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        threads = [threading.Thread(target=prover, args=(k,)) for k in range(provers)]
        threads += [threading.Thread(target=fuzzer) for _ in range(spec["fuzzers"])]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        t1 = time.perf_counter()
        w1 = time.perf_counter_ns()
        busy = (server.cpu_s() - cpu0) / (t1 - t0)
        mark1 = server.mark() if tracer is not None else None
        gen1 = {"caches": tracer.cache_counts()} if tracer is not None else None

        final_ok = refusals = None
        if spec["fuzzers"]:
            # The server must still serve an honest prover after the fuzzing.
            try:
                verdicts = netpair.run_prover(LOOPBACK, server.port, pool[0], timeout=SESSION_TIMEOUT_S)
                final_ok = len(verdicts) == TCP_ROUNDS and all(v.accepted for v in verdicts)
            except Exception:  # reported as a failed check
                final_ok = False
            # Every malformed connection has been taken by now: the final
            # session was accepted after them.
            refusals = server.mark()["refusals"]
        out.update(
            ops=ops,
            fuzz=fuzz,
            final_ok=final_ok,
            refusals=refusals,
            elapsed_s=t1 - t0,
            window_ns=[w0, w1],
            server_busy_share=busy,
            peak_rss_mb=server.peak_rss_mb(),
            provers=provers,
            marks=[mark0, mark1, gen0, gen1],
        )
    finally:
        server.close()
    return out


def main() -> int:
    t_begin = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run finally blocks

    sys.path.insert(0, SRC)
    import braidauth  # noqa: F401  (timed as part of set-up)

    spec = WORKLOADS[args.workload]
    tracer = None
    stem = os.path.join(args.out_dir, f"spans-{args.workload}-s{args.seed}")
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({"netpair.connect": (socket, "create_connection", False)})
    if spec["kind"] == "local":
        out = run_local(spec, args.seed, args.seconds, tracer, args.setup_only, t_begin)
    else:
        out = run_tcp(spec, args.seed, args.seconds, tracer, args.setup_only, t_begin,
                      stem + "-server.jsonl" if tracer else None)
    if tracer is not None and not args.setup_only:
        import layers

        tracer.write(stem + "-generator.jsonl", "generator")
        out["layers"] = layers.per_layer(spec, out, tracer, stem)
        out["span_files"] = [stem + "-generator.jsonl"] + (
            [stem + "-server.jsonl"] if spec["kind"] == "tcp" else []
        )
    out.pop("marks", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
