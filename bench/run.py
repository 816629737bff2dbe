"""Fixed-seed benchmark of braidauth.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads (what each stresses is recorded in BENCHMARK.json):

* ``local-n16``, ``local-n64``: honest rounds in one process, one thread, in
  a closed loop, through the public protocol functions. A key pool
  alternates scheme 1 and scheme 2 (exponents 2/2).
* ``tcp-n8``: a ``VerifierServer`` in its own process (3 rounds, challenge
  length 16, loopback). Two prover threads run ``run_prover`` in a closed
  loop on n=8 keys of both schemes. Prover and verifier are separate
  processes so they share no interpreter lock and no engine cache.
* ``tcp-hostile``: the same server; one thread sends malformed frames
  (see fuzz.py) while one runs honest sessions. The run ends with one honest
  session that must pass.

The seed derives the key pool, the verifier's challenge stream and the
malformed-frame stream; the program receives only those inputs.

A run sets the workload up ``SETUP_REPEATS`` times, each in a fresh process,
and reports the median set-up time; the last set-up goes on to the measured
run. With ``--trace 1`` it sets up once, traces every layer (spans.py) and
reports the per-layer metrics instead; its span files go to ``bench/out``.

The correctness gate: every honest round and session must be accepted, the
warm-up transcript (``Y=… Z=… verdict=…`` lines) must hash the same in
every set-up, and, for seeds listed in digests.json, to the stored digest.
The result is the last line of standard output; a line before it gives the
environment and the figures beyond the end-to-end metrics. Exit status is
0 on a correct run, 1 when the gate fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from layers import STALL_S  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Answers to a malformed frame that mean the server stopped answering.
FUZZ_FAILURES = ("no-connect",)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(wanted: float, count: int) -> float:
    """``wanted``, or if fewer than 10 of ``count`` samples lie beyond it, the
    highest percentile of the ladder that leaves 10."""
    for p in (wanted,) + TAIL_LADDER:
        if p <= wanted and count * (100 - p) / 100 >= 10:
            return p
    return 50.0


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files, which names the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "braidauth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _die_with_parent() -> None:
    """Ask the kernel to kill this child if the process that started it dies."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_worker(args, trace: bool, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out-dir", OUT_DIR,
    ]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=_die_with_parent)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))  # run finally blocks

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("--seed must be a 64-bit unsigned int and --seconds positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "braidauth", "__init__.py")):
        print(f"no braidauth sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    trace = bool(args.trace)
    deadline = started + RUN_BUDGET_S
    reps = 1 if trace else SETUP_REPEATS
    try:
        runs = [run_worker(args, trace, i < reps - 1, deadline) for i in range(reps)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    main_run = runs[-1]

    # -- correctness gate ------------------------------------------------------
    problems = []
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        problems.append(f"warm-up transcripts differ between set-ups: {sorted(digests)}")
    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh).get(args.workload, {}).get(str(args.seed))
    if expected is not None and main_run["digest"] != expected:
        problems.append(f"warm-up transcript digest {main_run['digest']} != stored {expected}")
    if not all(r["warm_ok"] for r in runs):
        problems.append("a warm-up round or session was rejected")
    ops = main_run["ops"]
    fuzz = main_run.get("fuzz", [])
    failures = [op[2] for op in ops if op[2] is not None]
    failures += [f"{f['kind']} frame: {f['outcome']}" for f in fuzz if f["outcome"] in FUZZ_FAILURES]
    attempted = len(ops) + len(fuzz)
    if main_run.get("final_ok") is not None:
        attempted += 1
        if not main_run["final_ok"]:
            failures.append("honest session after the malformed traffic failed")
    if failures:
        problems.append(f"{len(failures)} failed operations, first: {failures[0]}")
    good_ms = [(op[1] - op[0]) * 1e3 for op in ops if op[2] is None]
    done = len(good_ms)
    if not done:
        problems.append("no operation completed in the measured time")
    correct = not problems

    # -- metrics ---------------------------------------------------------------
    good_ms = good_ms or [0.0]  # only when the gate has already failed
    tail_p = tail_percentile(spec["tail"], done)
    keygen_ms = [ms for r in runs for ms in r["keygen_ms"]]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "ops_per_s": done / main_run["elapsed_s"],
        "op_ms_p50": percentile(good_ms, 50),
        "op_ms_tail": percentile(good_ms, tail_p),
        "peak_rss_mb": main_run["peak_rss_mb"],
    }
    # Figures beyond the end-to-end metrics, with the facts those depend on.
    extra = {
        "ops": (done, "count"),
        "op_ms_tail_percentile": (tail_p, "percentile"),
        "keygen_ms_p50": (statistics.median(keygen_ms), "ms"),
        "failed_share": (len(failures) / max(attempted, 1), "fraction"),
    }
    if spec["kind"] == "local":
        extra["peak_rss_after_ops"] = (main_run["rss_after_ops"], "count")
    else:
        extra["provers"] = (main_run["provers"], "count")
        extra["server_busy_share"] = (main_run["server_busy_share"], "fraction")
    if fuzz:
        connects = [f["connect_s"] for f in fuzz if f["connect_s"] is not None]
        stalls = sum(c > STALL_S for c in connects)
        extra["fuzz_conns_per_s"] = (len(fuzz) / main_run["elapsed_s"], "conns/s")
        extra["fuzz_connect_stall_share"] = (stalls / max(len(connects), 1), "fraction")
        extra["fuzz_refusal_ratio"] = ((main_run["refusals"] or 0) / len(fuzz), "fraction")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": trace,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "network": "loopback only (127.0.0.1)" if spec["kind"] == "tcp" else "none",
        },
        "spec": spec,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "digest": main_run["digest"],
        "digest_stored": expected,
        "problems": problems,
    }
    if fuzz:
        outcomes = [f["outcome"] for f in fuzz]
        detail["fuzz_outcomes"] = {o: outcomes.count(o) for o in sorted(set(outcomes))}
    if trace:
        detail["span_files"] = [os.path.relpath(p, ROOT) for p in main_run["span_files"]]
        metrics = main_run["layers"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
