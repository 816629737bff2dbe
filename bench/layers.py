"""Per-layer metrics of a traced run, derived from its spans.

Every traced run reports every metric of ``PER_LAYER`` so runs of different
workloads line up. A layer a workload never calls reports 0: the local
workloads send no frames, make no connections and decode no braids. So that
no time reads 0 on every run of a workload, the figures of those layers are
counts or shares: a time share is the time spent in the layer (both
processes added) over the wall time of the honest operations. Per-round and per-session
figures divide by the honest rounds and sessions of the measurement window;
on the TCP workloads a session is ``TCP_ROUNDS`` rounds, and the spans of the
generator (prover side) and of the verifier process are added together. The
``wire`` figures count honest exchanges only, not the refusals sent to
malformed connections.
"""

from __future__ import annotations

import json
import statistics

# name -> unit; the order is the order of the report.
PER_LAYER = {
    "permutations.flip.calls": "calls/round",
    "permutations.flip.hit_ratio": "fraction",
    "permutations.left_complement.calls": "calls/round",
    "permutations.left_complement.hit_ratio": "fraction",
    "permutations.self_ms_per_round": "ms",
    "braid.normalize.calls": "calls/round",
    "braid.normalize.self_ms_per_round": "ms",
    "braid.multiply.calls": "calls/round",
    "braid.multiply.self_ms_per_round": "ms",
    "braid.power.calls": "calls/round",
    "braid.power.hit_ratio": "fraction",
    "braid.validate.calls": "calls/round",
    "braid.validate.self_ms_per_round": "ms",
    "braid.pair_memo.entries": "count",
    "braid.factors_per_product": "factors",
    "sampling.sample_word.calls": "calls/round",
    "sampling.self_ms_per_round": "ms",
    "protocol.keygen.samples_per_key": "samples/key",
    "hashing.serialize.bytes_per_round": "bytes",
    "hashing.self_ms_per_round": "ms",
    "hashing.deserialize.calls": "calls/round",
    "hashing.deserialize.self_share": "fraction",
    "protocol.challenge.ms_per_round": "ms",
    "protocol.respond.ms_per_round": "ms",
    "protocol.verify.ms_per_round": "ms",
    "protocol.self_ms_per_round": "ms",
    "protocol.scheme1.round_ms_p50": "ms",
    "protocol.scheme2.round_ms_p50": "ms",
    "wire.send_frame.calls_per_session": "calls",
    "wire.send_frame.bytes_per_session": "bytes",
    "wire.recv_frame.wait_share": "fraction",
    "wire.unpack_hello.self_share": "fraction",
    "netpair.connect_share": "fraction",
    "netpair.connect_stall_share": "fraction",
    "netpair.server.threads_peak": "count",
    "netpair.refusal_ratio": "fraction",
    "netpair.server_busy_share": "fraction",
    "netpair.fuzz_conns_per_s": "conns/s",
    "bench.traced_ops_per_s": "ops/s",
}

STALL_S = 0.5  # a connect slower than this, in seconds, counts as stalled
TCP_ROUNDS = 3


def _per(x: float, base: float) -> float:
    return x / base if base else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _hit_ratio(marks, name: str) -> float:
    """Hits over lookups between the two cache snapshots of each process."""
    hits = lookups = 0
    for before, after in zip(marks[0::2], marks[1::2]):
        h0, m0 = before["caches"][name]
        h1, m1 = after["caches"][name]
        hits += h1 - h0
        lookups += (h1 - h0) + (m1 - m0)
    return _per(hits, lookups)


def _peak_overlap(intervals) -> int:
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def per_layer(spec: dict, run: dict, tracer, stem: str) -> dict:
    spans = list(tracer.spans)
    # Cache snapshots at the window's edges, in (before, after) pairs per
    # process; the first pair is from the process doing the verifier's work.
    marks = run["marks"]
    if spec["kind"] == "tcp":
        with open(stem + "-server.jsonl") as fh:
            for line in fh:
                s = json.loads(line)[1:]
                s[5] = tuple(s[5]) if s[5] else None
                spans.append(tuple(s))
    w0, w1 = run["window_ns"]
    window = [s for s in spans if w0 <= s[2] <= w1]
    keygen = [s for s in spans if s[5] and s[5][0] == "keygen"]

    good = [op for op in run["ops"] if op[2] is None]
    if spec["kind"] == "local":
        rounds, sessions = len(good), 0
    else:
        sessions = len(good)
        rounds = sessions * TCP_ROUNDS

    def named(name):
        return [s for s in window if s[1] == name]

    # Frames of honest exchanges only: prover-side sessions, and the server
    # connections that got as far as issuing a challenge.
    honest_conns = {s[5] for s in window if s[1] in ("protocol.challenge1", "protocol.challenge2")}

    def honest(name):
        return [s for s in named(name) if s[5] in honest_conns or (s[5] and s[5][0] == "session")]

    def calls(*names):
        return _per(sum(1 for s in window if s[1] in names), rounds)

    def self_ms(pred):
        return _per(sum(s[3] - s[2] - s[6] for s in window if pred(s[1])), rounds) / 1e6

    def busy_ms(*names):
        return _per(sum(s[3] - s[2] for s in window if s[1] in names), rounds) / 1e6

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    products = [s[7] for s in named("braid.multiply")]
    bench_name = "bench.round" if spec["kind"] == "local" else "bench.session"
    per_op_rounds = 1 if spec["kind"] == "local" else TCP_ROUNDS

    def scheme_p50(scheme):
        return _median([(s[3] - s[2]) / 1e6 / per_op_rounds for s in named(bench_name) if s[7] == scheme])

    # Time shares are of the wall time of the honest operations.
    op_ns = sum(op[1] - op[0] for op in good) * 1e9

    def share(spans, self_only=False):
        return _per(sum(s[3] - s[2] - (s[6] if self_only else 0) for s in spans), op_ns)

    honest_connects = named("netpair.connect")
    fuzz = run.get("fuzz", [])
    connects = [(s[3] - s[2]) / 1e9 for s in honest_connects]
    connects += [f["connect_s"] for f in fuzz if f["connect_s"] is not None]
    conns = [(s[2], s[3]) for s in named("netpair.server.connection")]
    n_keys = spec["keys"]

    values = {
        "permutations.flip.calls": calls("permutations.flip"),
        "permutations.flip.hit_ratio": _hit_ratio(marks, "permutations.flip"),
        "permutations.left_complement.calls": calls("permutations.left_complement"),
        "permutations.left_complement.hit_ratio": _hit_ratio(marks, "permutations.left_complement"),
        "permutations.self_ms_per_round": self_ms(layer("permutations")),
        "braid.normalize.calls": calls("braid.normalize"),
        "braid.normalize.self_ms_per_round": self_ms(lambda n: n == "braid.normalize"),
        "braid.multiply.calls": calls("braid.multiply"),
        "braid.multiply.self_ms_per_round": self_ms(lambda n: n == "braid.multiply"),
        "braid.power.calls": calls("braid.power"),
        "braid.power.hit_ratio": _hit_ratio(marks, "braid.power"),
        "braid.validate.calls": calls("braid.validate_canonical_form"),
        "braid.validate.self_ms_per_round": self_ms(lambda n: n == "braid.validate_canonical_form"),
        "braid.pair_memo.entries": marks[1]["pair_memo"],
        "braid.factors_per_product": _per(sum(products), len(products)),
        "sampling.sample_word.calls": calls("sampling.sample_word"),
        "sampling.self_ms_per_round": self_ms(layer("sampling")),
        "protocol.keygen.samples_per_key": _per(
            sum(1 for s in keygen if s[1] == "sampling.sample_word"), n_keys
        ),
        "hashing.serialize.bytes_per_round": _per(sum(s[7] for s in named("hashing.serialize")), rounds),
        "hashing.self_ms_per_round": self_ms(layer("hashing")),
        "hashing.deserialize.calls": calls("hashing.deserialize"),
        "hashing.deserialize.self_share": share(named("hashing.deserialize"), self_only=True),
        "protocol.challenge.ms_per_round": busy_ms("protocol.challenge1", "protocol.challenge2"),
        "protocol.respond.ms_per_round": busy_ms("protocol.respond1", "protocol.respond2"),
        "protocol.verify.ms_per_round": busy_ms("protocol.verify1", "protocol.verify2"),
        "protocol.self_ms_per_round": self_ms(layer("protocol")),
        "protocol.scheme1.round_ms_p50": scheme_p50(1),
        "protocol.scheme2.round_ms_p50": scheme_p50(2),
        "wire.send_frame.calls_per_session": _per(len(honest("wire.send_frame")), sessions),
        "wire.send_frame.bytes_per_session": _per(sum(s[7] for s in honest("wire.send_frame")), sessions),
        "wire.recv_frame.wait_share": share(honest("wire.recv_frame")),
        "wire.unpack_hello.self_share": share(honest("wire.unpack_hello"), self_only=True),
        "netpair.connect_share": share(honest_connects),
        "netpair.connect_stall_share": _per(sum(1 for c in connects if c > STALL_S), len(connects)),
        "netpair.server.threads_peak": _peak_overlap(conns),
        "netpair.refusal_ratio": _per(run.get("refusals") or 0, len(fuzz)),
        "netpair.server_busy_share": run.get("server_busy_share", 0.0),
        "netpair.fuzz_conns_per_s": _per(len(fuzz), run["elapsed_s"]),
        "bench.traced_ops_per_s": _per(len(good), run["elapsed_s"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
