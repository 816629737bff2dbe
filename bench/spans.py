"""Span recording for the benchmark's traced mode.

The benchmark never edits the program. It traces from outside: each public
function of a layer is replaced, in every ``braidauth`` module namespace that
binds it, by a wrapper that records one span per call. A span is
``(id, name, start_ns, end_ns, parent_id, ctx, child_ns, value)``:

* ``parent_id`` is the innermost traced call active on the same thread
  (-1 at the top), so a span's self time is its duration minus ``child_ns``,
  the time its direct children cover;
* ``ctx`` is the round or session the call belongs to, set by the harness
  (or by the server's per-connection wrapper);
* ``value`` is a measured property of the call, else None: the factor count
  of a product, the bytes serialized or sent, or the scheme of a harness
  round or session.

Times come from ``time.perf_counter_ns``, which is CLOCK_MONOTONIC on Linux,
so spans from the generator and the server process share one time line.
Spans are kept in memory and written once, when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

# Public functions per module, by the module that defines them. The name a
# span gets is "<layer>.<function>".
TRACED = {
    "permutations": ("flip", "left_complement"),
    "braid": ("normalize", "multiply", "power", "validate_canonical_form"),
    "sampling": ("sample_word", "sample_subgroup_word", "is_hard_instance"),
    "hashing": ("serialize", "deserialize", "hash_braid"),
    "protocol": (
        "keygen1", "keygen2", "challenge1", "challenge2",
        "respond1", "respond2", "verify1", "verify2",
    ),
    "wire": (
        "send_frame", "recv_frame", "pack_hello", "unpack_hello",
        "unpack_challenge", "pack_verdict", "unpack_verdict",
    ),
    "netpair": ("run_prover",),
}

# Functions with an lru_cache whose public cache_info() gives a hit ratio.
CACHED = ("permutations.flip", "permutations.left_complement", "braid.power")


def _factor_count(args, result):
    return len(result.factors)


def _byte_count(args, result):
    return len(result)


def _frame_bytes(args, result):
    payload = args[2] if len(args) > 2 else b""
    return 5 + len(payload)  # 4-byte length prefix and the type byte


MEASURES = {
    "braid.multiply": _factor_count,
    "hashing.serialize": _byte_count,
    "wire.send_frame": _frame_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.originals: dict[str, object] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    # -- context -------------------------------------------------------------

    def set_ctx(self, ctx) -> None:
        """Tag the spans this thread records from now on with ``ctx``."""
        self._local.ctx = ctx

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, measure=None, new_ctx: bool = False):
        """A callable that runs ``fn`` and records a span named ``name``.

        With ``new_ctx`` each call gets a fresh context id of its own (one per
        server connection), restored when the call returns.
        """
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            saved_ctx = getattr(local, "ctx", None)
            ctx = ("conn", next(ids)) if new_ctx else saved_ctx
            local.ctx = ctx
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            value = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, ctx, frame[1], value))
                local.ctx = saved_ctx

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra: dict | None = None) -> None:
        """Wrap every function of ``TRACED`` in every loaded braidauth
        namespace that binds it, and each ``extra`` entry, name -> (owner,
        attribute, new_ctx), on its owner only."""
        owners = {layer: importlib.import_module(f"braidauth.{layer}") for layer in TRACED}
        modules = [m for k, m in sys.modules.items() if k == "braidauth" or k.startswith("braidauth.")]
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(owners[layer], fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self.wrap(name, original, MEASURES.get(name))
                self.originals[name] = original
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for name, (owner, attr, new_ctx) in (extra or {}).items():
            original = getattr(owner, attr)
            self.originals[name] = original
            setattr(owner, attr, self.wrap(name, original, new_ctx=new_ctx))

    def cache_counts(self) -> dict[str, list[int]]:
        """[hits, misses] of each cached function, from its cache_info()."""
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = [info.hits, info.misses]
        return out

    def write(self, path: str, process: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([process, *s]) + "\n")
