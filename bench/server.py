"""The verifier process of the TCP workloads.

Runs one ``VerifierServer`` on an OS-chosen loopback port and prints
``PORT <n>`` once it listens. It then reads commands from stdin, one a line:

* ``mark`` answers ``MARK <json>``: the number of connections the server
  has refused so far and, when traced, the cache counters and the size of
  the pair memo, read at the edges of the generator's measurement window;
* end of input stops the server, writes the spans (traced mode) and exits.

End of input also comes when the generator dies, so the server never
outlives it.

Usage: python3 server.py --src DIR --seed N --rounds R --word-length L
       [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--word-length", type=int, required=True)
    ap.add_argument("--spans", help="trace, and write the spans to this file at exit")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from braidauth import braid, netpair

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        # One span and one context per connection, where the server has a
        # per-connection entry point to wrap.
        extra = {}
        if hasattr(netpair.VerifierServer, "_serve_connection"):
            extra["netpair.server.connection"] = (netpair.VerifierServer, "_serve_connection", True)
        tracer.install(extra)

    # Refusals are counted off the server's log, the one place it reports them.
    refusals = [0]
    lock = threading.Lock()

    def log(msg: str) -> None:
        if msg.startswith("refusing connection"):
            with lock:
                refusals[0] += 1

    server = netpair.VerifierServer(
        "127.0.0.1", 0, rounds=args.rounds, word_length=args.word_length, seed=args.seed, log=log
    )
    server.start()
    print(f"PORT {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "mark":
                mark = {"refusals": refusals[0]}
                if tracer is not None:
                    mark["caches"] = tracer.cache_counts()
                    mark["pair_memo"] = len(getattr(braid, "_PAIR_MEMO", ()))
                print("MARK " + json.dumps(mark), flush=True)
    finally:
        # No join: closing the listener does not wake a thread blocked in
        # accept(), and the daemon threads end with the process.
        server.stop()
        if tracer is not None:
            tracer.write(args.spans, "server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
