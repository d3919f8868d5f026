"""Span tracing from outside the program, and the per-layer arithmetic.

Run as a script, this is the traced server's launcher::

    python -u tracer.py SPANS.json [repro-server arguments...]

Before it calls ``repro.server.protocol.main`` it wraps the public
callables listed in ``TARGETS``.  Each wrapper records one span (layer
name, start, end, self time, enclosing layer) through a per-thread
stack and keeps it in memory; the spans are written to ``SPANS.json``
when the server shuts down (SIGINT).  A name is patched where callers
look it up: ``repro.lang.api`` imports ``infer`` and ``infer_scheme`` by
name, ``repro.server.service`` imports ``program_footprint`` and
``recover`` by name, and ``repro.server.recover`` imports ``load_json``.

Self time is a span's duration minus the time its child spans cover.
``Machine.eval`` recurses through itself, so only its outermost call in
a stack records a span.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

#: (module, attribute path, layer).  The layer names are the per-layer
#: metric prefixes.
TARGETS = [
    ("repro.syntax.parser", "parse_expression", "syntax"),
    ("repro.syntax.parser", "parse_program", "syntax"),
    ("repro.lang.api", "infer", "core.infer"),
    ("repro.lang.api", "infer_scheme", "core.infer"),
    ("repro.server.service", "program_footprint", "analysis.regions"),
    ("repro.compile.engine", "CompileEngine.decide", "compile"),
    ("repro.compile.engine", "CompileEngine.execute", "compile"),
    ("repro.eval.machine", "Machine.eval", "eval.machine"),
    ("repro.server.occ", "OCCTransaction.validate", "server.occ.validate"),
    ("repro.db.catalog", "Catalog.new_object", "db.catalog"),
    ("repro.db.catalog", "Catalog.define_class", "db.catalog"),
    ("repro.db.catalog", "Catalog.define_classes", "db.catalog"),
    ("repro.db.catalog", "Catalog.insert", "db.catalog"),
    ("repro.db.catalog", "Catalog.delete", "db.catalog"),
    ("repro.db.catalog", "Catalog.update_object", "db.catalog"),
    ("repro.db.wal", "WriteAheadLog.append", "db.wal.append"),
    ("repro.server.service", "recover", "server.recover"),
    ("repro.server.recover", "load_json", "db.persist.load_json"),
    ("repro.server.protocol", "encode_frame", "server.protocol.encode"),
    ("repro.server.protocol", "decode_payload", "server.protocol.decode"),
]


class Tracer:
    """Keeps finished spans: ``[layer, start, end, self, parent, size]``.

    ``size`` is the source length for a parse, the encoded length for a
    reply frame and the bytes written for a WAL append, else 0."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, layer: str, fn, size_of=None, reentrant: bool = True):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if not reentrant and stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]  # layer, time covered by children
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            size = size_of(args, result) if size_of is not None else 0
            spans.append([layer, start, end, end - start - frame[1],
                          parent, size])
            return result

        return traced

    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if path == "WriteAheadLog.append":
                fn = _counting_append(fn)
            setattr(owner, attr, self.wrap(
                layer, fn, _SIZES.get(path),
                reentrant=path != "Machine.eval"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _counting_append(append):
    """``WriteAheadLog.append`` that notes the bytes it wrote (appends
    run under the catalog lock, so one note per log is enough)."""

    def counted(self, op, args):
        before = self._file.tell()
        lsn = append(self, op, args)
        self.traced_bytes = self._file.tell() - before
        return lsn

    return counted


_SIZES = {
    "parse_expression": lambda args, _r: len(args[0]),
    "parse_program": lambda args, _r: len(args[0]),
    "encode_frame": lambda _a, result: len(result),
    "WriteAheadLog.append": lambda args, _r: args[0].traced_bytes,
}


# -- per-layer arithmetic (used by run.py) ---------------------------------

def layer_totals(spans: list, start: float, end: float) -> dict:
    """Per layer, over spans inside ``[start, end]``: calls (outermost
    within the layer), self seconds and size."""
    totals: dict[str, dict] = {}
    for layer, s0, s1, self_time, parent, size in spans:
        if s0 < start or s1 > end:
            continue
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                          "size": 0, "total_s": 0.0})
        entry["self_s"] += self_time
        if parent != layer:
            entry["calls"] += 1
            entry["total_s"] += s1 - s0
            entry["size"] += size
    return totals


def main(argv: list[str]) -> int:
    spans_path, server_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.server import protocol
    try:
        return protocol.main(server_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
