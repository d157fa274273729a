"""In-memory spans around the benchmark's calls into kerneltri modules.

A span is (name, start, end, parent, op): `parent` indexes the operation's
own span, `op` is the operation id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._parent = -1
        self._op = -1
        self._start = 0.0

    def start_op(self, op_id: int) -> None:
        self._op = op_id
        self._parent = len(self.spans)
        self.spans.append(None)  # filled by end_op
        self._start = perf_counter()

    def end_op(self) -> None:
        self.spans[self._parent] = ("op", self._start, perf_counter(), -1, self._op)
        self._parent = -1

    def __call__(self, name, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, perf_counter(), self._parent, self._op))
        return result

    def layer_times(self) -> tuple[dict, dict]:
        """Self time (duration minus the part covered by child spans) and
        call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start - child[i]
            calls[name] += 1
        return busy, calls

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(dict(meta, names=names), fh)
            fh.write("\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"[{index[name]},{start!r},{end!r},{parent},{op}]\n")
