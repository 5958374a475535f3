"""Spans recorded from outside the program.

A Tracer replaces a function or method by a wrapper at the place where
the program looks it up (a module global or a class attribute), records
one span per call -- name, start, end and the index of the enclosing
span -- and restores the original on ``uninstall``. Optional ``before``
and ``after`` hooks count work at the same boundary (elements, bytes,
flops). Targets whose attribute does not exist are skipped, so the
benchmark keeps running when a later version renames an internal.

Everything is single-threaded: the enclosing span is the top of a stack.

Spans are timed by ``calibrate.clock``, the process's CPU time without the
benchmark's own reference tasks.
"""

from collections import defaultdict
import functools

from calibrate import clock


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stats = defaultdict(float)
        self.state = {}  # scratch for hooks; cleared with the spans
        self._stack = []
        self._patches = []

    # -- patching ------------------------------------------------------------

    def install(self, targets):
        """targets: iterable of (owner, attr, span name, before, after)."""
        for owner, attr, name, before, after in targets:
            self._wrap(owner, attr, name, before, after)

    def uninstall(self):
        for owner, attr, orig, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, owner, attr, name, before, after):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        owned = not isinstance(owner, type) or attr in vars(owner)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, owned))

    def reset(self):
        self.spans.clear()
        self.stats.clear()
        self.state.clear()

    # -- summaries ---------------------------------------------------------------

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self):
        """name -> (calls, busy seconds, self seconds).

        Busy time is the sum of the span durations; self time subtracts
        the time covered by each span's direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + end - start, own + end - start - covered)
        return out
