"""Per-layer spans for the traced run of the benchmark.

The tracer wraps public functions of bsdecomp at run time, from outside:
every module attribute bound to a traced function is replaced, so a call
is seen wherever the name is looked up (`bsdecomp.greedy.pure` as well as
`bsdecomp.pure.pure`), and `Diagram` methods are replaced on the class.
Nothing under `src/` changes.  A traced name missing from the program
simply records no calls.

Spans (name, start, end, parent, resume) are kept in memory and written
out when the run ends.  A traced function that returns a generator gets
one span for the call and one resume span for each item it is asked
for, so the time of a lazy enumeration stays with the function that
enumerates, not with its consumer.  A function's calls are its call
spans; its self time is the time of all its spans minus the time of the
traced spans directly inside them.
"""

import functools
import gzip
import inspect
import sys
from math import factorial, prod
from time import perf_counter

# (module, attribute path) of every traced function, named <module>.<path>.
TRACED = (
    ("cli", "main"),
    ("census", "run_census"),
    ("census", "signature_of"),
    ("census", "format_report"),
    ("greedy", "greedy_decompose"),
    ("pure", "pure"),
    ("pure", "min_degree_sequence"),
    ("diagram", "Diagram.__sub__"),
    ("diagram", "Diagram.scale"),
    ("diagram", "parse_betti"),
    ("diagram", "format_betti"),
    ("koszul", "koszul_betti"),
    ("closed_forms", "codim4_first_elimination"),
    ("shuffle", "shuffles"),
    ("shuffle", "ci_shuffle_decomposition"),
    ("shuffle", "shuffle_product"),
    ("shuffle", "quotient_by_regular_element"),
    ("shuffle", "tensor"),
)
NAMES = tuple(f"{module}.{path}" for module, path in TRACED)
COUNTERS = ("greedy.iterations", "greedy.cells", "shuffle.interleavings")


class Tracer:
    def __init__(self):
        self.spans = []  # (name index, start, end, parent span index or -1, resume)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def install(self):
        """Wrap every traced function that the loaded bsdecomp defines."""
        modules = [m for n, m in sys.modules.items() if n == "bsdecomp" or n.startswith("bsdecomp.")]
        for index, (module, path) in enumerate(TRACED):
            owner = sys.modules.get(f"bsdecomp.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, _OBSERVERS.get(NAMES[index]))
            if outer:  # a method: replace it on its class
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, index, fn, observe):
        spans, stack = self.spans, self._stack

        def timed(call, resume):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                return call()
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (index, start, end, parent, resume)

        def resumed(generator):
            while True:
                try:
                    item = timed(generator.__next__, True)
                except StopIteration:
                    return
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = timed(lambda: fn(*args, **kwargs), False)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return resumed(result) if inspect.isgenerator(result) else result

        return traced

    def totals(self):
        """Calls and self seconds per traced name, over every span so far."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for index, start, end, parent, resume in self.spans:
            calls[index] += not resume
            self_s[index] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return dict(zip(NAMES, calls)), dict(zip(NAMES, self_s))

    def write(self, path):
        """Write the spans as gzipped TSV: name, start, end, parent span, resume."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tresume\n")
            for span, (index, start, end, parent, resume) in enumerate(self.spans):
                out.write(f"{span}\t{NAMES[index]}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(resume)}\n")


def _greedy(counters, args, kwargs, trace):
    table = getattr(trace, "table", None)
    counters["greedy.iterations"] += getattr(table, "iterations", 0)
    counters["greedy.cells"] += len(getattr(table, "cells", ()))


def _shuffles(counters, args, kwargs, result):
    sets = args[0] if args else kwargs.get("sets", ())
    sizes = [len(tuple(s)) for s in sets]
    counters["shuffle.interleavings"] += factorial(sum(sizes)) // prod(map(factorial, sizes))


_OBSERVERS = {
    "greedy.greedy_decompose": _greedy,
    "shuffle.shuffles": _shuffles,
}
