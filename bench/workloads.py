"""Seeded inputs and exact output checks for the bsdecomp benchmark.

Nothing here imports bsdecomp.  Inputs are built, and outputs checked,
with plain `fractions.Fraction` arithmetic and the pure-diagram formula
pi<d>(i, d_i) = prod_{k != i} 1/|d_i - d_k|, so the inputs are
byte-identical at every commit and a checker never trusts the code it
checks.

Each workload is a list of operations.  An operation is a `(kind, arg,
expected)` triple: `kind` names what the runner calls, `arg` is what the
program receives, and `expected` is what `check(op, output)` compares the
output against.  The same seed always gives the same operations.  Sizes
are fixed per workload and only the values are drawn from the seed, so
the work per pass does not depend on the seed.
"""

import gc
import hashlib
import random
from fractions import Fraction
from math import factorial, prod
from pathlib import Path
from time import perf_counter

WORKLOADS = ("census", "decompose", "shuffle")

# -- formal sums of pure diagrams, as {(i, j): Fraction} dicts -------------


def pure_entries(d):
    """The normalized pure diagram on the degree sequence d."""
    return {
        (i, di): Fraction(1, prod(abs(di - dk) for k, dk in enumerate(d) if k != i))
        for i, di in enumerate(d)
    }


def expand(terms):
    """Sum of coeff * pi<d> over (coeff, d) terms, zero entries dropped."""
    acc = {}
    for coeff, d in terms:
        for key, value in pure_entries(d).items():
            acc[key] = acc.get(key, 0) + coeff * value
    return {key: value for key, value in acc.items() if value != 0}


def convolve(a, b):
    """Bidegree convolution (tensor product) of two diagrams."""
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + v1 * v2
    return {key: value for key, value in out.items() if value != 0}


def koszul(degrees):
    """Betti diagram of a complete intersection: i-subset sums of the degrees."""
    counts = {(0, 0): 1}
    for e in degrees:
        new = dict(counts)
        for (i, j), c in counts.items():
            new[(i + 1, j + e)] = new.get((i + 1, j + e), 0) + c
        counts = new
    return {key: Fraction(c) for key, c in counts.items()}


def fraction_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def betti_text(entries):
    """A diagram in the BETTI/1 interchange format."""
    lines = ["BETTI 1"]
    lines += [f"{i}\t{j}\t{fraction_text(v)}" for (i, j), v in sorted(entries.items())]
    return "\n".join(lines) + "\n"


def term_lines(terms):
    """Decomposition terms as the CLI prints them: coeff<TAB>(d_0,...,d_n)."""
    return "".join(
        f"{fraction_text(q)}\t({','.join(map(str, d))})\n" for q, d in terms
    )


def parse_term_lines(text):
    terms = []
    for line in text.splitlines():
        coeff, _, seq = line.partition("\t")
        terms.append((Fraction(coeff), tuple(int(x) for x in seq.strip("()").split(","))))
    return terms


# -- seeded generators ------------------------------------------------------


def random_chain(rng, n, length, cells):
    """A strictly increasing chain of `length` degree sequences of codim n.

    Consecutive sequences differ in at least one position, and the chain
    touches exactly `cells` distinct (i, d_i) cells: n + 1 for the first
    sequence plus one for every position raised by a later step.
    """
    raises = cells - (n + 1)
    if not length - 1 <= raises <= (length - 1) * (n + 1):
        raise ValueError(f"no chain of length {length} has {cells} cells in codim {n}")
    per_step = [1] * (length - 1)
    for _ in range(raises - (length - 1)):
        step = rng.choice([s for s, k in enumerate(per_step) if k <= n])
        per_step[step] += 1
    d = [rng.randint(0, 3)]
    for _ in range(n):
        d.append(d[-1] + rng.randint(1, 3))
    chain = [tuple(d)]
    for k in per_step:
        chosen = _raisable(rng, d, k)
        for i in chosen:
            d[i] += 1
        chain.append(tuple(d))
    return chain


def _raisable(rng, d, k):
    """k positions that can each be raised by one, keeping d strictly increasing."""
    n = len(d) - 1
    for _ in range(20):
        chosen = set(rng.sample(range(n + 1), k))
        if all(i == n or d[i] + 1 < d[i + 1] or i + 1 in chosen for i in chosen):
            return chosen
    return set(range(n + 1 - k, n + 1))  # a top block can always move up


def reference_terms():
    """Fixed terms whose expansion is the reference computation timed between operations."""
    rng = random.Random(0)
    return [(rng.randint(1, 9), d) for d in random_chain(rng, 8, 100, 120)]


def reference_s(terms):
    """Seconds one expansion of the reference terms takes, with the collector off.

    The reference makes no cycles; turning the collector off keeps the
    size of the caller's heap out of its time.
    """
    gc.disable()
    try:
        start = perf_counter()
        expand(terms)
        return perf_counter() - start
    finally:
        gc.enable()


def census_ops(seed):
    """The paper's census sweeps; the inputs are fixed, so the seed is unused."""
    return [
        ("cli", ["census", "--codim", str(codim), "--max-degree", str(md), "--strict"], expected)
        for codim, md, expected in CENSUS_EXPECTED
    ]


# The census sweeps of README, with their tuple counts and the sha256 of
# the exact text the seed commit prints for them.  That text holds README's
# counts: 210 tuples, 12 signatures without multiple elimination and
# predicate agreement 210/210 for codim 4; 792 tuples, 317 distinct
# signatures and 271 without multiple elimination for codim 5.
CENSUS_EXPECTED = (
    (4, 10, {
        "tuples": 210,
        "sha256": "18ea02516604df70e566c785816a34fcec6c6aacdf709dba9c4984a2f0d99c37",
    }),
    (5, 12, {
        "tuples": 792,
        "sha256": "d14a657e96ef1392664d0eee4831480fd6571067c7bd620945ed45a8be1a3900",
    }),
)

DECOMPOSE_KOSZUL = 30  # complete intersections of codim 7..10
DECOMPOSE_CHAINS = 70  # chain sums of codim 6..10, 40..400 terms, 100..410 cells


def decompose_ops(seed, directory):
    """BETTI/1 files written to `directory`, each decomposed by the CLI."""
    rng = random.Random(f"decompose-{seed}")
    ops = []
    for k in range(DECOMPOSE_KOSZUL):
        degrees = sorted(rng.randint(1, 5) for _ in range(7 + k % 4))
        ops.append((f"koszul-{k:03d}", koszul(degrees), {"koszul": degrees}))
    for k in range(DECOMPOSE_CHAINS):
        x = k / (DECOMPOSE_CHAINS - 1)
        n = 6 + k % 5
        length = 40 + round(360 * x * x)
        cells = 100 + round(310 * x)
        chain = random_chain(rng, n, length, cells)
        terms = [(rng.randint(1, 9), d) for d in chain]
        ops.append((f"chain-{k:03d}", expand(terms), {"text": term_lines(terms)}))
    out = []
    for name, entries, expected in ops:
        path = Path(directory) / f"{name}.betti"
        path.write_text(betti_text(entries))
        expected["input"] = entries
        out.append(("cli", ["decompose", "--in", str(path)], expected))
    return out


# Letter patterns of the shuffle products: positions holding the same
# letter get the same gap, so the number of distinct merged terms is a
# property of the pattern, whatever gap values the seed gives the letters.
PRODUCT_PATTERNS = (
    ("abca", "bdac", "caeb"),  # 3 x 4 gaps: 34,650 interleavings
    ("abc", "bca", "cab", "da"),  # 3+3+3+2 gaps: 46,200 interleavings
)
CI_MULTIPLICITIES = ((1,) * 8, (2, 1, 3, 1, 1))  # codim 8: distinct, and repeated
QUOTIENTS = 6  # calls, each on 48 terms of codim 5
TENSORS = 12  # pairs of complete intersections


def shuffle_ops(seed):
    rng = random.Random(f"shuffle-{seed}")
    ops = []
    for mults in CI_MULTIPLICITIES:
        values = sorted(rng.sample(range(1, 13), len(mults)))
        degrees = tuple(v for v, m in zip(values, mults) for _ in range(m))
        ops.append(("ci_shuffle", degrees, None))
    for pattern in PRODUCT_PATTERNS:
        letters = sorted(set("".join(pattern)))
        gap = dict(zip(letters, rng.sample(range(1, 10), len(letters))))
        seqs = []
        for word in pattern:
            d = [rng.randint(0, 3)]
            for letter in word:
                d.append(d[-1] + gap[letter])
            seqs.append(tuple(d))
        ops.append(("shuffle_product", seqs, None))
    for _ in range(QUOTIENTS):
        chain = random_chain(rng, 5, 48, 60)
        terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 4)), d) for d in chain]
        ops.append(("quotient", (terms, rng.randint(1, 5)), None))
    for _ in range(TENSORS):
        a = sorted(rng.randint(1, 6) for _ in range(rng.randint(3, 5)))
        b = sorted(rng.randint(1, 6) for _ in range(rng.randint(3, 5)))
        ops.append(("tensor", (koszul(a), koszul(b)), {"product": sorted(a + b)}))
    return ops


def make_ops(workload, seed, directory):
    if workload == "census":
        return census_ops(seed)
    if workload == "decompose":
        return decompose_ops(seed, directory)
    if workload == "shuffle":
        return shuffle_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(ops):
    """sha256 over every operation's input, to show two runs had the same inputs."""
    h = hashlib.sha256()
    for kind, arg, _ in ops:
        if kind == "cli" and "--in" in arg:
            h.update(Path(arg[arg.index("--in") + 1]).read_bytes())
        else:
            h.update(repr((kind, arg)).encode())
    return h.hexdigest()


def work_items(workload, op, output):
    """Units of work an operation completed: tuples, diagrams or merged terms."""
    kind, arg, expected = op
    if workload == "census":
        return expected["tuples"]
    if workload == "decompose":
        return 1
    return len(output) if kind in ("ci_shuffle", "shuffle_product", "quotient") else 0


# -- exact checks -----------------------------------------------------------


def check(op, output):
    """True when an operation's output is exactly right."""
    kind, arg, expected = op
    if kind == "cli":
        code, text = output
        return code == 0 and _check_cli(arg, expected, text)
    if kind == "ci_shuffle":
        return _check_ci_shuffle(arg, list(output))
    if kind == "shuffle_product":
        target = {(0, 0): Fraction(1)}
        for d in arg:
            target = convolve(target, pure_entries(d))
        return expand(output) == target
    if kind == "quotient":
        terms, e = arg
        return expand(output) == convolve(expand(terms), koszul([e]))
    if kind == "tensor":
        return dict(output.items()) == koszul(expected["product"])
    raise ValueError(f"unknown operation kind {kind!r}")


def _check_cli(argv, expected, text):
    if argv[0] == "census":
        return _check_census(expected, text)
    if "text" in expected:  # a chain sum: greedy must return the chain exactly
        return text == expected["text"]
    terms = parse_term_lines(text)
    chain = [d for _, d in terms]
    increasing = all(
        len(c) == len(d) and c != d and all(a <= b for a, b in zip(c, d))
        for c, d in zip(chain, chain[1:])
    )
    positive = all(q > 0 for q, _ in terms)
    return bool(terms) and increasing and positive and expand(terms) == expected["input"]


def _check_census(expected, text):
    return hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]


def _check_ci_shuffle(degrees, terms):
    """Order-free decomposition: one term per distinct ordering of the degrees."""
    n = len(degrees)
    repeats = prod(factorial(degrees.count(e)) for e in set(degrees))
    coeff = prod(degrees) * repeats
    gaps = sorted(degrees)
    seen = set()
    for q, d in terms:
        if q != coeff or d[0] != 0 or d in seen:
            return False
        if sorted(b - a for a, b in zip(d, d[1:])) != gaps:
            return False
        seen.add(d)
    total = sum(q for q, _ in terms)
    return len(terms) == factorial(n) // repeats and total == factorial(n) * prod(degrees)
