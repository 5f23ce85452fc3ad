"""Seeded generators for the three benchmark families, as `.caba` text.

Every framework is a pure function of (family, seed, index): the same
triple gives byte-identical text in any process, because the random
stream is seeded with a string (hashed by `random`'s own, stable
algorithm, not by the per-process `hash`).
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rng(family: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{family}/{seed}/{index}")


# Frameworks i and i + BLOCK[family] have the same shape.  A run goes
# through its frameworks in blocks of this many, so that every complete
# block runs the same mix of shapes, whatever the seed.
BLOCK = {"ring": 20, "chain": 10, "bounded": 60}


def _shape(family: str, index: int) -> random.Random:
    """The stream of structural choices: it depends on the index modulo
    the block size only, so that every block of every seed runs the
    same shapes and the seed varies the constants.  This keeps the cost
    mix of a run steady."""
    return random.Random(f"{family}/shape/{index % BLOCK[family]}")


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ring(seed: int, index: int) -> str:
    """An n-way generalisation of the `cpcq` corpus framework.

    Assumption ``p_i(X)`` has contrary ``c_i(X)``, derived from the next
    assumption of the ring above a seeded rational threshold in 0..16;
    the thresholds of one ring are distinct.  Every fourth framework has
    n = 2, which has stable extensions for the oracle to check; the
    others have n = 3, an odd ring, which has none.  An n = 3 ring whose
    thresholds rise along the ring, up to rotation, costs about 1.7
    times one whose thresholds fall; of every four frameworks one
    rises and two fall, so that the median op is the middle of the
    falling rings and the 90th percentile lies among the rising ones,
    not on the edge between two kinds.  n = 4 is left out:
    its ops take 1.2 to 6 s, most of it in the subset search, and a few
    of them decide a run's mean; n = 5 spends about 10 s in the search.
    """
    rng = _rng("ring", seed, index)
    n = 2 if index % 4 == 3 else 3
    values = sorted(
        # every rational in 0..16 with denominator 1, 2 or 3, once
        rng.sample([Fraction(k, d) for d in (1, 2, 3) for k in range(0, 16 * d + 1)
                    if Fraction(k, d).denominator == d], n)
    )
    turn = _shape("ring", index).randrange(n)
    rising = n == 2 or index % 4 == 0
    order = [(turn + k if rising else turn - k) % n for k in range(n)]
    lines = [f"# ring n={n} seed={seed} index={index}"]
    for i in range(1, n + 1):
        lines.append(f"assumption p{i}(X) contrary c{i}(X).")
    for i in range(1, n + 1):
        nxt = i % n + 1
        lines.append(f"c{i}(X) <- p{nxt}(X), X >= {_q(values[order[i - 1]])}.")
    return "\n".join(lines) + "\n"


def chain(seed: int, index: int) -> str:
    """Derived predicates over two assumptions, as chains or sum trees.

    Four frameworks in five are affine chains of n = 2, 3, 4, 3 links
    in turn (``qk(X) <- qj(Y), X = Y + d, X <= c``); the fifth is a sum
    tree of depth 2 (``X = Y + Z + d``).  So the median op is a 3-link
    chain and the 90th percentile the middle of the trees.  The contrary
    of ``a`` is derived from the last link, over a threshold inside the
    last link's range, so that it attacks in every framework; the
    contrary of ``b`` comes from the middle link.

    The seed picks where the range of ``q0`` starts; the range's width,
    the offsets ``d``, the caps and the threshold's place in the last
    range come from the shape stream.  Whether a cap cuts the range and
    where the threshold lies each change an op's cost up to tenfold, so
    a seed that chose them would change the cost mix of a run.  Longer
    chains and deeper trees are left out: a depth-3 tree spends about
    22 s in `attack_graph`, chains of 6 links and more reach a second
    per op, and with 5 links a run of 32 s completes too few ops for 10
    of them to lie beyond the 90th percentile.
    """
    rng = _rng("chain", seed, index)
    shape = _shape("chain", index)
    tree = index % 5 == 4
    n = 2 if tree else (2, 3, 4, 3)[index % 5 % 4]
    lo = rng.randint(0, 2)
    hi = lo + shape.randint(1, 3)
    lines = [f"# chain n={n} tree={int(tree)} seed={seed} index={index}"]
    lines.append("assumption a(X) contrary ca(X).")
    lines.append("assumption b(X) contrary cb(X).")
    lines.append(f"q0(X) <- a(X), X >= {lo}, X <= {hi}.")
    for k in range(1, n + 1):
        d = shape.randint(0, 2)
        if tree:
            lines.append(f"q{k}(X) <- q{k - 1}(Y), q{k - 1}(Z), X = Y + Z + {d}.")
            lo, hi = 2 * lo + d, 2 * hi + d
        else:
            lo, hi = lo + d, hi + d
            cap = ""
            if shape.random() < 0.3:  # a cap inside or just above the range
                hi = shape.randint(lo + 1, hi + 1)
                cap = f", X <= {hi}"
            lines.append(f"q{k}(X) <- q{k - 1}(Y), X = Y + {d}{cap}.")
    t = Fraction(2 * lo + shape.randint(1, 2 * (hi - lo) - 1), 2)
    lines.append(f"ca(X) <- q{n}(X), X >= {_q(t)}.")
    lines.append(f"cb(X) <- q{n // 2}(X).")
    return "\n".join(lines) + "\n"


def bounded(seed: int, index: int) -> str:
    """A small random framework whose variables are pinned to integer
    points of 0..8, with 0-ary assumptions, so that grounding over
    0..8 is exact.  Same shape as the test suite's bounded generator:
    one or two assumptions, one or two derived unary predicates layered
    acyclically, and one to five rules.

    Unlike that generator, whether a body atom ``p(Y), Y = v`` meets a
    rule of ``p`` is a structural choice, made as often as a uniform
    ``v`` would meet one; the seed then picks ``v`` among the points
    that do (or do not).  Which arguments exist drives the op's cost,
    so this keeps the cost mix the same for every seed.

    The cost is bimodal: an op whose framework has a unary argument
    spends 0.1 to 1 s in the oracle's case splits, and one without
    takes about 10 ms.  So the mix is fixed: every fifth framework has
    a rule for a derived predicate (its first rule), and the others
    have rules for contraries only.  The median op is then a short one,
    where fixed per-op cost shows, and the 90th percentile is the
    middle of the long ones, not the edge between the two kinds.
    """
    shape = _shape("bounded", index)
    rng = _rng("bounded", seed, index)
    unary = index % 5 == 4
    n_assum = shape.randint(1, 2)
    derived = ["p", "q"][: shape.randint(1, 2)]
    contraries = [f"con{i}" for i in range(n_assum)]
    rules = []  # (head predicate, point or None, unusable, constraints, refs, assumptions)
    for r in range(shape.randint(1, 5)):
        if not unary:
            head_pred = shape.choice(contraries)
        else:
            head_pred = shape.choice(derived if r == 0 else derived + contraries)
        point = None
        unusable = False
        extra = []
        if head_pred in derived:
            point = rng.randint(0, 8)
            extra.append(f"X = {point}")
            if shape.random() < 0.3:  # a redundant compatible bound
                extra.append(f"X <= {point + rng.randint(0, 3)}")
            if r and shape.random() < 0.1:  # occasionally an unusable rule
                extra.append(f"X < {point}")
                unusable = True
        # acyclic body: q-rules may use p, contraries may use p or q
        usable = []
        if head_pred == "q" or head_pred.startswith("con"):
            if "p" in derived:
                usable.append("p")
        if head_pred.startswith("con") and "q" in derived:
            usable.append("q")
        refs = [(pred, shape.random()) for pred in usable if shape.random() < 0.5]
        asms = [f"asm{i}" for i in range(n_assum) if shape.random() < 0.5]
        rules.append((head_pred, point, unusable, extra, refs, asms))

    lines = [f"# bounded seed={seed} index={index}"]
    for i in range(n_assum):
        lines.append(f"assumption asm{i} contrary con{i}.")
    for head_pred, point, _, constraints, refs, asms in rules:
        body: list[str] = []
        for pred, draw in refs:
            met = sorted({pt for h, pt, bad, *_ in rules if h == pred and not bad})
            missed = [v for v in range(9) if v not in met]
            pool = met if met and (draw < len(met) / 9 or not missed) else missed
            var = f"Y{pred}"
            body.append(f"{pred}({var})")
            constraints.append(f"{var} = {rng.choice(pool)}")
        body.extend(asms)
        head = head_pred if point is None else f"{head_pred}(X)"
        lines.append(f"{head} <- {', '.join(body + constraints)}.")
    return "\n".join(lines) + "\n"


FAMILIES = {"ring": ring, "chain": chain, "bounded": bounded}
