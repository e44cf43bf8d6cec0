"""Naive enumeration oracles for the pattern operators.

Each function is a direct, unoptimized transcription of the operator's
quantifier: enumerate every candidate tuple, test the written condition,
build the output header field by field.  Kept deliberately separate from
the implementation under test.
"""

from itertools import combinations, permutations, product

from cedr.patterns import PatternEvent, idgen
from cedr.temporal import concat_payloads


def build(contribs, w):
    first, last = contribs[0], contribs[-1]
    if last.v_s >= first.v_s + w:
        return None
    return PatternEvent(
        idgen([c.id for c in contribs]),
        v_s=last.v_s, v_e=first.v_s + w,
        o_s=last.o_s, o_e=last.o_e,
        rt=min(c.rt for c in contribs),
        cbt=tuple(c.id for c in contribs),
        payload=concat_payloads(c.payload for c in contribs))


def passthrough(e, w):
    return PatternEvent(e.id, v_s=e.v_s, v_e=e.v_s + w, o_s=e.o_s, o_e=e.o_e,
                        rt=e.rt, cbt=(e.id,), payload=e.payload)


def oracle_atleast(n, streams, w):
    out = set()
    for idxs in combinations(range(len(streams)), n):
        for combo in product(*(list(streams[i]) for i in idxs)):
            for perm in permutations(combo):
                if all(perm[i].v_s < perm[i + 1].v_s for i in range(n - 1)) \
                        and perm[-1].v_s - perm[0].v_s <= w:
                    comp = build(list(perm), w)
                    if comp is not None:
                        out.add(comp)
    return out


def oracle_sequence(streams, w):
    out = set()
    for combo in product(*(list(s) for s in streams)):
        if all(combo[i].v_s < combo[i + 1].v_s for i in range(len(combo) - 1)) \
                and combo[-1].v_s - combo[0].v_s <= w:
            comp = build(list(combo), w)
            if comp is not None:
                out.add(comp)
    return out


def oracle_all(streams, w):
    return oracle_atleast(len(streams), streams, w)


def oracle_any(streams):
    return oracle_atleast(1, streams, 1)


def oracle_atmost(n, streams, w):
    pool = [e for s in streams for e in s]
    out = set()
    for e in pool:
        count = sum(1 for other in pool if e.v_s <= other.v_s < e.v_s + w)
        if count <= n:
            out.add(passthrough(e, w))
    return out


def _blocking(blocks, ctx, e):
    return blocks is None or blocks(ctx, e)


def oracle_unless(e1s, e2s, w, blocks=None):
    out = set()
    for e1 in e1s:
        ctx = ((0, e1),)
        if not any(e1.v_s < e2.v_s < e1.v_s + w and _blocking(blocks, ctx, e2)
                   for e2 in e2s):
            out.add(passthrough(e1, w))
    return out


def oracle_not(es, streams, w, blocks=None):
    out = set()
    for comp_contribs in product(*(list(s) for s in streams)):
        if not all(comp_contribs[i].v_s < comp_contribs[i + 1].v_s
                   for i in range(len(comp_contribs) - 1)):
            continue
        if comp_contribs[-1].v_s - comp_contribs[0].v_s > w:
            continue
        lo, hi = comp_contribs[0].v_s, comp_contribs[-1].v_s
        ctx = tuple(enumerate(comp_contribs))
        if any(lo < e.v_s < hi and _blocking(blocks, ctx, e) for e in es):
            continue
        comp = build(list(comp_contribs), w)
        if comp is not None:
            out.add(comp)
    return out


def oracle_cancel_when(e1s, e2s, blocks=None):
    return {e1 for e1 in e1s
            if not any(e1.rt < e2.v_s < e1.v_s and _blocking(blocks, ((0, e1),), e2)
                       for e2 in e2s)}


# Reference enumerations of the selections an accept hook sees, each a
# (stream index, event) tuple in v_s order.  ``atleast`` must offer its
# hook exactly the selections of ``choose``, and ``sequence`` exactly
# those of ``sequence_walk``, each as often.

def choose(streams, n, w):
    """Every stream subset's cartesian product, each combination sorted."""
    for subset in combinations(range(len(streams)), n):
        for combo in product(*(list(streams[i]) for i in subset)):
            pairs = sorted(zip(subset, combo), key=lambda p: p[1].v_s)
            ok = all(pairs[i][1].v_s < pairs[i + 1][1].v_s for i in range(n - 1))
            if ok and pairs[-1][1].v_s - pairs[0][1].v_s <= w:
                yield tuple(pairs)


def sequence_walk(streams, w):
    """Each stream in turn, every event after the last one chosen, within w."""
    ordered = [sorted(s, key=lambda e: e.sort_key) for s in streams]

    def extend(prefix):
        if len(prefix) == len(ordered):
            yield tuple(enumerate(prefix))
            return
        for e in ordered[len(prefix)]:
            if prefix:
                if e.v_s <= prefix[-1].v_s:
                    continue
                if e.v_s - prefix[0].v_s > w:
                    break
            yield from extend(prefix + [e])

    yield from extend([])


def composites(selections, w, accept):
    """The composites of the selections ``accept`` passes."""
    out = set()
    for ctx in selections:
        if accept(ctx):
            comp = build([e for _, e in ctx], w)
            if comp is not None:
                out.add(comp)
    return out
