"""Brute-force answers for the benchmark, written without finitetop.

A finite space is given here by the rows of its specialisation preorder:
``up[x]`` is the bitmask of the points y with x <= y, which is the
minimal open set around x.  Opens are the up-closed subsets.  Every
function is a direct search or count, so an expected value taken from
this module never passes through the code it checks.
"""


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def closure_rows(n, pairs):
    """Reflexive-transitive closure of the relation pairs (x <= y)."""
    up = [1 << x for x in range(n)]
    for x, y in pairs:
        up[x] |= 1 << y
    for k in range(n):
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return up


def down_rows(up):
    n = len(up)
    down = [0] * n
    for x in range(n):
        for y in bits(up[x]):
            down[y] |= 1 << x
    return down


def relabel(up, perm):
    """Rows of the preorder moved along the bijection x -> perm[x]."""
    out = [0] * len(up)
    for x, row in enumerate(up):
        out[perm[x]] = sum(1 << perm[y] for y in bits(row))
    return out


def is_t0(up):
    return len(set(up)) == len(up)


def upsets(items_above, limit=None):
    """All masks over items closed upwards, or None once more than limit.

    items_above[i] is the mask of the items strictly above item i, and
    every item above i must come before i.  Each partial choice extends,
    so the search costs the number of results times the depth.
    """
    out = []
    n = len(items_above)

    def rec(i, chosen):
        if limit is not None and len(out) > limit:
            return
        if i == n:
            out.append(chosen)
            return
        rec(i + 1, chosen)
        if items_above[i] & ~chosen == 0:
            rec(i + 1, chosen | 1 << i)

    rec(0, 0)
    if limit is not None and len(out) > limit:
        return None
    return out


def opens_of(up):
    """The Alexandrov opens (up-closed subsets), sorted by (size, value)."""
    n = len(up)
    found = [m for m in range(1 << n) if all(up[x] & ~m == 0 for x in bits(m))]
    return sorted(found, key=lambda m: (m.bit_count(), m))


def components(up):
    down = down_rows(up)
    n = len(up)
    seen = 0
    out = []
    for x in range(n):
        if seen >> x & 1:
            continue
        comp = frontier = 1 << x
        while frontier:
            grown = comp
            for y in bits(frontier):
                grown |= up[y] | down[y]
            frontier = grown & ~comp
            comp = grown
        out.append(comp)
        seen |= comp
    return out


def chain_length(up):
    """Number of points on the longest strict chain of a partial order."""
    memo = {}

    def h(x):
        if x not in memo:
            memo[x] = 1 + max((h(y) for y in bits(up[x] & ~(1 << x))), default=0)
        return memo[x]

    return max((h(x) for x in range(len(up))), default=0)


def strata(up):
    """Maximal points of what is left, peeled level by level."""
    rest = (1 << len(up)) - 1
    out = []
    while rest:
        level = sum(1 << x for x in bits(rest) if up[x] & rest == 1 << x)
        out.append(level)
        rest &= ~level
    return out


def cover_edges(up):
    """(a, b) with b < a and nothing strictly between them."""
    edges = []
    for b in range(len(up)):
        for a in bits(up[b] & ~(1 << b)):
            between = up[b] & ~(1 << b) & ~(1 << a)
            if not any(up[z] >> a & 1 for z in bits(between)):
                edges.append((a, b))
    return sorted(edges)


def point_closures(up):
    """Distinct closures of single points: the irreducible closed sets."""
    return sorted(set(down_rows(up)))


def locally_closed(opens):
    return sorted({u & ~v for u in opens for v in opens},
                  key=lambda m: (m.bit_count(), m))


def relative_pairs(opens, carriers):
    return sorted({(y & w, y) for y in carriers for w in opens})


def isomorphic(up1, up2):
    """Search for an order isomorphism, pruning on up/down set sizes."""
    n = len(up1)
    if n != len(up2):
        return False
    d1, d2 = down_rows(up1), down_rows(up2)
    key1 = [(up1[x].bit_count(), d1[x].bit_count()) for x in range(n)]
    key2 = [(up2[x].bit_count(), d2[x].bit_count()) for x in range(n)]
    if sorted(key1) != sorted(key2):
        return False
    order = sorted(range(n), key=lambda x: sum(k == key1[x] for k in key1))
    image = [None] * n

    def extend(i, used):
        if i == n:
            return True
        x = order[i]
        for y in range(n):
            if used >> y & 1 or key2[y] != key1[x]:
                continue
            if all((up1[x] >> z & 1) == (up2[y] >> image[z] & 1)
                   and (up1[z] >> x & 1) == (up2[image[z]] >> y & 1)
                   for z in order[:i]):
                image[x] = y
                if extend(i + 1, used | 1 << y):
                    return True
        image[x] = None
        return False

    return extend(0, 0)


def admissible_filters(opens, limit=None):
    """Up-closed families of nonempty opens (they all contain the full set).

    Returned as frozensets of open masks, or None past limit.
    """
    items = sorted((u for u in opens if u), key=lambda m: -m.bit_count())
    above = [sum(1 << j for j, v in enumerate(items) if v != u and u & ~v == 0)
             for u in items]
    found = upsets(above, None if limit is None else limit + 1)
    if found is None:
        return None
    return [frozenset(items[j] for j in bits(m)) for m in found if m]


def completion_open_count(filters, limit=None):
    """Opens of the filter completion, or None past limit.

    The sets {filters containing U} generate a topology whose minimal
    open around a filter p is every filter containing p, so its opens
    are the up-sets of the filters ordered by inclusion.
    """
    items = sorted(filters, key=len, reverse=True)
    above = [sum(1 << j for j, q in enumerate(items) if q != p and p <= q)
             for p in items]
    found = upsets(above, limit)
    return None if found is None else len(found)
