"""Independent reference computations that the tests hold the package to.

The package computes slope traces by the Farey recursion only.  This
module evaluates them the long way: write the slope's curve as a word in
a, b and their inverses, multiply the generator matrices letter by letter,
and take the trace.  It imports nothing from the package, so a fault in
the recursion's helpers cannot hide in the oracle too.

Matrices are tuples (a, b, c, d) for [[a, b], [c, d]] of the family

    A = [[iz, i], [i, 0]],   B = [[1, 2], [0, 1]],   C = [[1, w], [0, 1]],

all of determinant one, so the adjugate is the inverse.  Traces compared
by absolute value descend to PSL2, where a matrix and its negative agree.
"""

IDENTITY = (1, 0, 0, 1)


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def tr(m):
    return m[0] + m[3]


def commutator(m, n):
    """m n m^-1 n^-1."""
    return mul(mul(m, n), mul(inv(m), inv(n)))


def translation(w):
    """The parabolic [[1, w], [0, 1]]: B is translation(2), C is translation(w)."""
    return (1, w, 0, 1)


def generators(z):
    """A and B at the parameter z."""
    return (1j * z, 1j, 1j, 0), translation(2)


def word_matrix(z, word):
    """The product of a word over a, b, A = a^-1, B = b^-1, letter by letter."""
    a, b = generators(z)
    letters = {"a": a, "b": b, "A": inv(a), "B": inv(b)}
    m = IDENTITY
    for ch in word:
        m = mul(m, letters[ch])
    return m


def slope_word(s) -> str:
    """The Christoffel word of s: q letters a and |p| letters b.

    Letter i of p/q (p >= 0, n = p + q) is b where floor(i p / n) steps up.
    This closed form equals the concatenation word(l) + word(r) over the
    Farey parents l < r, so 0/1 -> "a", 1/0 -> "b", 1/2 -> "aab".  Negative
    slopes invert b (letter B), mirroring the automorphism fixing a.
    """
    p, n = abs(s.p), abs(s.p) + s.q
    word = "".join("b" if i * p // n > (i - 1) * p // n else "a" for i in range(1, n + 1))
    return word.replace("b", "B") if s.p < 0 else word


def matrix_trace(z, s) -> complex:
    return tr(word_matrix(z, slope_word(s)))


def poly_value(poly, z) -> complex:
    """A TracePolynomial's value at z, by Horner's rule."""
    acc = 0j
    for re, im in reversed(poly.coeffs):
        acc = acc * z + complex(re, im)
    return acc


# The Farey-tree search that classified points before the verdicts were
# found to follow from the integer fan alone.  The tests hold the fan rule
# to it.  A trace below REJECT rejects, one below BAR spoils an inside
# verdict, and GROW is the bar of the two growth prunes.
REJECT = 2.0
BAR = 2.0 + 1e-3
GROW = 4.0


def prunes(tl, tr, td, tm) -> bool:
    """Whether the search skips the subtree below the edge (l, r) of
    difference d and mediant m = l*r - d.

    Two-sided growth: if |t_l|, |t_r| >= GROW and |t_m| >= both, each child's
    mediant t' has |t'| >= (GROW - 1)|t_m|, so the hypothesis holds one level
    down.  Pinned fan: for an end v with |t_v| > 2 and the other end x with
    |t_x| >= GROW and |t_d| <= |t_x|, the traces x_k of v's fan obey
    x_{k+1} = t_v*x_k - x_{k-1} and gain at least |t_v| - 1 a step.  Either
    way every trace of the subtree is at least GROW.
    """
    al, ar, ad = abs(tl), abs(tr), abs(td)
    if al >= GROW and ar >= GROW and abs(tm) >= max(al, ar):
        return True
    return (al > 2.0 and ar >= GROW and ad <= ar) or (ar > 2.0 and al >= GROW and ad <= al)


def search(z, q_max=512, node_budget=20000):
    """The search's verdict at z: (verdict name, (p, q) of the rejecting
    slope, or None).

    It forms the integer fan, every n/1 with |z + 2n| < GROW and one more at
    each end, then searches the Farey tree between neighbouring fan slopes
    depth first, left to right.  The first trace below REJECT rejects.  The
    verdict is Undetermined once node_budget traces are formed, if an edge
    is left unsplit at denominator q_max, or if a trace lies below BAR.
    """
    z = complex(z)
    if z.imag == 0.0:
        return "OutsideCertified", None
    lo = hi = round(-z.real / 2.0)
    while abs(z + 2.0 * lo) < GROW:
        lo -= 1
    while abs(z + 2.0 * hi) < GROW:
        hi += 1
    spoiled = capped = False
    fan = {}
    for n in range(lo, hi + 1):
        fan[n] = 1j * (z + 2.0 * n)
        if abs(fan[n]) < REJECT:
            return "OutsideCertified", (n, 1)
        spoiled |= abs(fan[n]) < BAR
    explored = len(fan)
    stack = [(n, 1, fan[n], n + 1, 1, fan[n + 1], 2 + 0j) for n in range(hi - 1, lo - 1, -1)]
    while stack:
        if explored >= node_budget:
            return "Undetermined", None
        lp, lq, tl, rp, rq, tr, td = stack.pop()
        mp, mq, tm = lp + rp, lq + rq, tl * tr - td
        explored += 1
        if abs(tm) < REJECT:
            return "OutsideCertified", (mp, mq)
        spoiled |= abs(tm) < BAR
        if prunes(tl, tr, td, tm):
            continue
        if mq >= q_max:
            capped = True
            continue
        stack.append((mp, mq, tm, rp, rq, tr, tl))
        stack.append((lp, lq, tl, mp, mq, tm, tr))
    if spoiled or capped:
        return "Undetermined", None
    return ("InsidePlus" if z.imag > 0 else "InsideMinus"), None
