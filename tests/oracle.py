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
