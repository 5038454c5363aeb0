"""Independent exact arithmetic for building inputs and checking answers.

Nothing here imports quatsurf: reference answers come from how an input was
built, computed with this small, separate implementation.  A quaternion is a
4-tuple of Fractions ``(w, x, y, z)``; a quaternionic polynomial is a dict
from ``(du, dv)`` to nonzero quaternions; a real polynomial is a dict from
``(du, dv)`` to nonzero Fractions; a point is a tuple of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

Q_ONE = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


# region quaternions


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def qnonzero(a) -> bool:
    return any(a)


# endregion

# region polynomials


def padd(p: dict, q: dict) -> dict:
    """Sum of two polynomials (quaternion or real coefficients)."""
    out = dict(p)
    for key, c in q.items():
        prev = out.get(key)
        s = c if prev is None else _add(prev, c)
        if _nonzero(s):
            out[key] = s
        else:
            out.pop(key, None)
    return out


def pmul(p: dict, q: dict) -> dict:
    """Product of two quaternionic polynomials; u and v are central."""
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            prev = out.get(key)
            prod = qmul(c1, c2)
            out[key] = prod if prev is None else vadd(prev, prod)
    return {k: c for k, c in out.items() if qnonzero(c)}


def rscale(p: dict, c: Fraction) -> dict:
    return {k: v * c for k, v in p.items() if v * c}


def pconj(p: dict) -> dict:
    return {k: qconj(c) for k, c in p.items()}


def pcomponents(p: dict) -> list[dict]:
    """The four real component polynomials along 1, i, j, k."""
    return [{k: c[n] for k, c in p.items() if c[n]} for n in range(4)]


def lead_coeff(p: dict):
    """Coefficient at the largest (du, dv) monomial in lexicographic order."""
    return p[max(p)]


def _add(a, b):
    return a + b if isinstance(a, Fraction) else vadd(a, b)


def _nonzero(c) -> bool:
    return bool(c) if isinstance(c, Fraction) else qnonzero(c)


# endregion

# region points


def vadd(a, b):
    """Componentwise sum of two quaternions or points."""
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(a, c):
    return tuple(x * c for x in a)


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def circle_point(center, e1, e2, t: Fraction):
    """``center + e1*(1-t^2)/(1+t^2) + e2*2t/(1+t^2)`` in any dimension."""
    den = 1 + t * t
    c, s = (1 - t * t) / den, 2 * t / den
    return tuple(p + a * c + b * s for p, a, b in zip(center, e1, e2))


def stereo_inv(p):
    """Inverse stereographic projection of a 3-point onto the unit 3-sphere."""
    x, y, z = p
    n = x * x + y * y + z * z
    d = n + 1
    return ((n - 1) / d, 2 * x / d, 2 * y / d, 2 * z / d)


def stereo(q):
    """Projection (w, x, y, z) -> (x, y, z)/(1 - w) from the pole 1, or None at the pole."""
    w = q[0]
    if w == 1:
        return None
    d = 1 - w
    return (q[1] / d, q[2] / d, q[3] / d)


# endregion
