"""Arithmetic kernels: the coefficient ring and the twisted torus product.

Coefficients are sparse Laurent polynomials in v = q^(1/2), stored as plain
dicts mapping v-exponent (int) to a nonzero integer.  Torus elements are
dicts mapping exponent tuples to coefficient dicts.  Every exact identity
in the package is computed through these five functions.
"""

from __future__ import annotations


def coeff_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def coeff_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def coeff_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def coeff_shift(a: dict, k: int) -> dict:
    if not k:
        return dict(a)
    return {ke + k: c for ke, c in a.items()}


def torus_mul(xterms: dict, yterms: dict, lam: tuple) -> dict:
    """Multiply two torus elements: M^a * M^b = v^(lam(a,b)) * M^(a+b)."""
    out: dict = {}
    for beta, cb in yterms.items():
        lamb = [sum(row[j] * bj for j, bj in enumerate(beta) if bj) for row in lam]
        for alpha, ca in xterms.items():
            s = sum(ai * li for ai, li in zip(alpha, lamb) if ai)
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            prod = coeff_mul(ca, cb)
            if s:
                prod = {k + s: c for k, c in prod.items()}
            cur = out.get(gamma)
            out[gamma] = coeff_add(cur, prod) if cur is not None else prod
    return {g: c for g, c in out.items() if c}
