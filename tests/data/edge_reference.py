"""Reference values of the edge response M(lambda) and its derivative M'(lambda).

Writes ``edge_reference.csv`` next to this file, from the closed forms at
40 significant digits with mpmath (more where w = l^2 k^2 is tiny), each
value rounded once to the nearest double.  Run from the repository root:

    python tests/data/edge_reference.py

Each row holds ``model, ell, lam, a, b, da, db`` for the graph trace maps.
On the interval models M = P * [[a, b], [b, a]] and M' = P * [[da, db],
[db, da]] entrywise, with the trace phase P = 1 for the Laplacian and
P = [[1, -i], [i, 1]] for Dirac; on the half-line M = [[a + i b]] and
M' = [[da + i db]].  A row at an exact pole of M (Dirac's rho pole
-c^2/2, lambda = 0 on the half-line) holds ``nan``.  The points are the
regimes of w on every length of the model: the series |w| < 1e-3, w > 0
away from and next to the Dirichlet poles, w < 0 down to -1e6 l^2.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

DIGITS = 40
TABLE = pathlib.Path(__file__).with_name("edge_reference.csv")
COLUMNS = ("model", "ell", "lam", "a", "b", "da", "db")


def _regime_points(preimages, ell):
    """Real lambda on an edge of length ell in every regime of w = l^2 k^2;
    ``preimages`` maps k^2 to its real lambda."""
    ws = [0.0, 1e-5, -1e-5, 9.9e-4, -9.9e-4, 1.01e-3, -1.01e-3, 0.7, 5.3, 61.0, 2e3,
          4.1e5, 1.7e7, -0.5, -3.0, -80.0, -5e3, -1e6 * ell ** 2]
    for n in (1, 2, 7, 40):
        ws += [(n * math.pi) ** 2 * (1 + d) for d in (1e-7, -1e-7, 1e-12, -3e-10, 0.0)]
    return [lam for w in ws for lam in preimages(w / ell ** 2)]


def _dirac_preimages(c):
    def preimages(k2):
        # k^2 = (lambda^2 - c^4/4) / c^2, plus the rho pole, the gap center
        # and a far negative point.
        r = c * c * k2 + c ** 4 / 4
        return ([math.sqrt(r), -math.sqrt(r)] if r >= 0 else []) + [-c * c / 2, c * c / 2, -1e6]
    return preimages


#: model name: (Dirac's speed of light c or None, the k^2 -> lambda
#: preimages, the lengths).
MODELS = {
    "laplacian": (None, lambda k2: [k2], np.geomspace(1e-3, 50.0, 11).tolist() + [1.0, 0.3]),
    "dirac-1": (1.0, _dirac_preimages(1.0), np.geomspace(1e-3, 50.0, 11).tolist() + [1.0]),
    "dirac-137": (137.0, _dirac_preimages(137.0), np.geomspace(1e-3, 50.0, 7).tolist()),
    "half-line": (None, lambda k2: [k2, -k2, -0.0], [math.inf]),
}


def points():
    """[(model, ell, lam)]: each model's regime points, per length in order."""
    out = []
    for name, (_, preimages, lengths) in MODELS.items():
        for ell in lengths:
            seen = set()
            for lam in _regime_points(preimages, ell if math.isfinite(ell) else 1.0):
                if lam not in seen:  # -0.0 and 0.0 count once
                    seen.add(lam)
                    out.append((name, ell, lam))
    return out


def response(name, ell, lam):
    """(a, b, da, db) of the model ``name`` at the doubles ell and lam, as
    mpmath numbers, or None at an exact pole."""
    import mpmath as mp

    c = MODELS[name][0]
    with mp.workdps(DIGITS):
        lam = mp.mpf(lam)
        if name == "half-line":
            if lam == 0:
                return None
            z = mp.sqrt(mp.mpc(lam))  # Im z >= 0: M = i sqrt(lambda) is Herglotz
            m, dm = 1j * z, 1j / (2 * z)
            return m.real, m.imag, dm.real, dm.imag
        ell = mp.mpf(ell)
        if c is None:
            k2, dk2, rho, drho = lam, 1, 1, 0
        else:
            c = mp.mpf(c)
            shift = lam + c * c / 2
            if shift == 0:
                return None
            k2, dk2 = (lam * lam - c ** 4 / 4) / (c * c), 2 * lam / (c * c)
            rho, drho = c * c / shift, -c * c / shift ** 2
        w = ell * ell * k2
    # r = z csc z and q = z cot z; d and e lose -log10|w| digits to cancellation.
    extra = 10 + (0 if w == 0 else max(0, int(-mp.log10(abs(w)))))
    with mp.workdps(DIGITS + extra):
        if w == 0:
            r, q, d, e = mp.mpf(1), mp.mpf(1), mp.mpf(1) / 3, mp.mpf(1) / 6
        else:
            if w > 0:
                z = mp.sqrt(w)
                r, q = z / mp.sin(z), z * mp.cot(z)
            else:
                y = mp.sqrt(-w)
                r, q = y / mp.sinh(y), y * mp.coth(y)
            d, e = (r * r - q) / (2 * w), -r * (q - 1) / (2 * w)
        # M = rho P M_L, M' = rho' P M_L + rho (k^2)' P dM_L/dk^2, with
        # M_L = [[-q, r], [r, -q]] / l and dM_L/dk^2 = l [[d, e], [e, d]].
        return (-rho * q / ell, rho * r / ell,
                -drho * q / ell + rho * dk2 * ell * d, drho * r / ell + rho * dk2 * ell * e)


def row(name, ell, lam):
    """One table row as strings: the inputs and each value rounded to the
    nearest double, in shortest round-trip form."""
    values = response(name, ell, lam)
    cells = ["nan"] * 4 if values is None else [repr(float(v)) for v in values]
    return [name, repr(ell), repr(lam)] + cells


def main():
    lines = [",".join(COLUMNS)] + [",".join(row(*p)) for p in points()]
    TABLE.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
