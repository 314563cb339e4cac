"""Reference levels of exactly symmetric m2 models, from their parity
conditions at 40 digits.

An m2 model with a = c is mirror symmetric.  With u = 1, k = sqrt(E),
p = sqrt(v0 - E), well width d = a - b and barrier half-width L = b, its
levels below the barrier top are the roots of

    even:  p tanh(pL) sin(kd) + k cos(kd) = 0
    odd:   p sin(kd) + k cos(kd) tanh(pL) = 0

Each condition is one smooth function with simple roots, so a tunnelling
doublet, which the full F separates only by its tiny splitting, is here
one root of each.  The script prints the lowest n levels of each model to
20 digits, as pasted into test_models.py (TestSymmetricDoublets).  It
needs mpmath, which the package does not depend on:

    python tests/parity_roots.py
"""

import mpmath as mp

mp.mp.dps = 40

# (v0, a, b, n): M2Params(v0, a, b, a), the lowest n levels
MODELS = [
    (100, 3, 1, 4),
    (400, 3, 1, 4),
    (52.49141126437775, 3.0717800837688944, 1.7109533681534321, 5),
]

_SCAN_POINTS = 4000


def parity_conditions(v0, a, b):
    d, half = mp.mpf(a - b), mp.mpf(b)
    v0 = mp.mpf(v0)

    def even(e):
        k, p = mp.sqrt(e), mp.sqrt(v0 - e)
        return p * mp.tanh(p * half) * mp.sin(k * d) + k * mp.cos(k * d)

    def odd(e):
        k, p = mp.sqrt(e), mp.sqrt(v0 - e)
        return p * mp.sin(k * d) + k * mp.cos(k * d) * mp.tanh(p * half)

    return even, odd


def lowest_levels(v0, a, b, n):
    """The lowest n roots of both conditions below v0: sign changes on a
    uniform grid, each refined by bisection-safe root finding."""
    roots = []
    grid = [mp.mpf(v0) * (i + 1) / (_SCAN_POINTS + 1) for i in range(_SCAN_POINTS)]
    for cond in parity_conditions(v0, a, b):
        values = [cond(e) for e in grid]
        for lo, hi, f_lo, f_hi in zip(grid, grid[1:], values, values[1:]):
            if f_lo * f_hi < 0:
                roots.append(mp.findroot(cond, (lo, hi), solver="anderson"))
    roots.sort()
    if len(roots) < n:
        raise ValueError(f"M2Params({v0}, {a}, {b}, {a}) has {len(roots)} levels below v0")
    return roots[:n]


if __name__ == "__main__":
    for v0, a, b, n in MODELS:
        print(f"M2Params({v0}, {a}, {b}, {a}):")
        for root in lowest_levels(v0, a, b, n):
            print("   ", mp.nstr(root, 20))
