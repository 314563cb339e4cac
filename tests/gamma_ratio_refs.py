"""Reference values of the gamma ratio R(x) = Gamma(x + 1/2)/Gamma(x) at
40 digits.

R = h/j with h = 1/Gamma(x) and j = 1/Gamma(x + 1/2), the ratio each
half-harmonic piece of the m3 and m4 level conditions is built from
(dwcross.specfun.recip_gamma_pair_values, and models._gamma_factors for
one energy).  The points are the hard ones for it: 2e-12 to 1e-6 either
side of the poles of Gamma(x) (x = 0, -1, -2, ..., where R -> 0) and of
Gamma(x + 1/2) (x = -1/2, -3/2, ..., where R -> infinity), points in
(0, 1/4], and points down to x = -1e4.  Each x is taken at its exact
binary value.  The script prints the (x, R) pairs to 20 digits, as pasted
into test_specfun.py (TestRecipGammaPairValues).  It needs mpmath, which
the package does not depend on:

    python tests/gamma_ratio_refs.py
"""

import mpmath as mp

mp.mp.dps = 40

_OFFSETS = (2e-12, 1e-9, 1e-6)


def points():
    xs = []
    for pole in (0.0, -1.0, -2.0, -7.0, -30.0, -0.5, -1.5, -3.5, -20.5):
        for offset in _OFFSETS:
            xs += [pole - offset, pole + offset]
    xs += [0.05, 0.125, 0.2, 0.25, -123.4, -1000.0 + 0.3, -1e4 + 0.7, -1e4 - 0.3]
    return xs


def ratio(x):
    x = mp.mpf(x)
    return mp.rgamma(x) / mp.rgamma(x + mp.mpf(0.5))


if __name__ == "__main__":
    for x in points():
        print(f"    ({x!r}, {mp.nstr(ratio(x), 20)}),")
