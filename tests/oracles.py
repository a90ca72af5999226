"""Oracles and sample inputs shared by several test modules."""

import cmath
import math

from zetapath.exactquad import BETA, DELTA, GAMMA
from zetapath.sl2z import IDENTITY, S, GroupElem

# Path whose endpoint lands in the index-41 pole fiber; found by scanning
# short alternating words.  One letter off the shift word's 9-th prefix.
BAD_WORD = "RSRSrSRSR"


def eta_q_product(z, terms=2000):
    """Independent oracle: plain q-product, no reduction, no multiplier."""
    q = cmath.exp(2j * math.pi * z)
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        prod *= 1.0 - qn
        if abs(qn) < 1e-19:
            break
    return cmath.exp(1j * math.pi * z / 12.0) * prod


def band_points(rng, count, im_hi=1.6):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.88, im_hi))
        if abs(z) >= 1.0:
            pts.append(z)
    return pts


def random_element(rng, bound=50):
    while True:
        m = IDENTITY
        for _ in range(rng.randrange(2, 10)):
            if rng.random() < 0.5:
                m = m * GroupElem(1, rng.randrange(-3, 4), 0, 1)
            else:
                m = m * S
        if max(abs(e) for e in m.entries()) <= bound and m.c != 0:
            return m


def sign_normalize(m):
    if m.c < 0 or (m.c == 0 and m.d < 0):
        return -m
    return m


def mp_root_pair(mpmath, z):
    """Independent oracle: both roots of the branch quadratic at z, from
    mpmath.eta at the unreduced arguments z, z/3, z/5 and z/15, at the
    caller's working precision (mpmath's eta sums the q-product with no
    reduction and no multiplier)."""
    z = mpmath.mpc(z)
    e1, e3, e5, e15 = (mpmath.eta(z / k) for k in (1, 3, 5, 15))
    t = ((e3 * e5) / (e1 * e15)) ** 3
    lam = e3 ** 6 / (e1 ** 3 * e5 ** 3)
    root5 = mpmath.sqrt(5)

    def quad(x):
        return mpmath.mpf(x.a.numerator) / x.a.denominator + \
            mpmath.mpf(x.b.numerator) / x.b.denominator * root5
    big_l = t * t * lam + 27 / (5 * root5) * t ** 3 / lam
    rh = (mpmath.sqrt((5 + 2 * root5) / 3) * (t - quad(BETA))
          * (t * t + quad(GAMMA) * t + quad(DELTA)))
    a, b = big_l - rh, rh - 3 * big_l
    sq = mpmath.sqrt(b * b - 4 * a * a)
    return complex((-b + sq) / (2 * a)), complex((-b - sq) / (2 * a))
