"""Oracles and sample inputs shared by several test modules."""

import cmath
import math

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
