"""Self-contained special-function kernel.

Everything downstream (closed-form outage / SER / capacity expressions and
their oracles) is assembled from the functions in this module.  All routines
are pure functions of their arguments and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606065

# Isukapalli-Beaulieu Gaussian-Q approximation constants.
QAPPROX_A = 1.98
QAPPROX_B = 1.135


class SeriesError(RuntimeError):
    """An infinite-series evaluation failed to converge within its cap."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite sums over the Poisson index k.

    abs_tol is an absolute tail bound; k_max is a hard cap on the index.
    """

    abs_tol: float = 1e-12
    k_max: int = 512

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


# ---------------------------------------------------------------------------
# factorials / binomials
# ---------------------------------------------------------------------------

_LOGFACT = [0.0]  # grows on demand; _LOGFACT[n] = ln(n!) = lgamma(n+1)


def ln_factorial(n: int) -> float:
    """ln(n!) for n >= 0, accurate to a couple of ulp via lgamma."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_LOGFACT) <= n:
        m = len(_LOGFACT)
        _LOGFACT.append(math.lgamma(m + 1.0))
    return _LOGFACT[n]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; rejects k outside [0, n]."""
    if k < 0 or k > n:
        raise ValueError("require 0 <= k <= n")
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# incomplete gamma (integer shape)
# ---------------------------------------------------------------------------

def lower_incomplete_gamma(s: int, x: float) -> float:
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt for integer s >= 1.

    Uses the finite identity gamma(k+1, x) = k! (1 - e^-x sum_{j<=k} x^j/j!);
    every use downstream has integer shape, so no continued fractions are
    needed.  The ratio gamma(s, x) / (s-1)! is the Poisson upper tail
    Pr[Poisson(x) >= s], taken from `lower_gamma_ratio_table`'s log-space
    terms so that it stays finite for large s or x.
    """
    if s < 1 or int(s) != s:
        raise ValueError("shape s must be a positive integer")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    s = int(s)
    reg = float(lower_gamma_ratio_table(s - 1, x)[-1])
    if s <= 170:
        return math.factorial(s - 1) * reg
    if reg <= 0.0:
        return 0.0
    return math.exp(ln_factorial(s - 1) + math.log(reg))


def lower_gamma_ratio_table(k_max: int, x: float) -> np.ndarray:
    """Array G with G[k] = gamma(k+1, x) / k! for k = 0..k_max.

    G[k] is the Poisson upper tail Pr[Poisson(x) > k]; the table is built
    from a suffix sum of positive terms, so there is no cancellation.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return np.zeros(k_max + 1)
    # carry the Poisson mass out to where terms drop below ~1e-20
    j_hi = int(max(k_max + 1, math.ceil(x + 45.0 * math.sqrt(x) + 50.0)))
    # absolute accuracy degrades gracefully as ~(x + k ln x) * eps from the
    # log-space cancellation; ~1e-13 at x = 400, far inside every consumer's
    # tolerance
    j = np.arange(j_hi + 1, dtype=float)
    logt = j * math.log(x) - x - _ln_factorial_array(j_hi)
    t = np.exp(logt)
    suffix = np.cumsum(t[::-1])[::-1]
    out = np.zeros(k_max + 1)
    avail = min(k_max, j_hi - 1)
    out[: avail + 1] = suffix[1 : avail + 2]
    return np.minimum(out, 1.0)


def _ln_factorial_array(n: int) -> np.ndarray:
    ln_factorial(n)  # ensure cache
    return np.asarray(_LOGFACT[: n + 1])


def poisson_weight_window(lam: float, tol: float, k_cap: int) -> tuple[int, np.ndarray]:
    """Poisson(lam) pmf restricted to k where the weight exceeds tol.

    Returns (k_lo, weights).  Weights are computed in log space so the window
    is usable far beyond the underflow point of exp(-lam).  Raises
    SeriesError if the required window would extend past k_cap.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return 0, np.array([1.0])
    spread = math.ceil(10.0 * math.sqrt(lam) + 45.0)
    k_lo = max(0, int(lam) - spread)
    k_hi = int(lam) + spread
    if k_hi > k_cap:
        raise SeriesError(
            f"Poisson window for mean {lam:.3g} needs k up to {k_hi}, cap is {k_cap}"
        )
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    logw = k * math.log(lam) - lam - _ln_factorial_array(k_hi)[k_lo:]
    w = np.exp(logw)
    keep = w >= tol * w.max()
    first = int(np.argmax(keep))
    last = len(keep) - 1 - int(np.argmax(keep[::-1]))
    return k_lo + first, w[first : last + 1]


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def bessel_j0(x: float) -> float:
    """Ordinary Bessel function of the first kind, order zero.

    Power series for |x| <= 12, Hankel asymptotic expansion beyond.  Absolute
    accuracy ~1e-13 on the series range, ~1e-11 near the switch point.
    """
    x = abs(float(x))
    if x <= 12.0:
        q = 0.25 * x * x
        term = 1.0
        acc = 1.0
        for k in range(1, 80):
            term *= -q / (k * k)
            acc += term
            if abs(term) < 1e-18 * max(1.0, abs(acc)):
                break
        return acc
    # Hankel expansion: J0 = sqrt(2/(pi x)) [P cos(chi) + S sin(chi)],
    # chi = x - pi/4, with coefficients b_m = b_{m-1} (2m-1)^2 / (8m).
    p_sum, s_sum = 1.0, 0.0
    b = 1.0
    power = 1.0
    prev = math.inf
    for m in range(1, 40):
        b *= (2 * m - 1) ** 2 / (8.0 * m)
        power /= x
        term = b * power
        if abs(term) >= prev:  # asymptotic series started diverging
            break
        prev = abs(term)
        if m % 2 == 1:
            s_sum += term if m % 4 == 1 else -term
        else:
            p_sum += -term if m % 4 == 2 else term
        if abs(term) < 1e-18:
            break
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(chi) + s_sum * math.sin(chi))


# ---------------------------------------------------------------------------
# exponential integrals
# ---------------------------------------------------------------------------

def exp1(y: float) -> float:
    """Standard exponential integral E1(y) = int_y^inf e^(-t)/t dt, y > 0."""
    if y <= 0.0:
        raise ValueError("exp1 requires y > 0")
    if y <= 1.0:
        # series E1 = -gamma - ln y + sum (-1)^(k+1) y^k / (k k!)
        acc = -EULER_GAMMA - math.log(y)
        term = 1.0
        for k in range(1, 60):
            term *= -y / k
            acc -= term / k
            if abs(term) < 1e-18 * max(1.0, abs(acc)):
                break
        return acc
    # modified Lentz continued fraction: E1 = e^-y / (y + 1 - 1/(y+3 - 4/(...)))
    tiny = 1e-300
    b = y + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-y) * h


def exp_integral_ei(x: float) -> float:
    """Tail-form exponential integral int_x^inf e^(-t)/t dt at x < 0.

    This is the form the average-capacity closed form consumes; only the
    strictly negative arguments it feeds are accepted.  The value equals
    E1(-x) and is strictly positive.  For cross-checks against the usual
    Ei: this equals -Ei_standard(x) for x < 0.
    """
    if x >= 0.0:
        raise ValueError("exp_integral_ei is only evaluated for x < 0")
    return exp1(-x)


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def gaussian_q(x: float) -> float:
    """Standard normal tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qapprox_coefficients(n_a: int) -> np.ndarray:
    """Coefficients a_1..a_na of the exponential-type Q approximation.

    a_n = (-1)^(n+1) A^n / (B sqrt(pi) sqrt(2)^(n+1) n!) with A = 1.98 and
    B = 1.135.
    """
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    n = np.arange(1, n_a + 1, dtype=float)
    sign = np.where(np.arange(n_a) % 2 == 0, 1.0, -1.0)
    log_mag = (
        n * math.log(QAPPROX_A)
        - math.log(QAPPROX_B)
        - 0.5 * math.log(math.pi)
        - (n + 1.0) * 0.5 * math.log(2.0)
        - _ln_factorial_array(n_a)[1:]
    )
    return sign * np.exp(log_mag)


def gaussian_q_approx(x: float, n_a: int) -> float:
    """Q(x) ~= e^(-x^2/2) sum_{n=1..n_a} a_n x^(n-1), valid for x >= 0.

    Relative accuracy is a few percent at moderate x and degrades toward
    ~9 percent near x = 5 (measured in the test suite); use gaussian_q when
    exactness matters.
    """
    if x < 0.0:
        raise ValueError("the approximation is defined for x >= 0")
    a = qapprox_coefficients(n_a)
    powers = x ** np.arange(n_a, dtype=float)
    return math.exp(-0.5 * x * x) * float(a @ powers)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b).

    Canonical series over Poisson(a^2/2) weights times regularized upper
    gamma tails, evaluated on a log-stable weight window so that large
    noncentrality (a^2/2 of order 10^4) stays accurate.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    eta = 0.5 * a * a
    y = 0.5 * b * b
    k_lo, w = poisson_weight_window(eta, 1e-20, k_cap=10_000_000)
    k_hi = k_lo + len(w) - 1
    # u[k] = Pr[Poisson(y) <= k]: prefix sums of log-computed pmf terms
    j = np.arange(k_hi + 1, dtype=float)
    pmf = np.exp(j * math.log(y) - y - _ln_factorial_array(k_hi))
    u = np.minimum(np.cumsum(pmf), 1.0)
    val = float(w @ u[k_lo:])
    return min(max(val, 0.0), 1.0)


def mean_q_gamma_table(shape_max: int, c: float) -> np.ndarray:
    """E[Q(sqrt(2 c X_m))] for X_m ~ Gamma(m, 1), m = 1..shape_max.

    Closed form E_m = (1 - mu * sum_{j<m} C(2j, j) z^j) / 2 with
    mu = sqrt(c / (1 + c)) and z = (1 - mu^2) / 4.  The terms
    t_j = C(2j, j) z^j follow t_j = t_{j-1} * 4z (1 - 1/(2j)), so one
    cumulative product and one cumulative sum give the whole table; numpy's
    accumulate runs in index order, so each entry is rounded exactly as a
    scalar loop would round it.  The subtraction 1 - mu * sum cancels as the
    sum approaches 1/mu, which costs digits at large c and shape; results are
    clamped at 0.  This is the exact counterpart of averaging a Gaussian tail
    over a gamma-distributed SNR.
    """
    if shape_max < 1:
        raise ValueError("shape_max must be >= 1")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if c == 0.0:
        return np.full(shape_max, 0.5)
    mu = math.sqrt(c / (1.0 + c))
    z4 = 1.0 - mu * mu  # = 4z
    t = np.empty(shape_max)  # t[j] = C(2j, j) z^j
    t[0] = 1.0
    t[1:] = np.cumprod(z4 * (1.0 - 0.5 / np.arange(1.0, shape_max)))
    return np.maximum(0.5 * (1.0 - mu * np.cumsum(t)), 0.0)


# ---------------------------------------------------------------------------
# log-average over gamma densities (capacity kernel)
# ---------------------------------------------------------------------------

_LEGGAUSS_NODES = 96
# above this b the seed V_0 = e^b E1(b) carries too little accuracy through
# the growing steps j < b, and the increments there are integrated instead
_RECURRENCE_B_MAX = 15.0


def log_gamma_mean_table(k_max: int, b: float) -> np.ndarray:
    """L[k] = E[ln(1 + X/b)] for X ~ Gamma(k+1, 1), k = 0..k_max.

    L[k] = sum_{j<=k} V_j, where the increments V_j = (1/b) E[1/(1 + X_j/b)]
    obey the forward recurrence V_j = (1 - b V_{j-1}) / j.  A step multiplies
    the error it inherits by b/j, so it amplifies while j < b and damps once
    j > b.  For b <= 15 the recurrence runs from V_0 = e^b E1(b) and loses up
    to about 4 digits near j ~ b (1.4e-12 relative at b = 14.9, k = 13).
    For b > 15 the increments j <= min(k_max, ceil(b)) are integrated
    directly, with 96-node Gauss-Legendre rules on each Gamma(j+1) density's
    mass window, and the recurrence carries on from j = ceil(b) + 1.  The
    cost is about 96 min(k_max, ceil(b)) + k_max operations.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if b <= 0.0:
        raise ValueError("b must be positive")
    b = float(b)  # keeps the recurrence on Python floats, not numpy scalars
    v = np.empty(k_max + 1)
    if b <= _RECURRENCE_B_MAX:
        v[0] = math.exp(b) * exp1(b)
        start = 1
    else:
        start = min(k_max, math.ceil(b)) + 1
        u, w = np.polynomial.legendre.leggauss(_LEGGAUSS_NODES)
        lnfact = _ln_factorial_array(start - 1)
        for j in range(start):
            m = j + 1.0
            s = math.sqrt(m)
            # Gauss-Legendre nodes are interior, so log(x) stays finite at lo = 0
            lo = max(0.0, m - 10.0 * s - 5.0)
            hi = m + 12.0 * s + 25.0
            half = 0.5 * (hi - lo)
            x = lo + half * (u + 1.0)
            dens = np.exp(j * np.log(x) - x - lnfact[j])
            v[j] = half * float(w @ (dens / (1.0 + x / b))) / b
    prev = float(v[start - 1])
    for j in range(start, k_max + 1):
        prev = (1.0 - b * prev) / j
        v[j] = prev
    return np.cumsum(v)
