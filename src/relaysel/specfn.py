"""Special-function kernel.

Everything downstream (closed-form outage / SER / capacity expressions and
their oracles) is assembled from the functions in this module.  `marcum_q1`
and `bessel_j0` defer to scipy.special (Boost's noncentral chi-square CDF,
Cephes J0).  Only validate's outage oracle and `channel.doppler_correlation`
call them, so they import it inside the call: importing relaysel, as every
CLI cold start does, loads no scipy.  All routines are pure functions of
their arguments and safe for concurrent use.  Tables that depend on no
argument but their length (ln n!, lgamma on the half-integer grid, the
Q-approximation coefficients) are computed once per process, on first use,
and handed out read-only.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable

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

    abs_tol is an absolute tail bound; k_max is a hard cap on the index,
    which only decides whether a series raises SeriesError, never its value.
    """

    abs_tol: float = 1e-12
    k_max: int = 65536

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


# ---------------------------------------------------------------------------
# factorials / binomials
# ---------------------------------------------------------------------------

class _Grid:
    """Process-wide read-only table of rows 0, 1, ..., built on demand:
    rows(lo, hi) returns rows lo..hi-1 as one array, and no row may depend
    on hi.

    It only ever grows: a copy at least twice as long replaces the array, so
    an array a caller already holds never changes, and `upto(n)` keeps
    returning at least n + 1 rows once it has.
    """

    def __init__(self, rows: Callable[[int, int], np.ndarray]):
        self._rows = rows
        self._table = np.empty(0)
        self._lock = threading.Lock()

    def upto(self, n: int) -> np.ndarray:
        """The table with at least n + 1 rows."""
        table = self._table
        if len(table) > n:
            return table
        with self._lock:
            table = self._table
            have = len(table)
            if have <= n:
                tail = self._rows(have, max(n + 1, 2 * have))
                table = np.concatenate((table, tail)) if have else tail
                table.flags.writeable = False
                self._table = table
        return table


# 0, 1, 2, ... as floats
_INDEX = _Grid(lambda lo, hi: np.arange(lo, hi, dtype=float))
# lgamma(1 + j/2), whose even entries j = 2n are ln(n!)
_LGAMMA_HALF = _Grid(lambda lo, hi: np.array([math.lgamma(1.0 + 0.5 * j) for j in range(lo, hi)]))


def ln_factorial(n: int) -> float:
    """ln(n!) for n >= 0, accurate to a couple of ulp via lgamma (grid entry 2n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return float(_LGAMMA_HALF.upto(2 * n)[2 * n])


def ln_gamma_half_grid(n: int) -> np.ndarray:
    """Read-only array G with G[j] = lgamma(1 + j/2) for j = 0..n (and
    possibly beyond): the half-integer grid 1, 1.5, 2, ..., computed once
    per process."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _LGAMMA_HALF.upto(n)


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
    t = _INDEX.upto(j_hi)[: j_hi + 1] * math.log(x)
    t -= x
    t -= _ln_factorial_array(j_hi)
    np.exp(t, out=t)
    # np.cumsum's own ufunc, without its Python wrapper's ~2 us a call, and
    # into a new array: with out= its input, numpy copies the input first
    suffix = np.add.accumulate(t[::-1])[::-1]
    out = np.zeros(k_max + 1)
    avail = min(k_max, j_hi - 1)
    out[: avail + 1] = suffix[1 : avail + 2]
    return np.minimum(out, 1.0, out=out)


def _ln_factorial_array(n: int) -> np.ndarray:
    """Read-only view of ln(k!) for k = 0..n, the grid's even entries."""
    ln_factorial(n)  # grows the grid to 2n
    return _LGAMMA_HALF.upto(2 * n)[: 2 * n + 1 : 2]


# ln k! - ((k + 1/2) ln k - k + ln(2 pi)/2) for k = 0..15 (0 at k = 0); from
# k = 16 on, five terms of its asymptotic series are exact to double precision
_STIRLING_ERR = np.array([0.0] + [
    math.lgamma(k + 1.0) - ((k + 0.5) * math.log(k) - k + 0.5 * math.log(2.0 * math.pi))
    for k in range(1, 16)
])


def _poisson_base(k_lo: int, k_hi: int) -> np.ndarray:
    """B[k - k_lo] for k = k_lo..k_hi, the part of ln Pr[Poisson(mean) = k]
    that does not depend on the mean: -ln(2 pi k)/2 - stirling_err(k), and
    0 at k = 0.  With the deviance D = k ln(k / mean) - (k - mean),
    ln Pr = B - D, a saddle-point form in which no large terms cancel: its
    rounding stays near eps |k - mean|, where k ln(mean) - mean - ln k!
    loses eps ln k!."""
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    r = 1.0 / np.maximum(k, 16.0)
    r2 = r * r
    err = r * (1.0 / 12 - r2 * (1.0 / 360 - r2 * (1.0 / 1260 - r2 * (1.0 / 1680 - r2 / 1188))))
    small = max(0, min(16, k_hi + 1) - k_lo)
    err[:small] = _STIRLING_ERR[k_lo : k_lo + small]
    with np.errstate(divide="ignore"):
        base = -0.5 * np.log(2.0 * math.pi * k) - err
    if k_lo == 0:
        base[0] = 0.0
    return base


def _poisson_deviance(k: np.ndarray, mean) -> np.ndarray:
    """D = k ln(k / mean) - (k - mean) for integer k >= 0 (mean at k = 0).

    The ratio is taken as 1 + (k - mean) / mean, and k - mean is exact for
    mean/2 <= k <= 2 mean, so D carries about eps |k - mean| of rounding,
    where k / mean - 1 would carry eps k."""
    kf = k.astype(float)
    diff = kf - mean
    d = diff / mean
    np.log1p(d, out=d, where=k > 0)  # d stays -1 at k = 0, where k * d = 0
    d *= kf
    d -= diff
    return d


def _poisson_span(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index window [lo, hi] = mean -/+ (10 sqrt(mean) + 45), outside which
    Poisson(mean) keeps under ~1e-20 of its mass, as int64 arrays."""
    spread = np.ceil(10.0 * np.sqrt(mean) + 45.0)
    centre = np.floor(mean)
    return np.maximum(centre - spread, 0.0).astype(np.int64), (centre + spread).astype(np.int64)


def poisson_weight_window(lam: float, tol: float, k_cap: int) -> tuple[int, np.ndarray]:
    """Poisson(lam) pmf restricted to k where the weight exceeds tol.

    Returns (k_lo, weights).  Weights are computed in saddle-point form
    (`_poisson_base` minus the deviance), so the window is usable far beyond
    the underflow point of exp(-lam) and keeps its relative digits at large
    k.  Raises SeriesError if the required window would extend past k_cap.
    Nothing in relaysel calls it; it and the helpers above it, which serve
    only it, stay while perfbench traces it.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0:
        return 0, np.array([1.0])
    k_lo, k_hi = (int(end[0]) for end in _poisson_span(np.array([lam])))
    if k_hi > k_cap:
        raise SeriesError(
            f"Poisson window for mean {lam:.3g} needs k up to {k_hi}, cap is {k_cap}"
        )
    w = np.exp(_poisson_base(k_lo, k_hi) - _poisson_deviance(np.arange(k_lo, k_hi + 1), lam))
    keep = w >= tol * w.max()
    first = int(np.argmax(keep))
    last = len(keep) - 1 - int(np.argmax(keep[::-1]))
    return k_lo + first, w[first : last + 1]


# ---------------------------------------------------------------------------
# Bessel J0
# ---------------------------------------------------------------------------

def bessel_j0(x: float) -> float:
    """Ordinary Bessel function of the first kind, order zero: scipy's
    `special.j0` (Cephes), within 4e-16 absolute of 40-digit values on
    [0, 60]."""
    from scipy.special import j0  # here, so importing relaysel loads no scipy

    return float(j0(float(x)))


# ---------------------------------------------------------------------------
# exponential integrals
# ---------------------------------------------------------------------------

def exp1(y: float) -> float:
    """Standard exponential integral E1(y) = int_y^inf e^(-t)/t dt, y > 0."""
    if not y > 0.0:  # NaN too
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
    # e^-y times exp1_scaled's continued fraction
    return _exp1_fraction(y, y**0.8) * math.exp(-y)


# (-1)^(k+1) / (k k!) for k = 1..18, the E1 power-series coefficients; the
# k = 18 term is below 1e-17 of E1(b) for b < 1
_E1_SERIES = np.array([(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 19)])


def exp1_scaled(b) -> np.ndarray:
    """e^b E1(b) = int_0^inf e^(-t) / (b + t) dt = E[ln(1 + X/b)] for
    X ~ Exponential(1), elementwise over an array of b > 0.  It never forms
    e^b alone, so it stays finite where e^b overflows (b > ~709).

    b < 1 takes the power series of E1 by Horner's rule, times e^b; b >= 1
    evaluates the continued fraction 1 / (b + 1 - 1/(b + 3 - 4/(b + 5 - ...)))
    bottom-up from a depth set by each element's own b (104 levels at b = 1,
    7 at b = 1e2), so an array call returns bit for bit the values of the
    elementwise calls.  Within 6e-16 relative of a 40-digit reference on
    [1e-6, 1e6].  Arrays of at most `_EXP1_SCALAR_MAX` elements take the
    same steps one element at a time (`_exp1_scaled_elements`).
    """
    b = np.asarray(b, dtype=float)
    if not (b > 0.0).all():
        raise ValueError("exp1_scaled requires b > 0")
    if b.size <= _EXP1_SCALAR_MAX:
        return _exp1_scaled_elements(b)
    small = b < 1.0
    if small.all():
        # no gather and no scatter: the series' buffer is the result
        return _exp1_scaled_series(b)
    series = _exp1_scaled_series(b[small])
    large = ~small
    x = b[large]
    depth = np.ceil(100.0 / x**0.8).astype(np.int64) + 4
    # deepest first, so the elements still open at level j, those of
    # depth > j, are a prefix; each starts at its own depth
    order = np.argsort(-depth, kind="stable")
    x = x[order]
    depth = depth[order]
    levels = int(depth[0])
    open_at = np.searchsorted(-depth, -np.arange(levels), side="left")
    f = x + (2.0 * depth + 1.0)
    del depth  # its last use: one buffer fewer through the levels
    quotient = np.empty_like(f)
    for j in range(levels - 1, -1, -1):
        n = open_at[j]
        # (x + (2j + 1)) - (j + 1)^2 / f, the quotient taken first
        np.divide((j + 1.0) ** 2, f[:n], out=quotient[:n])
        np.add(x[:n], 2.0 * j + 1.0, out=f[:n])
        f[:n] -= quotient[:n]
    # 1 / f, put back in b's order through the quotients' buffer
    quotient[order] = np.divide(1.0, f, out=f)
    out = np.empty_like(b)
    out[small] = series
    out[large] = quotient
    return out


# arrays of at most this many elements take `exp1_scaled` element by element:
# below it the array path's per-call numpy cost, a few ufunc calls per level
# of the fraction, outweighs the Python loop
_EXP1_SCALAR_MAX = 16
# the power series' coefficients from the highest order down, and the
# fraction's levels j = 0..103 as (2j + 1, (j + 1)^2) pairs; 104 is the
# depth at b = 1, the deepest there is
_E1_HORNER = _E1_SERIES[::-1].tolist()
_E1_LEVELS = [(2.0 * j + 1.0, (j + 1.0) ** 2) for j in range(104)]


def _exp1_scaled_elements(b: np.ndarray) -> np.ndarray:
    """`exp1_scaled` one element at a time on Python floats, bit for bit: the
    same series, fraction, depth rule and operation order.  Its
    transcendental steps, b^0.8 for the depth, ln b and e^b, take one numpy
    call each over the whole array, as the array path takes them; e^b is
    formed only at b < 1, so a large b cannot overflow it."""
    flat = b.ravel()
    xs = flat.tolist()
    if min(xs, default=1.0) < 1.0:
        logs = np.log(flat).tolist()
        exps = np.exp(np.minimum(flat, 1.0)).tolist()
    if max(xs, default=0.0) >= 1.0:
        roots = (flat**0.8).tolist()
    out = []
    for i, x in enumerate(xs):
        if x < 1.0:
            acc = _E1_HORNER[0]
            for coef in _E1_HORNER[1:]:
                acc = acc * x + coef
            out.append(((-EULER_GAMMA - logs[i]) + acc * x) * exps[i])
        else:
            out.append(_exp1_fraction(x, roots[i]))
    return np.array(out).reshape(b.shape)


def _exp1_fraction(x: float, root: float) -> float:
    """e^x E1(x) at x >= 1 on Python floats: `exp1_scaled`'s continued
    fraction, bottom-up from depth ceil(100 / root) + 4, root = x^0.8."""
    depth = math.ceil(100.0 / root) + 4
    f = x + (2.0 * depth + 1.0)
    for odd, square in _E1_LEVELS[depth - 1 :: -1]:
        f = (x + odd) - square / f
    return 1.0 / f


def _exp1_scaled_series(x: np.ndarray) -> np.ndarray:
    """`exp1_scaled` at x < 1: e^x ((-gamma - ln x) + x acc), acc the E1
    power series by Horner's rule, in acc's buffer and one log buffer, each
    product and sum taking the same two operands in the same order."""
    acc = np.full_like(x, _E1_SERIES[-1])
    for coef in _E1_SERIES[-2::-1]:
        acc *= x
        acc += coef
    acc *= x
    log = np.log(x, out=np.empty_like(x))
    np.subtract(-EULER_GAMMA, log, out=log)
    log += acc
    log *= np.exp(x, out=acc)
    return log


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


@functools.cache
def qapprox_coefficients(n_a: int) -> np.ndarray:
    """Coefficients a_1..a_na of the exponential-type Q approximation.

    a_n = (-1)^(n+1) A^n / (B sqrt(pi) sqrt(2)^(n+1) n!) with A = 1.98 and
    B = 1.135.  Computed once per n_a per process; the array is read-only.
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
    a = sign * np.exp(log_mag)
    a.flags.writeable = False
    return a


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


def marcum_q1(a, b, *, complement: bool = False):
    """First-order Marcum Q function Q1(a, b), or with complement=True the
    noncentral chi-square CDF 1 - Q1(a, b), from scipy's `special.chndtr`:
    the complement is chndtr(b^2, 2, a^2), and Q1 the positive sum
    chndtr(a^2, 2, b^2) + e^(-(a - b)^2 / 2) i0e(ab), by
    Q1(a, b) + Q1(b, a) = 1 + e^(-(a^2 + b^2) / 2) I0(ab), so neither loses
    a small value to cancellation; b = 0 is exactly 1.  a and b broadcast
    against each other; array arguments give an array, scalars a float.
    Raises SeriesError where chndtr returns NaN, as it does near x ~ nc at
    noncentralities of about 1e12 and above.
    """
    from scipy import special  # here, so importing relaysel loads no scipy

    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if (a < 0.0).any() or (b < 0.0).any():
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    a2, b2 = a * a, b * b
    if complement:
        out = special.chndtr(b2, 2.0, a2)
    else:
        out = special.chndtr(a2, 2.0, b2) + np.exp(-0.5 * (a - b) ** 2) * special.i0e(a * b)
        out = np.where(b == 0.0, 1.0, out)
    if np.isnan(out).any():
        i = np.isnan(out).argmax()  # the first NaN, in flat order
        raise SeriesError(
            f"Marcum Q1 at a^2 = {a2.flat[i]:.6g}, b^2 = {b2.flat[i]:.6g}: chndtr returned NaN"
        )
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def mean_q_gamma_table(shape_max: int, c: float) -> np.ndarray:
    """E[Q(sqrt(2 c X_m))] for X_m ~ Gamma(m, 1), m = 1..shape_max.

    Closed form E_m = (1 - mu * sum_{j<m} C(2j, j) z^j) / 2 with
    mu = sqrt(c / (1 + c)) and z = (1 - mu^2) / 4.  The terms
    t_j = C(2j, j) z^j follow t_j = t_{j-1} * 4z (1 - 1/(2j)), so one
    cumulative product and one cumulative sum give the whole table; numpy's
    accumulate runs in index order, so each entry is rounded exactly as a
    scalar loop would round it.  Each t_j is at most (4z)^j, and a term
    below 2^-54 leaves a running sum >= 1 unchanged, so the product stops
    after ceil(-54 ln 2 / ln 4z) + 2 terms and the rest of the table repeats
    the last sum: the table is the one the full product gives, without its
    run through subnormal terms.  The subtraction 1 - mu * sum cancels as
    the sum approaches 1/mu, which costs digits at large c and shape;
    results are clamped at 0.  This is the exact counterpart of averaging a Gaussian tail
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
    if z4 == 0.0:
        n = 1
    elif z4 < 1.0:
        n = min(shape_max, math.ceil(-54.0 * math.log(2.0) / math.log(z4)) + 2)
    else:  # mu^2 rounds away at tiny c: the terms never drop below 2^-54
        n = shape_max
    t = np.empty(n)  # t[j] = C(2j, j) z^j
    t[0] = 1.0
    t[1:] = np.cumprod(z4 * (1.0 - 0.5 / np.arange(1.0, n)))
    s = np.empty(shape_max)
    np.cumsum(t, out=s[:n])
    s[n:] = s[n - 1]
    return np.maximum(0.5 * (1.0 - mu * s), 0.0)


# ---------------------------------------------------------------------------
# log-average over gamma densities (capacity kernel)
# ---------------------------------------------------------------------------

# above this b the seed V_0 = e^b E1(b) carries too little accuracy through
# the growing steps j < b, and every increment comes from the continued fraction
_RECURRENCE_B_MAX = 15.0
# at b <= _RECURRENCE_B_MAX the recurrence fills the increments j below this
# and the continued fraction the rest: from order n = _RECURRENCE_HEAD + 1 on
# it needs at most 9 levels at any b, where at small b and n it needs thousands
_RECURRENCE_HEAD = 256


def expn_scaled(n, b: float) -> np.ndarray:
    """e^b E_n(b) = E[1 / (b + X)] for X ~ Gamma(n, 1), where
    E_n(b) = int_1^inf e^(-b t) t^(-n) dt, over an ascending array of
    integer orders n >= 1 at one b > 0.

    Evaluates the continued fraction (Abramowitz & Stegun 5.1.22)
    1 / (b + n - 1 n / (b + n + 2 - 2 (n + 1) / (b + n + 4 - ...))) bottom-up
    from depth 5 + ceil(80 / (b + n)^0.55), so an element's value depends
    only on its own (n, b), never on the other orders in the array.  The
    depth falls as n grows, so the elements still open at a level are a
    prefix of the array.  It suffices for b > 15 at every order and for
    n > 256 at every b (within 1.2 eps of 40-digit values; two levels fewer
    lose 10 eps); orders n <= 256 at b <= 15, where the fraction needs up to
    thousands of levels, raise ValueError.
    """
    b = float(b)
    n = np.asarray(n, dtype=float)
    if not b > 0.0:
        raise ValueError("expn_scaled requires b > 0")
    if n.ndim != 1:
        raise ValueError("orders must be a 1-D array")
    if not n.size:
        return np.empty(0)
    if n[0] < 1.0 or (n[1:] < n[:-1]).any():
        raise ValueError("orders must be ascending and >= 1")
    if b <= _RECURRENCE_B_MAX and n[0] <= _RECURRENCE_HEAD:
        raise ValueError(
            f"orders n <= {_RECURRENCE_HEAD} need b > {_RECURRENCE_B_MAX:g}, got b = {b:g}"
        )
    s = b + n
    # level i > 6 is open while s < (80 / (i - 6))^(1 / 0.55); s ascends, so
    # the open elements are the first reach[i]
    top = 5 + math.ceil(80.0 / s[0] ** 0.55)
    reach = np.full(top + 1, len(s))
    reach[7:] = np.searchsorted(s, (80.0 / np.arange(1.0, top - 5)) ** (1.0 / 0.55))
    f = np.empty_like(s)
    t = np.empty_like(s)
    prev = 0
    for i in range(top, -1, -1):
        # level i of the elements open below it: b + n + 2i - (i + 1)(n + i) / f
        g, h = f[:prev], t[:prev]
        np.add(n[:prev], i, out=h)
        h *= i + 1.0
        h /= g
        np.subtract(s[:prev], h, out=g)
        g += 2.0 * i
        # the elements of depth i start here, their tail dropped
        np.add(s[prev : reach[i]], 2.0 * i, out=f[prev : reach[i]])
        prev = reach[i]
    return np.divide(1.0, f, out=f)


def log_gamma_mean_table(k_max: int, b: float) -> np.ndarray:
    """L[k] = E[ln(1 + X/b)] for X ~ Gamma(k+1, 1), k = 0..k_max.

    L[k] = sum_{j<=k} V_j, with increments V_j = (1/b) E[1/(1 + X_j/b)]
    = e^b E_{j+1}(b).  For b > 15 every increment is `expn_scaled`'s
    continued fraction.  For b <= 15 the increments j < 256 follow the
    forward recurrence V_j = (1 - b V_{j-1}) / j from V_0 = e^b E1(b), and
    the rest come from the fraction.  A recurrence step multiplies the error
    it inherits by b/j, so the recurrence loses up to about 4 digits near
    j ~ b (1.4e-12 relative at b = 14.9, k = 13); it stays because the
    figures' stored digits were made with it.  Each increment depends only
    on (j, b), so a table is the prefix of every longer table at the same
    b.  The cost is at most 256 Python steps plus a few array operations
    per level of the fraction (at most 23 levels at b > 15, 9 past j = 256).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if b <= 0.0:
        raise ValueError("b must be positive")
    b = float(b)  # keeps the recurrence on Python floats, not numpy scalars
    if b > _RECURRENCE_B_MAX:
        return np.add.accumulate(expn_scaled(np.arange(1, k_max + 2), b))
    head = min(k_max + 1, _RECURRENCE_HEAD)
    prev = math.exp(b) * exp1(b)
    recurrence = [prev]
    for j in range(1, head):
        prev = (1.0 - b * prev) / j
        recurrence.append(prev)
    v = np.empty(k_max + 1)
    v[:head] = recurrence
    if head <= k_max:
        v[head:] = expn_scaled(np.arange(head + 1, k_max + 2), b)
    return np.add.accumulate(v)  # np.cumsum, as in lower_gamma_ratio_table
