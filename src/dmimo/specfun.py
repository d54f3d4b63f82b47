"""Special-function kernel: regularized incomplete gamma, its inverse,
integer-order generalized Marcum-Q, and the Fresnel integrals with their
auxiliary functions.

Everything here is scalar, pure, and thread-safe.  All probabilities are
computed in natural (not log) scale.  The tests pin the inverse incomplete
gamma to 1e-12 relative against scipy for q from 1e-15 to 0.999 and orders
up to 4096; Marcum-Q to 1e-10 relative against the noncentral chi-square
tail for orders up to 1024 and values down to 1e-15, to a per-term
Poisson sum for orders up to 4096, and bit for bit on a grid of orders
1 to 4096 and noncentralities a^2 from 0 to 1e4; and the Fresnel
integrals to 1e-13 absolute against scipy for |x| <= 200.  Marcum-Q
costs one incomplete gamma per call, so its accuracy is that gamma's:
about 1e-11 relative at order 4096, where rounding s log x leaves a few
1e-12.  Its upward walk takes at most _MAX_ITER terms and raises
ValueError where they end short of its stopping rule (from a^2 of about
2.7e6, or 1.3e5 where every term is zero) rather than return a
truncated sum.  The incomplete
gamma's power series and prefactor also give ``analysis`` its Swerling I
average (DLMF 8.5.1).
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "Probability",
    "reg_upper_gamma",
    "inv_reg_upper_gamma",
    "marcum_q",
    "fresnel",
    "fresnel_aux",
]

_MAX_ITER = 10_000

# From this order on, s + 1 rounds to s in a double, which the series and
# the continued fraction of the incomplete gamma cannot survive.
_MAX_ORDER = 2**53

# Below this |x| the Fresnel power series converges without losing more
# than a digit to cancellation; above it the continued fraction is fast.
_FRESNEL_SERIES_MAX = 1.5


class Probability(float):
    """A float constrained to [0, 1].  Construction of out-of-range or
    non-finite values raises ValueError."""

    def __new__(cls, value):
        v = float(value)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"probability must lie in [0, 1], got {v!r}")
        return super().__new__(cls, v)


def _check_finite(name, v):
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")


def _check_order(s):
    # compares before any conversion, so an int beyond a double raises here
    if not 0.0 < s < _MAX_ORDER:
        raise ValueError(f"order s must lie in (0, 2**53), got {s!r}")


def _gamma_series(s, x):
    # sum_k x^k / (s (s+1) ... (s+k)) = 1F1(1; s+1; x) / s, so that the
    # regularized lower incomplete gamma is _gamma_prefactor(s, x) times
    # this sum (DLMF 8.5.1); it converges fast for x < s + 1.
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total


def _gamma_prefactor(s, x):
    # x^s e^-x / Gamma(s), in the log domain
    return math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_gamma_cf(s, x):
    # Regularized upper incomplete gamma by Lentz's continued fraction;
    # good for x >= s + 1.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * _gamma_prefactor(s, x)


def reg_upper_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Monotone nonincreasing in x, with Q(s, 0) = 1 and Q(s, inf) = 0.
    Raises ValueError for orders s outside (0, 2**53).
    """
    _check_order(s)
    _check_finite("x", x)
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        lower = _gamma_series(s, x) * _gamma_prefactor(s, x)
        return min(1.0, max(0.0, 1.0 - lower))
    return min(1.0, max(0.0, _upper_gamma_cf(s, x)))


def inv_reg_upper_gamma(s: float, q: float) -> float:
    """Solve reg_upper_gamma(s, x) = q for x, given 0 < q < 1.

    A geometric scan brackets the root; Newton steps with the analytic
    derivative dQ/dx = -x^(s-1) e^(-x) / Gamma(s) then refine it, falling
    back to bisection whenever a step leaves the bracket.  The result
    matches the forward function to ~1e-12 relative.
    """
    _check_order(s)
    _check_finite("q", q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly in (0, 1), got {q!r}")

    # Start near the mean of the Gamma(s, 1) distribution and expand.
    lo, hi = s, s
    while reg_upper_gamma(s, lo) < q and lo > 1e-300:
        lo /= 2.0
    while reg_upper_gamma(s, hi) > q:
        hi *= 2.0
    log_q, log_gamma_s = math.log(q), math.lgamma(s)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        Q = reg_upper_gamma(s, x)
        if Q > q:
            lo = x
        elif Q < q:
            hi = x
        else:
            return x
        # Newton on log Q, which is nearly linear in the upper tail:
        # d log Q / dx = -x^(s-1) e^(-x) / (Gamma(s) Q)
        slope = (math.exp((s - 1.0) * math.log(x) - x - log_gamma_s) / Q
                 if Q else 0.0)
        step = (math.log(Q) - log_q) / slope if slope else math.inf
        if abs(step) <= 1e-14 * x:
            return x + step
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    return x


def marcum_q(m: int, a: float, b: float) -> Probability:
    """Generalized Marcum-Q function Q_m(a, b) for integer order m >= 1.

    Evaluated as a Poisson-weighted mixture of regularized upper gamma
    tails, which is exact for integer order:

        Q_m(a, b) = sum_k exp(-a^2/2) (a^2/2)^k / k! * Q(m + k, b^2/2)

    Equivalently the right tail of a noncentral chi-square with 2m degrees
    of freedom and noncentrality a^2, evaluated at b^2.

    One incomplete gamma is evaluated, at the Poisson mode k0; the walk
    outward from it steps the gamma tail by the exact recurrence
    Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) (Gil, Segura & Temme,
    ACM TOMS 40, 2014), adding the step going up and subtracting it going
    down.  Each direction stops once a bound on its remaining terms falls
    below 1e-17 of the running sum, so deep tails keep their digits.
    Where the upward walk has not stopped after _MAX_ITER terms (from a^2
    of about 2.7e6, or 1.3e5 where every term is zero), it returns 0 if
    every term is zero and a tail bound proves it, else raises ValueError.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"Marcum-Q order must be an integer >= 1, got {m!r}")
    _check_finite("a", a)
    _check_finite("b", b)
    if a < 0.0 or b < 0.0:
        raise ValueError("Marcum-Q arguments must be nonnegative")
    m = int(m)
    if b == 0.0:
        return Probability(1.0)
    lam = 0.5 * a * a
    x = 0.5 * b * b
    if lam == 0.0:
        return Probability(reg_upper_gamma(m, x))

    # The terms w_k Q(m + k, x) are log-concave in k (Poisson weights
    # times a Poisson CDF), so their ratios r only shrink along either
    # walk, and once r < 1 the rest is below the geometric tail
    # term r / (1 - r).  Going up, the Poisson mass left (Q <= 1) bounds
    # it too, which ends walks whose terms underflow to zero.
    exp, log = math.exp, math.log
    log_lam, log_x = log(lam), log(x)
    k0 = int(lam)
    # first, so an order from 2**53 on is rejected before lgamma sees it
    q0 = reg_upper_gamma(m + k0, x)
    log_w0 = -lam + k0 * log_lam - math.lgamma(k0 + 1)
    # log of the step x^s e^-x / Gamma(s + 1) at s = m + k0
    log_t0 = (m + k0) * log_x - x - math.lgamma(m + k0 + 1)
    term0 = exp(log_w0) * q0
    total = term0

    q, log_w, log_t, prev = q0, log_w0, log_t0, term0
    for k in range(k0 + 1, k0 + _MAX_ITER):
        q += exp(log_t)
        log_t += log_x - log(m + k)
        log_w += log_lam - log(k)
        w = exp(log_w)
        term = w * q
        total += term
        r = term / prev if prev else math.inf
        r_w = lam / (k + 1)
        if (r < 1.0 and term * r / (1.0 - r) <= 1e-17 * total
                or r_w < 1.0 and w * r_w / (1.0 - r_w) <= 1e-17 * total):
            break
        prev = term
    else:
        # zero terms sum to 0 where the tail's Chernoff bound underflows:
        # log Q <= (u - 1) x - m log u + lam (1 - u) / u, u = 1 - 2t optimal
        u = (m + math.sqrt(m * m + 4.0 * lam * x)) / (2.0 * x)
        if total == 0.0 and u < 1.0 and exp(
                (u - 1.0) * x - m * log(u) + lam * (1.0 - u) / u) == 0.0:
            return Probability(0.0)
        raise ValueError(f"Marcum-Q series at noncentrality a^2 = "
                         f"{2.0 * lam!r} does not converge in {_MAX_ITER} "
                         "terms")

    q, log_w, log_t, prev = q0, log_w0, log_t0, term0
    for k in range(k0 - 1, -1, -1):
        log_t -= log_x - log(m + k + 1)
        q = max(0.0, q - exp(log_t))
        log_w -= log_lam - log(k + 1)
        term = exp(log_w) * q
        total += term
        if term == 0.0:
            break
        r = term / prev
        if r < 1.0 and term * r / (1.0 - r) <= 1e-17 * total:
            break
        prev = term
    return Probability(min(1.0, total))


def _fresnel_series(x):
    # C(x) + jS(x) = sum_k (j pi/2)^k x^(2k+1) / (k! (2k+1)); good for
    # |x| <= _FRESNEL_SERIES_MAX, where the largest term stays below 2.
    step = 0.5j * math.pi * x * x
    term = complex(x)
    total = term
    for k in range(1, _MAX_ITER):
        term *= step / k
        total += term / (2 * k + 1)
        if abs(term) <= 1e-17 * (2 * k + 1) * abs(total):
            break
    return total


def _fresnel_aux_cf(x):
    # g(x) + jf(x) = x / (1 - j pi x^2 - 1*2 / (5 - j pi x^2 - 3*4 /
    # (9 - j pi x^2 - ...))), the erfc continued fraction at
    # z = sqrt(pi)/2 (1 - j) x, by Lentz's method; good for
    # x > _FRESNEL_SERIES_MAX.
    if x > 1e8:
        # two leading asymptotic terms, next is 3/(pi x^2)^2 relative;
        # keeps pi x^2 from overflowing
        tail = 1.0 / (math.pi * x)
        return complex(tail / (math.pi * x * x), tail)
    tiny = 1e-300
    b = complex(1.0, -math.pi * x * x)
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -(2 * i - 1) * (2 * i)
        b += 4.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        # complex rounding leaves |delta - 1| at a few ulp once converged
        if abs(delta - 1.0) < 1e-15:
            break
    return x * h


def fresnel(x: float) -> complex:
    """Fresnel integrals C(x) + jS(x) = integral_0^x exp(j pi t^2 / 2) dt.

    Odd in x, tending to +-(1 + j)/2 as x -> +-inf.  Above |x| = 1.5 the
    rounding of the phase pi x^2 / 2 bounds the absolute error by about
    1e-16 |x|.
    """
    _check_finite("x", x)
    ax = abs(x)
    if ax <= _FRESNEL_SERIES_MAX:
        return _fresnel_series(x)
    val = 0.5 + 0.5j
    if ax < 1e16:
        # beyond, the tail (below 1 / (pi x)) is under half an ulp of 1/2
        val -= _fresnel_aux_cf(ax) * cmath.exp(0.5j * math.pi * ax * ax)
    return val if x > 0 else -val


def fresnel_aux(x: float) -> complex:
    """Auxiliary functions g(x) + jf(x) of the Fresnel integrals, x >= 0:

        C(x) + jS(x) = (1 + j)/2 - (g(x) + jf(x)) exp(j pi x^2 / 2).

    f decays like 1 / (pi x) and g like 1 / (pi^2 x^3), so the pair keeps
    full relative precision where C + jS is 1/2 plus a tiny oscillation.
    """
    _check_finite("x", x)
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x <= _FRESNEL_SERIES_MAX:
        return ((0.5 + 0.5j - _fresnel_series(x))
                * cmath.exp(-0.5j * math.pi * x * x))
    return _fresnel_aux_cf(x)
