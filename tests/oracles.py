"""Independent oracles and test-only helpers the tests compare the
package against.

None of these is used by the package itself: the scalar slow-time sample
checks the vectorized S X h model; the sampled pulse envelope, the
Gauss-Legendre quadrature, the CAF symmetry partner and the grid check the
closed-form CAF; the per-term Poisson sum checks the Marcum-Q recurrence;
the full (trials, M, N, K) measurement blocks, with their complex
Swerling I amplitudes, check the law of the Monte Carlo engine's
sufficient coordinates, and the serial coordinate-block iterator, which
takes an `analysis.Receiver`, checks its pooled blocks; the frame formed
from the receiver's fields checks `Receiver.frame` bit for bit; the
Kolmogorov-Smirnov distance of an H0 statistic, drawn through that
serial iterator, from the chi-square law of `Receiver.law` checks the
law the closed forms take; the amplitude MLE alpha checks the CD GLRT identity,
and the per-path beta MLE the HD projection energy; the paper's ACD, the
phase-compensated global sum, checks the package's ACD, the CD
correlation on the phasors; the QR bases of the Doppler steering
subspaces, with the paper's HD on one such basis per receiver, check the
SVD span of `detectors.steering_span` and the package's per-path HD; the
bistatic link budget checks the back-solved channel gain of
`xi_from_snr`; and the per-detector noncentrality formulas, which
rebuild the return x from the scenario and form the receiver's
estimates by their definitions, check `analysis.noncentrality` on the
receiver.  The paper's statistics
in `dmimo.detectors` are the remaining reference: the tests check
`analysis.statistic` against them.
scipy is imported here, not in the package: it is a test dependency.
"""

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from dmimo.analysis import DetectorKind, Receiver, _unit_scale, statistic
from dmimo.detectors import _RCOND_LIMIT, _basis, _check_cube, _energy
from dmimo.montecarlo import (
    BLOCK_TRIALS,
    TrialConfig,
    _block_rng,
    _coordinate_block,
    _Scratch,
    draw_noise,
)
from dmimo.scene import (
    NonFluctuating,
    Scenario,
    Swerling1,
    SyncErrors,
    noise_free_mf_output,
)
from dmimo.specfun import reg_upper_gamma
from dmimo.waveforms import PulseSpec, caf

# Gauss-Legendre nodes reused across panels.
_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def slow_time_sample(sc: Scenario, err: SyncErrors, alpha: complex,
                     m: int, n: int, k: int) -> complex:
    """Scalar evaluation of sample k of MF m at RX n: auto term plus M-1
    cross terms.  Independent oracle for the matrix factorization."""
    if not 0 <= k < sc.k_pulses:
        raise ValueError("pulse index out of range")
    fc_eff = sc.carrier_hz + err.dc_rx[n]
    f_mn = sc.doppler_hz[m, n]
    tau_mn = sc.tau_s[m, n]
    dt, df = err.dt[m, n], err.df[m, n]

    if sc.force_orthogonal:
        chi00 = caf(sc.pulses[m], sc.pulses[m], 0.0, 0.0)
        return (alpha * sc.xi[m, n] * chi00
                * cmath.exp(1j * (2 * math.pi * k * sc.pri_s * f_mn
                                  - 2 * math.pi * sc.carrier_hz * tau_mn
                                  + sc.psi_rad[m, n])))

    auto = (alpha * sc.xi[m, n]
            * cmath.exp(2j * math.pi * k * sc.pri_s * f_mn)
            * caf(sc.pulses[m], sc.pulses[m], dt, -df)
            * cmath.exp(-2j * math.pi * fc_eff * tau_mn)
            * cmath.exp(2j * math.pi * (f_mn + df) * dt)
            * cmath.exp(1j * sc.psi_rad[m, n]))
    cross = 0.0 + 0.0j
    for mb in range(sc.m_tx):
        if mb == m:
            continue
        tau_mb = sc.tau_s[mb, n]
        f_mb = sc.doppler_hz[mb, n]
        cross += (alpha * sc.xi[mb, n]
                  * cmath.exp(1j * sc.psi_rad[mb, n])
                  * cmath.exp(-2j * math.pi * fc_eff * tau_mb)
                  * cmath.exp(2j * math.pi * k * sc.pri_s * f_mb)
                  * caf(sc.pulses[m], sc.pulses[mb],
                        tau_mn + dt - tau_mb, f_mb - f_mn - df)
                  * cmath.exp(2j * math.pi * (f_mn + df) * (tau_mn + dt - tau_mb)))
    return auto + cross


def sample_pulse(spec: PulseSpec, t):
    """Complex envelope p(t); zero outside [0, T_p].  Accepts scalars or
    numpy arrays."""
    t = np.asarray(t, dtype=float)
    tp = spec.t_p
    phase = math.pi * spec.beta_hz * (spec.s * t * t / tp + spec.c * t)
    inside = (t >= 0.0) & (t <= tp)
    out = np.where(inside, np.exp(1j * phase) / math.sqrt(tp), 0.0 + 0.0j)
    return out[()] if out.ndim == 0 else out


def caf_symmetry_partner(a: PulseSpec, b: PulseSpec, nu: float, f: float) -> complex:
    """exp(j 2 pi f nu) * conj(chi_ba(-nu, -f)); equals caf(a, b, nu, f) by
    a change of variables."""
    return complex(np.exp(2j * math.pi * f * nu) * np.conj(caf(b, a, -nu, -f)))


def caf_grid(a: PulseSpec, b: PulseSpec, nu_range, f_range,
             n_nu: int, n_f: int) -> np.ndarray:
    """Row-major grid of caf values: rows index delay, columns Doppler."""
    if n_nu < 2 or n_f < 2:
        raise ValueError("grid must have at least 2 points per axis")
    nus = np.linspace(nu_range[0], nu_range[1], n_nu)
    fs = np.linspace(f_range[0], f_range[1], n_f)
    out = np.empty((n_nu, n_f), dtype=complex)
    for i, nu in enumerate(nus):
        for j, f in enumerate(fs):
            out[i, j] = caf(a, b, nu, f)
    return out


def max_inst_freq_hz(spec: PulseSpec) -> float:
    """Upper bound on the envelope's instantaneous frequency magnitude,
    used to size the quadrature: beta (s t / T_p + c / 2) is linear in t,
    so its largest magnitude on [0, T_p] is at an end of the support."""
    return spec.beta_hz * max(abs(spec.c) / 2, abs(spec.s + spec.c / 2))


def caf_quadrature(a: PulseSpec, b: PulseSpec, nu: float, f: float,
                   points_per_cycle: float = 10.0) -> complex:
    """chi_ab(nu, f) by Gauss-Legendre panels over the support overlap, at
    >= points_per_cycle nodes per cycle of the worst-case integrand.  About
    1e-9 relative or better at the default density; the cost grows with
    the time-bandwidth product."""
    tp = a.t_p
    lo = max(0.0, nu)
    hi = min(tp, tp + nu)
    if hi <= lo:
        return 0.0 + 0.0j
    rate = max_inst_freq_hz(a) + max_inst_freq_hz(b) + abs(f)
    npts = max(64, int(math.ceil(points_per_cycle * tp * rate)))
    n_panels = int(math.ceil(npts / _GL_ORDER))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    mu = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    integrand = (sample_pulse(a, mu)
                 * np.conj(sample_pulse(b, mu - nu))
                 * np.exp(2j * math.pi * f * mu))
    return complex(np.sum(w * integrand))


def marcum_q_per_term(m: int, a: float, b: float) -> float:
    """Q_m(a, b) as the Poisson mixture

        sum_k exp(-a^2/2) (a^2/2)^k / k! * Q(m + k, b^2/2)

    with a fresh incomplete gamma per term, walked outward from the
    Poisson mode until a weight drops below 1e-18.  That absolute cut
    drops most of the sum deep in the tail (Q below about 1e-15), so it is
    an oracle only where Q is not tiny."""
    half_a2, half_b2 = 0.5 * a * a, 0.5 * b * b
    if b == 0.0:
        return 1.0
    if half_a2 == 0.0:
        return reg_upper_gamma(m, half_b2)
    k0 = int(half_a2)
    log_w0 = -half_a2 + k0 * math.log(half_a2) - math.lgamma(k0 + 1)
    total = 0.0
    log_w, k = log_w0, k0
    while k < k0 + 10_000:
        w = math.exp(log_w)
        total += w * reg_upper_gamma(m + k, half_b2)
        if w < 1e-18:
            break
        k += 1
        log_w += math.log(half_a2) - math.log(k)
    log_w = log_w0
    for k in range(k0 - 1, -1, -1):
        log_w += math.log(k + 1) - math.log(half_a2)
        w = math.exp(log_w)
        total += w * reg_upper_gamma(m + k, half_b2)
        if w < 1e-18:
            break
    return min(1.0, total)


def draw_swerling1_alpha(stream, rho_bar: float,
                         size=()) -> np.ndarray | complex:
    """Target amplitudes CN(0, rho_bar); |alpha|^2 is exponential with
    mean rho_bar.  The full-cube oracle draws the complex amplitude the
    package's coordinate blocks replace by its modulus."""
    if not rho_bar > 0:
        raise ValueError("mean RCS must be positive")
    alpha = math.sqrt(rho_bar) * draw_noise(stream, 1, size)[..., 0]
    return complex(alpha) if alpha.ndim == 0 else alpha


def block_alpha(stream, cfg: TrialConfig, nb: int) -> np.ndarray:
    """A block's nb target amplitudes, the first draw of its stream: a
    Swerling I run draws them, a fixed target repeats its alpha, and an
    H0 run has zeros and draws none."""
    if isinstance(cfg.target_draw, Swerling1):
        return draw_swerling1_alpha(stream, cfg.target_draw.rho_bar, (nb,))
    if isinstance(cfg.target_draw, NonFluctuating):
        return np.full(nb, cfg.target_draw.alpha, dtype=complex)
    return np.zeros(nb, dtype=complex)


def iter_measurement_blocks(sc: Scenario, err: SyncErrors, cfg: TrialConfig):
    """Yield the run's blocks as full (trials, M, N, K) measurement
    batches, serially and in block order: per block the amplitudes, then
    K noise samples per path, from the block's stream.  The law of every
    statistic on these is the law the package's coordinate blocks must
    reproduce."""
    M, N, K = sc.m_tx, sc.n_rx, sc.k_pulses
    x_unit = noise_free_mf_output(sc, err)
    for j in range(-(-cfg.trials // BLOCK_TRIALS)):
        nb = min(BLOCK_TRIALS, cfg.trials - j * BLOCK_TRIALS)
        rng = _block_rng(cfg.seed, cfg.pair, j)
        alpha = block_alpha(rng, cfg, nb)
        w = draw_noise(rng, K, (nb, M, N))
        if cfg.target_draw is not None:
            w += alpha[:, None, None, None] * x_unit
        yield w


def coordinate_frame(rx: Receiver):
    """The Monte Carlo frame (crx, signal, inside, outside) formed from
    the receiver's fields, followed by the orthonormal basis (M N r_S, w)
    of W in the flattened span coordinates, its first column x's
    direction where x has a part in the spans: the reference
    ``Receiver.frame`` must match bit for bit, with the same einsums,
    the same column scaling, the same rank routine, the same overflow
    rescale and the same floating-point order."""
    (N, K, r), M = rx.span.shape, rx.x.shape[0]
    spans = [rx.coordinates(v).ravel()
             for v in (rx.x, rx.phasors, rx.templates)]
    x_perp = rx.x - np.einsum("nkr,mnr->mnk", rx.span,
                              spans[0].reshape(M, N, r))
    with np.errstate(over="ignore"):  # an infinite norm is rescaled
        e, norm = np.linalg.norm(x_perp), np.linalg.norm(rx.x)
    if norm == np.inf:
        s = _unit_scale(rx.x)
        e, norm = np.linalg.norm(x_perp * s) / s, np.linalg.norm(rx.x * s) / s
    e = float(e)
    basis, _ = _basis(np.stack([v * _unit_scale(v) for v in spans
                                if np.any(v)], -1))
    w = basis.shape[1]
    x, phasors, templates = (np.conj(basis.T) @ v for v in spans)
    # the unitary turn of W that takes x to (a, 0, ..., 0): a Householder
    # reflection of x's direction onto -phase e_0, times -conj(phase)
    s, e0 = _unit_scale(x), np.arange(w) == 0
    a = np.linalg.norm(x * s)
    if a > 0:
        v = x * s / a
        phase = v[0] / abs(v[0]) if v[0] else 1.0
        u = v + phase * e0
        turn = -np.conj(phase) * (np.eye(w) - 2 * np.outer(u, np.conj(u))
                                  / np.vdot(u, u))
        phasors, templates = turn @ phasors, turn @ templates
        basis = basis @ np.conj(turn.T)
    x = np.where(e0, a / s, 0j)
    crx = replace(rx, x=x[None, None], phasors=phasors[None, None],
                  templates=templates[None, None], span=None)
    signal = x
    if e > _RCOND_LIMIT * norm:
        signal = np.append(signal, e)
    return (crx, signal, M * N * r - w, M * N * (K - r) - (signal.size - w),
            basis)


def iter_coordinate_blocks(rx: Receiver, cfg: TrialConfig):
    """Yield the run's coordinate blocks (c, g, g_span) one at a time,
    serially and in block order, each on a fresh scratch, plus the
    receiver in their coordinates: the serial reference for the pooled
    blocks."""
    frame = rx.frame()
    for j in range(-(-cfg.trials // BLOCK_TRIALS)):
        yield frame[0], _coordinate_block(*frame, cfg, j, _Scratch())


@dataclass(frozen=True)
class DistributionCheck:
    """Kolmogorov-Smirnov comparison of an H0 statistic with its
    central chi-square law (2T/c against chi-square with 2p dof)."""

    detector: DetectorKind
    trials: int
    ks_distance: float
    order: int
    scale: float


def h0_statistic_distribution_check(det: DetectorKind, rx: Receiver,
                                    trials: int,
                                    seed: int) -> DistributionCheck:
    """KS distance between the empirical H0 statistic and its theoretical
    central chi-square law."""
    cfg = TrialConfig(trials=trials, seed=seed)
    vals = np.concatenate([statistic(det, crx)(*block) for crx, block
                           in iter_coordinate_blocks(rx, cfg)])
    chi2 = rx.law(det)
    ks = stats.kstest(2.0 * vals / chi2.c,
                      stats.chi2(df=2 * chi2.p).cdf).statistic
    return DistributionCheck(detector=det, trials=trials,
                             ks_distance=float(ks), order=chi2.p,
                             scale=chi2.c)


def acd_statistic(y, theta_hat) -> np.ndarray | float:
    """The paper's ACD: squared magnitude of the phase-compensated global
    sum.  The package evaluates it as the CD correlation with the phasors
    exp(j theta_hat) as templates."""
    y = _check_cube(y)
    rot = np.exp(-1j * np.asarray(theta_hat))
    if rot.shape != y.shape[-3:]:
        raise ValueError("theta_hat dimensions must match the measurement")
    out = _energy(np.sum(rot * y, axis=(-3, -2, -1)))
    return out[()] if out.ndim == 0 else out


def doppler_projectors(S_hat) -> np.ndarray:
    """Orthonormal bases Q_n (N, K, M) of the Doppler steering subspaces,
    by QR factorization: the independent reference for the SVD bases of
    ``detectors.steering_span``.  Raises on K < M and on numerically
    rank-deficient steering matrices (near-duplicate Doppler columns),
    naming the offending receiver."""
    S_hat = np.asarray(S_hat)
    N, K, M = S_hat.shape
    if K < M:
        raise ValueError(f"HD needs K >= M, got K={K}, M={M}")
    qs = np.empty(S_hat.shape, dtype=complex)
    for n in range(N):
        sv = np.linalg.svd(S_hat[n], compute_uv=False)
        if sv[-1] < _RCOND_LIMIT * sv[0]:
            raise ValueError(f"Doppler steering matrix for RX {n} is "
                             "numerically rank deficient")
        qs[n], _ = np.linalg.qr(S_hat[n])
    return qs


def hd_receiver_bases(y, q) -> np.ndarray | float:
    """The paper's HD with one basis per receiver: the energy of each
    path's projection onto Q_n of ``doppler_projectors`` (N, K, M),
    summed non-coherently over paths."""
    y = _check_cube(y)
    coeffs = np.einsum("nkj,...mnk->...mnj", np.conj(np.asarray(q)), y)
    out = _energy(coeffs, (-3, -2, -1))
    return out[()] if out.ndim == 0 else out


def alpha_mle(y, templates) -> complex:
    """Least-squares target amplitude given the true (M, N, K) template
    stack S X h."""
    y = np.asarray(y)
    v = np.asarray(templates)
    energy = np.sum(np.abs(v) ** 2)
    if energy <= 0.0:
        raise ValueError("template stack has zero energy")
    return complex(np.sum(np.conj(v) * y) / energy)


def beta_mle(y_mn, S_n) -> np.ndarray:
    """Least-squares coefficients of one path's measurement in the Doppler
    steering columns; ||S beta||^2 is that path's HD contribution."""
    S_n = np.asarray(S_n)
    K, M = S_n.shape
    if K < M:
        raise ValueError(f"beta MLE needs K >= M, got K={K}, M={M}")
    sv = np.linalg.svd(S_n, compute_uv=False)
    if sv[-1] < _RCOND_LIMIT * sv[0]:
        raise ValueError("steering matrix is numerically rank deficient")
    beta, *_ = np.linalg.lstsq(S_n, np.asarray(y_mn), rcond=None)
    return beta


def link_budget_xi(r_t_m: float, r_r_m: float, g_t: float, g_r: float,
                   wavelength_m: float) -> float:
    """Channel gain from the bistatic radar range equation."""
    vals = (r_t_m, r_r_m, g_t, g_r, wavelength_m)
    if any(not v > 0 for v in vals):
        raise ValueError("link budget parameters must all be positive")
    return math.sqrt(g_r * g_t * wavelength_m ** 2
                     / ((4 * math.pi) ** 3 * r_t_m ** 2 * r_r_m ** 2))


def noncentrality_formula(det: DetectorKind, sc: Scenario, err: SyncErrors,
                          rho: float):
    """Noncentrality lambda at target RCS rho, plus the CD varsigma (None
    for the other detectors), written out by hand for each detector.  The
    receiver's quantities are formed here from the estimates tau + dt,
    f + df and psi + dp: theta_hat and S_hat from their definitions, and
    the CD templates as the model's return at the estimates."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    K, M, N = sc.k_pulses, sc.m_tx, sc.n_rx
    x = noise_free_mf_output(sc, err)
    tau_hat = sc.tau_s + err.dt
    f_hat = sc.doppler_hz + err.df
    psi_hat = sc.psi_rad + err.dp
    k = np.arange(K)

    if det is DetectorKind.NCD:
        return 2.0 * rho * float(np.sum(np.abs(x) ** 2)), None
    if det is DetectorKind.ACD:
        theta_hat = (psi_hat[:, :, None]
                     - 2.0 * math.pi * sc.carrier_hz * tau_hat[:, :, None]
                     + 2.0 * math.pi * sc.pri_s * f_hat[:, :, None] * k)
        coh = np.sum(np.exp(-1j * theta_hat) * x)
        return 2.0 * rho * abs(coh) ** 2 / (K * M * N), None
    if det is DetectorKind.CD:
        est = replace(sc, tau_s=tau_hat, doppler_hz=f_hat, psi_rad=psi_hat)
        v = noise_free_mf_output(est, SyncErrors.zeros(M, N))
        varsigma = float(np.sum(np.abs(v) ** 2))
        num = abs(np.sum(np.conj(v) * x)) ** 2
        return 2.0 * rho * num / varsigma, varsigma
    # HD: energy of the true signal after projection onto the estimated
    # Doppler subspaces, S_hat[n, k, m] = exp(j 2 pi T k f_hat_mn)
    S_hat = np.exp(2j * math.pi * sc.pri_s * k[None, :, None]
                   * f_hat.T[:, None, :])
    q = doppler_projectors(S_hat)
    coeffs = np.einsum("nkj,mnk->mnj", np.conj(q), x)
    return 2.0 * rho * float(np.sum(np.abs(coeffs) ** 2)), None
