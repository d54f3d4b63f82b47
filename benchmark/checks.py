"""Independent correctness check of dmimo CSV output, using scipy.

Nothing here calls dmimo.  Each row is recomputed from the experiment
document and the row's own printed values:

  gamma         c * chi2.isf(pfa_target, 2p) / 2, with the detector's
                order p and scale c (NCD p = KMN, c = sigma2; ACD p = 1,
                c = KMN sigma2; CD p = 1, c = varsigma sigma2; HD p = NM^2,
                c = sigma2);
  pd_analytic   fixed target: ncx2.sf(2 gamma / c, 2p, lambda); Swerling I:
                direct quadrature of that tail over the exponential RCS;
  pd_empirical  exact two-sided binomial test against pd_analytic at the
                printed trial count, Holm step-down over all simulated
                rows of the file at family-wise false-failure rate
                ``MC_FWER``.

The ``simulate`` gate of dmimo itself (exit status 1) is not used here.
"""

from __future__ import annotations

import csv
import io
import math

from scipy import integrate, stats

__all__ = ["MC_FWER", "RTOL", "RowResult", "check_csv", "compare_reference",
           "expected_rows"]

RTOL = 1e-8          # relative tolerance of gamma and pd_analytic
ATOL_PD = 1e-12      # absolute floor for pd_analytic near 0
REF_RTOL = 1e-6      # tolerance against the stored reference CSV
MC_FWER = 1e-4       # family-wise false-failure rate of the simulate check

DETECTORS = ("NCD", "ACD", "CD", "HD")
ANALYZE_COLUMNS = [
    "sweep_variable", "sweep_value", "sweep_value_si", "system", "detector",
    "gamma", "lambda", "varsigma", "pfa_target", "pd_analytic", "error"]
SIMULATE_COLUMNS = ANALYZE_COLUMNS + [
    "pd_empirical", "ci_halfwidth", "trials", "seed"]


class RowResult:
    """Outcome of one CSV row: ``status`` is ok, error (an ``error`` row
    written by dmimo), or failed (the independent check disagrees)."""

    __slots__ = ("status", "reason", "z", "p_value")

    def __init__(self, status, reason="", z=None, p_value=None):
        self.status, self.reason, self.z, self.p_value = (
            status, reason, z, p_value)


def _shape(doc):
    sc = doc["scenario"]
    return sc["k_pulses"], sc["m_tx"], sc["n_rx"], sc.get("sigma2", 1.0)


def expected_rows(doc):
    systems = 2 if doc.get("colocated_benchmark") else 1
    dets = doc.get("detectors", DETECTORS)
    return doc["sweep"]["points"] * systems * len(dets)


def order_and_scale(det, K, M, N, sigma2, varsigma):
    if det == "NCD":
        return K * M * N, sigma2
    if det == "HD":
        return N * M * M, sigma2
    if det == "ACD":
        return 1, K * M * N * sigma2
    if det == "CD":
        return 1, varsigma * sigma2
    raise ValueError(f"unknown detector {det!r}")


def swerling1_pd(x, dof, lam_prime, rho_bar):
    """Average of ncx2.sf(x, dof, lam' rho) over rho ~ Exp(mean rho_bar),
    by adaptive quadrature in u = rho / rho_bar."""
    def integrand(u):
        return stats.ncx2.sf(x, dof, lam_prime * rho_bar * u) * math.exp(-u)
    # Split at the mean of the tail's transition to help the quadrature.
    knee = max(1.0, x / max(lam_prime * rho_bar, 1e-300))
    total = 0.0
    for lo, hi in ((0.0, knee), (knee, math.inf)):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-15,
                                epsrel=1e-11, limit=400)
        total += val
    return total


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def check_analytic(row, doc):
    """Problems with gamma and pd_analytic of one non-error row."""
    K, M, N, sigma2 = _shape(doc)
    det = row["detector"]
    varsigma = float(row["varsigma"]) if row["varsigma"] else None
    if det == "CD" and not (varsigma and varsigma > 0):
        return ["CD row without a positive varsigma"]
    p, c = order_and_scale(det, K, M, N, sigma2, varsigma)
    pfa = float(row["pfa_target"])
    gamma = float(row["gamma"])
    lam = float(row["lambda"])
    pd = float(row["pd_analytic"])
    problems = []
    if not _close(pfa, doc.get("pfa_target", 1e-4), 1e-12):
        problems.append(f"pfa_target {pfa} differs from the experiment")
    gamma_ref = c * stats.chi2.isf(pfa, 2 * p) / 2.0
    if not _close(gamma, gamma_ref, RTOL):
        problems.append(f"gamma {gamma!r} != chi2 threshold {gamma_ref!r}")
        return problems
    x = 2.0 * gamma / c
    target = doc["scenario"].get("target", {"model": "swerling1"})
    if target["model"] == "fixed":
        pd_ref = stats.ncx2.sf(x, 2 * p, lam)
    else:
        rho_bar = target.get("rho_bar", 1.0)
        pd_ref = swerling1_pd(x, 2 * p, lam / rho_bar, rho_bar)
    if not _close(pd, pd_ref, RTOL, ATOL_PD):
        problems.append(f"pd_analytic {pd!r} != scipy {pd_ref!r}")
    return problems


def binomial_p_value(k, n, p0):
    """Exact two-sided binomial p-value (doubled smaller tail)."""
    if p0 <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p0 >= 1.0:
        return 1.0 if k == n else 0.0
    lower = stats.binom.cdf(k, n, p0)
    upper = stats.binom.sf(k - 1, n, p0)
    return float(min(1.0, 2.0 * min(lower, upper)))


def holm_reject(p_values, alpha):
    """Indices rejected by Holm's step-down procedure at level alpha."""
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    rejected = []
    m = len(p_values)
    for rank, i in enumerate(order):
        if p_values[i] > alpha / (m - rank):
            break
        rejected.append(i)
    return rejected


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    rows = [dict(zip(header, r)) for r in reader] if header else []
    return header, rows


def check_csv(text, doc, subcommand):
    """Check one output file.  Returns (results per expected row, notes):
    rows missing from a short file count as failed."""
    header, rows = parse_csv(text)
    columns = SIMULATE_COLUMNS if subcommand == "simulate" else ANALYZE_COLUMNS
    n_expected = expected_rows(doc)
    notes = {}
    if header != columns:
        return [RowResult("failed", "unexpected CSV header")] * n_expected, {
            "header": header}
    results = []
    simulated = []       # (row index, k, n, p0)
    for i, row in enumerate(rows[:n_expected]):
        if row["error"]:
            results.append(RowResult("error", row["error"]))
            continue
        try:
            problems = check_analytic(row, doc)
            if not problems and subcommand == "simulate":
                n = int(row["trials"])
                p_hat = float(row["pd_empirical"])
                k = round(p_hat * n)
                if n < 1 or abs(k / n - p_hat) > 1e-9:
                    problems.append(f"pd_empirical {p_hat!r} is not a count "
                                    f"over {n} trials")
                else:
                    simulated.append((i, k, n, float(row["pd_analytic"])))
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable row: {exc}"]
        results.append(RowResult("failed", "; ".join(problems)) if problems
                       else RowResult("ok"))
    if simulated:
        p_values = [binomial_p_value(k, n, p0) for _, k, n, p0 in simulated]
        for j, (i, k, n, p0) in enumerate(simulated):
            sd = math.sqrt(p0 * (1.0 - p0) / n) if 0.0 < p0 < 1.0 else 0.0
            results[i].z = (k / n - p0) / sd if sd else 0.0
            results[i].p_value = p_values[j]
        for j in holm_reject(p_values, MC_FWER):
            i = simulated[j][0]
            results[i] = RowResult(
                "failed", f"pd_empirical rejected by the score test "
                f"(p = {p_values[j]:.3g}, Holm at {MC_FWER:g})",
                results[i].z, results[i].p_value)
        notes["max_abs_z"] = max(abs(results[i].z) for i, *_ in simulated)
        notes["min_p_value"] = min(p_values)
    if len(rows) != n_expected:
        notes["rows_written"] = len(rows)
        missing = max(0, n_expected - len(rows))
        results.extend(RowResult("failed", "row missing from the CSV")
                       for _ in range(missing))
        if len(rows) > n_expected:
            results.append(RowResult("failed", "extra rows in the CSV"))
    return results, notes


def compare_reference(text, ref_text, subcommand):
    """Problems found comparing an output file with the stored reference,
    value by value within REF_RTOL.  For simulate output only the columns
    that do not depend on the Monte Carlo stream are compared."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return ["header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    # the analyze columns are the ones that do not depend on the Monte
    # Carlo stream
    cols = ANALYZE_COLUMNS if subcommand == "simulate" else header
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in cols:
            a, b = row[col], ref[col]
            if a == b:
                continue
            try:
                same = _close(float(a), float(b), REF_RTOL)
            except ValueError:
                same = col == "error" and bool(a) == bool(b)
            if not same:
                problems.append(f"row {i} {col}: {a!r} != reference {b!r}")
    return problems
