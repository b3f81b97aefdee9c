"""Harmonic-distortion and intermodulation analysis from associated
transfer functions.

The paper's motivation (§1) is analog/RF verification, where the figures
of merit of a weakly nonlinear block are its harmonic-distortion ratios
HD2/HD3 and intermodulation products IM2/IM3.  The classical Volterra
formulas express these through the multivariate transfer functions
evaluated on the imaginary axis:

    single tone  u = A cos(ω t):
        fundamental amplitude :  A |H1(jω)|
        2nd harmonic          : (A²/2) |H2(jω, jω)|
        HD2 = (A/2) |H2(jω, jω)| / |H1(jω)|
        3rd harmonic          : (A³/4) |H3(jω, jω, jω)|
        HD3 = (A²/4) |H3(jω, jω, jω)| / |H1(jω)|

    two tones at ω1, ω2:
        IM2 at ω1 ± ω2 : A1 A2 |H2(jω1, ±jω2)|
        IM3 at 2ω1 − ω2: (3/4) A1² A2 |H3(jω1, jω1, −jω2)|

These quantities give a *frequency-domain* check of a ROM that is
independent of transient integration: the ROM preserves the distortion
figures exactly to the matched moment order.
"""

import numpy as np

from .._validation import as_vector
from ..engine import SolvePlan
from ..errors import NumericalError, SystemStructureError, TaskCancelled
from ..volterra.evaluator import volterra_evaluator

__all__ = [
    "single_tone_distortion",
    "two_tone_intermodulation",
    "distortion_sweep",
]


def _output_scalar(system, matrix, col=0):
    out = system.output @ matrix
    return complex(out[0, col])


def _require_siso(system):
    if system.n_inputs != 1:
        raise SystemStructureError(
            "distortion analysis is defined for single-input systems; "
            "drive one input at a time"
        )
    if system.n_outputs != 1:
        raise SystemStructureError(
            "distortion analysis needs a scalar output; set system.output"
        )


def _sum_type_metrics(system, evaluator, omega, amplitude):
    """Single-tone sum-type harmonic metrics (no difference-type solves).

    The shared implementation behind :func:`single_tone_distortion` and
    the per-point tasks of :func:`distortion_sweep`: fundamental, second
    and third harmonic output amplitudes plus the HD2/HD3 ratios, from
    the memoized ``H1``/``H2``/``H3`` kernels at ``+jω`` only.

    Returns ``(metrics, kernel_magnitudes)`` — the second dict carries
    the raw ``|C·Hk|`` values for callers that need amplitude-free
    references (e.g. the difference-term noise floor).
    """
    jw = 1j * float(omega)
    a = float(amplitude)
    h1 = abs(_output_scalar(system, evaluator.h1(jw)))
    h2_sum = abs(_output_scalar(system, evaluator.h2(jw, jw)))
    h3_triple = abs(_output_scalar(system, evaluator.h3(jw, jw, jw)))
    fundamental = a * h1
    second = 0.5 * a**2 * h2_sum
    third = 0.25 * a**3 * h3_triple
    metrics = {
        "fundamental": fundamental,
        "second_harmonic": second,
        "third_harmonic": third,
        "hd2": second / fundamental if fundamental else np.inf,
        "hd3": third / fundamental if fundamental else np.inf,
    }
    return metrics, {"h1": h1, "h2_sum": h2_sum, "h3_triple": h3_triple}


def _difference_term(system, name, exact, offset, scale, reference=0.0):
    """Output magnitude of a difference-type kernel term, robust at DC.

    Difference-type products (``dc_shift``, ``im2_diff``, ``im3_*``)
    solve at frequency *differences*, which land on DC — an eigenvalue
    of the lifted state matrix for QLDAEs — where the resolvent is
    singular.  Instead of silently degrading to NaN, the term is
    evaluated as a small-offset limit: the offending tone is nudged off
    the singular shift by ``jδ`` at three offsets (δ, δ/2, δ/4) and
    Richardson-extrapolated to ``δ → 0`` (the structural DC mode of a
    lifted system is unobservable at the output, so the limit exists).
    Convergence is judged on the *successive differences*: a smooth
    limit contracts them by ~2 per halving, while any pole component —
    even one small against the regular part — makes them grow, so a
    genuinely divergent term raises :class:`~repro.errors.
    NumericalError` naming the term instead of returning a
    pole-contaminated extrapolation.

    Parameters
    ----------
    system : the SISO system (for the output projection)
    name : str
        Term name used in diagnostics (e.g. ``"dc_shift"``).
    exact : callable () -> (n, 1) kernel matrix
        The unperturbed evaluation; used directly when non-singular.
    offset : callable (delta) -> (n, 1) kernel matrix
        The evaluation with the difference shift moved ``jδ`` off the
        spectrum.
    scale : float
        Frequency scale used to size the offset.
    reference : float
        Same-family output magnitude (e.g. the corresponding sum-type
        product) used as a noise floor for the divergence test: offset
        values smaller than ``1e-10 × reference`` are rounding noise
        from a structurally-zero term, not samples of a pole, however
        their ratio happens to land.
    """
    try:
        return abs(_output_scalar(system, exact()))
    except NumericalError:
        pass
    delta = 1e-5 * max(float(scale), 1.0)
    try:
        v1 = _output_scalar(system, offset(delta))
        v2 = _output_scalar(system, offset(delta / 2.0))
        v3 = _output_scalar(system, offset(delta / 4.0))
    except NumericalError as exc:
        raise NumericalError(
            f"distortion term '{name}' needs a kernel solve at a shift "
            f"on the system spectrum, and the small-offset limit is "
            f"singular too (offsets {delta:.1e}..{delta / 4.0:.1e}); "
            f"the term is undefined for this system"
        ) from exc
    # Smooth limit: successive differences contract by ~2 per halving
    # (linear truncation term).  Any pole component c/delta makes them
    # *grow* by ~2 instead, so requiring contraction catches even a
    # pole whose magnitude is still comparable to the regular part at
    # these offsets.  Differences below the noise floor (structurally
    # zero term: both samples are rounding noise) are convergence.
    floor = 1e-10 * max(float(reference), 0.0) + 1e-300
    d1 = abs(v1 - v2)
    d2 = abs(v2 - v3)
    if d2 > 0.75 * d1 + floor:
        raise NumericalError(
            f"distortion term '{name}' diverges as the difference shift "
            f"approaches the system spectrum (successive offset "
            f"differences grow, {d1:.3e} -> {d2:.3e}, instead of "
            f"contracting): the kernel has a genuine pole at this "
            f"frequency combination"
        )
    # Richardson extrapolation from the two finest samples: cancels the
    # leading O(delta) truncation term.
    return abs(2.0 * v3 - v2)


def single_tone_distortion(system, omega, amplitude=1.0, evaluator=None):
    """Harmonic distortion of a SISO polynomial system at one tone.

    Parameters
    ----------
    system : PolynomialODE (explicit)
    omega : float
        Angular frequency of the excitation ``A cos(ω t)``.
    amplitude : float
        Tone amplitude ``A``.
    evaluator : VolterraEvaluator, optional
        Shared kernel cache; defaults to the system's own (so repeated
        calls — and whole sweeps — reuse one factorization of ``G1``
        and every previously solved sub-kernel).

    Returns
    -------
    dict with keys ``fundamental``, ``second_harmonic``,
    ``third_harmonic`` (output amplitudes), ``dc_shift`` (the H2(jω,−jω)
    rectification term) and the ratios ``hd2``, ``hd3``.

    The rectification term solves at DC, where lifted QLDAEs are
    singular; it is evaluated via a small-offset limit there (see
    :func:`_difference_term`) and raises a :class:`~repro.errors.
    NumericalError` naming the term if the limit genuinely diverges.
    """
    _require_siso(system)
    ev = evaluator if evaluator is not None else volterra_evaluator(system)
    w = float(omega)
    jw = 1j * w
    a = float(amplitude)
    metrics, kernels = _sum_type_metrics(system, ev, w, a)
    h2_diff = _difference_term(
        system,
        "dc_shift",
        lambda: ev.h2(jw, -jw),
        lambda delta: ev.h2(jw, 1j * (delta - w)),
        scale=abs(w),
        reference=kernels["h2_sum"],
    )
    metrics["dc_shift"] = 0.5 * a**2 * h2_diff
    return metrics


def two_tone_intermodulation(
    system, omega1, omega2, a1=1.0, a2=1.0, evaluator=None
):
    """Two-tone IM products of a SISO polynomial system.

    Returns a dict with the output amplitudes at the fundamentals, the
    second-order products ``ω1+ω2`` / ``ω1−ω2`` and the third-order
    products ``2ω1−ω2`` / ``2ω2−ω1`` (the in-band IM3 that limits RF
    front-end linearity).  All kernels are served from the system's
    memoized evaluator, so the ``H1``/``H2`` sub-kernels shared between
    the IM products are solved once.
    """
    _require_siso(system)
    ev = evaluator if evaluator is not None else volterra_evaluator(system)
    w1, w2 = float(omega1), float(omega2)
    jw1, jw2 = 1j * w1, 1j * w2
    ev.prime_h1([jw1, jw2, -jw1, -jw2])
    scale = max(abs(w1), abs(w2))

    # Difference-type products solve at j(ω1 − ω2)-style shifts, which
    # land on DC (or on 2ω1 = ω2 resonances) — singular for lifted
    # QLDAEs.  Each is evaluated via the small-offset limit, raising a
    # NumericalError that names the term if it genuinely diverges.
    h1_1 = abs(_output_scalar(system, ev.h1(jw1)))
    h1_2 = abs(_output_scalar(system, ev.h1(jw2)))
    im2_sum = abs(_output_scalar(system, ev.h2(jw1, jw2)))
    im2_diff = _difference_term(
        system,
        "im2_diff",
        lambda: ev.h2(jw1, -jw2),
        lambda delta: ev.h2(jw1, 1j * (delta - w2)),
        scale=scale,
        reference=im2_sum,
    )
    im3_a = _difference_term(
        system,
        "im3_2f1_f2",
        lambda: ev.h3(jw1, jw1, -jw2),
        lambda delta: ev.h3(jw1, jw1, 1j * (delta - w2)),
        scale=scale,
        reference=im2_sum,
    )
    im3_b = _difference_term(
        system,
        "im3_2f2_f1",
        lambda: ev.h3(jw2, jw2, -jw1),
        lambda delta: ev.h3(jw2, jw2, 1j * (delta - w1)),
        scale=scale,
        reference=im2_sum,
    )
    return {
        "fund_1": a1 * h1_1,
        "fund_2": a2 * h1_2,
        "im2_sum": a1 * a2 * im2_sum,
        "im2_diff": a1 * a2 * im2_diff,
        "im3_2f1_f2": 0.75 * a1**2 * a2 * im3_a,
        "im3_2f2_f1": 0.75 * a2**2 * a1 * im3_b,
    }


def distortion_sweep(system, omegas, amplitude=1.0, cancel=None):
    """HD2/HD3 across a frequency grid.

    Returns ``(omegas, hd2, hd3)`` arrays — the data behind a classic
    distortion-vs-frequency plot, and a compact way to compare a ROM
    against the full model over a whole band.

    The whole grid runs through one shared factorization of ``G1``: the
    ``H1(jω)`` seeds are batch-solved up front
    (:meth:`VolterraEvaluator.prime_h1`), the symmetric-pair H2 grid is
    batch-primed (:meth:`VolterraEvaluator.prime_h2`), and every
    higher-order kernel reuses the memoized sub-kernels, so a sweep
    costs one ``O(n³)`` factorization plus ``O(n²)`` per grid point
    instead of a fresh factorization per kernel per point.

    Only the sum-type kernels enter HD2/HD3, so no difference-type (DC)
    solves are performed.  The per-point H3 assemblies are independent
    and run as one engine plan, one task per point.

    *cancel* (a zero-argument callable polled between stages and tasks)
    makes the sweep cooperatively cancellable: once it reports True the
    sweep raises :class:`~repro.errors.TaskCancelled` at the next
    boundary instead of finishing the grid.  Kernels solved before the
    cancellation stay memoized (they are deterministic values), so a
    cancelled sweep never poisons the evaluator cache.
    """
    omegas = as_vector(np.asarray(omegas, dtype=float), "omegas")
    _require_siso(system)
    evaluator = volterra_evaluator(system)
    amplitude = float(amplitude)
    jws = 1j * omegas
    if cancel is not None and cancel():
        raise TaskCancelled("distortion sweep cancelled before priming")
    evaluator.prime_h1(jws)
    if cancel is not None and cancel():
        raise TaskCancelled(
            "distortion sweep cancelled after the H1 seed batch"
        )
    evaluator.prime_h2([(jw, jw) for jw in jws])
    hd2 = np.empty(omegas.size)
    hd3 = np.empty(omegas.size)

    def _point(idx):
        metrics, _ = _sum_type_metrics(
            system, evaluator, omegas[idx], amplitude
        )
        hd2[idx] = metrics["hd2"]
        hd3[idx] = metrics["hd3"]

    plan = SolvePlan("distortion_sweep")
    for idx in range(omegas.size):
        plan.add(_point, idx)
    plan.execute(cancel=cancel)
    return omegas, hd2, hd3
