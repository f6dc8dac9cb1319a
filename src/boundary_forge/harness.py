"""Exact verification engine.

Every check here runs on random polynomial trajectories with rational
coefficients, so definite integrals are evaluated through antiderivatives
and all balance residuals are exact rationals.  A residual that should
vanish must come out as literal zero; no tolerances enter except for the
single floating-point power-split stage, whose deviation is reported
separately against its own tolerance.

Every balance check is the one residual of `algebra._Balance`,

    int_alpha^beta (u1 . v2 +- u2 . v1) dz - [w1^T M w2]_alpha^beta,

run by every suite in the one trial loop `_balance_trials`.  Each kind
supplies its draws (pairs of random latents, or of constrained solutions)
and its balance, built once per suite: the operators taking a draw's latent
to its (u, v, w), the middle M and the sign.  They are (N_e, N_f, Z), Sigma
and + for the Dirac form; (e, f, (Z_J e; Z_G e; V_G lam)) read off the
latent (e; f; lam), Sigma_J (+) [[0, Pi_G], [Pi_G^T, 0]] and + for the
constrained balance; (N_x, N_e, W), -J_p and - for the symplectic balance.
The Dirac suite adds the power balance (the Dirac balance of a latent with
itself, halved) on each trial's first latent.

The trials run on integers over one common denominator: the balance turns
its operators and the nonzero entries of M into integers once, each drawn
latent is scaled by the lcm of its denominators, and every apply, dot,
integral and endpoint evaluation stays in `int`.  Each residual becomes
one `Fraction`; the split's floats are correctly rounded quotients of the
same integers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (Poly, _Balance, _difference, _int_dot,
                      polynomial_kernel_basis)
from .constrained import (
    ConstrainedStructure,
    _constrained_balance,
    _constrained_latent,
    _constrained_sample,
    _random_fraction,
    _random_poly,
)
from .dirac import (
    DEFAULT_SPLIT_TOLERANCE,
    BoundaryStructure,
    PowerSplit,
    SplitToleranceError,
    UnbalancedSignatureError,
    _power_split,
)
from .lagrange import LagrangeBoundary, _storage_balance

__all__ = [
    "Trajectory",
    "VerificationReport",
    "random_latent",
    "dirac_suite",
    "constrained_suite",
    "lagrange_suite",
    "DEFAULT_DEGREES",
    "DEFAULT_TRIALS",
]

DEFAULT_DEGREES = (0, 2, 6)
DEFAULT_TRIALS = 100


@dataclass(frozen=True)
class Trajectory:
    """Polynomial latent trajectory on a rational interval."""

    l: tuple[Poly, ...]
    alpha: Fraction
    beta: Fraction

    @property
    def dim(self) -> int:
        return len(self.l)


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated outcome of one check over a number of trials.

    `residuals` are exact rationals and must all be zero; when a power
    split participates, `split_deviations` carries the float deviations to
    be compared against `split_tolerance`.
    """

    check: str
    instance: str
    trials: int
    residuals: tuple[Fraction, ...]
    elapsed: float
    split_deviations: tuple[float, ...] = ()
    split_tolerance: float | None = None

    def __post_init__(self):
        if len(self.residuals) != self.trials:
            raise ValueError("residual list length must equal the trial count")

    @property
    def all_zero(self) -> bool:
        return all(r == 0 for r in self.residuals)

    @property
    def all_pass(self) -> bool:
        if not self.all_zero:
            return False
        if self.split_tolerance is None:
            return True
        return all(d <= self.split_tolerance for d in self.split_deviations)

    def __str__(self):
        tag = "pass" if self.all_pass else "FAIL"
        extra = ""
        if self.split_deviations:
            extra = f", max split deviation {max(self.split_deviations):.3e}"
        return (f"[{tag}] {self.check} on {self.instance}: "
                f"{self.trials} trials{extra} ({self.elapsed:.3f}s)")


def _random_interval(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        a, b = _random_fraction(rng), _random_fraction(rng)
        if a != b:
            return (a, b) if a < b else (b, a)


def random_latent(seed, dim: int, degree: int) -> Trajectory:
    """Deterministic random trajectory: coefficients with numerators in
    [-9, 9] and denominators in [1, 9], plus a random rational interval."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rng = random.Random(seed)
    l = tuple(_random_poly(rng, degree) for _ in range(dim))
    alpha, beta = _random_interval(rng)
    return Trajectory(l, alpha, beta)


# per-trial residuals ---------------------------------------------------------


def _dirac_balance(structure: BoundaryStructure) -> _Balance:
    """The Dirac balance: (efforts, flows, boundary values) = (N_e, N_f, Z)
    applied to a latent, with middle Sigma."""
    return _Balance(structure.rep.N_e, structure.rep.N_f, structure.Z,
                    structure.Sigma)


def _power_trial(balance: _Balance, split: PowerSplit | None, latent,
                 alpha, beta) -> tuple[Fraction, float | None]:
    """Power balance residual and split deviation (None without a split)
    of one latent evaluated by the Dirac `balance`.

    The power balance is the Dirac balance of the latent with itself,
    halved: ``(2T - D) / 2 = T - D / 2`` for the interior power ``T`` and the
    bracket difference ``D``, so ``T`` is formed once and serves the split
    too, as do the boundary values at the endpoints.  The split lives in
    floating point, so its roundoff grows with the size of the boundary
    values; dividing by the magnitude of the compared terms makes the
    tolerance meaningful across trajectory scales.
    """
    e, f, b, den = latent
    total = balance.interior(_int_dot(e, f), den * den, alpha, beta)
    at_beta = balance.values(b, den, beta)
    at_alpha = balance.values(b, den, alpha)
    num, bden = _difference(balance.bracket(at_beta, at_beta),
                            balance.bracket(at_alpha, at_alpha))
    power = Fraction(*_difference(total, (num, 2 * bden)))
    if split is None:
        return power, None

    def boundary_power(values) -> float:
        xs, d = values
        f_delta, e_delta = split.apply([x / d for x in xs])
        return sum(x * y for x, y in zip(e_delta, f_delta))

    try:
        interior = total[0] / total[1]
        at_beta = boundary_power(at_beta)
        at_alpha = boundary_power(at_alpha)
    except OverflowError:
        raise SplitToleranceError(
            "a trial's power or boundary value exceeds the float range "
            "of the split") from None
    scale = max(1.0, abs(interior), abs(at_beta), abs(at_alpha))
    return power, abs(interior - (at_beta - at_alpha)) / scale


def _optional_split(structure: BoundaryStructure,
                    split_tolerance: float) -> PowerSplit | None:
    try:
        return _power_split(structure.Sigma, structure.inertia, split_tolerance)
    except UnbalancedSignatureError:
        return None


# suites -----------------------------------------------------------------------


def _trial_degrees(trials: int, degrees) -> list[int]:
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("need at least one degree")
    return [degrees[t % len(degrees)] for t in range(trials)]


def _sub_seed(seed: int, trial: int, salt: int) -> int:
    # arithmetic derivation keeps trials independent of each other while
    # staying reproducible across processes (no string hashing)
    return (int(seed) * 1_000_003 + trial) * 3 + salt


def _latent_trials(m: int, trials: int, degrees, seed: int, interval):
    """Per trial, two random latents and the interval: the given one, or
    else the random interval drawn with the first latent."""
    for t, degree in enumerate(_trial_degrees(trials, degrees)):
        t1 = random_latent(_sub_seed(seed, t, 0), m, degree)
        t2 = random_latent(_sub_seed(seed, t, 1), m, degree)
        if interval is None:
            yield t1.l, t2.l, t1.alpha, t1.beta
        else:
            yield t1.l, t2.l, Fraction(interval[0]), Fraction(interval[1])


def _constrained_trials(structure: ConstrainedStructure, trials: int,
                        degrees, seed: int, interval):
    """Per trial, the latents (e; f; lam) of two random constrained
    solutions and the interval: the given one, or else one drawn from the
    third sub-seed."""
    trial_degrees = _trial_degrees(trials, degrees)
    bases = {d: polynomial_kernel_basis(structure.G, d)
             for d in dict.fromkeys(trial_degrees)}
    for t, degree in enumerate(trial_degrees):
        basis = bases[degree]
        s1 = _constrained_sample(structure, basis, degree, _sub_seed(seed, t, 0))
        s2 = _constrained_sample(structure, basis, degree, _sub_seed(seed, t, 1))
        l1, l2 = _constrained_latent(s1), _constrained_latent(s2)
        if interval is None:
            yield l1, l2, *_random_interval(random.Random(_sub_seed(seed, t, 2)))
        else:
            yield l1, l2, Fraction(interval[0]), Fraction(interval[1])


def _balance_trials(draws, balance: _Balance):
    """For each drawn ``(x1, x2, alpha, beta)``, the residual of `balance`
    on the latents ``x1`` and ``x2``, the first latent evaluated, the
    interval and the time taken by both."""
    for x1, x2, alpha, beta in draws:
        start = time.perf_counter()
        first = balance.evaluate(x1)
        residual = balance.residual(first, balance.evaluate(x2), alpha, beta)
        yield residual, first, alpha, beta, time.perf_counter() - start


def dirac_suite(structure: BoundaryStructure, trials: int = DEFAULT_TRIALS,
                degrees=DEFAULT_DEGREES, seed: int = 0, interval=None,
                split_tolerance: float = DEFAULT_SPLIT_TOLERANCE
                ) -> tuple[VerificationReport, ...]:
    """Bilinear-balance and power-balance checks over random trajectories.

    Returns one aggregated report per check.  With a balanced signature the
    power-balance report also carries one split deviation per trial.  The
    form report's `elapsed` includes evaluating each latent once, the power
    balance's includes the split; neither includes drawing trajectories.
    The power balance of a trial reuses the (efforts, flows, boundary
    values) of its first latent from the form.
    """
    start = time.perf_counter()
    split = _optional_split(structure, split_tolerance)
    dirac = _dirac_balance(structure)
    balance_s = time.perf_counter() - start
    form, balance, deviations = [], [], []
    form_s = 0.0
    for residual, first, alpha, beta, elapsed in _balance_trials(
            _latent_trials(structure.rep.m, trials, degrees, seed, interval),
            dirac):
        form.append(residual)
        form_s += elapsed
        start = time.perf_counter()
        power, deviation = _power_trial(dirac, split, first, alpha, beta)
        balance_s += time.perf_counter() - start
        balance.append(power)
        deviations.append(deviation)
    describe = structure.describe()
    return (VerificationReport("dirac_form", describe, trials, tuple(form),
                               form_s),
            VerificationReport(
                "power_balance", describe, trials, tuple(balance), balance_s,
                () if split is None else tuple(deviations),
                None if split is None else split_tolerance))


def _single_check(check: str, instance: str, trials: int, draws,
                  balance: _Balance) -> tuple[VerificationReport]:
    """One report over the residuals of the trial loop; its `elapsed`
    includes drawing the trials."""
    start = time.perf_counter()
    residuals = tuple(row[0] for row in _balance_trials(draws, balance))
    return (VerificationReport(check, instance, trials, residuals,
                               time.perf_counter() - start),)


def constrained_suite(structure: ConstrainedStructure,
                      trials: int = DEFAULT_TRIALS, degrees=DEFAULT_DEGREES,
                      seed: int = 0, interval=None) -> tuple[VerificationReport, ...]:
    """Constrained balance residuals over pairs of random exact solutions."""
    return _single_check(
        "constrained_balance", structure.describe(), trials,
        _constrained_trials(structure, trials, degrees, seed, interval),
        _constrained_balance(structure))


def lagrange_suite(boundary: LagrangeBoundary, trials: int = DEFAULT_TRIALS,
                   degrees=DEFAULT_DEGREES, seed: int = 0, interval=None
                   ) -> tuple[VerificationReport, ...]:
    """Symplectic balance residuals over random trajectory pairs."""
    return _single_check(
        "symplectic_balance", boundary.describe(), trials,
        _latent_trials(boundary.m, trials, degrees, seed, interval),
        _storage_balance(boundary))
