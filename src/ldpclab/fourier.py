"""Harmonic analysis over F_q^ell and the layered-code containment bound.

The transform is taken against the additive characters chi_x(y) =
omega_p^tr(<x,y>) with the expectation normalization: fhat(y) =
E_x[f(x) conj(chi_x(y))], so a probability distribution has fhat(0) =
q^(-ell).  It is one FFT over F_p^(h ell), read out through the trace
form.  Tables are dense complex arrays indexed by the base-q vector
encoding (first coordinate least significant).  The exact layer
probability counts vanishing unit scalings per block as exact integers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gvdistance, linalg
from .ensembles import LdpcEnsembleParams
from .errors import NumericError, PreconditionError
from .gf import Field
from .rowdist import (RowDistribution, entropy_q, orthogonality, row_distribution_of,
                      smoothness, table_rows)

IMAG_TOL = 1e-10


@dataclass
class ComplexDistribution:
    """Dense complex table over F_q^ell, indexed by vector encoding: a
    distribution, or the Fourier coefficients of one."""

    field: Field
    ell: int
    values: np.ndarray

    @staticmethod
    def zeros(field: Field, ell: int) -> "ComplexDistribution":
        return ComplexDistribution(field, ell, np.zeros(table_rows(field, ell), np.complex128))

    def is_probability(self) -> bool:
        v, tol = self.values, 1e-12
        return (
            np.all(np.abs(v.imag) <= tol)
            and np.all(v.real >= -tol)
            and abs(v.real.sum() - 1) <= tol
        )


def scalar_twist(tau: RowDistribution) -> ComplexDistribution:
    """Distribution of lambda*v for v ~ tau and lambda uniform in F_q^*."""
    fld, q = tau.field, tau.field.q
    out = ComplexDistribution.zeros(fld, tau.ell)
    twisted = fld.mul(np.arange(1, q)[:, None], tau.support_matrix()[:, None])  # (|supp|, q-1, l)
    # np.add.at adds the masses in (v, lambda) order, as one += per pair would
    np.add.at(out.values, twisted @ q ** np.arange(tau.ell),
              [[float(m) / (q - 1)] for _, m in tau.masses])
    return out


def fourier_transform(f: ComplexDistribution) -> ComplexDistribution:
    """fhat(y) = E_x[f(x) conj(chi_x(y))], one FFT over F_p^(h l).

    The base-p digits of the vector encoding are coordinates over F_p, so
    fftn over (p,)^(h l) in F-order gives sum_x f(x) omega_p^-<d(x), k> at
    every digit vector k.  Per coordinate tr(x y) = <d(x), T d(y)> with the
    trace form T[a, b] = tr(beta^a beta^b) on the basis beta^a (encoding
    p^a), so fhat(y) is read at k = T d(y); for prime q, T = [[1]].
    """
    fld, ell = f.field, f.ell
    size = table_rows(fld, ell)
    spectrum = np.fft.fftn(f.values.reshape((fld.p,) * (fld.h * ell), order="F"))
    # dual[y] encodes T d(y): digit a is tr(beta^a y)
    powers = fld.p ** np.arange(fld.h)
    dual = fld.trace(fld.mul(powers[:, None], np.arange(fld.q)[None, :])).T @ powers
    at = dual[linalg.all_vectors(ell, fld.q)] @ fld.q ** np.arange(ell)
    return ComplexDistribution(fld, ell, spectrum.ravel(order="F")[at] / size)


def conv_power_at_zero(p: ComplexDistribution, s: int) -> float:
    """sum_y phat(y)^s; the s-fold self-convolution of p evaluated at 0.

    The caller owns the q^(l(s-1)) normalization relating this to the
    probability that s independent p-samples sum to zero.  The input must
    be scalar-twist symmetric, which forces the sum to be real.
    """
    if s < 1:
        raise PreconditionError(f"s = {s} must be >= 1")
    coeffs = fourier_transform(p).values
    val = np.sum(coeffs ** s)
    if abs(val.imag) > IMAG_TOL:
        raise NumericError(f"imaginary residue {val.imag} in convolution power")
    return float(val.real)


def fourier_coefficient_bound(
    tau: RowDistribution, delta
) -> tuple[float, float, bool]:
    """(max nonzero coefficient of the scalar twist, q^-l (1 - q delta/(q-1)), holds)."""
    delta = float(delta)
    if float(smoothness(tau)) < delta - 1e-12:
        raise PreconditionError(f"tau is not {delta}-smooth")
    q, ell = tau.field.q, tau.ell
    coeffs = fourier_transform(scalar_twist(tau)).values
    if np.max(np.abs(coeffs[1:].imag)) > IMAG_TOL:
        raise NumericError("nonzero coefficient with imaginary part")
    max_coeff = float(np.max(coeffs[1:].real))
    bound = q ** (-ell) * (1 - q * delta / (q - 1))
    return max_coeff, bound, max_coeff <= bound + IMAG_TOL


@dataclass
class LdpcBoundReport:
    n: int
    ell: int
    s: int
    rate: Fraction
    delta: float
    per_block_log: float      # log_q Pr[one block of s twisted rows sums to 0], bounded
    conditioning_log: float   # log_q of the row-distribution conditioning factor
    layer_log: float          # per-layer log bound: (n/s) per_block + conditioning
    log_q_bound: float        # t * layer_log, bounding log_q Pr[M in code]
    target_log: float         # -(1-eps)(1-R) l n

    def to_json(self) -> str:
        d = self.__dict__.copy()
        d["rate"] = [self.rate.numerator, self.rate.denominator]
        return json.dumps(d, indent=1)


def ldpc_contain_bound(
    m: np.ndarray, params: LdpcEnsembleParams, eps: float
) -> LdpcBoundReport:
    """Upper bound on log_q Pr[all columns of M lie in a sampled code].

    Assembled per layer: the block zero-sum probability is bounded through
    the Fourier coefficients of the scalar twist (q^-l + (1-q delta/(q-1))^s
    per block after normalization), and the conditioning step from i.i.d.
    rows back to the exact row distribution costs the explicit factor
    q^(n H_q(tau)) / multinomial(n; tau n) instead of an opaque polynomial.
    Requires odd s (the parity the coefficient-power argument needs) and a
    smooth row distribution.  Smoothness above 1 - 1/q is clipped: beyond
    it the coefficient bound turns negative and the odd-power sum is no
    longer monotone in delta, so the clipped value is the safe one.
    """
    m = linalg.as_matrix(m)
    n, ell = m.shape
    if n != params.n:
        raise PreconditionError(f"matrix has {n} rows, params expect {params.n}")
    if params.s % 2 == 0:
        raise PreconditionError(f"s = {params.s} is even; bound proven for odd s")
    q = params.field.q
    tau = row_distribution_of(params.field, m)
    delta = float(smoothness(tau))
    if delta == 0:
        raise PreconditionError(
            "row distribution is not smooth (support spans a proper subspace)")
    delta = min(delta, (q - 1) / q)
    s = params.s
    per_block = math.log(q ** (-ell) + (1 - q * delta / (q - 1)) ** s, q)
    # Pr[iid rows realize tau exactly] = multinomial * q^(-n H_q(tau))
    log_multinomial = math.log(math.factorial(n), q)
    for _, mass in tau.masses:
        log_multinomial -= math.log(math.factorial(int(mass * n)), q)
    conditioning = n * float(entropy_q(tau)) - log_multinomial
    layer = (n // s) * per_block + conditioning
    return LdpcBoundReport(n=n, ell=ell, s=s, rate=params.rate, delta=delta,
                           per_block_log=per_block, conditioning_log=conditioning, layer_log=layer,
                           log_q_bound=int(params.t) * layer,
                           target_log=-(1 - eps) * float(1 - params.rate) * ell * n)


def exact_layer_prob(tau: RowDistribution, n: int, s: int) -> float:
    """Exact probability that one layer annihilates a fixed M with row
    distribution tau.

    A block vanishes iff its rows, each scaled by a uniform unit, sum to
    zero in F_q^l; that probability is an exact count of vanishing unit
    scalings, read off the transforms of the twisted rows, and the layer
    DP `gvdistance.layer_prob` pushes probability forward block by block.
    Rows v and c.v, scaled by a uniform unit, are alike: the DP has one row type per line.
    """
    q = tau.field.q
    if s < 1:
        raise PreconditionError(f"s = {s} must be >= 1")
    if n % s != 0:
        raise PreconditionError(f"s = {s} does not divide n = {n}")
    for v, mass in tau.masses:
        if (mass * n).denominator != 1:
            raise PreconditionError(f"tau({v}) * n = {mass * n} is not an integer")
    # <y, c.v> = 0 iff <y, v> = 0, so each column of the table is one line: count
    # its rows, keeping the lines in the order the support first meets them
    lines: dict[tuple[bool, ...], int] = {}
    for (_, mass), col in zip(tau.masses, orthogonality(tau).T.tolist()):
        lines[tuple(col)] = lines.get(tuple(col), 0) + int(mass * n)
    counts = list(lines.values())
    # each pattern of <v_i, y> = 0 over the lines, with how many y have it
    rows, mult = np.unique(np.array(list(lines)).T, axis=0, return_counts=True)
    # the first block meets every composition of s under min(counts, s), later blocks fewer
    comps = list(itertools.islice(gvdistance.compositions(s, tuple(min(c, s) for c in counts)),
                                  gvdistance.WORK_GUARD // len(mult) + 1))
    gvdistance.check_work(len(comps) * len(mult), "block pattern entries")
    # The twist of a point mass at v has transform q^-l on y with <v, y> = 0 and
    # -q^-l/(q-1) elsewhere, so a block holding k_i copies of v_i vanishes for
    # q^-l sum_y prod_i c_i(y)^k_i of its (q-1)^s unit scalings, c_i(y) = q-1 or -1
    # accordingly: a y orthogonal to a of the block's rows adds (q-1)^a (-1)^(s-a).
    orth = np.array(comps, dtype=np.int64).reshape(-1, len(counts)) @ rows.T
    totals = sum(((orth == a) @ mult).astype(object) * ((q - 1) ** a * (-1) ** (s - a))
                 for a in range(s + 1))
    zero = {c: int(t) // q ** tau.ell / (q - 1) ** s for c, t in zip(comps, totals)}
    return gvdistance.layer_prob(counts, s, zero.__getitem__)
