"""Coefficient streams for the hypergeometric expansion.

Three routes build the same c_n: the defining three-term relation, the
iterated two-term ratio available once the accessory parameter sits on a
reduction branch, and the equivalent closed form assembled from Pochhammer
products. Route agreement is the working certificate that a reduction
really holds, so the two-term generator always computes both of its forms
and checks them against each other.

A `coeffs` table is one `%` pass: the row template, repeated once per row,
takes n and the float columns of stream_columns from one row-major list.
For JSON that gives the bytes of json.dumps(..., indent=2), whose stdlib
encoder walks a dict per row in pure Python whenever indent is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import NumericalError, PoleError, PreconditionError
from .params import HeunParams, check_order, is_nonpos_int

# forward recursion keeps full precision while the contaminating solution
# mode |a/(a-1)|^n stays bounded; past this ratio the stream switches to
# backward recursion normalized at c_0
RHO_SWITCH = 1.1

NO_TERMINATION = 10**9
TWO_TERM_AGREE_TOL = 1e-13


class CoefficientSource(str, Enum):
    THREE_TERM = "ThreeTerm"
    TWO_TERM_RATIO = "TwoTermRatio"
    GAMMA_CLOSED_FORM = "GammaClosedForm"


@dataclass(frozen=True)
class CoefficientStream:
    values: np.ndarray
    source: CoefficientSource
    params: HeunParams

    def __len__(self) -> int:
        return len(self.values)


def termination_index(p: HeunParams) -> int:
    """First index n0 with c_n = 0 for all n >= n0, or NO_TERMINATION.

    The stream terminates when gamma+epsilon-alpha or gamma+epsilon-beta is
    a non-positive integer (snapped by the shared integer-proximity rule):
    the ratio factor (x-1+n) then hits an exact zero at n = 1-x.
    """
    g = p.gamma + p.epsilon
    n0 = NO_TERMINATION
    for x in (g - p.alpha, g - p.beta):
        if is_nonpos_int(x):
            n0 = min(n0, 1 - round(x))
    return n0


def _finite_or_raise(values: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericalError(f"{label} produced a non-finite entry at n = {bad}")


def three_term_coefficients(p: HeunParams, n_max: int) -> CoefficientStream:
    """c_0 = 1, c_1 = -Q_0/R_1, then R_n c_n + Q_{n-1}c_{n-1} + P_{n-2}c_{n-2} = 0.

    Direction (forward vs backward-normalized) is chosen from |a/(a-1)|;
    backward runs verify the n = 1 relation afterward as a certificate.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be non-negative")
    n0 = termination_index(p)
    values = _kernels.three_term_stream(
        p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon,
        int(n_max), n0, RHO_SWITCH)
    _finite_or_raise(values, "three-term stream")
    return CoefficientStream(values, CoefficientSource.THREE_TERM, p)


def two_term_coefficients(p: HeunParams, e_list, n_max: int,
                          source: CoefficientSource = CoefficientSource.TWO_TERM_RATIO
                          ) -> CoefficientStream:
    """Coefficients from the factored two-term ratio of an accepted reduction.

    Both the iterated ratio and the Pochhammer closed form are computed and
    must agree within 1e-13 relative; `source` selects which one is returned.
    A non-positive integer e_k is rejected first, then delta other than N+2.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be non-negative")
    if source == CoefficientSource.THREE_TERM:
        raise PreconditionError("two-term generator cannot produce a ThreeTerm stream")
    es = [float(e) for e in e_list]
    for e in es:
        if is_nonpos_int(e):
            raise PoleError(f"e = {e!r} is a non-positive integer (zero denominator)")
    check_order(p, len(es))
    g = p.gamma + p.epsilon
    x1 = g - p.alpha
    x2 = g - p.beta
    n0 = termination_index(p)
    ratio = _kernels.two_term_ratio_stream(g, x1, x2, es, int(n_max), n0)
    closed = _kernels.closed_form_stream(g, x1, x2, es, int(n_max), n0)
    _finite_or_raise(ratio, "two-term ratio stream")
    _finite_or_raise(closed, "closed-form stream")
    gap = np.abs(ratio - closed)
    scale = np.abs(ratio) + np.abs(closed) + 1e-300
    worst = float(np.max(gap / scale))
    if worst > TWO_TERM_AGREE_TOL:
        raise NumericalError(
            f"ratio and closed-form streams disagree ({worst:.3e} relative)")
    values = closed if source == CoefficientSource.GAMMA_CLOSED_FORM else ratio
    return CoefficientStream(values, source, p)


def residual_rows(stream: CoefficientStream) -> np.ndarray:
    """Scale-free recurrence defect per index; entries 0 and 1 are 0."""
    p = stream.params
    with np.errstate(over="ignore", invalid="ignore"):   # big rows are taken again
        return _kernels.recurrence_residual_rows(
            p.a, p.q, p.alpha, p.beta, p.gamma, p.delta, p.epsilon,
            np.asarray(stream.values, dtype=np.float64))


def stream_columns(stream: CoefficientStream):
    """The table columns c_n, ratio c_n/c_{n-1} and residual_n as float
    arrays; ratio and residual are nan where undefined (n = 0, zero
    predecessor, n < 2)."""
    vals = stream.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vals[:-1] == 0.0, np.nan, vals[1:] / vals[:-1])
    resid = residual_rows(stream)
    resid[:2] = np.nan
    return vals, np.r_[np.nan, ratio], resid


def json_float(x: float) -> str:
    """A float as a row template writes it into JSON: repr, null if not finite."""
    return repr(x) if math.isfinite(x) else "null"


def stream_to_csv(stream: CoefficientStream) -> str:
    """CSV with columns n, c_n, ratio, residual from stream_columns. Floats
    are emitted with repr so output is byte-deterministic."""
    c, ratio, resid = stream_columns(stream)
    flat = np.column_stack([np.zeros(len(c)), c, ratio, resid]).ravel().tolist()
    flat[0::4] = range(len(c))
    return "n,c_n,ratio,residual\n" + ("%d,%r,%r,%r\n" * len(c)) % tuple(flat)


def stream_to_json(stream: CoefficientStream) -> str:
    """The bytes of json.dumps({"source": ..., "rows": [{"n", "c_n",
    "ratio", "residual"}, ...]}, sort_keys=True, indent=2) + "\\n", with
    null for every non-finite value."""
    row = ('    {\n      "c_n": %s,\n      "n": %d,\n      "ratio": %s,\n'
           '      "residual": %s\n    }')
    c, ratio, resid = stream_columns(stream)
    table = np.column_stack([c, np.zeros(len(c)), ratio, resid])
    flat = table.ravel().tolist()
    flat[1::4] = range(len(c))
    for i in np.flatnonzero(~np.isfinite(table)).tolist():
        flat[i] = "null"
    rows = ",\n".join([row] * len(c)) % tuple(flat)
    return ('{\n  "rows": [\n' + rows + '\n  ],\n  "source": '
            + json.dumps(stream.source.value) + "\n}\n")
