"""Least-squares log-distance fitting and RMSE/MAE model comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OK, DegenerateFit, LengthMismatch
from .models import LogDistanceParams, ModelContext, losses


@dataclass(frozen=True)
class SampleSet:
    """Measured (distance, loss) pairs from one source.

    distances and losses are read-only arrays: built once from the pairs, or
    copied once from the arrays given to from_arrays, in which case the pairs
    are built on first use.
    """

    pairs: tuple
    source_id: str = "samples"

    def __post_init__(self):
        if not (self.distances > 0).all():
            raise ValueError("sample distances must be positive")

    @classmethod
    def from_arrays(cls, distances, losses, source_id: str = "samples") -> "SampleSet":
        if len(distances) != len(losses):
            raise LengthMismatch("distances and losses must have equal length")
        samples = cls.__new__(cls)
        # Frozen: source_id and the cached arrays go straight into __dict__.
        samples.__dict__.update(source_id=source_id,
                                distances=_read_only(np.array(distances, dtype=float)),
                                losses=_read_only(np.array(losses, dtype=float)))
        samples.__post_init__()
        return samples

    def __getattr__(self, name):
        # Reached only for the pairs of a set made by from_arrays.  A binned
        # analysis never reads them; on a 1e6-row log they would take ~145 MB.
        if name != "pairs" or "distances" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pairs = tuple(zip(self.distances.tolist(), self.losses.tolist()))
        self.__dict__["pairs"] = pairs
        return pairs

    @cached_property
    def distances(self) -> np.ndarray:
        return _read_only(np.array([d for d, _ in self.pairs], dtype=float))

    @cached_property
    def losses(self) -> np.ndarray:
        return _read_only(np.array([l for _, l in self.pairs], dtype=float))

    def __len__(self) -> int:
        return len(self.distances)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ErrorReport:
    """Per-model prediction error against a measurement set."""

    model_id: str
    rmse: float
    mae: float
    n_samples: int
    n_excluded: int = 0

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("error report needs at least one sample")
        # RMS-mean inequality, with a hair of float slack for equal vectors.
        if not self.rmse >= self.mae - 1e-12 or self.mae < 0:
            raise ValueError("rmse >= mae >= 0 violated")


def fit_log_distance(samples: SampleSet, d_0: float) -> LogDistanceParams:
    """Ordinary least squares of loss against 10 log10(d / d_0).

    Returns the slope as the path-loss exponent n and the intercept as the
    reference loss L_p0.  Deterministic closed-form normal-equations solution.

    Raises DegenerateFit when all sample distances coincide.
    """
    if d_0 <= 0:
        raise ValueError("reference distance must be positive")
    if len(samples) < 2:
        raise DegenerateFit("need at least two samples to fit")
    x = 10.0 * np.log10(samples.distances / d_0)
    y = samples.losses
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateFit("all sample distances are equal")
    n = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    l_p0 = float(y.mean() - n * x.mean())
    return LogDistanceParams(n=n, l_p0=l_p0, d_0=d_0)


def _paired(predicted, measured) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predicted, dtype=float)
    m = np.asarray(measured, dtype=float)
    if p.shape != m.shape or p.size == 0:
        raise LengthMismatch("predicted and measured must be equal-length and non-empty")
    return p, m


def rmse(predicted, measured) -> float:
    """Root mean square difference of two equal-length dB vectors."""
    p, m = _paired(predicted, measured)
    return float(np.sqrt(np.mean((p - m) ** 2)))


def mae(predicted, measured) -> float:
    """Mean absolute difference of two equal-length dB vectors."""
    p, m = _paired(predicted, measured)
    return float(np.mean(np.abs(p - m)))


def compare_models(samples: SampleSet, model_ids, ctx: ModelContext) -> list:
    """Score each model against the samples and rank by RMSE.

    Each model is evaluated at every sample distance in one vectorized pass;
    points where a model has a domain error are excluded for that model only,
    with the exclusion count reported.  Ties in RMSE break on the model id, so
    the ordering is stable under sample permutation.
    """
    if len(samples) == 0 or not model_ids:
        raise ValueError("need samples and at least one model")
    d, measured = samples.distances, samples.losses
    reports = []
    for model_id in model_ids:
        predicted, reasons = losses(model_id, ctx, d)
        ok = reasons == OK
        n_ok = int(ok.sum())
        if n_ok == 0:
            continue
        reports.append(
            ErrorReport(
                model_id=model_id,
                rmse=rmse(predicted[ok], measured[ok]),
                mae=mae(predicted[ok], measured[ok]),
                n_samples=n_ok,
                n_excluded=len(samples) - n_ok,
            )
        )
    reports.sort(key=lambda r: (r.rmse, r.model_id))
    return reports


def bin_samples(samples: SampleSet, n_bins: int) -> SampleSet:
    """Average samples into log-spaced distance bins (mean distance, mean loss)."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    d, y = samples.distances, samples.losses
    edges = np.logspace(math.log10(d.min()), math.log10(d.max()), n_bins + 1)
    edges[-1] *= 1.0 + 1e-12  # keep the max sample inside the last bin
    idx = np.digitize(d, edges) - 1
    pairs = []
    for b in range(n_bins):
        mask = idx == b
        if mask.any():
            pairs.append((float(d[mask].mean()), float(y[mask].mean())))
    return SampleSet(pairs=tuple(pairs), source_id=f"{samples.source_id}[binned {n_bins}]")
