"""Work-conserving CPU allocation with soft limits.

This module is the heart of the container substrate: it reproduces the
*observable contract* of the Linux CFS + Docker limits stack that FlowCon
manipulates, using a two-phase weighted water-filling computation.

Semantics (validated against the paper's worked examples)
---------------------------------------------------------
Let capacity be ``C`` (normalized to 1.0 per worker), and per container
``i`` let ``L_i`` be its CPU limit and ``d_i`` its demand (parallelism
ceiling).

**Phase 1 — fair share under ceilings.**  Max-min fair allocation with
per-container ceiling ``u_i = min(L_i, d_i) · C`` and equal weights: spare
share from saturated containers is recursively redistributed to
unsaturated ones.  This reproduces the §5.3 example: VAE limited to 0.25
and a fresh MNIST at limit 1 split the node 25 % / 75 %.

**Phase 2 — soft-limit redistribution** (``AllocationMode.SOFT``).  If
capacity remains after phase 1 (all ceilings met) and some containers still
have unmet *demand*, the leftover is water-filled among them ignoring their
limits.  This is Docker's soft-limit behaviour the paper leans on in §4.1
("even if the container cannot maximize its own resource, the unused option
will be utilized by others") and §5.4 technique (1).  ``HARD`` mode skips
phase 2 and models ``--cpus``-style strict ceilings — used by the ablation
benchmarks to show the capacity soft limits reclaim.

Forms
-----
:func:`water_fill` (sort-then-progressive-fill, O(n log n)) and
:meth:`CpuAllocator.allocate` (both phases) each run over Python floats
for pools up to ``_SCALAR_MAX`` containers, where numpy's per-call
constant would dominate, and as whole-array numpy steps beyond it.  The
scalar form of ``allocate`` takes lists of Python floats as they are
(any other sequence is converted once) and returns a list; both phases,
the phase-2 residual and every intermediate sum stay on lists
(:func:`_fill` is the list core both phases share).  ``allocate``
returns a list from the numpy form too, so its callers see one type.
The two forms run the same operations in the same order, and every
scalar sum goes through :func:`_pairwise_sum`, which reproduces
``ndarray.sum()``'s pairwise order bit for bit (not a left fold, and
not Python 3.12's compensated ``sum()``), so they are bit-identical;
the tests pin them at every pool size up to 1 000.  A one-container
pool, the common fleet shape, takes the short scalar chain
:meth:`CpuAllocator._allocate_one`.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from repro.errors import AllocationError

__all__ = ["AllocationMode", "CpuAllocator", "water_fill"]


#: Largest pool the scalar forms handle; beyond it numpy is faster.
_SCALAR_MAX = 64


def _has_nan(values: list[float]) -> bool:
    """Whether *values* hold a NaN (read off ``sum()``'s NaN-ness only;
    ``inf`` plus ``-inf`` also reads NaN, which range checks reject)."""
    total = sum(values)
    return total != total


def _check_capacity(capacity: float) -> None:
    """Reject a NaN, infinite or negative capacity."""
    if not 0.0 <= capacity < math.inf:
        raise AllocationError(f"capacity must be finite and >= 0: {capacity!r}")


def _pairwise_sum(values: list[float]) -> float:
    """``np.array(values).sum()``, bit for bit, over Python floats.

    numpy's float sum is not a left fold: a run shorter than 8 is folded
    left, a run of 8 to 128 is folded into eight interleaved
    accumulators that are then added pairwise, and a longer run is split
    in two at a multiple of 8 and each half summed the same way.  The
    reduction adds that result to its identity ``0.0``.
    """
    return 0.0 + _pairwise(values)


def _pairwise(values: list[float]) -> float:
    """numpy's pairwise sum of *values*, before the identity is added."""
    n = len(values)
    if n < 8:
        res = -0.0
        for v in values:
            res += v
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        blocks_end = n - n % 8
        for i in range(8, blocks_end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in values[blocks_end:]:
            res += v
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


class AllocationMode(enum.Enum):
    """How limits behave once every ceiling is honoured."""

    #: Leftover capacity is redistributed to containers with unmet demand
    #: (Docker cpu-shares-like behaviour; the paper's semantics).
    SOFT = "soft"
    #: Limits are strict ceilings (``docker update --cpus``); leftover
    #: capacity idles.  Ablation mode.
    HARD = "hard"


def water_fill(
    capacity: float,
    ceilings: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted max-min fair ("water-filling") allocation under ceilings.

    Distributes ``capacity`` among ``n`` entities so that each receives at
    most ``ceilings[i]``, unsaturated entities receive shares proportional
    to ``weights[i]``, and no capacity is left over unless every entity is
    saturated.

    Parameters
    ----------
    capacity:
        Total divisible quantity (finite, >= 0).
    ceilings:
        Per-entity upper bounds (>= 0, not NaN), array-like; ``inf`` is ok.
    weights:
        Optional positive proportional-share weights (default: equal).

    Returns
    -------
    numpy.ndarray
        Allocations with ``0 <= alloc <= ceilings`` and
        ``alloc.sum() == min(capacity, ceilings.sum())`` up to float
        round-off.

    Notes
    -----
    Sort by level ``c_i / w_i``; after the ``k`` lowest-level entities
    saturate, the candidate water level is the remaining capacity over
    the remaining weight, and the first entity it does not saturate
    fixes the level for the rest.
    """
    ceilings = np.asarray(ceilings, dtype=np.float64)
    n = ceilings.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    _check_capacity(capacity)
    if n > _SCALAR_MAX:
        return _water_fill_vector(capacity, ceilings, weights)
    ceil = ceilings.tolist()
    if min(ceil) < -1e-12 or _has_nan(ceil):
        raise AllocationError("negative or NaN ceiling in water_fill")
    wts = _weight_list(weights, n)
    return np.array(_fill(capacity, ceil, wts), dtype=np.float64)


def _as_list(values: Sequence[float]) -> list[float]:
    """*values* as a list of Python floats; a list passes through as is."""
    if type(values) is list:
        return values
    return np.asarray(values, dtype=np.float64).tolist()


def _weight_list(weights: Sequence[float] | None, n: int) -> list[float] | None:
    """*weights* as a checked list of ``n`` positive floats (or ``None``)."""
    if weights is None:
        return None
    wts = _as_list(weights)
    if len(wts) != n:
        raise AllocationError("weights and ceilings shape mismatch")
    if min(wts) <= 0 or _has_nan(wts):
        raise AllocationError("weights must be strictly positive")
    return wts


def _fill(
    capacity: float, ceil: list[float], wts: list[float] | None
) -> list[float]:
    """:func:`water_fill`'s scalar form over checked Python floats.

    *capacity* is finite and non-negative, *ceil* holds no NaN and
    nothing below ``-1e-12``, and *wts* is ``None`` (equal weights) or
    positive.  Returns the allocations as a list.
    """
    n = len(ceil)
    ceil = [c if c > 0.0 else 0.0 for c in ceil]
    if capacity == 0.0:
        return [0.0] * n
    if wts is None:
        wts = [1.0] * n

    # At water level λ, entity i receives min(λ·w_i, c_i); it saturates
    # at its level c_i / w_i.
    levels = [c / w for c, w in zip(ceil, wts)]
    order = sorted(range(n), key=levels.__getitem__)  # stable
    c_sorted = [ceil[i] for i in order]
    w_sorted = [wts[i] for i in order]

    # Prefix sums, accumulated left to right as ``np.cumsum`` does.
    csum_c = list(accumulate(c_sorted, initial=0.0))
    csum_w = list(accumulate(w_sorted, initial=0.0))
    total_w = csum_w[n]

    # Saturation is a prefix property: find the first entity the
    # candidate level (remaining capacity / remaining weight) does not
    # saturate.  A remaining weight that round-off left at zero makes the
    # candidate infinite.
    k = n
    for i in range(n):
        remaining_w = total_w - csum_w[i]
        if remaining_w > 0:
            candidate = (capacity - csum_c[i]) / remaining_w
        else:
            candidate = math.inf
        if not candidate >= levels[order[i]] - 1e-15:
            k = i
            break

    alloc_sorted = c_sorted[:k]
    if k < n:
        lam = max(0.0, (capacity - csum_c[k]) / (total_w - csum_w[k]))
        alloc_sorted += [min(lam * w, c) for w, c in zip(w_sorted[k:], c_sorted[k:])]

    unsorted = [0.0] * n
    for i, a in zip(order, alloc_sorted):
        unsorted[i] = a
    # Numeric hygiene: clamp and never exceed capacity.
    alloc = [min(a if a > 0.0 else 0.0, c) for a, c in zip(unsorted, ceil)]
    total = _pairwise_sum(alloc)
    if total - capacity > 1e-9:
        scale = capacity / total
        alloc = [a * scale for a in alloc]
    return alloc


def _water_fill_vector(capacity: float, ceilings: np.ndarray, weights) -> np.ndarray:
    """:func:`water_fill` as whole-array numpy steps, for large pools.

    Callers have checked that ``ceilings`` is a non-empty float array and
    ``capacity`` is finite and non-negative.
    """
    if not ceilings.min() >= -1e-12:  # NaN-safe: min propagates NaN
        raise AllocationError("negative or NaN ceiling in water_fill")
    ceilings = np.maximum(ceilings, 0.0)
    n = ceilings.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != ceilings.shape:
            raise AllocationError("weights and ceilings shape mismatch")
        if not weights.min() > 0:  # NaN-safe: min propagates NaN
            raise AllocationError("weights must be strictly positive")

    if capacity == 0.0:
        return np.zeros(n, dtype=np.float64)

    levels = ceilings / weights
    order = np.argsort(levels, kind="stable")
    c_sorted = ceilings[order]
    w_sorted = weights[order]

    csum_c = np.concatenate(([0.0], np.cumsum(c_sorted)))
    csum_w = np.concatenate(([0.0], np.cumsum(w_sorted)))
    total_w = csum_w[-1]
    # Masked division: a remaining weight that round-off left at zero
    # keeps its candidate level infinite.
    remaining_w = total_w - csum_w[:-1]
    candidate = np.full(n, np.inf, dtype=np.float64)
    np.divide(capacity - csum_c[:-1], remaining_w, out=candidate,
              where=remaining_w > 0)
    not_sat = np.nonzero(~(candidate >= levels[order] - 1e-15))[0]
    k = int(not_sat[0]) if not_sat.size else n

    alloc_sorted = np.empty(n, dtype=np.float64)
    alloc_sorted[:k] = c_sorted[:k]
    if k < n:
        lam = max(0.0, (capacity - csum_c[k]) / (total_w - csum_w[k]))
        alloc_sorted[k:] = np.minimum(lam * w_sorted[k:], c_sorted[k:])

    alloc = np.empty(n, dtype=np.float64)
    alloc[order] = alloc_sorted
    alloc = np.minimum(np.maximum(alloc, 0.0), ceilings)
    if alloc.sum() - capacity > 1e-9:
        alloc *= capacity / alloc.sum()
    return alloc


class CpuAllocator:
    """Stateless CPU allocation policy for one worker.

    Parameters
    ----------
    mode:
        :class:`AllocationMode` — soft (paper semantics, default) or hard.
    """

    def __init__(self, mode: AllocationMode = AllocationMode.SOFT) -> None:
        self.mode = mode

    def allocate(
        self,
        capacity: float,
        limits: Sequence[float],
        demands: Sequence[float],
        weights: Sequence[float] | None = None,
    ) -> list[float]:
        """Compute per-container CPU allocations.

        The inputs are lists of Python floats (taken as they are, and
        never modified: the worker passes its cached lists) or
        array-likes (converted once).

        Parameters
        ----------
        capacity:
            Worker CPU capacity (normalized, typically 1.0).
        limits:
            Per-container CPU limits in ``(0, 1]`` (fractions of capacity).
        demands:
            Per-container CPU demand ceilings in ``(0, 1]`` of capacity.
        weights:
            Optional fair-share weights for the phase-1 water-fill.  The
            kernel's instantaneous shares of equal-priority tasks are not
            perfectly equal; the worker passes per-settlement noise here
            (the Fig. 16-style jitter of free competition).  Default:
            equal weights.

        Returns
        -------
        list[float]
            Allocations satisfying ``alloc <= demands`` always,
            ``alloc <= limits·capacity`` in hard mode, and work conservation
            (``sum == min(capacity, demands.sum())``) in soft mode.
            Out-of-range or NaN inputs and a non-finite capacity raise
            :class:`AllocationError`.
        """
        n = len(limits)
        if len(demands) != n:
            raise AllocationError("limits and demands shape mismatch")
        if n == 0:
            return []
        if n > _SCALAR_MAX:
            return self._allocate_vector(
                capacity,
                np.asarray(limits, dtype=np.float64),
                np.asarray(demands, dtype=np.float64),
                weights,
            ).tolist()
        lim = _as_list(limits)
        dem = _as_list(demands)
        if min(lim) <= 0 or max(lim) > 1.0 + 1e-12 or _has_nan(lim):
            raise AllocationError(f"limits must lie in (0, 1]: {limits!r}")
        if min(dem) < 0 or _has_nan(dem):
            raise AllocationError("demands must be non-negative, not NaN")
        if n == 1:
            return self._allocate_one(capacity, lim[0], dem[0], weights)
        _check_capacity(capacity)

        demand_abs = [min(d, 1.0) * capacity for d in dem]
        ceil = [min(li * capacity, da) for li, da in zip(lim, demand_abs)]
        alloc = _fill(capacity, ceil, _weight_list(weights, n))

        if self.mode is AllocationMode.SOFT:
            spare = capacity - _pairwise_sum(alloc)
            if spare > 1e-12:
                residual = [
                    r if (r := da - a) > 0.0 else 0.0
                    for da, a in zip(demand_abs, alloc)
                ]
                if _pairwise_sum(residual) > 1e-12:
                    alloc = [
                        a + extra
                        for a, extra in zip(alloc, _fill(spare, residual, None))
                    ]

        return [min(a, da) for a, da in zip(alloc, demand_abs)]

    def _allocate_vector(self, capacity, limits, demands, weights) -> np.ndarray:
        """:meth:`allocate` as whole-array numpy steps, for large pools."""
        # NaN-safe comparisons: min and max propagate NaN.
        if not (limits.min() > 0 and limits.max() <= 1.0 + 1e-12):
            raise AllocationError(f"limits must lie in (0, 1]: {limits!r}")
        if not demands.min() >= 0:
            raise AllocationError("demands must be non-negative, not NaN")

        demand_abs = np.minimum(demands, 1.0) * capacity
        ceil = np.minimum(limits * capacity, demand_abs)
        alloc = water_fill(capacity, ceil, weights)

        if self.mode is AllocationMode.SOFT:
            spare = capacity - alloc.sum()
            if spare > 1e-12:
                residual = np.maximum(demand_abs - alloc, 0.0)
                if residual.sum() > 1e-12:
                    alloc = alloc + water_fill(spare, residual)

        return np.minimum(alloc, demand_abs)

    # -- the one-container pool -------------------------------------------
    #
    # With one container both phases collapse to a short chain of IEEE
    # operations.  Rounding is monotone and the ceiling is at most the
    # absolute demand, itself at most ``capacity``; so phase 1 grants the
    # whole ceiling (its level check passes whatever the weight), and
    # phase 2's spare is never below the residual, so it grants the whole
    # residual once that exceeds 1e-12.  The general path's other checks
    # never fire on one element.

    def _allocate_one(
        self,
        capacity: float,
        limit: float,
        demand: float,
        weights: Sequence[float] | None,
    ) -> list[float]:
        """:meth:`allocate` of a one-container pool, as scalar operations."""
        _check_capacity(capacity)
        _weight_list(weights, 1)  # checked only: one weight changes nothing
        dem_abs = min(demand, 1.0) * capacity
        ceil = min(limit * capacity, dem_abs)
        alloc = ceil if ceil > 0.0 else 0.0
        if self.mode is AllocationMode.SOFT:
            residual = dem_abs - alloc
            if residual > 1e-12:
                alloc = alloc + residual
        return [min(alloc, dem_abs)]

    def allocate_segmented(
        self,
        capacities: list[float],
        limits_seq: list[Sequence[float]],
        demands_seq: list[Sequence[float]],
        weights_seq: list[Sequence[float] | None],
    ) -> list[list[float]]:
        """Allocate many independent worker pools.

        Each index describes one worker's pool: its capacity, limit and
        demand vectors, and optional weights.  Each pool runs through
        its own :meth:`allocate` call, so results and errors are exactly
        those of the per-pool calls.
        """
        return [
            self.allocate(*pool)
            for pool in zip(capacities, limits_seq, demands_seq, weights_seq)
        ]
