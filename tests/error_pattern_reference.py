"""The two-type route to the exact error, kept as the ``==`` reference.

:func:`stochint.errors.exact_error` reads the permutation group ``G`` from
the component labels of an :class:`~stochint.errors.IndexPattern`.  Before
that it took an :class:`EqualityPattern`, a partition of positions ``1..k``
built beside the index pattern.  This module keeps that class and that
``exact_error``, with their bodies unchanged, so a test can require the
same float from both routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from stochint.coeffs import ScaledTensor
from stochint.errors import kernel_norm


@dataclass(frozen=True)
class EqualityPattern:
    """Partition of integration positions ``1..k`` by equal components.

    Positions in one group carry the same Wiener-process component; the
    groups are disjoint and cover ``1..k``.
    """

    k: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = [p for g in self.groups for p in g]
        if sorted(seen) != list(range(1, self.k + 1)):
            raise ValueError(f"groups {self.groups} are not a partition of 1..{self.k}")
        object.__setattr__(
            self,
            "groups",
            tuple(tuple(sorted(g)) for g in sorted(self.groups, key=min)),
        )

    @classmethod
    def distinct(cls, k: int) -> "EqualityPattern":
        return cls(k, tuple((p,) for p in range(1, k + 1)))

    @classmethod
    def all_equal(cls, k: int) -> "EqualityPattern":
        return cls(k, (tuple(range(1, k + 1)),))

    @classmethod
    def from_components(cls, components) -> "EqualityPattern":
        """Build the pattern from a concrete component tuple like ``(1, 2, 1)``."""
        components = tuple(components)
        buckets: dict[object, list[int]] = {}
        for pos, c in enumerate(components, start=1):
            buckets.setdefault(c, []).append(pos)
        return cls(len(components), tuple(tuple(v) for v in buckets.values()))

    def position_permutations(self) -> tuple[tuple[int, ...], ...]:
        """All position maps that permute only within equality groups.

        Each returned tuple ``sigma`` sends position ``r`` to
        ``sigma[r - 1]``.
        """
        per_group = [itertools.permutations(g) for g in self.groups]
        perms = []
        for combo in itertools.product(*per_group):
            sigma = [0] * self.k
            for group, image in zip(self.groups, combo):
                for src, dst in zip(group, image):
                    sigma[src - 1] = dst
            perms.append(tuple(sigma))
        return tuple(perms)


def _truncated(tensor: ScaledTensor, q: int | None) -> tuple[np.ndarray, int]:
    if q is None:
        q = tensor.q
    return tensor.truncated(q), q


def exact_error(
    tensor: ScaledTensor,
    pattern: EqualityPattern,
    q: int | None = None,
) -> float:
    r"""Exact mean-square error of the truncated expansion.

    Args:
        tensor: interval-scaled coefficients.
        pattern: equality pattern of the Wiener components.
        q: truncation order; defaults to the tensor's own order.

    Returns:
        ``I_k - sum_j C_j * sum_{sigma in G} C_{sigma(j)}`` with ``G`` the
        within-group position permutations of ``pattern``.
    """
    if pattern.k != tensor.spec.k:
        raise ValueError("pattern multiplicity does not match tensor")
    values, q = _truncated(tensor, q)
    mirror = np.zeros_like(values)
    for sigma in pattern.position_permutations():
        mirror = mirror + np.transpose(values, axes=[s - 1 for s in sigma])
    correlation = float(np.sum(values * mirror))
    return kernel_norm(tensor.spec, tensor.dt) - correlation
