"""Independent route to the exact coefficients through monomial polynomials.

The library computes :math:`\\bar C` on Legendre-coefficient vectors.  This
module keeps the monomial route as a cross-check: each level multiplies
dense :class:`~stochint.basis.RatPoly` polynomials (weight factor, Legendre
polynomial, inner antiderivative), integrates, shifts the antiderivative to
vanish at -1, and the outermost antiderivative is evaluated at 1.  It also
keeps the shell-incremental squared sum of the unweighted triple kernel and
the simplex-integral route to the exact kernel norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from stochint.basis import RatPoly, antiderivative, legendre_poly
from stochint.coeffs import KernelSpec


@lru_cache(maxsize=None)
def weight_poly(l: int) -> RatPoly:
    """The weight factor ``(-(1+x))**l``."""
    base = RatPoly.from_coeffs([-1, -1])
    out = RatPoly.one()
    for _ in range(l):
        out = out * base
    return out


@lru_cache(maxsize=None)
def inner_antiderivative(weights: tuple[int, ...], js: tuple[int, ...]) -> RatPoly:
    """Antiderivative, vanishing at -1, of the innermost ``len(js)`` levels."""
    depth = len(js)
    integrand = weight_poly(weights[depth - 1]) * legendre_poly(js[depth - 1])
    if depth > 1:
        integrand = integrand * inner_antiderivative(weights[: depth - 1], js[: depth - 1])
    anti = antiderivative(integrand)
    return anti - RatPoly.from_coeffs([anti(Fraction(-1))])


def monomial_bar(weights: tuple[int, ...], j: tuple[int, ...]) -> Fraction:
    """:math:`\\bar C` for weights and indices given innermost first."""
    return inner_antiderivative(tuple(weights), tuple(j))(Fraction(1))


def triple_shell_sums(q: int) -> list[Fraction]:
    """Partial sums of ``prod(2 j_r + 1) * bar**2`` over ``{0..c}^3``, ``c = 0..q``.

    Shell ``c`` holds the indices whose maximum is ``c``: the three faces
    of the growing cube.
    """

    def term(j: tuple[int, int, int]) -> Fraction:
        a, b, c = j
        return (2 * a + 1) * (2 * b + 1) * (2 * c + 1) * monomial_bar((0, 0, 0), j) ** 2

    sums = []
    acc = Fraction(0)
    for c in range(q + 1):
        for a in range(c + 1):
            for b in range(c + 1):
                acc += term((a, b, c))
                if b < c:
                    acc += term((a, c, b))
                    if a < c:
                        acc += term((c, a, b))
        sums.append(acc)
    return sums


def kernel_norm_simplex(spec: KernelSpec) -> Fraction:
    r"""Cross-check of :func:`~stochint.errors.kernel_norm_exact` by direct rational integration.

    Integrates :math:`\prod_r (1+x_r)^{2 l_r}` over the ordered simplex in
    ``[-1, 1]^k`` with exact polynomial antiderivatives and applies the
    change-of-variable factor :math:`2^{-(2L+k)}`.
    """
    one_plus_x = RatPoly.from_coeffs([1, 1])
    running = RatPoly.one()
    for l in spec.weights:
        integrand = running
        for _ in range(2 * l):
            integrand = integrand * one_plus_x
        anti = antiderivative(integrand)
        running = anti - RatPoly.from_coeffs([anti(Fraction(-1))])
    total = running(Fraction(1))
    return total / Fraction(2 ** (2 * spec.total_weight + spec.k))
