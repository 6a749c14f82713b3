"""Values the tests build and read that no eqlab command needs.

Imported as ``from helpers import ...``: pytest's default import mode
puts this directory on ``sys.path``.  Each helper is built on the
package's public constructors and ``jet_*`` functions, so it adds no
route into the package's arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from eqlab.jets import JetScalar, jet_add
from eqlab.tensors import TensorField, tensor_sub, transpose


def const(dim: int, order: int, value) -> JetScalar:
    """The constant jet ``value``."""
    return JetScalar(dim, order, {(0,) * dim: value})


def coord(dim: int, order: int, k: int) -> JetScalar:
    """The coordinate function x_k (0-based k) as a jet."""
    return JetScalar(dim, order, {tuple(int(i == k) for i in range(dim)): 1})


def jet_sum(terms) -> JetScalar:
    """The sum of one or more jets, through ``jet_add``."""
    return reduce(jet_add, terms)


def value_at_base(a: JetScalar) -> Fraction:
    """The jet's value at the base point: its constant coefficient."""
    return Fraction(a.nums[0], a.den)


def jet_truncate(a: JetScalar, order: int) -> JetScalar:
    """``a`` with every term above total degree ``order`` dropped, read
    through ``coeffs``: a reference for the package's slicing."""
    if not 0 <= order <= a.order:
        raise ValueError(f"cannot truncate an order-{a.order} jet to order {order}")
    return JetScalar(a.dim, order, {alpha: c for alpha, c in a.coeffs.items()
                                    if sum(alpha) <= order})


def zero(dim: int, valence, order: int) -> TensorField:
    """The zero field of the valence and order."""
    return TensorField.build(dim, valence, lambda idx: JetScalar(dim, order))


def mapping_data(m) -> tuple:
    """The five fields and the kind of an ``AG3Mapping``: its value, for
    comparing two mappings."""
    return m.psi, m.sigma, m.phi, m.nu, m.mu, m.kind


def sigma_star(bundle, q: int) -> TensorField:
    """sigma*_q of one ``InvariantBundle``: its sigma_q with the last two
    slots exchanged, read on that side alone."""
    return transpose(bundle.sigma(q), (0, 1, 3, 2))


def t_tilde(bundle, rho: int) -> TensorField:
    """T-tilde_rho of one ``InvariantBundle``: its space's torsion
    derivative less its sigma_rho, at the bundle's order."""
    return tensor_sub(bundle.space.torsion_cd(), bundle.sigma(rho))
