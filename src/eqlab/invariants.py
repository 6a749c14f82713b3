"""Invariant objects attached to a mapping between equitorsion spaces.

Everything here is derived data of one ``(Space, AG3Mapping)`` side,
built by that side's ``InvariantBundle``: the eta tensors, the W tensors
of both kinds, the twenty torsion products U_1..U_20, the eight sigma
combinations built from them, and the five-parameter W family members
indexed by a pair (p, q) of sigma choices; the invariant difference
tensors T-tilde are the torsion derivative less a sigma.  The module also
carries the exact rank analyses over those objects and the checks that
compare a source bundle with an independent target bundle built on the
inverse mapping data, through one table of their differences,
``difference_table``.

Each sigma combination is read off the U basis through one coefficient
table, ``_SIGMA_COEFFS``; the test suite proves every row of it against
the paper's term-by-term definition of sigma_p.  The m/n swap of the q
term, sigma*_q, is an index transposition of sigma_q, or of the sigma_q
difference in the table, and barred objects are always recomputed in the
target space, so the two routes of a check never share a cached object.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .geometry import Keeper, Space, cov_deriv_assoc, k_torsion_terms, kept
from .mapping import AG3Mapping, MappedPair
from .tensors import (
    TensorField,
    antisym_pair_nodiv,
    base_numerators,
    tensor_add,
    tensor_contract,
    tensor_lincomb,
    tensor_neg,
    tensor_sub,
    tensor_truncate,
    transpose,
)

if TYPE_CHECKING:
    from .linalg import ParamMatrix, RationalMatrix

PARAM_NAMES = ("u", "u'", "v", "v'", "w")


def random_substitution(params: tuple[str, ...], rng: random.Random,
                        ) -> dict[str, Fraction]:
    # numerators and denominators uniform in [1, 10^6]; positive values are
    # as generic as signed ones for rank purposes
    return {p: Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            for p in params}


# the labels p of the eight sigma_p tensors
SIGMA_LABELS = tuple(range(1, 9))


class VerificationReport:
    """Outcome of one exact check, with the residual kept when nonzero."""

    def __init__(self, check: str, params: dict, passed: bool,
                 max_abs_residual_num_digits: int,
                 residual: TensorField | None):
        self.check = check
        self.params = params
        self.passed = passed
        self.max_abs_residual_num_digits = max_abs_residual_num_digits
        self.residual = residual

    @classmethod
    def from_residuals(cls, check: str, params: dict,
                       residuals) -> "VerificationReport":
        """Passes when every residual vanishes; keeps the first that does
        not, and counts numerator digits over all of them."""
        failing, digits = None, 0
        for residual in residuals:
            if failing is None and not residual.is_zero():
                failing = residual
            digits = max(digits, _numerator_digits(residual))
        return cls(check=check, params=params, passed=failing is None,
                   max_abs_residual_num_digits=digits, residual=failing)

    def to_json(self) -> dict:
        residual = self.residual
        if residual is not None:
            from .documents import tensor_json

            residual = tensor_json(residual)
        return {
            "check": self.check,
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "pass": self.passed,
            "max_abs_residual_num_digits": self.max_abs_residual_num_digits,
            "residual": residual,
            "rank": None,
        }

    def __repr__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"VerificationReport({self.check!r}, {self.params!r}, {state})"


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _numerator_digits(field: TensorField) -> int:
    """Decimal length of the largest coefficient numerator, 0 when it vanishes.

    A coefficient is ``n / den`` over the field's shared denominator, so
    its numerator in lowest terms is ``n // gcd(n, den)``."""
    if field.is_zero():
        return 0
    den = field.den
    return len(str(max(abs(n // gcd(n, den)) for n in field.nums if n)))


def _check_which(which: int) -> None:
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")


def _check_label(name: str, value: int) -> None:
    if not 1 <= value <= 8:
        raise ValueError(f"{name} must be between 1 and 8, got {value}")


class _Parts:
    """Derivative-free contractions shared by the U and W builders.

    The sigma combinations are sums of U's, so they read these fields
    only through the U builder.

    Works at ``order``: its six inputs (torsion, symmetric part, trace,
    sigma, phi, sigma phi) are cut to it first, so every product built
    here, and by the readers of these fields, is taken at the order its
    consumers read.  Truncated Taylor arithmetic commutes with truncation,
    so the kept coefficients are the same as from the uncut inputs.
    ``None`` keeps the data's order.  No derivative may read these fields:
    a derivative of a cut field would lose one more order.
    """

    def __init__(self, s: Space, m: AG3Mapping, order: int | None):
        def cut(a: TensorField) -> TensorField:
            return a if order is None else tensor_truncate(a, order)

        dim = s.dim
        self.dim = dim
        self.torsion = cut(s.torsion())
        self.sym = cut(s.sym())
        self.trace = cut(s.trace_sym())
        self.sigma = cut(m.sigma)
        self.phi = cut(m.phi)
        self.sigma_phi = cut(m.sigma_phi())
        t = self.torsion
        # the Kronecker delta at the parts' order, the sparse first factor
        # of the products that carry one
        self.delta = TensorField.delta(dim, t.order)
        # T^i_{a k} phi^a, slots (i, k)
        self.torsion_phi = tensor_contract("iak,a->ik", t, self.phi)
        # T^i_{j a} phi^a, slots (i, j): the torsion is antisymmetric in
        # its lower slots, so this is minus the product above
        self.torsion_phi_last = tensor_neg(self.torsion_phi)
        # T^a_{j m} G_a, slots (j, m)
        self.torsion_trace = tensor_contract("ajm,a->jm", t, self.trace)
        # T^a_{j m} (sigma phi)_a, slots (j, m)
        self.torsion_sigma_phi = tensor_contract("ajm,a->jm", t,
                                                 self.sigma_phi)
        # T^a_{j m} sigma_{a n}, slots (j, m, n)
        self.torsion_sigma = tensor_contract("ajm,an->jmn", t, self.sigma)


# U_1..U_20, slots (i, j, m, n): each is one contraction of two fields
# of ``_Parts``, named by attribute.
_U_TERMS = (
    ("ajm,ian->ijmn", "torsion", "sym"),
    ("ajn,iam->ijmn", "torsion", "sym"),
    ("iam,ajn->ijmn", "torsion", "sym"),
    ("ian,ajm->ijmn", "torsion", "sym"),
    ("ija,amn->ijmn", "torsion", "sym"),
    ("ijm,n->ijmn", "torsion", "trace"),
    ("ijn,m->ijmn", "torsion", "trace"),
    ("imn,j->ijmn", "torsion", "trace"),
    ("im,jn->ijmn", "torsion_phi", "sigma"),
    ("in,jm->ijmn", "torsion_phi", "sigma"),
    ("ij,mn->ijmn", "torsion_phi_last", "sigma"),
    ("ijm,n->ijmn", "torsion", "sigma_phi"),
    ("ijn,m->ijmn", "torsion", "sigma_phi"),
    ("imn,j->ijmn", "torsion", "sigma_phi"),
    ("in,jm->ijmn", "delta", "torsion_trace"),
    ("im,jn->ijmn", "delta", "torsion_trace"),
    ("in,jm->ijmn", "delta", "torsion_sigma_phi"),
    ("im,jn->ijmn", "delta", "torsion_sigma_phi"),
    ("jmn,i->ijmn", "torsion_sigma", "phi"),
    ("jnm,i->ijmn", "torsion_sigma", "phi"),
)


# Coefficient of U_theta in sigma_p, encoded as (integer part, multiple of
# 1/(N+1)).  Row order p = 1..8, keys are theta.
_SIGMA_COEFFS: dict[int, dict[int, tuple[int, int]]] = {
    1: {1: (1, 0), 3: (-1, 0), 5: (-1, 0)},
    2: {1: (1, 0), 9: (1, 0), 11: (1, 0), 6: (0, -2), 7: (0, -1), 8: (0, 1),
        12: (0, -2), 13: (0, -1), 14: (0, 1)},
    3: {1: (1, 0), 3: (-1, 0), 11: (1, 0), 6: (0, -1), 7: (0, -1),
        12: (0, -1), 13: (0, -1)},
    4: {1: (1, 0), 5: (-1, 0), 9: (1, 0), 6: (0, -1), 8: (0, 1),
        12: (0, -1), 14: (0, 1)},
    5: {3: (-1, 0), 5: (-1, 0), 19: (-1, 0), 6: (0, 1), 12: (0, 1),
        15: (0, 1), 17: (0, 1)},
    6: {9: (1, 0), 11: (1, 0), 19: (-1, 0), 6: (0, -1), 7: (0, -1), 8: (0, 1),
        12: (0, -1), 13: (0, -1), 14: (0, 1), 15: (0, 1), 17: (0, 1)},
    7: {3: (-1, 0), 11: (1, 0), 19: (-1, 0), 7: (0, -1), 13: (0, -1),
        15: (0, 1), 17: (0, 1)},
    8: {5: (-1, 0), 9: (1, 0), 19: (-1, 0), 8: (0, 1), 14: (0, 1),
        15: (0, 1), 17: (0, 1)},
}

# The m <-> n swap permutes the U basis and negates the two members that
# are antisymmetric under it.  Zero-based positions; 8 and 14 pick up -1.
_SWAP_POSITION = (1, 0, 3, 2, 4, 6, 5, 7, 9, 8, 10, 12, 11, 13, 15, 14, 17,
                  16, 19, 18)
_SWAP_NEGATED = frozenset({7, 13})


@cache
def _sigma_numerators(N: int) -> tuple[tuple[int, ...], ...]:
    """The rows of ``_SIGMA_COEFFS`` as integer numerators over N + 1,
    read off once per dimension.

    With c = 1/(N+1), the entry ``whole + scaled * c`` is
    ``(whole * (N + 1) + scaled) / (N + 1)``.  The table is proved in the
    test suite: each row equals the term-by-term sigma definition on
    generic instances at two dimensions, and both sides are affine in c
    with coefficients free of N, so the two values of c fix the table for
    every N.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    return tuple(tuple(whole * (N + 1) + scaled
                       for whole, scaled in (_SIGMA_COEFFS[p].get(theta, (0, 0))
                                             for theta in range(1, 21)))
                 for p in SIGMA_LABELS)


def sigma_coeff_matrix(N: int) -> RationalMatrix:
    """The 8 x 20 coefficient matrix expressing each sigma over the U
    basis: the integer rows of ``_sigma_numerators``."""
    from .linalg import RationalMatrix  # loaded by ranks alone

    return RationalMatrix.from_runs(
        [[(N + 1, row)] for row in _sigma_numerators(N)])


class InvariantBundle(Keeper):
    """The invariant objects of one (space, mapping) side, each built once.

    The only builder of U, sigma, eta and W, all read off one lazily
    built ``_Parts``: U, eta and W directly, sigma as the U combination of
    its table row.  What a command reads more than once is kept, keyed by
    labels (parts, the derivative of sigma, U, sigma, W); eta, whose one
    reader is W, and the family member, which no command reads, are
    rebuilt per request.  sigma*_q is read off the kept sigma_q by
    transpose.  The family reads K - R as its torsion terms, never as K
    less R.  An invariance check compares two bundles, one per side, so
    its routes never share a kept object.

    ``order`` is the order the bundle's products are taken at, handed to
    ``_Parts``; every value read off the parts (U, sigma, eta, W) comes
    out at that order or lower and equals the full-order value cut
    to it.  A check whose residuals hold a derivative reads them one order
    below the data, so it builds its bundles there; ``None`` keeps the
    data's order, as the module functions do.  Derivatives (of sigma, of
    the trace) read the uncut fields.
    """

    def __init__(self, space: Space, mapping: AG3Mapping,
                 order: int | None = None):
        self.space = space
        self.mapping = mapping
        self.order = order
        self._cache = {}

    @kept
    def parts(self) -> _Parts:
        return _Parts(self.space, self.mapping, self.order)

    @kept
    def sigma_cd(self) -> TensorField:
        """sigma_{jk;m}, read by eta and W; it reads the uncut sigma, since
        ``parts.sigma`` may be cut."""
        return cov_deriv_assoc(self.mapping.sigma, self.space)

    def eta(self, which: int) -> TensorField:
        """The (0,2) eta tensor of the requested kind.

        The two kinds differ only in the sign in front of the torsion
        contraction in the last bracket: plus for kind 1, minus for kind 2.
        """
        _check_which(which)
        s, m, parts = self.space, self.mapping, self.parts()
        c = Fraction(1, s.dim + 1)
        eps = 1 if which == 1 else -1
        combined = tensor_add(parts.trace, parts.sigma_phi)
        phi, sigma = parts.phi, parts.sigma
        # phi^a (G_a + (sigma phi)_a), a scalar field
        phi_combined = tensor_contract("a,a->", phi, combined)
        return tensor_lincomb([
            (c, tensor_contract(",jk->jk", phi_combined, sigma)),
            (-c * c, tensor_contract("j,k->jk", combined, combined)),
            (-c, tensor_contract("jak,a->jk", self.sigma_cd(), phi)),
            (-c, tensor_contract(",jk->jk", m.mu, sigma)),
            # sigma_{ja} (nu_k phi^a - eps T^a_{bk} phi^b)
            (-c, tensor_contract("j,k->jk", parts.sigma_phi, m.nu)),
            (c * eps, tensor_contract("ja,ak->jk", sigma, parts.torsion_phi)),
        ])

    @kept
    def w_star(self, which: int) -> TensorField:
        """The (1,3) W tensor of the requested kind, an invariant of the mapping.

        Assembled from the curvature, the antisymmetrised eta and trace
        derivatives on the delta slots, and the covariant derivative of the
        product sigma_{jm} phi^i, the latter written out through the
        defining equation for phi so that no derivative of phi is needed.
        """
        eta = self.eta(which)  # checks which
        s, m, parts = self.space, self.mapping, self.parts()
        c = Fraction(1, s.dim + 1)
        eps = 1 if which == 1 else -1
        trace_cd = cov_deriv_assoc(s.trace_sym(), s)
        sigma, delta = parts.sigma, parts.delta
        # d^i_j (eta_{[mn]} - c G_{[m;n]})
        on_ij = tensor_lincomb([(1, antisym_pair_nodiv(eta, 0, 1)),
                                (-c, antisym_pair_nodiv(trace_cd, 0, 1))])
        # c (G_{j;m} - (N+1) eta_{jm}) + mu sigma_{jm}, on d^i_n
        on_in = tensor_lincomb([(c, trace_cd), (-1, eta),
                                (1, tensor_contract(",jm->jm", m.mu, sigma))])
        # (sigma_{jm} phi^i)_{;n}, with phi_{;n} expanded
        gradient = tensor_lincomb(
            [(1, self.sigma_cd()),
             (1, tensor_contract("jm,n->jmn", sigma,
                                 tensor_add(m.nu, parts.sigma_phi)))])
        # the terms that W takes less their m/n mirrors
        unmirrored = tensor_lincomb([
            (1, tensor_contract("in,jm->ijmn", delta, on_in)),
            (1, tensor_contract("jmn,i->ijmn", gradient, parts.phi)),
            (-eps, tensor_contract("jm,in->ijmn", sigma, parts.torsion_phi)),
        ])
        return tensor_lincomb([
            (1, s.curvature()),
            (1, tensor_contract("ij,mn->ijmn", delta, on_ij)),
            (1, antisym_pair_nodiv(unmirrored, 2, 3)),
        ])

    @kept
    def u_tensor(self, theta: int) -> TensorField:
        """One of the twenty torsion products, slots (i, j, m, n); the m/n
        mirror of a lower-numbered one is read off it by transpose."""
        if not 1 <= theta <= 20:
            raise ValueError(f"theta must be between 1 and 20, got {theta}")
        partner = _SWAP_POSITION[theta - 1] + 1
        if partner < theta:
            return transpose(self.u_tensor(partner), (0, 1, 3, 2))
        spec, left, right = _U_TERMS[theta - 1]
        parts = self.parts()
        return tensor_contract(spec, getattr(parts, left),
                               getattr(parts, right))

    @kept
    def sigma(self, p: int) -> TensorField:
        """The p-th sigma combination, slots (i, j, m, n): row p of the
        coefficient table over the kept U tensors."""
        _check_label("p", p)
        den = self.space.dim + 1
        row = _sigma_numerators(self.space.dim)[p - 1]
        return tensor_lincomb([(Fraction(n, den), self.u_tensor(theta))
                               for theta, n in enumerate(row, start=1) if n])

    def family(self, which: int, p: int, q: int, u, up, v, vp, w) -> TensorField:
        """The family member of the cell (p, q): K + (W - R) - u sigma_p
        - u' sigma*_q, where sigma*_q has its last two slots exchanged."""
        _check_which(which)
        _check_label("p", p)
        _check_label("q", q)
        params = [Fraction(x) for x in (u, up, v, vp, w)]
        return tensor_lincomb(
            [(1, self.w_star(which)), (-params[0], self.sigma(p)),
             (-params[1], transpose(self.sigma(q), (0, 1, 3, 2)))]
            + list(zip(params, k_torsion_terms(self.space))))


def eta_star(s: Space, m: AG3Mapping, which: int) -> TensorField:
    """The (0,2) eta tensor of the requested kind."""
    return InvariantBundle(s, m).eta(which)


def W_star(s: Space, m: AG3Mapping, which: int) -> TensorField:
    """The (1,3) W tensor of the requested kind, an invariant of the mapping."""
    return InvariantBundle(s, m).w_star(which)


def U_theta(s: Space, m: AG3Mapping, theta: int) -> TensorField:
    """One of the twenty torsion products, slots (i, j, m, n)."""
    return InvariantBundle(s, m).u_tensor(theta)


def sigma_p(s: Space, m: AG3Mapping, p: int) -> TensorField:
    """The p-th sigma combination, slots (i, j, m, n)."""
    return InvariantBundle(s, m).sigma(p)


def T_tilde(s: Space, m: AG3Mapping, rho: int) -> TensorField:
    """Invariant difference tensor: torsion derivative minus sigma_rho."""
    _check_label("rho", rho)
    return tensor_sub(s.torsion_cd(), InvariantBundle(s, m).sigma(rho))


def build_W_matrix(N: int) -> ParamMatrix:
    """The 64 x 26 parameterized family matrix, one row per (p, q) cell.

    Row layout: leading 1, then the twenty combined U coefficients
    -(u u^p_theta + u' u^q*_theta) with the starred row transported
    through the m/n swap, then the five bare parameters.  Every row is
    over N + 1 like the sigma rows, and stored as its numerators.
    """
    from .linalg import ParamMatrix  # loaded by ranks alone

    plain = _sigma_numerators(N)
    swapped = [
        [(-1 if pos in _SWAP_NEGATED else 1) * row[_SWAP_POSITION[pos]]
         for pos in range(20)]
        for row in plain
    ]
    # affine entries over PARAM_NAMES: (constant, u, u', v, v', w); each
    # row ends in the five bare parameters
    one = N + 1
    bare = [tuple(one * (k == slot) for k in range(6)) for slot in range(1, 6)]
    rows = []
    for p in range(8):
        for q in range(8):
            entries = [(one, 0, 0, 0, 0, 0)]
            entries.extend((0, -plain[p][theta], -swapped[q][theta], 0, 0, 0)
                           for theta in range(20))
            entries.extend(bare)
            rows.append(entries)
    return ParamMatrix.from_integer_rows(PARAM_NAMES, rows)


SPAN_SAMPLES = 26  # sampled cells per family span, the family matrix's width


def family_span_dimension(pairs: list[MappedPair], seed: int = 0) -> int:
    """Observed dimension of the sampled family deviations.

    Draws one shared generic parameter value per batch, samples
    ``SPAN_SAMPLES`` (which, p, q) cells, and stacks the base-point
    flattenings of family minus the parameter-free common part across
    all supplied pairs.  The rank of that stack is the number of
    independent deviations the samples hit.  The common part is W: each
    deviation is K - R - u sigma_p - u' sigma*_q, the same for both values
    of which, with K - R summed from its torsion terms.
    """
    from .linalg import RationalMatrix, rank_exact  # loaded by ranks alone

    if not pairs:
        raise ValueError("at least one pair is required")
    rng = random.Random(seed)
    values = random_substitution(PARAM_NAMES, rng)
    params = [values[name] for name in PARAM_NAMES]
    # only base-point values are read: the products are taken at order 0,
    # and K - R, which holds one derivative, from the connection cut to 1
    bundles = [InvariantBundle(
        Space(pair.source.dim, tensor_truncate(pair.source.gamma, 1)),
        pair.mapping, 0) for pair in pairs]
    k_minus_r = [tensor_lincomb(list(zip(params, k_torsion_terms(b.space))))
                 for b in bundles]
    cells = []
    for _ in range(SPAN_SAMPLES):
        # the kind does not change the deviation, but drawing it keeps
        # the RNG stream, so the sampled (p, q) cells stay the same
        rng.choice((1, 2))
        cells.append((rng.randint(1, 8), rng.randint(1, 8)))
    # each bundle's sigma*_q, transposed once per distinct q
    starred = [{q: transpose(b.sigma(q), (0, 1, 3, 2))
                for q in dict.fromkeys(q for _, q in cells)} for b in bundles]
    rows = [[base_numerators(tensor_lincomb(
        [(1, fixed), (-params[0], bundle.sigma(p)), (-params[1], star[q])]))
        for bundle, fixed, star in zip(bundles, k_minus_r, starred)]
        for p, q in cells]
    return rank_exact(RationalMatrix.from_runs(rows))


# the torsion-square parameters v, v', w of the curvature transformation
# check: nonzero, so their cancellation between the spaces is exercised
RK_SQUARE_PARAMS = (Fraction(1), Fraction(2), Fraction(3))


def _keyed_differences(labels, src_value, tgt_value,
                       ) -> dict[int, TensorField]:
    """Source value minus target value per label.  Labels whose
    differences are equal share one object, so ``id`` keys them alike."""
    shared: dict[TensorField, TensorField] = {}
    differences = {}
    for label in labels:
        difference = tensor_sub(src_value(label), tgt_value(label))
        differences[label] = shared.setdefault(difference, difference)
    return differences


def _shared(built: dict, build, *differences) -> TensorField:
    """``build(*differences)``, built once per distinct tuple of difference
    objects and kept in ``built``, however many labels read it."""
    key = tuple(map(id, differences))
    if key not in built:
        built[key] = build(*differences)
    return built[key]


class Differences(NamedTuple):
    """One instance's differences, source less target: W of kind ``which``,
    the five ``k_torsion_terms`` (the torsion-derivative difference first),
    the sigma differences of ``_keyed_differences`` for every p and q label,
    and the swapped sigma_q table, their m/n transposes.  None depends on
    the parameters, so one table serves every draw."""
    which: int
    w: TensorField
    terms: tuple[TensorField, ...]
    sigma: dict[int, TensorField]
    swapped: dict[int, TensorField]

    def common(self, params) -> TensorField:
        """The W difference plus sum_k theta_k (term_k difference) over the
        five parameters: the part of F_src - F_tgt no sigma label reaches."""
        return tensor_lincomb([(1, self.w), *zip(params, self.terms)])


def difference_table(src: InvariantBundle, tgt: InvariantBundle, which: int,
                     p_values, q_values) -> Differences:
    """The table that every check comparing two bundles reads: one sigma
    difference per distinct label, and one transpose per distinct
    difference that a q label reads."""
    for q in q_values:
        _check_label("q", q)
    sigma, swaps = _keyed_differences(
        dict.fromkeys([*p_values, *q_values]), src.sigma, tgt.sigma), {}
    return Differences(
        which, tensor_sub(src.w_star(which), tgt.w_star(which)),
        tuple(map(tensor_sub, k_torsion_terms(src.space),
                  k_torsion_terms(tgt.space))),
        sigma, {q: _shared(swaps, lambda d: transpose(d, (0, 1, 3, 2)),
                           sigma[q]) for q in q_values})


def torsion_cd_difference_check(src: InvariantBundle, tgt: InvariantBundle,
                                p_values, table: Differences, base: dict,
                                ) -> list[VerificationReport]:
    """Exact two-route check of the torsion covariant-derivative difference
    ``table.terms[0]``, one report per label p.

    Route one expands it through P = sym(target) - sym(source), from the
    torsion and P cut to its order, once.  Route two reads the p-th sigma
    difference; each distinct residual is built once.
    """
    d_cd, seconds = table.terms[0], {}
    t = tensor_truncate(src.space.torsion(), d_cd.order)
    sym_diff = tensor_truncate(tensor_sub(tgt.space.sym(), src.space.sym()),
                               d_cd.order)
    # T^a_{jm} P^i_{an} - T^i_{am} P^a_{jn} - T^i_{ja} P^a_{mn}: the torsion
    # is antisymmetric, so the last is minus the second, j and m exchanged
    direct = tensor_lincomb(
        [(-1, d_cd), (-1, tensor_contract("ajm,ian->ijmn", t, sym_diff)),
         (1, antisym_pair_nodiv(
             tensor_contract("iam,ajn->ijmn", t, sym_diff), 1, 2))])
    return [VerificationReport.from_residuals(
        "torsion_cd_difference", {"p": p, **base},
        (direct, _shared(seconds, lambda d: tensor_sub(d, d_cd),
                         table.sigma[p]))) for p in p_values]


def R_and_K_transformation_check(table: Differences, p: int, q: int, u, up,
                                 base: dict) -> VerificationReport:
    """Exact check of the curvature transformation under the mapping.

    R_tgt = R_src + (W - R)_tgt - (W - R)_src leaves minus the W
    difference; the same for K at (v, v', w) = ``RK_SQUARE_PARAMS``, with
    the u and u' sigma differences, leaves minus the family cell (p, q).
    """
    params = (Fraction(u), Fraction(up), *RK_SQUARE_PARAMS)
    residual_k = tensor_lincomb([(-1, table.common(params)),
                                 (params[0], table.sigma[p]),
                                 (params[1], table.swapped[q])])
    return VerificationReport.from_residuals(
        "R_K_transformation",
        {"which": table.which, "p": p, "q": q,
         **dict(zip(PARAM_NAMES, params)), **base},
        (tensor_neg(table.w), residual_k))
