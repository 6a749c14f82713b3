"""Invariant objects attached to a mapping between equitorsion spaces.

Everything here is derived data of one ``(Space, AG3Mapping)`` side,
built by that side's ``InvariantBundle``: the eta tensors, the W tensors
of both kinds, the twenty torsion products U_1..U_20, the eight sigma
combinations built from them, the invariant difference tensors T-tilde,
and the five-parameter W family members indexed by a pair (p, q) of sigma
choices.  The module also carries the exact rank analyses over those
objects and the checks that compare a source bundle with an independent
target bundle built on the inverse mapping data.

Each sigma combination is read off the U basis through one coefficient
table, ``_SIGMA_COEFFS``; the test suite proves every row of it against
the paper's term-by-term definition of sigma_p.  The m/n swap of the q
term is an index transposition of a fresh evaluation, and barred objects
are always recomputed in the target space, so the two routes of a check
never share a cached object.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd

from .geometry import Keeper, Space, cov_deriv_assoc, curvature_K, kept
from .linalg import (
    ParamMatrix,
    RationalMatrix,
    random_substitution,
    rank_exact,
)
from .mapping import AG3Mapping, MappedPair
from .tensors import (
    TensorField,
    antisym_pair_nodiv,
    base_numerators,
    tensor_add,
    tensor_contract,
    tensor_lincomb,
    tensor_sub,
    tensor_truncate,
    transpose,
)

PARAM_NAMES = ("u", "u'", "v", "v'", "w")

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
        # T^i_{j a} phi^a, slots (i, j)
        self.torsion_phi_last = tensor_contract("ija,a->ij", t, self.phi)
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


def _sigma_numerators(N: int) -> list[list[int]]:
    """The rows of ``_SIGMA_COEFFS`` as integer numerators over N + 1.

    With c = 1/(N+1), the entry ``whole + scaled * c`` is
    ``(whole * (N + 1) + scaled) / (N + 1)``.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    return [[whole * (N + 1) + scaled
             for whole, scaled in (_SIGMA_COEFFS[p].get(theta, (0, 0))
                                   for theta in range(1, 21))]
            for p in SIGMA_LABELS]


@cache
def sigma_coeff_matrix(N: int) -> RationalMatrix:
    """The 8 x 20 coefficient matrix expressing each sigma over the U basis.

    Read off ``_SIGMA_COEFFS`` at c = 1/(N+1), once per dimension.  The
    table is proved in the test suite: each row equals the term-by-term
    sigma definition on generic instances at two dimensions, and both
    sides are affine in c with coefficients free of N, so the two values
    of c fix the table for every N.
    """
    return RationalMatrix.from_runs(
        [[(N + 1, row)] for row in _sigma_numerators(N)])


def torsion_cd_difference_check(src: InvariantBundle, tgt: InvariantBundle,
                                p_values) -> list[VerificationReport]:
    """Exact two-route check of the torsion covariant-derivative difference,
    one report per label p.

    Route one expands the difference through P = sym(target) - sym(source);
    route two evaluates the p-th sigma combination on both sides.  Both
    must match the directly computed derivative difference.  Route one
    does not depend on p, so it is built once, from the torsion and P cut
    to the order of the derivative difference.
    """
    p_values = list(p_values)
    for p in p_values:
        _check_label("p", p)
    space, space_bar = src.space, tgt.space
    lhs = tensor_sub(space_bar.torsion_cd(), space.torsion_cd())
    t = tensor_truncate(space.torsion(), lhs.order)
    sym_diff = tensor_truncate(tensor_sub(space_bar.sym(), space.sym()),
                               lhs.order)
    # T^a_{jm} P^i_{an} - T^i_{am} P^a_{jn} - T^i_{ja} P^a_{mn}
    direct = tensor_lincomb(
        [(1, lhs), (-1, tensor_contract("ajm,ian->ijmn", t, sym_diff)),
         (1, tensor_contract("iam,ajn->ijmn", t, sym_diff)),
         (1, tensor_contract("ija,amn->ijmn", t, sym_diff))])
    return [VerificationReport.from_residuals(
        "torsion_cd_difference",
        {"p": p, "dim": space.dim, "kind": src.mapping.kind},
        (direct,
         tensor_lincomb([(1, lhs), (-1, tgt.sigma(p)), (1, src.sigma(p))])))
        for p in p_values]


class InvariantBundle(Keeper):
    """The invariant objects of one (space, mapping) side, each built once.

    The only builder of U, sigma, eta, W and T-tilde, all read off one
    lazily built ``_Parts``: U, eta and W directly, sigma as the U
    combination of its table row, T-tilde as the torsion derivative less
    a sigma.  What a command reads more than once is kept, keyed by labels
    (parts, the derivative of sigma, U, sigma, swapped sigma, W, the W
    correction); eta, whose one reader is W, T-tilde and the family member,
    which no command reads, are rebuilt per request.  K is not kept: its
    key would be a parameter draw.  An invariance check compares two
    bundles, one per side, so its routes never share a kept object.

    ``order`` is the order the bundle's products are taken at, handed to
    ``_Parts``; every value read off the parts (U, sigma, eta, W, T-tilde)
    comes out at that order or lower and equals the full-order value cut
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
        # d^i_n (c (G_{j;m} - (N+1) eta_{jm}) + mu sigma_{jm}), less the
        # same on d^i_m with m and n exchanged
        on_in = tensor_lincomb([(c, trace_cd), (-1, eta),
                                (1, tensor_contract(",jm->jm", m.mu, sigma))])
        # (sigma_{jm} phi^i)_{;n} - (m <-> n), with phi_{;n} expanded
        gradient = antisym_pair_nodiv(tensor_lincomb(
            [(1, self.sigma_cd()),
             (1, tensor_contract("jm,n->jmn", sigma,
                                 tensor_add(m.nu, parts.sigma_phi)))]), 1, 2)
        return tensor_lincomb([
            (1, s.curvature()),
            (1, tensor_contract("ij,mn->ijmn", delta, on_ij)),
            (1, tensor_contract("in,jm->ijmn", delta, on_in)),
            (-1, tensor_contract("im,jn->ijmn", delta, on_in)),
            (1, tensor_contract("jmn,i->ijmn", gradient, parts.phi)),
            (-eps, tensor_contract("jm,in->ijmn", sigma, parts.torsion_phi)),
            (eps, tensor_contract("jn,im->ijmn", sigma, parts.torsion_phi)),
        ])

    @kept
    def correction(self, which: int) -> TensorField:
        """W minus the curvature: what W adds to R, and to every K."""
        return tensor_sub(self.w_star(which), self.space.curvature())

    @kept
    def u_tensor(self, theta: int) -> TensorField:
        """One of the twenty torsion products, slots (i, j, m, n)."""
        if not 1 <= theta <= 20:
            raise ValueError(f"theta must be between 1 and 20, got {theta}")
        spec, left, right = _U_TERMS[theta - 1]
        parts = self.parts()
        return tensor_contract(spec, getattr(parts, left),
                               getattr(parts, right))

    @kept
    def sigma(self, p: int) -> TensorField:
        """The p-th sigma combination, slots (i, j, m, n): row p of the
        coefficient table over the kept U tensors."""
        _check_label("p", p)
        table = sigma_coeff_matrix(self.space.dim)
        den, row = table.dens[p - 1], table.nums[p - 1]
        return tensor_lincomb([(Fraction(n, den), self.u_tensor(theta))
                               for theta, n in enumerate(row, start=1) if n])

    @kept
    def sigma_swapped(self, q: int) -> TensorField:
        _check_label("q", q)
        return transpose(self.sigma(q), (0, 1, 3, 2))

    def t_tilde(self, rho: int) -> TensorField:
        """Torsion derivative minus the rho-th sigma; not kept."""
        _check_label("rho", rho)
        return tensor_sub(self.space.torsion_cd(), self.sigma(rho))

    def family(self, which: int, p: int, q: int, u, up, v, vp, w) -> TensorField:
        """The family member of the cell (p, q): K + (W - R) - u sigma_p
        - u' sigma*_q, where sigma*_q has its last two slots exchanged."""
        _check_which(which)
        _check_label("p", p)
        _check_label("q", q)
        u, up, v, vp, w = (Fraction(x) for x in (u, up, v, vp, w))
        return tensor_lincomb([(1, curvature_K(self.space, u, up, v, vp, w)),
                               (1, self.correction(which)),
                               (-u, self.sigma(p)),
                               (-up, self.sigma_swapped(q))])


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
    """Invariant difference tensor: torsion derivative minus its U expansion."""
    return InvariantBundle(s, m).t_tilde(rho)


def build_W_matrix(N: int) -> ParamMatrix:
    """The 64 x 26 parameterized family matrix, one row per (p, q) cell.

    Row layout: leading 1, then the twenty combined U coefficients
    -(u u^p_theta + u' u^q*_theta) with the starred row transported
    through the m/n swap, then the five bare parameters.
    """
    plain = _sigma_numerators(N)
    swapped = [
        [(-1 if pos in _SWAP_NEGATED else 1) * row[_SWAP_POSITION[pos]]
         for pos in range(20)]
        for row in plain
    ]
    # affine entries over PARAM_NAMES: (constant, u, u', v, v', w), every
    # row over N + 1 like the sigma rows; each row ends in the five bare
    # parameters
    one = N + 1
    bare = [tuple(one * (k == slot) for k in range(6)) for slot in range(1, 6)]
    rows = []
    for p in range(8):
        for q in range(8):
            entries = [(one, 0, 0, 0, 0, 0)]
            entries.extend((0, -plain[p][theta], -swapped[q][theta], 0, 0, 0)
                           for theta in range(20))
            entries.extend(bare)
            rows.append((one, entries))
    return ParamMatrix.from_integer_rows(PARAM_NAMES, rows)


SPAN_SAMPLES = 26  # sampled cells per family span, the family matrix's width


def family_span_dimension(pairs: list[MappedPair], seed: int = 0) -> int:
    """Observed dimension of the sampled family deviations.

    Draws one shared generic parameter value per batch, samples
    ``SPAN_SAMPLES`` (which, p, q) cells, and stacks the base-point
    flattenings of family minus the parameter-free common part across
    all supplied pairs.  The rank of that stack is the number of
    independent deviations the samples hit.  The common part is W, which
    cancels exactly: each deviation is K - R - u sigma_p - u' sigma*_q,
    the same for both values of which.
    """
    if not pairs:
        raise ValueError("at least one pair is required")
    rng = random.Random(seed)
    values = random_substitution(PARAM_NAMES, rng)
    u, up, v, vp, w = (values[name] for name in PARAM_NAMES)
    # only base-point values are read: the products are taken at order 0,
    # and K - R, which holds one derivative, from the connection cut to 1
    bundles = [InvariantBundle(
        Space(pair.source.dim, tensor_truncate(pair.source.gamma, 1)),
        pair.mapping, 0) for pair in pairs]
    k_minus_r = [tensor_sub(curvature_K(b.space, u, up, v, vp, w),
                            b.space.curvature()) for b in bundles]
    rows = []
    for _ in range(SPAN_SAMPLES):
        # the kind does not change the deviation, but drawing it keeps
        # the RNG stream, so the sampled (p, q) cells stay the same
        rng.choice((1, 2))
        p = rng.randint(1, 8)
        q = rng.randint(1, 8)
        rows.append([base_numerators(tensor_lincomb(
            [(1, fixed), (-u, bundle.sigma(p)),
             (-up, bundle.sigma_swapped(q))]))
            for bundle, fixed in zip(bundles, k_minus_r)])
    return rank_exact(RationalMatrix.from_runs(rows))


# the torsion-square parameters v, v', w of the curvature transformation
# check: nonzero, so their cancellation between the spaces is exercised
RK_SQUARE_PARAMS = (Fraction(1), Fraction(2), Fraction(3))


def R_and_K_transformation_check(src: InvariantBundle, tgt: InvariantBundle,
                                 which: int, p: int, q: int, u, up,
                                 ) -> VerificationReport:
    """Exact check of the curvature transformation under the mapping.

    Verifies that the target curvature equals the source curvature plus
    the difference of the two W corrections, and that the same holds for
    the five-parameter family member, at (v, v', w) = ``RK_SQUARE_PARAMS``,
    once the u and u' sigma differences are added.
    """
    _check_which(which)
    _check_label("p", p)
    _check_label("q", q)
    u, up = Fraction(u), Fraction(up)
    v, vp, w = RK_SQUARE_PARAMS
    # target minus source, less the difference of the two W corrections
    corr_diff = [(-1, src.correction(which)), (1, tgt.correction(which))]
    residual_r = tensor_lincomb(
        [(1, tgt.space.curvature()), (-1, src.space.curvature())] + corr_diff)
    residual_k = tensor_lincomb(
        [(1, curvature_K(tgt.space, u, up, v, vp, w)),
         (-1, curvature_K(src.space, u, up, v, vp, w))] + corr_diff
        + [(-u, tgt.sigma(p)), (u, src.sigma(p)),
           (-up, tgt.sigma_swapped(q)), (up, src.sigma_swapped(q))])
    return VerificationReport.from_residuals(
        "R_K_transformation",
        {"which": which, "p": p, "q": q, "u": u, "u'": up, "v": v, "v'": vp,
         "w": w, "dim": src.space.dim, "kind": src.mapping.kind},
        (residual_r, residual_k))
