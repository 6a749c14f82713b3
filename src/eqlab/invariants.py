"""Invariant objects attached to a mapping between equitorsion spaces.

Everything here is derived data of one ``(Space, AG3Mapping)`` side,
built by that side's ``InvariantBundle``: the eta tensors, the W tensors
of both kinds, the twenty torsion products U_1..U_20, the eight sigma
combinations built from them, the invariant difference tensors T-tilde,
and the five-parameter W families indexed by a pair (p, q) of sigma
choices.  The module also carries the exact rank analyses over those
objects and the checks that compare a source bundle with an independent
target bundle built on the inverse mapping data.

Checks never reuse a formula across the two routes they compare: the
sigma combinations are coded term by term and reconciled against the
coefficient matrix, the m/n swap of the q term is an index transposition
of a fresh evaluation, and barred objects are always recomputed in the
target space.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, wraps

from .geometry import (
    GAMMA_VALENCE,
    Space,
    cov_deriv_assoc,
    curvature_K,
)
from .jets import JetScalar, jet_add, jet_mul, jet_neg, jet_scale, jet_sum
from .linalg import (
    ParamMatrix,
    ParamPoly,
    RationalMatrix,
    random_substitution,
    rank_exact,
)
from .mapping import AG3Mapping, MappedPair, random_jet
from .tensors import (
    DOWN,
    UP,
    TensorField,
    antisym_pair_nodiv,
    flatten_at_base,
    tensor_add,
    tensor_lincomb,
    tensor_sub,
    transpose,
)

W_VALENCE = (UP, DOWN, DOWN, DOWN)

PARAM_NAMES = ("u", "u'", "v", "v'", "w")


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
            digits = max(digits, _numerator_digits((residual,)))
        return cls(check=check, params=params, passed=failing is None,
                   max_abs_residual_num_digits=digits, residual=failing)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": {k: _json_value(v) for k, v in self.params.items()},
            "pass": self.passed,
            "max_abs_residual_num_digits": self.max_abs_residual_num_digits,
            "residual": None if self.residual is None else self.residual.to_json(),
            "rank": None,
        }

    def __repr__(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return f"VerificationReport({self.check!r}, {self.params!r}, {state})"


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _numerator_digits(residuals) -> int:
    """Decimal length of the largest coefficient numerator, 0 when all vanish."""
    worst = 0
    for field in residuals:
        for comp in field.components:
            for value in comp.coeffs.values():
                worst = max(worst, len(str(abs(value.numerator))))
    return worst


def _check_which(which: int) -> None:
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")


def _check_label(name: str, value: int) -> None:
    if not 1 <= value <= 8:
        raise ValueError(f"{name} must be between 1 and 8, got {value}")


class _Parts:
    """Derivative-free contractions shared by the U, sigma and W builders."""

    def __init__(self, s: Space, m: AG3Mapping):
        dim = s.dim
        self.dim = dim
        self.torsion = s.torsion()
        self.sym = s.sym()
        self.trace = s.trace_sym()
        self.sigma = m.sigma
        self.phi = m.phi
        self.sigma_phi = m.sigma_phi()
        t, phi = self.torsion, self.phi

        # T^i_{a k} phi^a, slots (i, k)
        self.torsion_phi = TensorField.build(
            dim, (UP, DOWN),
            lambda idx: jet_sum(jet_mul(t[idx[0], a, idx[1]], phi[a])
                                for a in range(dim)))
        # T^i_{j a} phi^a, slots (i, j)
        self.torsion_phi_last = TensorField.build(
            dim, (UP, DOWN),
            lambda idx: jet_sum(jet_mul(t[idx[0], idx[1], a], phi[a])
                                for a in range(dim)))
        # T^a_{j m} G_a, slots (j, m)
        trace = self.trace
        self.torsion_trace = TensorField.build(
            dim, (DOWN, DOWN),
            lambda idx: jet_sum(jet_mul(t[a, idx[0], idx[1]], trace[a])
                                for a in range(dim)))
        # T^a_{j m} (sigma phi)_a, slots (j, m)
        sigma_phi = self.sigma_phi
        self.torsion_sigma_phi = TensorField.build(
            dim, (DOWN, DOWN),
            lambda idx: jet_sum(jet_mul(t[a, idx[0], idx[1]], sigma_phi[a])
                                for a in range(dim)))
        # T^a_{j m} sigma_{a n}, slots (j, m, n)
        sigma = self.sigma
        self.torsion_sigma = TensorField.build(
            dim, (DOWN, DOWN, DOWN),
            lambda idx: jet_sum(jet_mul(t[a, idx[0], idx[1]], sigma[a, idx[2]])
                                for a in range(dim)))


def _u_component(parts: _Parts, theta: int, idx: tuple[int, ...]) -> JetScalar:
    dim = parts.dim
    t, sym = parts.torsion, parts.sym
    sigma, phi = parts.sigma, parts.phi
    i, j, m, n = idx
    if theta == 1:
        return jet_sum(jet_mul(t[a, j, m], sym[i, a, n]) for a in range(dim))
    if theta == 2:
        return jet_sum(jet_mul(t[a, j, n], sym[i, a, m]) for a in range(dim))
    if theta == 3:
        return jet_sum(jet_mul(t[i, a, m], sym[a, j, n]) for a in range(dim))
    if theta == 4:
        return jet_sum(jet_mul(t[i, a, n], sym[a, j, m]) for a in range(dim))
    if theta == 5:
        return jet_sum(jet_mul(t[i, j, a], sym[a, m, n]) for a in range(dim))
    if theta == 6:
        return jet_mul(t[i, j, m], parts.trace[n])
    if theta == 7:
        return jet_mul(t[i, j, n], parts.trace[m])
    if theta == 8:
        return jet_mul(t[i, m, n], parts.trace[j])
    if theta == 9:
        return jet_mul(parts.torsion_phi[i, m], sigma[j, n])
    if theta == 10:
        return jet_mul(parts.torsion_phi[i, n], sigma[j, m])
    if theta == 11:
        return jet_mul(parts.torsion_phi_last[i, j], sigma[m, n])
    if theta == 12:
        return jet_mul(t[i, j, m], parts.sigma_phi[n])
    if theta == 13:
        return jet_mul(t[i, j, n], parts.sigma_phi[m])
    if theta == 14:
        return jet_mul(t[i, m, n], parts.sigma_phi[j])
    if theta == 15:
        value = parts.torsion_trace[j, m]
        return value if i == n else JetScalar.zero(dim, value.order)
    if theta == 16:
        value = parts.torsion_trace[j, n]
        return value if i == m else JetScalar.zero(dim, value.order)
    if theta == 17:
        value = parts.torsion_sigma_phi[j, m]
        return value if i == n else JetScalar.zero(dim, value.order)
    if theta == 18:
        value = parts.torsion_sigma_phi[j, n]
        return value if i == m else JetScalar.zero(dim, value.order)
    if theta == 19:
        return jet_mul(parts.torsion_sigma[j, m, n], phi[i])
    if theta == 20:
        return jet_mul(parts.torsion_sigma[j, n, m], phi[i])
    raise ValueError(f"theta must be between 1 and 20, got {theta}")


def _sigma_component(parts: _Parts, p: int, c: Fraction,
                     idx: tuple[int, ...]) -> JetScalar:
    """Term-by-term transcription of the p-th sigma definition."""
    dim = parts.dim
    t, sym = parts.torsion, parts.sym
    trace, sigma, phi = parts.trace, parts.sigma, parts.phi
    sigma_phi = parts.sigma_phi
    i, j, m, n = idx

    def first_mid():
        # Gamma^a_{v jm} Gamma^i_{_an}
        return jet_sum(jet_mul(t[a, j, m], sym[i, a, n]) for a in range(dim))

    def mid_contr():
        # Gamma^i_{v am} Gamma^a_{_jn}
        return jet_sum(jet_mul(t[i, a, m], sym[a, j, n]) for a in range(dim))

    def last_contr():
        # Gamma^i_{v ja} Gamma^a_{_mn}
        return jet_sum(jet_mul(t[i, j, a], sym[a, m, n]) for a in range(dim))

    def phi_tail():
        # Gamma^a_{v jm} phi^i sigma_{an}
        return jet_mul(parts.torsion_sigma[j, m, n], phi[i])

    def delta_n(field_value):
        return field_value if i == n else JetScalar.zero(dim, field_value.order)

    if p == 1:
        total = first_mid()
        total = jet_add(total, jet_neg(mid_contr()))
        return jet_add(total, jet_neg(last_contr()))
    if p == 2:
        total = first_mid()
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        traces = jet_add(jet_scale(2, jet_mul(t[i, j, m], trace[n])),
                         jet_add(jet_mul(t[i, j, n], trace[m]),
                                 jet_neg(jet_mul(t[i, m, n], trace[j]))))
        total = jet_add(total, jet_scale(-c, traces))
        mixed = jet_add(jet_scale(2, jet_mul(t[i, j, m], sigma_phi[n])),
                        jet_add(jet_mul(t[i, j, n], sigma_phi[m]),
                                jet_neg(jet_mul(t[i, m, n], sigma_phi[j]))))
        return jet_add(total, jet_scale(-c, mixed))
    if p == 3:
        total = jet_add(first_mid(), jet_neg(mid_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        inner = jet_add(jet_add(jet_mul(t[i, j, m], trace[n]),
                                jet_mul(t[i, j, n], trace[m])),
                        jet_add(jet_mul(t[i, j, m], sigma_phi[n]),
                                jet_mul(t[i, j, n], sigma_phi[m])))
        return jet_add(total, jet_scale(-c, inner))
    if p == 4:
        total = jet_add(first_mid(), jet_neg(last_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        inner = jet_add(jet_add(jet_mul(t[i, j, m], trace[n]),
                                jet_neg(jet_mul(t[i, m, n], trace[j]))),
                        jet_add(jet_mul(t[i, j, m], sigma_phi[n]),
                                jet_neg(jet_mul(t[i, m, n], sigma_phi[j]))))
        return jet_add(total, jet_scale(-c, inner))
    if p == 5:
        total = jet_neg(phi_tail())
        total = jet_add(total, jet_neg(mid_contr()))
        total = jet_add(total, jet_neg(last_contr()))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_mul(t[i, j, m], trace[n])),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_mul(t[i, j, m], sigma_phi[n])))
        return jet_add(total, jet_scale(c, inner))
    if p == 6:
        total = jet_neg(phi_tail())
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        traces = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                 jet_neg(jet_mul(t[i, j, m], trace[n]))),
                         jet_add(jet_neg(jet_mul(t[i, j, n], trace[m])),
                                 jet_mul(t[i, m, n], trace[j])))
        total = jet_add(total, jet_scale(c, traces))
        mixed = jet_add(jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_neg(jet_mul(t[i, j, m], sigma_phi[n]))),
                        jet_add(jet_neg(jet_mul(t[i, j, n], sigma_phi[m])),
                                jet_mul(t[i, m, n], sigma_phi[j])))
        return jet_add(total, jet_scale(c, mixed))
    if p == 7:
        total = jet_add(jet_neg(phi_tail()), jet_neg(mid_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi_last[i, j], sigma[m, n]))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_neg(jet_mul(t[i, j, n], trace[m]))),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_neg(jet_mul(t[i, j, n], sigma_phi[m]))))
        return jet_add(total, jet_scale(c, inner))
    if p == 8:
        total = jet_add(jet_neg(phi_tail()), jet_neg(last_contr()))
        total = jet_add(total, jet_mul(parts.torsion_phi[i, m], sigma[j, n]))
        inner = jet_add(jet_add(delta_n(parts.torsion_trace[j, m]),
                                jet_mul(t[i, m, n], trace[j])),
                        jet_add(delta_n(parts.torsion_sigma_phi[j, m]),
                                jet_mul(t[i, m, n], sigma_phi[j])))
        return jet_add(total, jet_scale(c, inner))
    raise ValueError(f"p must be between 1 and 8, got {p}")


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

def _probe_instance(dim: int, seed: int) -> tuple[Space, AG3Mapping]:
    """Random order-0 data; the product identities need no derivatives."""
    rng = random.Random(seed)
    gamma = TensorField.build(dim, GAMMA_VALENCE,
                              lambda idx: random_jet(rng, dim, 0))
    psi = TensorField.build(dim, (DOWN,), lambda idx: random_jet(rng, dim, 0))
    upper = {}
    for j in range(dim):
        for k in range(j, dim):
            upper[(j, k)] = random_jet(rng, dim, 0)
    sigma = TensorField.build(dim, (DOWN, DOWN),
                              lambda idx: upper[tuple(sorted(idx))])
    phi = TensorField.build(dim, (UP,), lambda idx: random_jet(rng, dim, 0))
    nu = TensorField.build(dim, (DOWN,), lambda idx: random_jet(rng, dim, 0))
    mu = random_jet(rng, dim, 0)
    return Space(dim, gamma), AG3Mapping(psi, sigma, phi, nu, mu, kind=1)


def _linear_solve(a_rows: list[list[Fraction]],
                  rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b with free unknowns set to zero, else None."""
    cols = len(a_rows[0])
    rows = [list(r) + [b] for r, b in zip(a_rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][c]
        rows[r] = [x / scale for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(row[cols] for row in rows[r:]):
        return None
    solution = [Fraction(0)] * cols
    for row_idx, c in enumerate(pivots):
        solution[c] = rows[row_idx][cols]
    return solution


def _validate_sigma_rows(dim: int, matrix: RationalMatrix) -> None:
    probe = InvariantBundle(*_probe_instance(dim, seed=7321 + dim))
    us = [probe.u_tensor(theta) for theta in range(1, 21)]
    for p in range(1, 9):
        residual = tensor_lincomb(
            [(1, probe.sigma(p))] + [(-c, u) for c, u in zip(matrix.row(p - 1), us)])
        if residual.is_zero():
            continue
        columns = [flatten_at_base(u) for u in us]
        a_rows = [[col[k] for col in columns] for k in range(len(columns[0]))]
        correction = _linear_solve(a_rows, flatten_at_base(residual))
        if correction is None:
            raise ValueError(
                f"sigma row {p} disagrees with its U expansion and the "
                "residual lies outside the U span")
        blamed = [theta + 1 for theta, value in enumerate(correction) if value]
        raise ValueError(
            f"sigma row {p} disagrees with its U expansion at theta {blamed}")


@cache
def sigma_coeff_matrix(N: int) -> RationalMatrix:
    """The 8 x 20 coefficient matrix expressing each sigma over the U basis.

    Built once per dimension: the first call validates every row against
    a direct evaluation of the sigma definitions on a random instance and
    raises naming the offending row and positions on any mismatch.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    c = Fraction(1, N + 1)
    entries = []
    for p in range(1, 9):
        row = _SIGMA_COEFFS[p]
        for theta in range(1, 21):
            whole, scaled = row.get(theta, (0, 0))
            entries.append(Fraction(whole) + scaled * c)
    matrix = RationalMatrix(8, 20, entries)
    _validate_sigma_rows(N, matrix)
    return matrix


def torsion_cd_difference_check(src: InvariantBundle, tgt: InvariantBundle,
                                p: int) -> VerificationReport:
    """Exact two-route check of the torsion covariant-derivative difference.

    Route one expands the difference through P = sym(target) - sym(source);
    route two evaluates the p-th sigma combination on both sides.  Both
    must match the directly computed derivative difference.
    """
    _check_label("p", p)
    space, space_bar = src.space, tgt.space
    dim = space.dim
    t = space.torsion()
    sym_diff = tensor_sub(space_bar.sym(), space.sym())

    def direct_component(idx):
        i, j, mm, n = idx
        total = jet_sum(jet_mul(t[a, j, mm], sym_diff[i, a, n])
                        for a in range(dim))
        total = jet_add(total, jet_neg(jet_sum(
            jet_mul(t[i, a, mm], sym_diff[a, j, n]) for a in range(dim))))
        return jet_add(total, jet_neg(jet_sum(
            jet_mul(t[i, j, a], sym_diff[a, mm, n]) for a in range(dim))))

    rhs_direct = TensorField.build(dim, W_VALENCE, direct_component)
    lhs = [(1, space_bar.torsion_cd()), (-1, space.torsion_cd())]
    return VerificationReport.from_residuals(
        "torsion_cd_difference",
        {"p": p, "dim": dim, "kind": src.mapping.kind},
        (tensor_lincomb(lhs + [(-1, rhs_direct)]),
         tensor_lincomb(lhs + [(-1, tgt.sigma(p)), (1, src.sigma(p))])))


def _kept(build):
    """A bundle method whose result is kept, keyed by its name and arguments."""
    @wraps(build)
    def method(self, *args):
        key = (build.__name__, *args)
        if key not in self._memo:
            self._memo[key] = build(self, *args)
        return self._memo[key]
    return method


class InvariantBundle:
    """The invariant objects of one (space, mapping) side, each built once.

    The only builder of U, sigma, eta, W and T-tilde, all read off one
    lazily built ``_Parts``.  What is read more than once is kept (parts,
    U, sigma, swapped sigma, eta, W, the W correction, K); T-tilde is
    rebuilt per request.  ``family`` still keeps each member it builds in
    ``families``, though no check reads a member twice: the invariance
    grid sums per-label differences instead.  The dict stays because
    ``bench/layertrace.py`` counts its hits.  An invariance check compares
    two bundles, one per side, so its routes never share a cached object.
    """

    def __init__(self, space: Space, mapping: AG3Mapping):
        self.space = space
        self.mapping = mapping
        self.families: dict[tuple, TensorField] = {}
        self._memo: dict = {}

    @_kept
    def parts(self) -> _Parts:
        return _Parts(self.space, self.mapping)

    @_kept
    def eta(self, which: int) -> TensorField:
        """The (0,2) eta tensor of the requested kind.

        The two kinds differ only in the sign in front of the torsion
        contraction in the last bracket: plus for kind 1, minus for kind 2.
        """
        _check_which(which)
        s, m, parts = self.space, self.mapping, self.parts()
        dim = s.dim
        c = Fraction(1, dim + 1)
        eps = 1 if which == 1 else -1
        combined = tensor_add(parts.trace, parts.sigma_phi)
        phi, sigma, nu, mu = parts.phi, parts.sigma, m.nu, m.mu
        torsion_phi = parts.torsion_phi
        phi_combined = jet_sum(jet_mul(phi[a], combined[a]) for a in range(dim))
        sigma_cd = cov_deriv_assoc(sigma, s)

        def component(idx):
            j, k = idx
            total = jet_scale(c * c * (dim + 1),
                              jet_mul(phi_combined, sigma[j, k]))
            total = jet_add(total, jet_scale(-c * c,
                                             jet_mul(combined[j], combined[k])))
            deriv = jet_sum(jet_mul(sigma_cd[j, a, k], phi[a])
                            for a in range(dim))
            total = jet_add(total, jet_scale(-c, deriv))
            total = jet_add(total, jet_scale(-c, jet_mul(mu, sigma[j, k])))
            for a in range(dim):
                bracket = jet_add(jet_mul(nu[k], phi[a]),
                                  jet_scale(-eps, torsion_phi[a, k]))
                total = jet_add(total,
                                jet_scale(-c, jet_mul(sigma[j, a], bracket)))
            return total

        return TensorField.build(dim, (DOWN, DOWN), component)

    @_kept
    def w_star(self, which: int) -> TensorField:
        """The (1,3) W tensor of the requested kind, an invariant of the mapping.

        Assembled from the curvature, the antisymmetrised eta and trace
        derivatives on the delta slots, and the covariant derivative of the
        product sigma_{jm} phi^i, the latter written out through the
        defining equation for phi so that no derivative of phi is needed.
        """
        eta = self.eta(which)  # checks which
        s, m, parts = self.space, self.mapping, self.parts()
        dim = s.dim
        c = Fraction(1, dim + 1)
        eps = 1 if which == 1 else -1
        eta_anti = antisym_pair_nodiv(eta, 0, 1)
        curvature = s.curvature()
        trace_cd = cov_deriv_assoc(s.trace_sym(), s)
        trace_cd_anti = antisym_pair_nodiv(trace_cd, 0, 1)
        sigma_cd = cov_deriv_assoc(m.sigma, s)
        sigma, phi, sigma_phi = parts.sigma, parts.phi, parts.sigma_phi
        torsion_phi = parts.torsion_phi
        nu, mu = m.nu, m.mu

        # bracket_{jn} = G_{j;n} - (N+1) eta_{jn}
        bracket = tensor_lincomb([(1, trace_cd), (-(dim + 1), eta)])

        def component(idx):
            i, j, mm, n = idx
            total = curvature[i, j, mm, n]
            if i == j:
                total = jet_add(total, eta_anti[mm, n])
                total = jet_add(total, jet_scale(-c, trace_cd_anti[mm, n]))
            if i == mm:
                total = jet_add(total, jet_scale(-c, bracket[j, n]))
            if i == n:
                total = jet_add(total, jet_scale(c, bracket[j, mm]))
            # (sigma_{jm} phi^i)_{;n} - (m <-> n swap), with phi_{;n}
            # expanded; the delta pieces of the expansion carry the mu terms
            gradient = jet_add(sigma_cd[j, mm, n], jet_neg(sigma_cd[j, n, mm]))
            gradient = jet_add(gradient, jet_mul(sigma[j, mm], nu[n]))
            gradient = jet_add(gradient, jet_neg(jet_mul(sigma[j, n], nu[mm])))
            gradient = jet_add(gradient, jet_mul(sigma[j, mm], sigma_phi[n]))
            gradient = jet_add(gradient,
                               jet_neg(jet_mul(sigma[j, n], sigma_phi[mm])))
            total = jet_add(total, jet_mul(gradient, phi[i]))
            if i == n:
                total = jet_add(total, jet_mul(mu, sigma[j, mm]))
            if i == mm:
                total = jet_add(total, jet_neg(jet_mul(mu, sigma[j, n])))
            tail = jet_add(jet_mul(sigma[j, mm], torsion_phi[i, n]),
                           jet_neg(jet_mul(sigma[j, n], torsion_phi[i, mm])))
            return jet_add(total, jet_scale(-eps, tail))

        return TensorField.build(dim, W_VALENCE, component)

    @_kept
    def correction(self, which: int) -> TensorField:
        """W minus the curvature: what W adds to R, and to every K."""
        return tensor_sub(self.w_star(which), self.space.curvature())

    @_kept
    def u_tensor(self, theta: int) -> TensorField:
        """One of the twenty torsion products, slots (i, j, m, n)."""
        parts = self.parts()
        return TensorField.build(parts.dim, W_VALENCE,
                                 lambda idx: _u_component(parts, theta, idx))

    @_kept
    def sigma(self, p: int) -> TensorField:
        """The p-th sigma combination, slots (i, j, m, n)."""
        parts = self.parts()
        c = Fraction(1, parts.dim + 1)
        return TensorField.build(parts.dim, W_VALENCE,
                                 lambda idx: _sigma_component(parts, p, c, idx))

    @_kept
    def sigma_swapped(self, q: int) -> TensorField:
        return transpose(self.sigma(q), (0, 1, 3, 2))

    @_kept
    def curvature_k(self, u, up, v, vp, w) -> TensorField:
        return curvature_K(self.space, u, up, v, vp, w)

    def t_tilde(self, rho: int) -> TensorField:
        """Torsion derivative minus the rho-th U expansion; not kept."""
        _check_label("rho", rho)
        coeffs = sigma_coeff_matrix(self.space.dim).row(rho - 1)
        return tensor_lincomb(
            [(1, self.space.torsion_cd())]
            + [(-c, self.u_tensor(theta))
               for theta, c in enumerate(coeffs, start=1) if c])

    def family(self, which: int, p: int, q: int, u, up, v, vp, w) -> TensorField:
        _check_which(which)
        _check_label("p", p)
        _check_label("q", q)
        u, up, v, vp, w = (Fraction(x) for x in (u, up, v, vp, w))
        key = (which, p, q, u, up, v, vp, w)
        if key not in self.families:
            self.families[key] = tensor_lincomb(
                [(1, self.curvature_k(u, up, v, vp, w)),
                 (1, self.correction(which)),
                 (-u, self.sigma(p)), (-up, self.sigma_swapped(q))])
        return self.families[key]


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


def W_family(s: Space, m: AG3Mapping, which: int, p: int, q: int,
             u, up, v, vp, w) -> TensorField:
    """Member of the five-parameter invariant family for the cell (p, q).

    Equals the curvature family member plus the W correction of the
    requested kind, minus u times the p-th sigma and minus u' times the
    q-th sigma with its last two slots exchanged.
    """
    return InvariantBundle(s, m).family(which, p, q, u, up, v, vp, w)


def build_W_matrix(N: int) -> ParamMatrix:
    """The 64 x 26 parameterized family matrix, one row per (p, q) cell.

    Row layout: leading 1, then the twenty combined U coefficients
    -(u u^p_theta + u' u^q*_theta) with the starred row transported
    through the m/n swap, then the five bare parameters.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    base = sigma_coeff_matrix(N)
    plain = [[base[p, theta] for theta in range(20)] for p in range(8)]
    swapped = [
        [(-1 if pos in _SWAP_NEGATED else 1) * row[_SWAP_POSITION[pos]]
         for pos in range(20)]
        for row in plain
    ]
    one = ParamPoly.constant(PARAM_NAMES, 1)
    u, up, v, vp, w = (ParamPoly.variable(PARAM_NAMES, name)
                       for name in PARAM_NAMES)
    entries: list[ParamPoly] = []
    for p in range(8):
        for q in range(8):
            entries.append(one)
            for theta in range(20):
                entries.append(-(u * plain[p][theta]) - (up * swapped[q][theta]))
            entries.extend((u, up, v, vp, w))
    return ParamMatrix(64, 26, PARAM_NAMES, entries)


def family_span_dimension(pairs: list[MappedPair], samples: int,
                          seed: int = 0) -> int:
    """Observed dimension of the sampled family deviations.

    Draws one shared generic parameter value per batch, samples (which,
    p, q) cells, and stacks the base-point flattenings of family minus
    the parameter-free common part across all supplied pairs.  The rank
    of that stack is the number of independent families the samples hit.
    The common part is W, which cancels exactly: each deviation is
    K - R - u sigma_p - u' sigma*_q, the same for both values of which.
    """
    if samples < 26:
        raise ValueError("at least 26 samples are required")
    if not pairs:
        raise ValueError("at least one pair is required")
    rng = random.Random(seed)
    values = random_substitution(PARAM_NAMES, rng)
    u, up, v, vp, w = (values[name] for name in PARAM_NAMES)
    bundles = [InvariantBundle(pair.source, pair.mapping) for pair in pairs]
    rows = []
    for _ in range(samples):
        # the kind does not change the deviation, but drawing it keeps
        # the RNG stream, so the sampled (p, q) cells stay the same
        rng.choice((1, 2))
        p = rng.randint(1, 8)
        q = rng.randint(1, 8)
        row: list[Fraction] = []
        for bundle in bundles:
            deviation = tensor_lincomb(
                [(1, bundle.curvature_k(u, up, v, vp, w)),
                 (-1, bundle.space.curvature()),
                 (-u, bundle.sigma(p)), (-up, bundle.sigma_swapped(q))])
            row.extend(flatten_at_base(deviation))
        rows.append(row)
    return rank_exact(RationalMatrix.from_rows(rows))


def R_and_K_transformation_check(src: InvariantBundle, tgt: InvariantBundle,
                                 which: int, p: int, q: int, u, up,
                                 v=Fraction(1), vp=Fraction(2),
                                 w=Fraction(3)) -> VerificationReport:
    """Exact check of the curvature transformation under the mapping.

    Verifies that the target curvature equals the source curvature plus
    the difference of the two W corrections, and that the same holds for
    the five-parameter family member once the u and u' sigma differences
    are added.  The torsion-square parameters default to nonzero values
    so their cancellation between the spaces is exercised.
    """
    _check_which(which)
    _check_label("p", p)
    _check_label("q", q)
    u, up, v, vp, w = (Fraction(x) for x in (u, up, v, vp, w))
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
