"""Reference checker for eqlab documents, independent of the eqlab package.

Jets are re-implemented here as truncated multivariate polynomials over
``Fraction``, read straight from the JSON coefficient lists that eqlab
writes.  The checker decides three properties exactly:

* a mapped pair is the deformation of its source connection,
  Gammabar^i_jk - Gamma^i_jk = psi_j d^i_k + psi_k d^i_j + 2 sigma_jk phi^i,
  and both connections have the same torsion;
* the tensors an ``eval`` program prints equal this module's own
  evaluation of the same index formulas;
* a tensor is identically zero.

Nothing here imports eqlab, so a fault in eqlab's jet or tensor layer
cannot make a wrong answer look right to both sides.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Jet:
    """Polynomial truncated above total degree ``order``; zero terms absent."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict):
        self.order = order
        self.coeffs = {a: c for a, c in coeffs.items() if c and sum(a) <= order}

    def __eq__(self, other) -> bool:
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "Jet") -> "Jet":
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0) + c
        return Jet(min(self.order, other.order), out)

    def __neg__(self) -> "Jet":
        return Jet(self.order, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __mul__(self, other: "Jet") -> "Jet":
        order = min(self.order, other.order)
        out: dict = {}
        for alpha, ca in self.coeffs.items():
            for beta, cb in other.coeffs.items():
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                if sum(gamma) <= order:
                    out[gamma] = out.get(gamma, 0) + ca * cb
        return Jet(order, out)

    def scaled(self, c: Fraction) -> "Jet":
        return Jet(self.order, {a: c * v for a, v in self.coeffs.items()})

    def partial(self, k: int) -> "Jet":
        out = {}
        for alpha, c in self.coeffs.items():
            if alpha[k]:
                beta = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                out[beta] = c * alpha[k]
        return Jet(self.order - 1, out)

    def is_zero(self) -> bool:
        return not self.coeffs


def read_jet(obj: dict) -> Jet:
    coeffs = {}
    for entry in obj["coeffs"]:
        coeffs[tuple(entry["alpha"])] = Fraction(int(entry["num"]),
                                                 int(entry["den"]))
    return Jet(int(obj["order"]), coeffs)


class Tensor:
    """Row-major components over ``dim ** rank`` index tuples."""

    def __init__(self, dim: int, valence: tuple, comps: list):
        self.dim, self.valence, self.comps = dim, tuple(valence), comps

    def __getitem__(self, idx) -> Jet:
        if isinstance(idx, int):
            idx = (idx,)
        offset = 0
        for i in idx:
            offset = offset * self.dim + i
        return self.comps[offset]


def read_tensor(obj: dict) -> Tensor:
    return Tensor(int(obj["dim"]), tuple(obj["valence"]),
                  [read_jet(c) for c in obj["components"]])


def build(dim: int, valence: tuple, component) -> Tensor:
    return Tensor(dim, valence, [component(idx) for idx in
                                 product(range(dim), repeat=len(valence))])


def _sum(jets) -> Jet:
    total = None
    for jet in jets:
        total = jet if total is None else total + jet
    return total


W_VALENCE = ("up", "down", "down", "down")


def sym_part(gamma: Tensor) -> Tensor:
    half = Fraction(1, 2)
    return build(gamma.dim, gamma.valence,
                 lambda i: (gamma[i] + gamma[i[0], i[2], i[1]]).scaled(half))


def torsion(gamma: Tensor) -> Tensor:
    half = Fraction(1, 2)
    return build(gamma.dim, gamma.valence,
                 lambda i: (gamma[i] - gamma[i[0], i[2], i[1]]).scaled(half))


def curvature(gamma: Tensor) -> Tensor:
    """R^i_jmn = S^i_jm,n - S^i_jn,m + S^a_jm S^i_an - S^a_jn S^i_am."""
    s, dim = sym_part(gamma), gamma.dim

    def component(idx):
        i, j, m, n = idx
        return (s[i, j, m].partial(n) - s[i, j, n].partial(m)
                + _sum(s[a, j, m] * s[i, a, n] for a in range(dim))
                - _sum(s[a, j, n] * s[i, a, m] for a in range(dim)))

    return build(dim, W_VALENCE, component)


def torsion_square(gamma: Tensor) -> Tensor:
    """V^i_jmn = T^a_jm T^i_an."""
    t, dim = torsion(gamma), gamma.dim
    return build(dim, W_VALENCE, lambda idx: _sum(
        t[a, idx[1], idx[2]] * t[idx[0], a, idx[3]] for a in range(dim)))


def pair_problems(doc: dict) -> list[str]:
    """Reasons the stored pair is not an equitorsion deformation; [] if none."""
    source = read_tensor(doc["source"]["gamma"])
    target = read_tensor(doc["target"]["gamma"])
    mapping = doc["mapping"]
    psi, sigma, phi = (read_tensor(mapping[name])
                       for name in ("psi", "sigma", "phi"))
    dim = source.dim
    problems = []
    for i, j, k in product(range(dim), repeat=3):
        expected = (sigma[j, k] * phi[i]).scaled(Fraction(2))
        if i == k:
            expected = expected + psi[j]
        if i == j:
            expected = expected + psi[k]
        if target[i, j, k].order != source[i, j, k].order or not (
                target[i, j, k] - source[i, j, k] - expected).is_zero():
            problems.append(f"deformation fails at Gamma^{i}_{j}{k}")
    if [c.coeffs for c in torsion(source).comps] != \
            [c.coeffs for c in torsion(target).comps]:
        problems.append("torsion differs between source and target")
    return problems


def tensors_equal(printed: dict, expected: Tensor) -> bool:
    got = read_tensor(printed)
    return (got.dim == expected.dim and got.valence == expected.valence
            and got.comps == expected.comps)


def eval_problems(results: dict, pair_doc: dict) -> list[str]:
    """Compare the printed R, BarR, V and DT with this module's own values."""
    source = read_tensor(pair_doc["source"]["gamma"])
    target = read_tensor(pair_doc["target"]["gamma"])
    problems = []
    if set(results) != {"R", "BarR", "V", "DT"}:
        problems.append(f"eval defined {sorted(results)}")
        return problems
    for name, expected in (("R", curvature(source)),
                           ("BarR", curvature(target)),
                           ("V", torsion_square(source))):
        if not tensors_equal(results[name], expected):
            problems.append(f"{name} differs from the reference evaluation")
    if not all(c.is_zero() for c in read_tensor(results["DT"]).comps):
        problems.append("DT is not zero")
    return problems
