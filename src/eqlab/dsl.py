"""Einstein-notation expression language over tensor fields.

Formulas are entered as text, e.g.::

    d(Gamma[^i,_j,_m],_n) - d(Gamma[^i,_j,_n],_m)
      + Gamma[^a,_j,_m]*Gamma[^i,_a,_n] - Gamma[^a,_j,_n]*Gamma[^i,_a,_m]

Variance is explicit (``^`` upper, ``_`` lower), a repeated name with
opposite variance contracts, and ``d(expr, _k)`` is the comma derivative,
which appends one covariant slot.  The parser enforces the index
discipline up front: a name appears once (free) or exactly twice with
opposite variance (bound), and all summands must expose the same free
names with the same variances.  A summand that is a bare tensor
reference must additionally list its indices in the sum's slot order,
since the written order is the tensor's storage order; composite
summands (products, derivatives) have no storage order and are aligned
by index name, so ``d(Gamma[^i,_j,_n],_m)`` lands in the (i, j, m, n)
slot order of the surrounding sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .jets import jet_partial
from .tensors import (
    DOWN,
    UP,
    TensorField,
    contract,
    outer,
    tensor_lincomb,
    transpose,
)


class ExpressionSyntaxError(ValueError):
    def __init__(self, message: str, position: int, line: int | None = None):
        where = f"line {line}, " if line is not None else ""
        super().__init__(f"{where}position {position}: {message}")
        self.position = position
        self.line = line


class IndexUsageError(ValueError):
    """An index name violates the once-free-or-twice-bound discipline."""


class EvaluationError(ValueError):
    """A plan cannot be evaluated against the given bindings."""


@dataclass(frozen=True)
class Index:
    variance: str
    name: str

    def __str__(self) -> str:
        return ("^" if self.variance == UP else "_") + self.name


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Ref:
    name: str
    indices: tuple[Index, ...]


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    # (sign, node) pairs; the grammar guarantees the first sign is +1
    terms: tuple


@dataclass(frozen=True)
class Derivative:
    operand: object
    index: Index


@dataclass(frozen=True)
class ExpressionPlan:
    root: object
    free: tuple[Index, ...]


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)"
                    r"|(?P<punct>[\^_\[\](),+\-*/=]))")


def _tokenize(src: str, line: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None or match.end() == match.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", at, line)
        if match.lastgroup is None:
            break
        kind = match.lastgroup
        text = match.group(kind)
        tokens.append((kind if kind != "punct" else text, text, match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, src: str, line: int | None = None):
        self.src = src
        self.line = line
        self.tokens = _tokenize(src, line)
        self.at = 0

    def _peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def _next(self):
        token = self._peek()
        if token is None:
            raise ExpressionSyntaxError("unexpected end of input", len(self.src), self.line)
        self.at += 1
        return token

    def _expect(self, kind: str):
        token = self._next()
        if token[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, got {token[1]!r}",
                                        token[2], self.line)
        return token

    def parse_expr(self):
        terms = [(1, self.parse_term())]
        while (token := self._peek()) is not None and token[0] in ("+", "-"):
            self.at += 1
            terms.append((1 if token[0] == "+" else -1, self.parse_term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while (token := self._peek()) is not None and token[0] == "*":
            self.at += 1
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self):
        token = self._peek()
        if token is None:
            raise ExpressionSyntaxError("unexpected end of input", len(self.src), self.line)
        kind, text, pos = token
        if kind == "int":
            self.at += 1
            value = Fraction(int(text))
            if (nxt := self._peek()) is not None and nxt[0] == "/":
                self.at += 1
                den = self._expect("int")
                if int(den[1]) == 0:
                    raise ExpressionSyntaxError("zero denominator", den[2], self.line)
                value = Fraction(int(text), int(den[1]))
            return Literal(value)
        if kind == "(":
            self.at += 1
            inner = self.parse_expr()
            self._expect(")")
            return inner
        if kind == "name":
            follower = self.tokens[self.at + 1] if self.at + 1 < len(self.tokens) else None
            if text == "d" and follower is not None and follower[0] == "(":
                self.at += 2
                operand = self.parse_expr()
                self._expect(",")
                index = self.parse_index()
                self._expect(")")
                return Derivative(operand, index)
            self.at += 1
            self._expect("[")
            indices = [self.parse_index()]
            while (nxt := self._peek()) is not None and nxt[0] == ",":
                self.at += 1
                indices.append(self.parse_index())
            self._expect("]")
            return Ref(text, tuple(indices))
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos, self.line)

    def parse_index(self) -> Index:
        token = self._next()
        if token[0] not in ("^", "_"):
            raise ExpressionSyntaxError(f"expected '^' or '_', got {token[1]!r}",
                                        token[2], self.line)
        name = self._expect("name")
        return Index(UP if token[0] == "^" else DOWN, name[1])

    def assert_done(self):
        token = self._peek()
        if token is not None:
            raise ExpressionSyntaxError(f"trailing input {token[1]!r}", token[2], self.line)


def _signature(node) -> tuple[tuple[Index, ...], frozenset]:
    """Ordered free indices and the set of all names used beneath node."""
    if isinstance(node, Literal):
        return (), frozenset()
    if isinstance(node, Ref):
        free: list[Index] = []
        used = set()
        for index in node.indices:
            used.add(index.name)
            partner = next((f for f in free if f.name == index.name), None)
            if partner is None:
                free.append(index)
            else:
                if partner.variance == index.variance:
                    raise IndexUsageError(
                        f"index {index.name!r} repeated with the same variance")
                free.remove(partner)
        seen = [i.name for i in node.indices]
        for name in seen:
            if seen.count(name) > 2:
                raise IndexUsageError(f"index {name!r} appears more than twice")
        return tuple(free), frozenset(used)
    if isinstance(node, (Product, Derivative)):
        if isinstance(node, Product):
            parts = [_signature(f) for f in node.factors]
        else:
            operand_sig, operand_used = _signature(node.operand)
            parts = [(operand_sig, operand_used),
                     ((node.index,), frozenset({node.index.name}))]
        free: list[Index] = []
        used: set[str] = set()
        for sig, part_used in parts:
            bound_here = part_used - {i.name for i in sig}
            for name in part_used:
                if name in used and name not in {i.name for i in free}:
                    raise IndexUsageError(f"index {name!r} appears more than twice")
            for name in bound_here & {i.name for i in free}:
                raise IndexUsageError(f"index {name!r} appears more than twice")
            for index in sig:
                partner = next((f for f in free if f.name == index.name), None)
                if partner is None:
                    free.append(index)
                elif partner.variance == index.variance:
                    raise IndexUsageError(
                        f"index {index.name!r} repeated with the same variance")
                else:
                    free.remove(partner)
            used |= part_used
        return tuple(free), frozenset(used)
    if isinstance(node, Sum):
        first_sig, used = _signature(node.terms[0][1])
        variances = {i.name: i.variance for i in first_sig}
        for _, term in node.terms[1:]:
            sig, term_used = _signature(term)
            if {i.name: i.variance for i in sig} != variances:
                raise IndexUsageError(
                    "free-index variance mismatch across summands: "
                    f"{[str(i) for i in first_sig]} vs {[str(i) for i in sig]}")
            # a bare reference's written order is its storage order, so it
            # must agree with the sum's slot order; composite terms carry no
            # storage order and are aligned by name instead
            if isinstance(term, Ref) and tuple(sig) != first_sig:
                raise IndexUsageError(
                    "free-index order mismatch across summands: "
                    f"{[str(i) for i in first_sig]} vs {[str(i) for i in sig]}")
            used |= term_used
        return first_sig, frozenset(used)
    raise TypeError(f"unknown node {node!r}")


def parse(src: str, line: int | None = None) -> ExpressionPlan:
    parser = _Parser(src, line)
    root = parser.parse_expr()
    parser.assert_done()
    free, _ = _signature(root)
    return ExpressionPlan(root, free)


def render(plan: ExpressionPlan) -> str:
    return _render(plan.root)


def _render(node) -> str:
    if isinstance(node, Literal):
        return str(node.value)
    if isinstance(node, Ref):
        return f"{node.name}[{','.join(str(i) for i in node.indices)}]"
    if isinstance(node, Product):
        texts = []
        for factor in node.factors:
            text = _render(factor)
            texts.append(f"({text})" if isinstance(factor, Sum) else text)
        return " * ".join(texts)
    if isinstance(node, Sum):
        out = _render_term(node.terms[0][1])
        for sign, term in node.terms[1:]:
            out += (" + " if sign > 0 else " - ") + _render_term(term)
        return out
    if isinstance(node, Derivative):
        return f"d({_render(node.operand)}, {node.index})"
    raise TypeError(f"unknown node {node!r}")


def _render_term(node) -> str:
    text = _render(node)
    return f"({text})" if isinstance(node, Sum) else text


class _Context:
    def __init__(self, bindings: dict, dim: int | None, order: int | None):
        dims = {t.dim for t in bindings.values()}
        if len(dims) > 1:
            raise EvaluationError("bindings disagree on dimension")
        if dim is None:
            dim = dims.pop() if dims else None
        if order is None and bindings:
            order = min(t.order for t in bindings.values())
        self.bindings = bindings
        self.dim = dim
        self.order = order

    def lookup(self, name: str) -> TensorField:
        if name in self.bindings:
            return self.bindings[name]
        if name == "delta":
            return TensorField.delta(self.require_dim(), self.require_order())
        raise EvaluationError(f"unbound tensor name {name!r}")

    def require_dim(self) -> int:
        if self.dim is None:
            raise EvaluationError("cannot infer dimension: no tensor bindings")
        return self.dim

    def require_order(self) -> int:
        if self.order is None:
            raise EvaluationError("cannot infer jet order: no tensor bindings")
        return self.order


def _contract_repeats(tensor: TensorField, sig: list[Index]):
    while True:
        names = [i.name for i in sig]
        dup = next((n for n in names if names.count(n) == 2), None)
        if dup is None:
            return tensor, sig
        first = names.index(dup)
        second = names.index(dup, first + 1)
        if sig[first].variance == UP:
            tensor = contract(tensor, first, second)
        else:
            tensor = contract(tensor, second, first)
        sig = [i for p, i in enumerate(sig) if p not in (first, second)]


def _evaluate(node, ctx: _Context):
    """Returns (tensor_or_None, ordered signature, rational multiplier)."""
    if isinstance(node, Literal):
        return None, [], node.value
    if isinstance(node, Ref):
        tensor = ctx.lookup(node.name)
        if tensor.valence != tuple(i.variance for i in node.indices):
            raise EvaluationError(
                f"{node.name!r} is bound to valence {tensor.valence}, "
                f"referenced as {tuple(i.variance for i in node.indices)}")
        return (*_contract_repeats(tensor, list(node.indices)), Fraction(1))
    if isinstance(node, Product):
        scale = Fraction(1)
        tensor = None
        sig: list[Index] = []
        for factor in node.factors:
            f_tensor, f_sig, f_scale = _evaluate(factor, ctx)
            scale *= f_scale
            if f_tensor is None:
                continue
            if tensor is None:
                tensor, sig = f_tensor, f_sig
            else:
                tensor, sig = _contract_repeats(outer(tensor, f_tensor), sig + f_sig)
        return tensor, sig, scale
    if isinstance(node, Sum):
        terms: list[tuple[Fraction, TensorField]] = []
        total_sig: list[Index] = []
        pending = Fraction(0)
        for sign, term in node.terms:
            tensor, sig, scale = _evaluate(term, ctx)
            if tensor is None:
                pending += sign * scale
                continue
            if not terms:
                total_sig = sig
            else:
                # align this term's slots to the first tensor term by name
                positions = {index.name: p for p, index in enumerate(sig)}
                tensor = transpose(tensor, tuple(positions[index.name]
                                                 for index in total_sig))
            terms.append((sign * scale, tensor))
        if not terms:
            return None, [], pending
        if pending:
            if total_sig:
                raise EvaluationError("cannot add a bare rational to an indexed tensor")
            order = min(tensor.order for _, tensor in terms)
            terms.append((pending, TensorField.scalar(terms[0][1].dim, order, 1)))
        return tensor_lincomb(terms), total_sig, Fraction(1)
    if isinstance(node, Derivative):
        tensor, sig, scale = _evaluate(node.operand, ctx)
        if tensor is None:
            # derivative of a constant: a zero scalar
            dim, order = ctx.require_dim(), ctx.require_order()
            tensor, sig = TensorField.scalar(dim, order, scale), []
            scale = Fraction(1)
        derived = TensorField.build(
            tensor.dim, tensor.valence + (DOWN,),
            lambda idx: jet_partial(tensor[idx[:-1]], idx[-1]))
        return (*_contract_repeats(derived, sig + [node.index]), scale)
    raise TypeError(f"unknown node {node!r}")


def evaluate(plan: ExpressionPlan, bindings: dict, *,
             dim: int | None = None, order: int | None = None) -> TensorField:
    ctx = _Context(dict(bindings), dim, order)
    tensor, sig, scale = _evaluate(plan.root, ctx)
    if tensor is None:
        return TensorField.scalar(ctx.require_dim(), ctx.require_order(), scale)
    tensor = tensor_lincomb([(scale, tensor)])
    # present slots in the plan's declared free order
    if tuple(sig) != plan.free:
        positions = {index.name: p for p, index in enumerate(sig)}
        tensor = transpose(tensor, tuple(positions[index.name] for index in plan.free))
    return tensor


_ASSIGN = re.compile(r"^\s*(?P<name>[A-Za-z][A-Za-z0-9]*)"
                     r"\s*(?:\[(?P<indices>[^\]]*)\])?\s*=(?P<rhs>.*)$")


def parse_program(src: str,
                  ) -> list[tuple[int, str, tuple[Index, ...], ExpressionPlan]]:
    """Lines of ``Name[indices] = expr``; ``#`` comments and blanks skipped.

    Each assignment comes with its one-based line number in ``src``.
    """
    out = []
    for lineno, raw in enumerate(src.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        match = _ASSIGN.match(text)
        if match is None:
            raise ExpressionSyntaxError("expected 'Name[indices] = expression'",
                                        0, lineno)
        indices_src = match.group("indices")
        lhs: tuple[Index, ...] = ()
        if indices_src:
            parser = _Parser(indices_src, lineno)
            indices = [parser.parse_index()]
            while parser._peek() is not None:
                parser._expect(",")
                indices.append(parser.parse_index())
            lhs = tuple(indices)
        names = [i.name for i in lhs]
        if len(set(names)) != len(names):
            raise ExpressionSyntaxError("repeated index on the left-hand side",
                                        0, lineno)
        plan = parse(match.group("rhs"), line=lineno)
        if {(i.name, i.variance) for i in lhs} != {(i.name, i.variance) for i in plan.free}:
            raise IndexUsageError(
                f"line {lineno}: left-hand indices {[str(i) for i in lhs]} do not "
                f"match the free indices {[str(i) for i in plan.free]}")
        out.append((lineno, match.group("name"), lhs, plan))
    return out

