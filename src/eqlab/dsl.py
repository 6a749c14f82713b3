"""Einstein-notation expression language over tensor fields.

Formulas are entered as text, e.g.::

    d(Gamma[^i,_j,_m],_n) - d(Gamma[^i,_j,_n],_m)
      + Gamma[^a,_j,_m]*Gamma[^i,_a,_n] - Gamma[^a,_j,_n]*Gamma[^i,_a,_m]

Variance is explicit (``^`` upper, ``_`` lower), a repeated name with
opposite variance contracts, and ``d(expr, _k)`` is the comma derivative,
which appends one covariant slot.  The parser enforces the index
discipline up front: a name appears once (free) or exactly twice with
opposite variance (bound), and all summands must expose the same free
names with the same variances.  Its signature also fixes every slot
order the evaluator uses: a product's free indices come in the order
they are first written, a derivative's slot after its operand's, and a
sum's in its first summand's order.  A summand that is a bare tensor
reference must list its indices in the sum's slot order, since the
written order is the tensor's storage order; composite summands
(products, derivatives) have no storage order and are aligned by index
name, so ``d(Gamma[^i,_j,_n],_m)`` lands in the (i, j, m, n) slot order
of the surrounding sum.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .tensors import (
    DOWN,
    UP,
    TensorField,
    gradient,
    tensor_contract,
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


class Index(NamedTuple):
    variance: str
    name: str

    def __str__(self) -> str:
        return ("^" if self.variance == UP else "_") + self.name


class Literal(NamedTuple):
    value: Fraction


class Ref(NamedTuple):
    name: str
    indices: tuple[Index, ...]


class Product(NamedTuple):
    factors: tuple


class Sum(NamedTuple):
    # (sign, node) pairs; the grammar guarantees the first sign is +1
    terms: tuple


class Derivative(NamedTuple):
    operand: object
    index: Index


class ExpressionPlan(NamedTuple):
    root: object
    free: tuple[Index, ...]


# Deepest nesting of parentheses and derivatives a formula may have; the
# parser and the evaluator recurse once per level.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>[0-9]+)"
                    r"|(?P<punct>[\^_\[\](),+\-*/=]))")


def _tokenize(src: str, line: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", at, line)
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
        self.depth = 0

    def _peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def _expect(self, *kinds: str):
        """The next token, which must be of one of ``kinds``; at the end of
        the input the error names what was wanted there."""
        token = self._peek()
        wanted = " or ".join(map(repr, kinds))
        if token is None:
            raise ExpressionSyntaxError(f"expected {wanted}", len(self.src), self.line)
        if token[0] not in kinds:
            raise ExpressionSyntaxError(f"expected {wanted}, got {token[1]!r}",
                                        token[2], self.line)
        self.at += 1
        return token

    def _nested_expr(self, position: int):
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError(
                f"nested deeper than {MAX_NESTING} levels", position, self.line)
        self.depth += 1
        inner = self.parse_expr()
        self.depth -= 1
        return inner

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
            value = Fraction(self._integer(token))
            if (nxt := self._peek()) is not None and nxt[0] == "/":
                self.at += 1
                den = self._expect("int")
                if self._integer(den) == 0:
                    raise ExpressionSyntaxError("zero denominator", den[2], self.line)
                value = Fraction(self._integer(token), self._integer(den))
            return Literal(value)
        if kind == "(":
            self.at += 1
            inner = self._nested_expr(pos)
            self._expect(")")
            return inner
        if kind == "name":
            follower = self.tokens[self.at + 1] if self.at + 1 < len(self.tokens) else None
            if text == "d" and follower is not None and follower[0] == "(":
                self.at += 2
                operand = self._nested_expr(pos)
                self._expect(",")
                index = self.parse_index()
                self._expect(")")
                return Derivative(operand, index)
            return self.parse_ref()
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos, self.line)

    def _integer(self, token) -> int:
        """An integer literal's value; one past the interpreter's digit
        limit is refused at its column."""
        try:
            return int(token[1])
        except ValueError:
            raise ExpressionSyntaxError(
                f"an integer literal has {len(token[1])} digits, more than the "
                f"limit of {sys.get_int_max_str_digits()}", token[2], self.line) from None

    def parse_ref(self) -> Ref:
        """``Name``, ``Name[]`` or ``Name[^i,_j]``; the first two are rank 0."""
        name = self._expect("name")[1]
        indices = []
        if (nxt := self._peek()) is not None and nxt[0] == "[":
            self.at += 1
            if (nxt := self._peek()) is None or nxt[0] != "]":
                indices.append(self.parse_index())
                while (nxt := self._peek()) is not None and nxt[0] == ",":
                    self.at += 1
                    indices.append(self.parse_index())
            self._expect("]")
        return Ref(name, tuple(indices))

    def parse_index(self) -> Index:
        token = self._expect("^", "_")
        name = self._expect("name")
        return Index(UP if token[0] == "^" else DOWN, name[1])

    def parse_plan(self) -> ExpressionPlan:
        """The rest of the input as one expression, with its free indices."""
        root = self.parse_expr()
        if (token := self._peek()) is not None:
            raise ExpressionSyntaxError(f"trailing input {token[1]!r}", token[2], self.line)
        return ExpressionPlan(root, _signature(root)[0])


def _product_signature(parts) -> tuple[tuple[Index, ...], tuple[str, ...]]:
    """Ordered free indices and used names of a product of parts, each
    given as its own ``(free indices, used names)``: a name is free once
    or bound by two opposite variances, and never appears a third time.
    Names are checked, and listed, in the order they are written."""
    free: list[Index] = []
    used: dict[str, None] = {}
    for sig, part_used in parts:
        free_names = {i.name for i in free}
        for name in part_used:
            if name in used and name not in free_names:
                raise IndexUsageError(f"index {name!r} appears more than twice")
        part_free = {i.name for i in sig}
        for name in part_used:
            if name not in part_free and name in free_names:
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
        used.update(dict.fromkeys(part_used))
    return tuple(free), tuple(used)


def _signature(node, orders=None) -> tuple[tuple[Index, ...], tuple[str, ...]]:
    """Ordered free indices and the names used beneath node, in the order
    written.  A reference is the product of its single indices.  ``orders``,
    if given, maps the ``id`` of every node walked to its free indices."""
    if isinstance(node, Literal):
        result = (), ()
    elif isinstance(node, Ref):
        result = _product_signature([((i,), (i.name,)) for i in node.indices])
    elif isinstance(node, Product):
        result = _product_signature([_signature(f, orders) for f in node.factors])
    elif isinstance(node, Derivative):
        result = _product_signature(
            [_signature(node.operand, orders), ((node.index,), (node.index.name,))])
    elif isinstance(node, Sum):
        first_sig, first_used = _signature(node.terms[0][1], orders)
        used = dict.fromkeys(first_used)
        variances = {i.name: i.variance for i in first_sig}
        for _, term in node.terms[1:]:
            sig, term_used = _signature(term, orders)
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
            used.update(dict.fromkeys(term_used))
        result = first_sig, tuple(used)
    else:
        raise TypeError(f"unknown node {node!r}")
    if orders is not None:
        orders[id(node)] = result[0]
    return result


def parse(src: str) -> ExpressionPlan:
    return _Parser(src).parse_plan()


def lowest_order(bindings: dict) -> int | None:
    """The lowest jet order among ``bindings``, None when there are none."""
    return min((t.order for t in bindings.values()), default=None)


class _Context:
    def __init__(self, bindings: dict, differentiate_at: int | None):
        dims = {t.dim for t in bindings.values()}
        if len(dims) > 1:
            raise EvaluationError("bindings disagree on dimension")
        self.bindings = bindings
        self.dim = dims.pop() if dims else None
        self.order = lowest_order(bindings)
        self.differentiate_at = (self.order if differentiate_at is None
                                 else differentiate_at)
        self.orders: dict = {}  # each node's free indices, as _signature walks them

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


def _fold(parts, free: tuple[Index, ...]) -> TensorField:
    """The product of ``parts``, each a ``(tensor, written indices)``, with
    its slots in the order ``free``.  Parts are multiplied left to right;
    each partial product keeps the free indices ``_product_signature``
    gives it, and the last writes ``free``.  A lone part is transposed,
    unless a name repeats in it: then it is multiplied by the constant 1."""
    if len(parts) == 1:
        tensor, sig = parts[0]
        positions = {index.name: p for p, index in enumerate(sig)}
        if len(positions) == len(sig):
            return tensor if sig == free else transpose(
                tensor, [positions[index.name] for index in free])
        parts = [(TensorField.scalar(tensor.dim, tensor.order, 1), ()), *parts]
    tensor, sig = parts[0]
    for k, (other, other_sig) in enumerate(parts[1:], start=2):
        out = free if k == len(parts) else _product_signature(
            [(sig, ()), (other_sig, ())])[0]
        names = list(dict.fromkeys(i.name for i in (*sig, *other_sig)))
        left, right, result = ("".join(chr(65 + names.index(i.name)) for i in s)
                               for s in (sig, other_sig, out))
        tensor, sig = tensor_contract(f"{left},{right}->{result}", tensor, other), out
    return tensor


def _evaluate(node, ctx: _Context, free: tuple[Index, ...]):
    """Returns (tensor or None, rational multiplier), the tensor's slots
    in the order ``free``: the node's signature, or a permutation of it."""
    if isinstance(node, Literal):
        return None, node.value
    if isinstance(node, Ref):
        tensor = ctx.lookup(node.name)
        if tensor.valence != tuple(i.variance for i in node.indices):
            raise EvaluationError(
                f"{node.name!r} is bound to valence {tensor.valence}, "
                f"referenced as {tuple(i.variance for i in node.indices)}")
        return _fold([(tensor, node.indices)], free), Fraction(1)
    if isinstance(node, Product):
        scale = Fraction(1)
        parts = []
        for factor in node.factors:
            sig = ctx.orders[id(factor)]
            tensor, f_scale = _evaluate(factor, ctx, sig)
            scale *= f_scale
            if tensor is not None:
                parts.append((tensor, sig))
        return (_fold(parts, free) if parts else None), scale
    if isinstance(node, Sum):
        sig = ctx.orders[id(node)]
        terms: list[tuple[Fraction, TensorField]] = []
        pending = Fraction(0)
        for sign, term in node.terms:
            tensor, scale = _evaluate(term, ctx, sig)
            if tensor is None:
                pending += sign * scale
            else:
                terms.append((sign * scale, tensor))
        if not terms:
            return None, pending
        if pending:
            # the parser admits a bare rational only among rank-0 summands
            order = min(tensor.order for _, tensor in terms)
            terms.append((pending, TensorField.scalar(terms[0][1].dim, order, 1)))
        return _fold([(tensor_lincomb(terms), sig)], free), Fraction(1)
    if isinstance(node, Derivative):
        sig = ctx.orders[id(node.operand)]
        tensor, scale = _evaluate(node.operand, ctx, sig)
        if tensor is None:
            # derivative of a constant: the constant at ``differentiate_at``
            # (with no bindings, the dim check fails first)
            tensor = TensorField.scalar(ctx.require_dim(),
                                        ctx.differentiate_at, scale)
            scale = Fraction(1)
        return _fold([(gradient(tensor), (*sig, node.index))], free), scale
    raise TypeError(f"unknown node {node!r}")


def evaluate(plan: ExpressionPlan, bindings: dict,
             differentiate_at: int | None = None) -> TensorField:
    """The plan's value with its slots in the order of ``plan.free``.

    Dimension and jet order come from the bindings: the shared dimension,
    and the lowest order, which constants and ``delta`` take.  A constant
    is differentiated at ``differentiate_at`` when it is given, else at
    that lowest order.  A plan that reads no tensor still needs one
    binding to fix them."""
    ctx = _Context(dict(bindings), differentiate_at)
    _signature(plan.root, ctx.orders)
    tensor, scale = _evaluate(plan.root, ctx, plan.free)
    if tensor is None:
        return TensorField.scalar(ctx.require_dim(), ctx.require_order(), scale)
    return tensor_lincomb([(scale, tensor)])


def parse_program(src: str) -> list[tuple[int, str, ExpressionPlan]]:
    """Lines of ``Name[indices] = expr``; ``#`` comments and blanks skipped.

    Each assignment comes as its one-based line number in ``src``, its
    name and its plan; error positions are columns in the line.  The
    target is a reference (``S``, ``S[]`` or ``S[^i,_j]``) whose indices
    are the free indices of the right-hand side, in any order; the plan
    lists them in the target's order, so ``evaluate`` lays the slots out
    as written there.
    """
    out = []
    for lineno, raw in enumerate(src.splitlines(), start=1):
        text = raw.split("#", 1)[0]
        if not text.strip():
            continue
        parser = _Parser(text, lineno)
        name, lhs = parser.parse_ref()
        names = [i.name for i in lhs]
        if len(set(names)) != len(names):
            raise ExpressionSyntaxError("repeated index on the left-hand side",
                                        parser.tokens[0][2], lineno)
        parser._expect("=")
        try:
            plan = parser.parse_plan()
        except IndexUsageError as exc:
            raise IndexUsageError(f"line {lineno}: {exc}") from None
        if {(i.name, i.variance) for i in lhs} != {(i.name, i.variance) for i in plan.free}:
            raise IndexUsageError(
                f"line {lineno}: left-hand indices {[str(i) for i in lhs]} do not "
                f"match the free indices {[str(i) for i in plan.free]}")
        out.append((lineno, name, ExpressionPlan(plan.root, lhs)))
    return out
