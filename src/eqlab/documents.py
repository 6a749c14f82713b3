"""Instance documents: the one module that reads, checks and writes them.

``synth`` writes a header (``dim``, ``kind``, ``seed``, ``order``), the
pair's ``source``, ``mapping`` and ``target``, and a certificate;
``verify --instance`` reads such a pair and ``eval --instance`` a pair or
a bare space.  A stored file is untrusted, and each value in it is read
one way: the file is parsed once, every integer is read exactly by
:func:`json_int`, and every jet block entry by entry, each entry checked
in turn.  Dims and connection orders are capped, a field that does not
load is named by its path, and a missing key or a wrongly typed value is
the file's fault only while it is decoded, not while the pair is checked.
A command imports this module only to read or write a document, and the
module imports a layer only once the values it builds with have loaded.
"""

from __future__ import annotations

import json
import re
import sys
from math import gcd

from .jets import (MAX_DIM, MAX_ORDER, _lex_slots, _placed, basis_size,
                   graded_basis)


def _long_as_text(literal: str):
    """A JSON integer literal, kept as text when it has more digits than
    ``int`` converts, so the loader names the field that holds it."""
    try:
        return int(literal)
    except ValueError:
        return literal


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        doc = json.loads(text, parse_int=_long_as_text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"instance file {path} cannot be decoded: {exc}") \
            from None
    except RecursionError:
        raise ValueError(f"instance file {path} is nested too deeply") \
            from None
    if not isinstance(doc, dict):
        raise ValueError(f"instance file {path} does not hold a JSON object")
    return doc


def read_pair(path: str) -> tuple[int, MappedPair]:
    """The seed and the pair of an instance file."""
    doc = _load_document(path)
    return json_int(doc.get("seed", 0), "the seed"), _pair_from(doc, path)


def read_bindings_source(path: str) -> MappedPair | Space:
    """The pair or the bare space an instance file holds."""
    doc = _load_document(path)
    if "mapping" in doc:
        return _pair_from(doc, path)
    if "gamma" in doc:
        return _decoded(load_space, doc, path)
    raise ValueError(f"instance file {path} holds neither a pair nor a space")


def _decoded(decode, doc: dict, path: str):
    """``decode(doc)``, with a missing key or a value of the wrong type
    restated as the file's fault."""
    try:
        return decode(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"instance file {path} is malformed: {exc}") from None


def _pair_from(doc: dict, path: str) -> MappedPair:
    """The pair a document holds.  The header ``dim``, ``kind`` and
    ``order`` that ``synth`` writes are optional, but one that is present
    must state the pair it heads."""
    pair = _decoded(decode_pair, doc, path)
    pair.validate()
    for field, holder, value in _header(pair):
        if field in doc:
            stated = json_int(doc[field], f"the header {field}")
            if stated != value:
                raise ValueError(f"instance file {path}: header {field} is "
                                 f"{stated}, but {holder} {value}")
    return pair


def _header(pair: MappedPair) -> tuple:
    """The header fields but ``seed``, as (field, what of the pair it
    states, the value it must have)."""
    return (("dim", "the source connection has dim", pair.source.dim),
            ("kind", "the mapping has kind", pair.mapping.kind),
            ("order", "the connections have order", pair.source.gamma.order))


def instance_document(pair: MappedPair, seed: int, certificate: dict) -> dict:
    """What ``synth`` writes: the header, the pair and its certificate."""
    header = {field: value for field, _, value in _header(pair)}
    return {**header, "seed": seed, **pair_json(pair),
            "certificate": certificate}


def pair_json(pair: MappedPair) -> dict:
    return {"source": space_json(pair.source),
            "mapping": mapping_json(pair.mapping),
            "target": space_json(pair.target)}


def decode_pair(obj: dict) -> MappedPair:
    """The pair a document holds, not yet checked."""
    source = load_field("source", load_space, obj["source"])
    mapping = load_field("mapping", load_mapping, obj["mapping"])
    target = load_field("target", load_space, obj["target"])
    from .mapping import MappedPair
    return MappedPair(source, mapping, target)


def mapping_json(m: AG3Mapping) -> dict:
    # mu, a rank-0 field, is written as its one jet
    return {**{name: tensor_json(getattr(m, name))
               for name in ("psi", "sigma", "phi", "nu")},
            "mu": block_json(m.dim, m.mu.order, m.mu.den, m.mu.nums),
            "kind": m.kind}


def load_mapping(obj: dict) -> AG3Mapping:
    fields = {name: load_field(name, load_tensor, obj[name])
              for name in ("psi", "sigma", "phi", "nu")}
    dim, order, den, nums = load_field("mu", load_block, obj["mu"])
    from .mapping import AG3Mapping
    from .tensors import _field
    return AG3Mapping(**fields, mu=_field(dim, (), order, den, nums),
                      kind=json_int(obj["kind"], "the mapping kind"))


def space_json(space: Space) -> dict:
    # the format keeps a metric slot; no space carries one
    return {"dim": space.dim, "gamma": tensor_json(space.gamma),
            "metric": None}


def load_space(obj: dict) -> Space:
    if obj.get("metric") is not None:
        raise ValueError("spaces with a metric are not supported")
    dim = json_dim(obj["dim"], "a space dim")
    gamma = load_field("gamma", load_tensor, obj["gamma"])
    if gamma.order > MAX_ORDER:
        raise FieldError(f"gamma: the connection order is {gamma.order}, "
                         f"above the cap of {MAX_ORDER}")
    from .geometry import Space
    return Space(dim, gamma)


def tensor_json(t: TensorField) -> dict:
    dim, order, den, nums = t.dim, t.order, t.den, t.nums
    size = basis_size(dim, order)
    return {"dim": dim, "valence": list(t.valence),
            "components": [block_json(dim, order, den, nums[i:i + size])
                           for i in range(0, len(nums), size)]}


def load_tensor(obj: dict) -> TensorField:
    dim = json_dim(obj["dim"], "a tensor dim")
    valence = obj["valence"]
    if not isinstance(valence, list):
        raise ValueError(f"a tensor valence must be a list, got {valence!r}")
    blocks = [load_block(c) for c in obj["components"]]
    from .tensors import _assemble, _check_valence, _field
    return _field(*_assemble(dim, _check_valence(valence), blocks))


_DECIMAL = re.compile(r"-?[0-9]+")


def json_int(value, what: str, text: bool = False) -> int:
    """A document's integer, never coerced: a JSON int that is not a bool,
    or a decimal string where ``text`` allows one.  A decimal string with
    more digits than ``int`` converts is rejected by name and limit."""
    if type(value) is int:
        return value
    if type(value) is str and _DECIMAL.fullmatch(value):
        try:
            number = int(value)
        except ValueError:  # past the interpreter's digit limit
            raise ValueError(
                f"{what} has {len(value.lstrip('-'))} digits, more than the "
                f"limit of {sys.get_int_max_str_digits()}") from None
        if text:
            return number
    raise ValueError(f"{what} must be an integer, got {value!r}")


def json_dim(value, what: str) -> int:
    """A document's dim, read before the components it sizes."""
    dim = json_int(value, what)
    if dim > MAX_DIM:
        raise ValueError(f"{what} is {dim}, above the cap of {MAX_DIM}")
    return dim


class FieldError(ValueError):
    """A document field that does not load, named by its path from the top
    of the document: ``mapping psi: <reason>``."""


def load_field(name: str, load, obj):
    """``load(obj)``, with a ``ValueError`` restated to name the field."""
    try:
        return load(obj)
    except FieldError as exc:
        raise FieldError(f"{name} {exc}") from None
    except ValueError as exc:
        raise FieldError(f"{name}: {exc}") from None


def block_json(dim: int, order: int, den: int, nums) -> dict:
    """The document of the jet ``nums / den``: its nonzero coefficients in
    lexicographic order of their multi-indices, each reduced to lowest
    terms as decimal strings."""
    basis = graded_basis(dim, order)
    coeffs = []
    for i in _lex_slots(dim, order):
        n = nums[i]
        if n:
            g = gcd(n, den)
            coeffs.append({"alpha": list(basis[i]), "num": str(n // g),
                           "den": str(den // g)})
    return {"dim": dim, "order": order, "coeffs": coeffs}


def load_block(obj: dict) -> tuple[int, int, int, list[int]]:
    """A jet document as ``(dim, order, den, nums)``: the numerators of
    its coefficients on the graded basis over the lcm of their
    denominators, not yet reduced.

    The entries are read one at a time, each checked in turn, and all of
    them before the dim and the order, which fixes the fault a faulty
    block reports.  A multi-index given twice keeps its last value.  The
    dim is capped at ``MAX_DIM``; the dim, order and multi-indices are
    checked, and the entries placed, by the constructor's own
    :func:`~eqlab.jets._placed`.
    """
    entries: dict[tuple, tuple[int, int]] = {}
    for entry in obj["coeffs"]:
        den = json_int(entry["den"], "a coefficient denominator", text=True)
        if den == 0:
            raise ValueError("jet coefficient has denominator 0")
        num = json_int(entry["num"], "a coefficient numerator", text=True)
        entries[tuple(entry["alpha"])] = (num, den) if den > 0 else (-num, -den)
    dim = json_dim(obj["dim"], "a jet dim")
    order = json_int(obj["order"], "a jet order")
    return dim, order, *_placed(dim, order, entries)
