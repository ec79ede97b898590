"""Propositional formulas: AST, parser, printer and packed truth tables.

Grammar (whitespace insensitive, ``#`` starts a line comment)::

    formula := iff
    iff     := imp ("<->" imp)*          left associative
    imp     := or ("->" or)*             right associative
    or      := and ("|" and)*            left associative
    and     := unary ("&" unary)*        left associative
    unary   := "~" unary | "(" formula ")" | "true" | "false" | ATOM
    ATOM    := IDENT [ "(" IDENT ("," IDENT)* ")" ]

Ground atoms such as ``flies(tweety)`` are opaque names; no term structure
is modelled.

The parser checks a text with one regex scan, splits it into token strings
with one ``findall`` and builds the tree in one operator-precedence loop; a
text that is one identifier (a name on an ``atoms:`` line, a program atom,
a single-atom default) takes one regex match instead. A shared name -> Atom
dict gives one Atom per name and the names in first-mention order.

Two walks visit a formula, each on its own explicit stack, so nesting
depth is limited by memory, not by the recursion limit. ``postorder``
lists the tree; ``==``, ``hash``, ``theory.ground``, ``to_text`` and
``atoms`` run that list. ``truth_mask`` keeps its own fused loop, the one
walk the benchmark times on a hot path (``transform-wide``): a generic
evaluator over ``postorder``'s list ran 1.7-2.0x slower than it on the
transform outputs of 8- and 10-default chains. Printing is no hot path:
``to_text`` takes about 1.5% of a traced ``verify-small`` pass, and none of
``query-dense``. A transform's outputs share subtrees, but they are
printed and valued by the transform's own recurrence
(``theory.nest_values``) over their sources, so no walk here keeps values
across formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ParseError, UniverseError, ValidationError


class Formula:
    """Immutable AST node, compared and hashed by its ``postorder`` list.

    Each node type keeps its fields in ``__slots__``; ``__init__`` fills them
    through the slot descriptors, and assignment raises AttributeError.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __str__(self) -> str:
        return to_text(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or postorder(self) == postorder(other)

    def __hash__(self) -> int:
        return hash(tuple(postorder(self)))


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


class Const(Formula):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: bool):
        _set_value(self, value)


class Not(Formula):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set_arg(self, arg)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)


_set_name, _set_value, _set_arg = Atom.name.__set__, Const.value.__set__, Not.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


TRUE = Const(True)
FALSE = Const(False)


IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A label: an identifier, or a ground schema instance such as e1[tweety],
# which the transform's output labels extend, as in w_e1[tweety]_11.
LABEL_RE = re.compile(rf"{IDENT}(?:\[{IDENT}(?:,{IDENT})*\][A-Za-z0-9_]*)?")
VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")

# Operator tokens; every other token is an IDENT. The lookaheads split a text
# into tokens one way only, so a failed scan does not backtrack.
_OPERATORS = dict.fromkeys(("<->", "->", "~", "&", "|", "(", ")", ","))
_SKIP = r"\s|#[^\n]*(?![^\n])"
_TOKEN = "|".join(map(re.escape, _OPERATORS)) + f"|{IDENT}(?![A-Za-z0-9_])"
# One token after any whitespace and comments; the end of the text reads as "".
_TOKEN_RE = re.compile(rf"(?:{_SKIP})*(?:({_TOKEN})|\Z)")
# The longest prefix made of whitespace, comments and tokens only.
_TOKENS_RE = re.compile(rf"(?:{_SKIP}|{_TOKEN})*")
# A text that is one identifier, which the parser reads as an atom or constant.
_ONE_NAME_RE = re.compile(rf"\s*({IDENT})\s*")

# Pending operators: binding strength, the strength from which the operators
# before it are applied ("->" is right associative), node type. "(", "~" and
# the bottom of the stack sit below every binary operator.
_BINARY = {"<->": (1, 1, Iff), "->": (2, 3, Implies), "|": (3, 3, Or), "&": (4, 4, And)}
_OPEN, _NOT, _BOTTOM = (-1, -1, "("), (-1, -1, Not), (-1, -1, None)
_PREFIX = {"(": _OPEN, "~": _NOT}
_CONSTANTS = {"true": TRUE, "false": FALSE}


def _syntax_error(text: str, k: int, expected: str | None) -> ParseError:
    # Error path only: token ``k`` is not ``expected`` (None: not expected at all).
    m = list(_TOKEN_RE.finditer(text))[k]
    tok, offset = m.group(1), m.start(1) if m.group(1) else len(text)
    if expected is None:
        return ParseError(f"unexpected {tok!r} after formula", offset=offset)
    return ParseError(f"expected {expected}, found {tok or 'end of input'!r}", offset=offset)


def parse_formula(text: str, names: dict[str, Atom] | None = None) -> Formula:
    """Parse ``text`` into a Formula; raises ParseError with a byte offset.

    An atom name found in ``names`` is read as its Atom, and a new one is
    added, so formulas parsed with one dict share one Atom per name and
    its keys come out in first-mention order.
    """
    names = {} if names is None else names
    if m := _ONE_NAME_RE.fullmatch(text):
        tok = m.group(1)
        if (g := _CONSTANTS.get(tok) or names.get(tok)) is None:
            g = names[tok] = Atom(tok)
        return g
    if (pos := _TOKENS_RE.match(text).end()) < len(text):  # an unknown character wins over any syntax error
        raise ParseError(f"unknown token {text[pos]!r}", offset=pos)
    tokens = _TOKEN_RE.findall(text)
    operands: list[Formula] = []
    pending = [_BOTTOM]
    k = 0  # the next token
    while True:
        # Operand position: prefix operators, then one atom or constant.
        tok = tokens[k]
        k += 1
        if p := _PREFIX.get(tok):
            pending.append(p)
            continue
        if not tok or tok in _OPERATORS:
            raise _syntax_error(text, k - 1, "a formula")
        g = _CONSTANTS.get(tok)
        if g is None:
            if tokens[k] == "(":
                args = []
                while True:
                    arg = tokens[k + 1]
                    if not arg or arg in _OPERATORS:
                        raise _syntax_error(text, k + 1, "an identifier")
                    args.append(arg)
                    k += 2
                    if tokens[k] != ",":
                        break
                if tokens[k] != ")":
                    raise _syntax_error(text, k, "')'")
                k += 1
                tok = f"{tok}({','.join(args)})"
            g = names.get(tok)
            if g is None:
                g = names[tok] = Atom(tok)
        operands.append(g)
        # Operator position: closing parentheses, then a binary operator or the end.
        while True:
            while pending[-1] is _NOT:
                pending.pop()
                operands[-1] = Not(operands[-1])
            tok = tokens[k]
            k += 1
            op = _BINARY.get(tok)
            strength = op[1] if op else 0
            while pending[-1][0] >= strength:
                right = operands.pop()
                operands[-1] = pending.pop()[2](operands[-1], right)
            if op:
                pending.append(op)
                break
            if pending[-1] is _OPEN:
                if tok != ")":
                    raise _syntax_error(text, k - 1, "')'")
                pending.pop()
            elif tok:
                raise _syntax_error(text, k - 1, None)
            else:
                return operands[0]


def parse_atom(text: str, names: dict[str, Atom]) -> Atom | None:
    """``text`` read as a formula, as in ``parse_formula``, if it is one
    atom; None for any other text. Theory files and programs name their
    atoms through it, so atoms have one grammar."""
    try:
        g = parse_formula(text, names)
    except ParseError:
        return None
    return g if type(g) is Atom else None


_BINARY_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_PENDING = object()


def postorder(f: Formula) -> list:
    """``f`` in post order: an atom name or a constant's bool is a leaf,
    ``Not`` negates the value on top, a binary node type combines the top
    two. Two formulas are equal exactly when their lists are."""
    program, todo = [], [f]
    while todo:  # pre order with the right operand first: reversed, it is the post order
        g = todo.pop()
        t = type(g)
        if t is Atom or t is Const:
            program.append(g.name if t is Atom else g.value)
        elif t is Not or t in _BINARY_OPS:
            program.append(t)
            todo += (g.arg,) if t is Not else (g.left, g.right)
        else:
            raise TypeError(f"not a formula: {g!r}")
    program.reverse()
    return program


def to_text(f: Formula) -> str:
    """Fully parenthesized text form; ``parse_formula`` round-trips it.

    Runs ``postorder``'s list on a stack of texts."""
    texts: list[str] = []
    for x in postorder(f):
        if type(x) is str:
            texts.append(x)
        elif x is Not:
            texts[-1] = "~" + texts[-1]
        elif x in _BINARY_OPS:
            right = texts.pop()
            texts[-1] = f"({texts[-1]} {_BINARY_OPS[x]} {right})"
        else:
            texts.append("true" if x else "false")
    return texts[0]


def atoms(*formulas: Formula) -> tuple[str, ...]:
    """Atom names of ``formulas`` in first-mention order: the string
    leaves of their ``postorder`` lists."""
    return tuple(dict.fromkeys(x for f in formulas for x in postorder(f) if type(x) is str))


@dataclass(frozen=True)
class Interpretation:
    """Total truth assignment over an ordered atom universe.

    Bit convention: the interpretation with index ``i`` assigns atom ``k``
    of the universe the value of bit ``k`` of ``i``.
    """

    universe: tuple[str, ...]
    values: tuple[bool, ...]

    def __post_init__(self):
        if len(self.universe) != len(self.values):
            raise UniverseError("universe and value tuple differ in length")
        if len(set(self.universe)) != len(self.universe):
            raise UniverseError("universe contains a duplicate atom")

    @property
    def index(self) -> int:
        return sum(1 << k for k, v in enumerate(self.values) if v)

    @classmethod
    def from_index(cls, universe: Iterable[str], index: int) -> "Interpretation":
        names = tuple(universe)
        return cls(names, tuple(bool((index >> k) & 1) for k in range(len(names))))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending, in one linear scan."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


@lru_cache(maxsize=4)
def _columns(universe: tuple[str, ...]) -> tuple[dict[str, int], int]:
    # Column k holds atom k's truth values across all 2^n interpretation
    # indices, built by doubling so construction is O(n^2) bigint ops; with
    # them comes the all-true mask of 2^n ones. Cached per universe: the
    # returned dict is shared and read-only.
    if len(set(universe)) != len(universe):
        raise ValidationError("universe contains a duplicate atom")
    cols: dict[str, int] = {}
    width = 1
    for name in universe:
        for a in cols:
            cols[a] |= cols[a] << width
        cols[name] = ((1 << width) - 1) << width
        width <<= 1
    return cols, (1 << width) - 1


def truth_mask(f: Formula, universe: Iterable[str]) -> int:
    """Truth table of ``f`` packed into an int: bit i = value under index i.

    One explicit-stack loop with no callbacks: a frame is a connective
    with the value of its left operand, or ``_PENDING`` while that is still
    being computed, and a literal left operand (an atom, a negated atom or
    a constant) is valued on the way down. A right-nested spine such as a
    transform output costs one push and one pop per connective.
    """
    cols, full = _columns(tuple(universe))
    stack: list[tuple[Formula, int | object]] = []
    g = f
    try:
        while True:
            # Down: value ``g``, pushing one frame per connective left to combine.
            while True:
                t = type(g)
                if t is And or t is Or or t is Implies or t is Iff:
                    a = g.left
                    u = type(a)
                    if u is Atom:
                        stack.append((g, cols[a.name]))
                    elif u is Not and type(a.arg) is Atom:
                        stack.append((g, full ^ cols[a.arg.name]))
                    elif u is Const:
                        stack.append((g, full if a.value else 0))
                    else:
                        stack.append((g, _PENDING))
                        g = a
                        continue
                    g = g.right
                elif t is Atom:
                    v = cols[g.name]
                    break
                elif t is Not:
                    stack.append((g, _PENDING))
                    g = g.arg
                elif t is Const:
                    v = full if g.value else 0
                    break
                else:
                    raise TypeError(f"not a formula: {g!r}")
            # Up: ``v`` is the last operand of the top frame; combine it.
            while stack:
                g, left = stack.pop()
                t = type(g)
                if t is Not:
                    v ^= full
                elif left is _PENDING:  # ``v`` is the left operand; go right
                    stack.append((g, v))
                    g = g.right
                    break
                elif t is And:
                    v &= left
                elif t is Or:
                    v |= left
                elif t is Implies:
                    v |= full ^ left
                else:
                    v ^= full ^ left
            else:
                return v
    except KeyError as e:  # only column lookups raise it
        raise UniverseError(f"atom {e.args[0]!r} not in universe") from None
