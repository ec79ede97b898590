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
evaluator over ``postorder``'s list ran 1.7-2.0x slower than an earlier
push-and-pop form of it on the transform outputs of 8- and 10-default
chains. The loop now folds right spines top-down, in ``keep`` and ``got``
masks, so a transform output pushes no frame at all; the README gives its
figures. Printing is no hot path:
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


@lru_cache(maxsize=64)
def _columns(universe: tuple[str, ...]) -> tuple[dict[str, int], dict[str, int], int]:
    # Each atom's column and negated column, and the all-true mask, as
    # ``_columns_of_size`` builds them for the universe's size. Cached per
    # universe: the returned dicts are shared and read-only.
    if len(set(universe)) != len(universe):
        raise ValidationError("universe contains a duplicate atom")
    cols, ncols, full = _columns_of_size(len(universe))
    return dict(zip(universe, cols)), dict(zip(universe, ncols)), full


@lru_cache(maxsize=None)
def _columns_of_size(n: int) -> tuple[list[int], list[int], int]:
    # Column k holds atom k's truth values across all 2^n interpretation
    # indices, built by doubling so construction is O(n^2) bigint ops; then
    # the negated columns and the mask of 2^n ones. Built once per size, so
    # the universes of one size share their ints, and all held sizes
    # together take at most twice the bits of the largest.
    cols: list[int] = []
    width = 1
    for _ in range(n):
        cols = [c | c << width for c in cols]
        cols.append(((1 << width) - 1) << width)
        width <<= 1
    full = (1 << width) - 1
    return cols, [full ^ c for c in cols], full


def truth_mask(f: Formula, universe: Iterable[str]) -> int:
    """Truth table of ``f`` packed into an int: bit i = value under index i.

    One explicit-stack loop with no callbacks, which folds right spines on
    the way down. The formula ``g`` of the open frame is worth
    ``value(g) & keep | got``: an ``And`` whose left operand is a literal
    (an atom or a negated atom) narrows ``keep`` to it, an ``Or`` adds
    ``keep & literal`` to ``got``, and the walk goes on into the right
    operand; a leaf closes the frame. Any other left operand, the argument
    of a ``Not`` over a non-atom and the right operand of an ``Iff`` are
    valued in a frame of their own, pushed with the open frame's ``keep``
    and ``got``; a left operand valued so is folded in the same way, an
    ``Implies`` adding ``keep & ~left``. A trivial ``keep`` (all ones) or
    ``got`` (0) costs no bigint operation. So a transform output, a right
    spine of literals, pushes nothing and takes at most two bigint
    operations per connective.
    """
    cols, ncols, full = _columns(tuple(universe))
    stack: list[tuple[Formula | int, int, int]] = []
    keep, got = full, 0
    g = f
    try:
        while True:
            # Down: fold literal left operands until a leaf or a new frame.
            while True:
                t = type(g)
                if t is And:
                    a = g.left
                    u = type(a)
                    if u is Atom or u is Not and type(a.arg) is Atom:
                        v = cols[a.name] if u is Atom else ncols[a.arg.name]
                        keep = v if keep is full else keep & v
                        g = g.right
                        continue
                elif t is Or:
                    a = g.left
                    u = type(a)
                    if u is Atom or u is Not and type(a.arg) is Atom:
                        v = cols[a.name] if u is Atom else ncols[a.arg.name]
                        if keep is not full:
                            v &= keep
                        got = got | v if got else v
                        g = g.right
                        continue
                elif t is Atom:
                    v = cols[g.name]
                    break
                elif t is Not:
                    if type(g.arg) is Atom:
                        v = ncols[g.arg.name]
                        break
                elif t is Const:
                    v = full if g.value else 0
                    break
                elif t is not Implies and t is not Iff:
                    raise TypeError(f"not a formula: {g!r}")
                # A new frame, for the left operand or a Not's argument.
                stack.append((g, keep, got))
                keep, got = full, 0
                g = g.arg if t is Not else g.left
            # Up: ``v`` is the value of the open frame's formula; close frames
            # until one goes on into a right operand.
            while True:
                if keep is not full:
                    v &= keep
                if got:
                    v |= got
                if not stack:
                    return v
                g, keep, got = stack.pop()
                t = type(g)
                if t is Not:
                    v ^= full
                elif t is int:  # ``v`` is the right operand of an Iff whose left is ``g``
                    v ^= full ^ g
                else:  # ``v`` is the left operand of ``g``
                    if t is And:
                        keep = v if keep is full else keep & v
                    elif t is Iff:
                        stack.append((v, keep, got))
                        keep, got = full, 0
                    else:
                        if t is Implies:
                            v ^= full
                        if keep is not full:
                            v &= keep
                        got = got | v if got else v
                    g = g.right
                    break
    except KeyError as e:  # only column lookups raise it
        raise UniverseError(f"atom {e.args[0]!r} not in universe") from None
