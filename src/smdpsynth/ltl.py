"""Linear temporal logic formulas: AST, parser, printer, negation normal form.

Formulas are immutable and hashable. The concrete grammar (tightest first):

    unary  >  U  >  &  >  |  >  ->

with U and -> right-associative, & and | left-associative. Atoms are lowercase
identifiers ([a-z][a-z0-9_]*); `true` and `false` are reserved constants.
`R` (release) is not part of the grammar; it only appears in normal forms as
the dual of `U` and prints through that dual.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import LtlSyntaxError, UnknownToken

KIND_TRUE = "true"
KIND_FALSE = "false"
KIND_ATOM = "atom"
KIND_NOT = "not"
KIND_AND = "and"
KIND_OR = "or"
KIND_IMPLIES = "implies"
KIND_NEXT = "next"
KIND_UNTIL = "until"
KIND_RELEASE = "release"
KIND_EVENTUALLY = "eventually"
KIND_GLOBALLY = "globally"

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class Formula:
    """A temporal formula node. Use the module constructors, not this directly."""

    kind: str
    children: tuple = ()
    name: str = field(default="", compare=True)

    def __str__(self):
        return format_formula(self)


TRUE = Formula(KIND_TRUE)
FALSE = Formula(KIND_FALSE)


def atom(name: str) -> Formula:
    if not _ATOM_RE.fullmatch(name) or name in (KIND_TRUE, KIND_FALSE):
        raise ValueError(f"bad atom name: {name!r}")
    return Formula(KIND_ATOM, name=name)


def lnot(f: Formula) -> Formula:
    return Formula(KIND_NOT, (f,))


def land(a: Formula, b: Formula) -> Formula:
    return Formula(KIND_AND, (a, b))


def lor(a: Formula, b: Formula) -> Formula:
    return Formula(KIND_OR, (a, b))


def implies(a: Formula, b: Formula) -> Formula:
    return Formula(KIND_IMPLIES, (a, b))


def nxt(f: Formula) -> Formula:
    return Formula(KIND_NEXT, (f,))


def until(a: Formula, b: Formula) -> Formula:
    return Formula(KIND_UNTIL, (a, b))


def release(a: Formula, b: Formula) -> Formula:
    return Formula(KIND_RELEASE, (a, b))


def eventually(f: Formula) -> Formula:
    return Formula(KIND_EVENTUALLY, (f,))


def globally(f: Formula) -> Formula:
    return Formula(KIND_GLOBALLY, (f,))


def atoms_of(f: Formula) -> tuple:
    """Sorted tuple of atom names occurring in f."""
    names = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == KIND_ATOM:
            names.add(g.name)
        stack.extend(g.children)
    return tuple(sorted(names))


def subformulas_of_kind(f: Formula, kind: str) -> list:
    """All distinct subformulas of the given kind, in first-visit order."""
    seen = set()
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == kind and g not in seen:
            seen.add(g)
            out.append(g)
        stack.extend(reversed(g.children))
    return out


# --- lexer / parser ---------------------------------------------------------

_T_ATOM = "ATOM"
_T_CONST = "CONST"
_T_UNOP = "UNOP"      # ! X F G
_T_UNTIL = "U"
_T_AND = "&"
_T_OR = "|"
_T_IMPL = "->"
_T_LP = "("
_T_RP = ")"
_T_EOF = "EOF"


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "(":
            toks.append((_T_LP, c, i))
            i += 1
        elif c == ")":
            toks.append((_T_RP, c, i))
            i += 1
        elif c == "!":
            toks.append((_T_UNOP, "!", i))
            i += 1
        elif c == "&":
            toks.append((_T_AND, c, i))
            i += 1
        elif c == "|":
            toks.append((_T_OR, c, i))
            i += 1
        elif c == "-":
            if text.startswith("->", i):
                toks.append((_T_IMPL, "->", i))
                i += 2
            else:
                raise UnknownToken(f"unexpected character {c!r}", i)
        elif c in "XFG":
            toks.append((_T_UNOP, c, i))
            i += 1
        elif c == "U":
            toks.append((_T_UNTIL, c, i))
            i += 1
        elif c.islower():
            m = _ATOM_RE.match(text, i)
            word = m.group(0)
            if word in (KIND_TRUE, KIND_FALSE):
                toks.append((_T_CONST, word, i))
            else:
                toks.append((_T_ATOM, word, i))
            i = m.end()
        else:
            raise UnknownToken(f"unexpected character {c!r}", i)
    toks.append((_T_EOF, "", n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.take()
        if t[0] != kind:
            raise LtlSyntaxError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse_formula(self):
        left = self.parse_or()
        if self.peek()[0] == _T_IMPL:
            self.take()
            right = self.parse_formula()   # right-associative
            return implies(left, right)
        return left

    def parse_or(self):
        f = self.parse_and()
        while self.peek()[0] == _T_OR:
            self.take()
            f = lor(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_until()
        while self.peek()[0] == _T_AND:
            self.take()
            f = land(f, self.parse_until())
        return f

    def parse_until(self):
        left = self.parse_unary()
        if self.peek()[0] == _T_UNTIL:
            self.take()
            right = self.parse_until()     # right-associative
            return until(left, right)
        return left

    def parse_unary(self):
        t = self.peek()
        if t[0] == _T_UNOP:
            self.take()
            child = self.parse_unary()
            op = t[1]
            if op == "!":
                return lnot(child)
            if op == "X":
                return nxt(child)
            if op == "F":
                return eventually(child)
            return globally(child)
        if t[0] == _T_ATOM:
            self.take()
            return atom(t[1])
        if t[0] == _T_CONST:
            self.take()
            return TRUE if t[1] == KIND_TRUE else FALSE
        if t[0] == _T_LP:
            self.take()
            f = self.parse_formula()
            self.expect(_T_RP)
            return f
        raise LtlSyntaxError(f"unexpected token {t[1]!r}" if t[1] else "unexpected end of input", t[2])


def parse_ltl(text: str) -> Formula:
    """Parse a formula; raises LtlSyntaxError/UnknownToken with a byte offset."""
    p = _Parser(_tokenize(text))
    f = p.parse_formula()
    t = p.peek()
    if t[0] != _T_EOF:
        raise LtlSyntaxError(f"trailing input {t[1]!r}", t[2])
    return f


# --- printer ----------------------------------------------------------------

_LEVEL = {
    KIND_IMPLIES: 1,
    KIND_OR: 2,
    KIND_AND: 3,
    KIND_UNTIL: 4,
    KIND_RELEASE: 4,
    KIND_NOT: 5,
    KIND_NEXT: 5,
    KIND_EVENTUALLY: 5,
    KIND_GLOBALLY: 5,
    KIND_TRUE: 6,
    KIND_FALSE: 6,
    KIND_ATOM: 6,
}

_UNARY_SYM = {KIND_NOT: "!", KIND_NEXT: "X", KIND_EVENTUALLY: "F", KIND_GLOBALLY: "G"}


def format_formula(f: Formula) -> str:
    """Canonical text form; parse(format(f)) == f for grammar formulas.

    Release has no surface syntax and prints through its until dual, so
    formulas containing it reparse to an equivalent but not identical tree.
    """
    return _fmt(f, 0)


def _fmt(f, floor):
    lvl = _LEVEL[f.kind]
    if f.kind == KIND_ATOM:
        s = f.name
    elif f.kind in (KIND_TRUE, KIND_FALSE):
        s = f.kind
    elif f.kind in _UNARY_SYM:
        sym = _UNARY_SYM[f.kind]
        child = _fmt(f.children[0], 5)
        s = "!" + child if sym == "!" else f"{sym} {child}"
    elif f.kind == KIND_RELEASE:
        a, b = f.children
        s = f"!((!({_fmt(a, 0)})) U (!({_fmt(b, 0)})))"
        return s if lvl >= floor else f"({s})"
    else:
        a, b = f.children
        if f.kind == KIND_UNTIL:
            s = f"{_fmt(a, 5)} U {_fmt(b, 4)}"
        elif f.kind == KIND_AND:
            s = f"{_fmt(a, 3)} & {_fmt(b, 4)}"
        elif f.kind == KIND_OR:
            s = f"{_fmt(a, 2)} | {_fmt(b, 3)}"
        else:
            s = f"{_fmt(a, 2)} -> {_fmt(b, 1)}"
    if lvl < floor:
        return f"({s})"
    return s


# --- negation normal form ---------------------------------------------------

def to_nnf(f: Formula) -> Formula:
    """Push negations to atoms; rewrite ->, F, G away.

    The result uses only true/false/atoms/negated atoms/and/or/X/U/R, with
    F p becoming true U p and G p becoming false R p.
    """
    return _nnf(f, False)


def _nnf(f, neg):
    k = f.kind
    if k == KIND_TRUE:
        return FALSE if neg else TRUE
    if k == KIND_FALSE:
        return TRUE if neg else FALSE
    if k == KIND_ATOM:
        return lnot(f) if neg else f
    if k == KIND_NOT:
        return _nnf(f.children[0], not neg)
    if k == KIND_AND:
        a, b = f.children
        return lor(_nnf(a, True), _nnf(b, True)) if neg else land(_nnf(a, False), _nnf(b, False))
    if k == KIND_OR:
        a, b = f.children
        return land(_nnf(a, True), _nnf(b, True)) if neg else lor(_nnf(a, False), _nnf(b, False))
    if k == KIND_IMPLIES:
        a, b = f.children
        return land(_nnf(a, False), _nnf(b, True)) if neg else lor(_nnf(a, True), _nnf(b, False))
    if k == KIND_NEXT:
        return nxt(_nnf(f.children[0], neg))
    if k == KIND_UNTIL:
        a, b = f.children
        return release(_nnf(a, True), _nnf(b, True)) if neg else until(_nnf(a, False), _nnf(b, False))
    if k == KIND_RELEASE:
        a, b = f.children
        return until(_nnf(a, True), _nnf(b, True)) if neg else release(_nnf(a, False), _nnf(b, False))
    if k == KIND_EVENTUALLY:
        c = f.children[0]
        return release(FALSE, _nnf(c, True)) if neg else until(TRUE, _nnf(c, False))
    if k == KIND_GLOBALLY:
        c = f.children[0]
        return until(TRUE, _nnf(c, True)) if neg else release(FALSE, _nnf(c, False))
    raise ValueError(f"unknown formula kind {k!r}")

