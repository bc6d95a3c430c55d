"""Parser, printer, and NNF tests for the LTL frontend."""

import numpy as np
import pytest

from smdpsynth import (
    FALSE,
    TRUE,
    LtlSyntaxError,
    UnknownToken,
    atom,
    atoms_of,
    eventually,
    format_formula,
    globally,
    implies,
    land,
    lnot,
    lor,
    nxt,
    parse_ltl,
    release,
    to_nnf,
    until,
)
from smdpsynth.ltl import (
    KIND_AND,
    KIND_ATOM,
    KIND_EVENTUALLY,
    KIND_GLOBALLY,
    KIND_IMPLIES,
    KIND_NOT,
)

from conftest import is_nnf
from oracles import eval_ltl_on_lasso, all_lassos, random_formula

a, b, c = atom("a"), atom("b"), atom("c")


def test_parse_atoms_and_constants():
    assert parse_ltl("a") == a
    assert parse_ltl("true") is TRUE
    assert parse_ltl("false") is FALSE
    assert parse_ltl("abc_9") == atom("abc_9")


def test_parse_running_example_shape():
    f = parse_ltl("G F a & G F b & G !c")
    assert f == land(land(globally(eventually(a)), globally(eventually(b))),
                     globally(lnot(c)))


def test_parse_accepts_not_globally_variant():
    f = parse_ltl("G F a & G F b & !G c")
    assert f.kind == KIND_AND
    assert f.children[1] == lnot(globally(c))


def test_until_right_associative():
    assert parse_ltl("a U b U c") == until(a, until(b, c))
    assert parse_ltl("a U (b U c)") == until(a, until(b, c))
    assert parse_ltl("(a U b) U c") == until(until(a, b), c)


def test_implies_right_associative():
    assert parse_ltl("a -> b -> c") == implies(a, implies(b, c))


def test_and_or_left_associative():
    assert parse_ltl("a & b & c") == land(land(a, b), c)
    assert parse_ltl("a | b | c") == lor(lor(a, b), c)


def test_precedence_ladder():
    # unary > U > & > | > ->
    assert parse_ltl("!a U b") == until(lnot(a), b)
    assert parse_ltl("a U b & c") == land(until(a, b), c)
    assert parse_ltl("a & b | c") == lor(land(a, b), c)
    assert parse_ltl("a | b -> c") == implies(lor(a, b), c)
    assert parse_ltl("X a U G b") == until(nxt(a), globally(b))


def test_unary_stacking():
    assert parse_ltl("G F a") == globally(eventually(a))
    assert parse_ltl("!!a") == lnot(lnot(a))
    assert parse_ltl("X X a") == nxt(nxt(a))


def test_syntax_error_offsets():
    with pytest.raises(LtlSyntaxError) as ei:
        parse_ltl("a &")
    assert ei.value.offset == 3
    with pytest.raises(LtlSyntaxError) as ei:
        parse_ltl("(a | b")
    assert ei.value.offset == 6
    with pytest.raises(LtlSyntaxError) as ei:
        parse_ltl("a b")
    assert ei.value.offset == 2


def test_unknown_token_offset():
    with pytest.raises(UnknownToken) as ei:
        parse_ltl("a & ?b")
    assert ei.value.offset == 4
    with pytest.raises(UnknownToken):
        parse_ltl("a - b")    # lone dash, not an arrow


def test_uppercase_letter_is_not_an_atom():
    with pytest.raises(LtlSyntaxError):
        parse_ltl("A")


def test_atom_constructor_rejects_bad_names():
    for bad in ("", "A", "9a", "a-b", "true", "false"):
        with pytest.raises(ValueError):
            atom(bad)


def test_atoms_of_sorted_unique():
    f = parse_ltl("c U (b & c & a)")
    assert atoms_of(f) == ("a", "b", "c")


def test_format_round_trip_hand_cases():
    cases = [
        "a",
        "true",
        "!a",
        "a & (b & c)",
        "(a | b) & c",
        "a U (b U c)",
        "(a U b) U c",
        "a -> (b -> c)",
        "(a -> b) -> c",
        "G (F a & F b)",
        "X (a U b)",
        "!(a & b) | X !c",
    ]
    for text in cases:
        f = parse_ltl(text)
        assert parse_ltl(format_formula(f)) == f


def test_format_round_trip_random():
    rng = np.random.default_rng(20260816)
    ap = ("a", "b", "c")
    for _ in range(300):
        f = random_formula(rng, ap, depth=4)
        assert parse_ltl(format_formula(f)) == f


def test_nnf_dualizes_until():
    f = to_nnf(lnot(until(a, b)))
    assert f == release(lnot(a), lnot(b))


def test_nnf_double_negation():
    assert to_nnf(lnot(lnot(a))) == a


def test_nnf_next_self_dual():
    assert to_nnf(lnot(nxt(a))) == nxt(lnot(a))


def test_nnf_eliminates_sugar():
    f = to_nnf(parse_ltl("G F a -> F b"))
    assert is_nnf(f)
    for g in [f] + _all_nodes(f):
        assert g.kind not in (KIND_IMPLIES, KIND_GLOBALLY, KIND_EVENTUALLY)
        if g.kind == KIND_NOT:
            assert g.children[0].kind == KIND_ATOM


def test_nnf_globally_via_release():
    f = to_nnf(globally(lnot(c)))
    assert f == release(FALSE, lnot(c))


def test_nnf_is_fixpoint():
    rng = np.random.default_rng(7)
    ap = ("a", "b")
    for _ in range(100):
        f = to_nnf(random_formula(rng, ap, depth=4))
        assert is_nnf(f)
        assert to_nnf(f) == f


def test_nnf_preserves_lasso_verdicts():
    rng = np.random.default_rng(99)
    ap = ("a", "b")
    for _ in range(60):
        f = random_formula(rng, ap, depth=3)
        g = to_nnf(f)
        for stem, cyc in all_lassos(4, 4):
            assert eval_ltl_on_lasso(f, stem, cyc, ap) == \
                eval_ltl_on_lasso(g, stem, cyc, ap)


def _all_nodes(f):
    out = []
    stack = list(f.children)
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(g.children)
    return out
