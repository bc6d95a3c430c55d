"""LTL-to-automaton translation checked against brute-force lasso evaluation."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from smdpsynth import (
    AlphabetMismatch,
    CapacityExceeded,
    determinize_kcba,
    lasso_accepted_kcba,
    ltl_to_cba,
    parse_ltl,
)

from oracles import (
    all_lassos, eval_ltl_on_lasso, lasso_accepted_cba, random_formula,
)

PHI_EX = "G F a & G F b & G !c"


def _letters_with(aut, *atoms):
    s = 0
    for a in atoms:
        s |= 1 << aut.ap.index(a)
    return s


def test_globally_not_c_examples():
    aut = ltl_to_cba(parse_ltl("G !c"))
    c = _letters_with(aut, "c")
    empty = 0
    assert lasso_accepted_cba(aut, [], [empty]) is True
    assert lasso_accepted_cba(aut, [c], [empty]) is False
    assert lasso_accepted_cba(aut, [empty], [c]) is False


def test_globally_eventually_examples():
    aut = ltl_to_cba(parse_ltl("G F a"))
    a = _letters_with(aut, "a")
    assert lasso_accepted_cba(aut, [], [a, 0]) is True
    assert lasso_accepted_cba(aut, [], [0]) is False
    assert lasso_accepted_cba(aut, [a, a, a], [0]) is False


def test_running_example_automaton_basics():
    aut = ltl_to_cba(parse_ltl(PHI_EX))
    assert aut.ap == ("a", "b", "c")
    assert aut.n_letters == 8
    assert aut.accepting
    a, b, c = (_letters_with(aut, x) for x in "abc")
    assert lasso_accepted_cba(aut, [], [a, b]) is True
    assert lasso_accepted_cba(aut, [c], [a, b]) is False
    assert lasso_accepted_cba(aut, [], [a]) is False
    assert lasso_accepted_cba(aut, [b], [b, a, 0]) is True


def test_running_example_exhaustive_lassos():
    f = parse_ltl(PHI_EX)
    aut = ltl_to_cba(f)
    for stem, cyc in all_lassos(8, 4):
        assert lasso_accepted_cba(aut, stem, cyc) == \
            eval_ltl_on_lasso(f, stem, cyc, aut.ap)


def test_random_formulas_match_brute_force():
    """Seeded sweep across atom counts; exhaustive lasso sets sized per alphabet."""
    rng = np.random.default_rng(20260816)
    plan = [(("a",), 120, 6), (("a", "b"), 60, 5), (("a", "b", "c"), 20, 3)]
    for ap, n_formulas, max_total in plan:
        for _ in range(n_formulas):
            f = random_formula(rng, ap, depth=4)
            aut = ltl_to_cba(f, ap=ap)
            for stem, cyc in all_lassos(2 ** len(ap), max_total):
                assert lasso_accepted_cba(aut, stem, cyc) == \
                    eval_ltl_on_lasso(f, stem, cyc, ap)


def test_three_atom_formulas_on_sampled_long_lassos():
    rng = np.random.default_rng(31337)
    ap = ("a", "b", "c")
    for _ in range(20):
        f = random_formula(rng, ap, depth=4)
        aut = ltl_to_cba(f, ap=ap)
        for _ in range(100):
            total = int(rng.integers(4, 7))
            cut = int(rng.integers(0, total))
            word = [int(x) for x in rng.integers(0, 8, size=total)]
            stem, cyc = word[:cut], word[cut:]
            assert lasso_accepted_cba(aut, stem, cyc) == \
                eval_ltl_on_lasso(f, stem, cyc, ap)


def test_alphabet_extension():
    aut = ltl_to_cba(parse_ltl("G !c"), ap=("a", "b", "c"))
    assert aut.n_letters == 8
    a, c = _letters_with(aut, "a"), _letters_with(aut, "c")
    assert lasso_accepted_cba(aut, [], [a]) is True
    assert lasso_accepted_cba(aut, [], [a | c]) is False


def test_formula_atoms_must_be_in_ap():
    with pytest.raises(ValueError):
        ltl_to_cba(parse_ltl("G !c"), ap=("a", "b"))
    with pytest.raises(AlphabetMismatch, match=r"formula atoms \['c'\]"):
        ltl_to_cba(parse_ltl("G !c"), ap=("a", "b"))


def test_state_budget_guard():
    with pytest.raises(CapacityExceeded):
        ltl_to_cba(parse_ltl(PHI_EX), state_budget=2)


def test_translation_deterministic_in_process():
    doc1 = ltl_to_cba(parse_ltl(PHI_EX)).to_json_dict()
    doc2 = ltl_to_cba(parse_ltl(PHI_EX)).to_json_dict()
    assert doc1 == doc2


def test_translation_deterministic_across_hash_seeds():
    """State numbering must not depend on interpreter hash randomization."""
    snippet = (
        "import json;"
        "from smdpsynth import ltl_to_cba, parse_ltl;"
        f"print(json.dumps(ltl_to_cba(parse_ltl({PHI_EX!r})).to_json_dict()))"
    )
    docs = []
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        docs.append(out.stdout)
    assert docs[0] == docs[1] == docs[2]


def test_counting_route_agrees_on_translated_automaton():
    aut = ltl_to_cba(parse_ltl(PHI_EX))
    for K in (0, 1):
        det = determinize_kcba(aut, K).to_omega_automaton()
        for stem, cyc in all_lassos(8, 3):
            assert lasso_accepted_kcba(aut, K, stem, cyc) == \
                lasso_accepted_kcba(det, 0, stem, cyc)


def test_bounded_acceptance_underapproximates_and_grows():
    """K-bounded verdicts only ever accept satisfying words, monotonically in K."""
    f = parse_ltl(PHI_EX)
    aut = ltl_to_cba(f)
    for stem, cyc in all_lassos(8, 3):
        sat = eval_ltl_on_lasso(f, stem, cyc, aut.ap)
        prev = False
        for K in (0, 1, 2, 8, 40):
            ok = lasso_accepted_kcba(aut, K, stem, cyc)
            assert not (ok and not sat)     # soundness
            assert ok or not prev           # monotone in K
            prev = ok
        if sat:
            assert lasso_accepted_kcba(aut, 40, stem, cyc)
