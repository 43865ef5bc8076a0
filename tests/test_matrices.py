import json
import operator
import random
import re
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke5.golden_ring import GoldenInt, LAMBDA, Modulus, ONE, ZERO
from hecke5.hecke_matrices import (
    GMat, IDENTITY, NotInG5Error, S_MAT, T_MAT, Word,
    appendix_b_words, appendix_c_words, decompose, delta_m_words,
    elementary_generators, eval_word, omega_2, parse_word, translation, word,
)
from hecke5.quotients import build_quotient


def power(m: GMat, n: int) -> GMat:
    """m^n as the product of |n| factors m, or m.inv() for n < 0."""
    return reduce(operator.mul, [m if n >= 0 else m.inv()] * abs(n), IDENTITY)


def same_up_to_sign(m: GMat, n: GMat) -> bool:
    """m and n are one element of the projective group G5."""
    return m == n or m == -n


def test_generator_relations():
    assert S_MAT * S_MAT == -IDENTITY
    u = S_MAT * T_MAT
    assert power(u, 5) == IDENTITY
    assert power(u, 3) != IDENTITY
    assert same_up_to_sign(power(u, 5), IDENTITY)
    assert u.e11 + u.e22 == -LAMBDA


def test_determinant_enforced():
    with pytest.raises(ValueError):
        GMat(ONE, ZERO, ZERO, GoldenInt(2, 0))


def test_word_parse_and_print():
    w = parse_word("S T^3 S^-1 T^-2")
    assert str(w) == "S T^3 S^-1 T^-2"
    assert eval_word(w) == (
        S_MAT * power(T_MAT, 3) * S_MAT.inv() * power(T_MAT, -2))


def test_word_free_reduction():
    w = word([("S", 1), ("S", -1), ("T", 2), ("T", -2), ("T", 1)])
    assert w.letters == (("T", 1),)
    assert (w * w.inv()).letters == ()


def test_homogeneous_s_order_four():
    w = word([("S", 2)])
    assert eval_word(w) == -IDENTITY
    assert eval_word(word([("S", 4)])) == IDENTITY


words_strategy = st.lists(
    st.tuples(st.sampled_from(["S", "T"]), st.integers(-6, 6).filter(bool)),
    min_size=0, max_size=12,
).map(word)


@given(words_strategy)
@settings(max_examples=200, deadline=None)
def test_eval_word_is_the_product_of_its_letters(w):
    want = reduce(operator.mul, (power(S_MAT if g == "S" else T_MAT, e)
                                 for g, e in w.letters), IDENTITY)
    assert eval_word(w) == want


# S^e for e in -5..5 (S^0 is the empty word), T^7 and T^-7
for _w in [*(word([("S", e)]) for e in range(-5, 6)),
           word([("T", 7)]), word([("T", -7)])]:
    test_eval_word_is_the_product_of_its_letters = example(_w)(
        test_eval_word_is_the_product_of_its_letters)


def parse_word_by_tokens(text: str) -> Word:
    """The token-by-token parser that one whole-text match replaced, kept
    as an oracle: each gap before a token must be blank, and so must the
    tail, which may also be "1"."""
    pos, letters = 0, []
    for m in re.finditer(r"([ST])(?:\^(-?\d+))?", text):
        if text[pos:m.start()].strip():
            raise ValueError(f"malformed word: {text!r}")
        letters.append((m.group(1), int(m.group(2) or 1)))
        pos = m.end()
    if text[pos:].strip() not in ("", "1"):
        raise ValueError(f"malformed word: {text!r}")
    return word(letters)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


@given(st.text("ST^-0123456789 1\t\nx+\u00b2", max_size=16))
@example("S T^3 S^-1 T^-2 1")
@example("S1")
@example("1 S")
@example("S^")
@example(" \t\n")
@settings(max_examples=500, deadline=None)
def test_parse_word_matches_the_token_parser(text):
    assert (parse_outcome(parse_word, text)
            == parse_outcome(parse_word_by_tokens, text))


@given(words_strategy)
@settings(max_examples=200, deadline=None)
def test_decompose_roundtrip(w):
    m = eval_word(w)
    assert same_up_to_sign(eval_word(decompose(m)), m)


@given(words_strategy)
@example(word([("S", 2)]))
@example(word([("S", 4)]))
@example(word([]))
@settings(max_examples=200, deadline=None)
def test_decompose_reads_a_matrix_up_to_sign(w):
    """M and -M get one word, so a side pairing needs no canonical sign."""
    m = eval_word(w)
    assert decompose(m) == decompose(-m)


def test_decompose_roundtrip_bulk():
    """Heavier randomized sweep than the property test default."""
    rng = random.Random(20260826)
    for _ in range(1000):
        letters = [(rng.choice("ST"), rng.choice([-3, -2, -1, 1, 2, 3]))
                   for _ in range(rng.randint(0, 40))]
        m = eval_word(word(letters))
        assert same_up_to_sign(eval_word(decompose(m)), m)


def test_non_members_rejected():
    stray = GMat(ONE, ONE, ZERO, ONE)  # integer translation: not a word in S, T
    with pytest.raises(NotInG5Error, match="^terminal translation 1 "):
        decompose(stray)


def _lower(x: GoldenInt) -> GMat:
    return GMat(ONE, ZERO, x, ONE)


# products of elementary matrices over Z[L] with integer translations in them:
# U(x) = translation(x), L(x) = _lower(x)
@pytest.mark.parametrize("m", [
    _lower(ONE),
    translation(GoldenInt(1, 1)),
    T_MAT * T_MAT * translation(GoldenInt(3, 0)) * S_MAT,
    _lower(GoldenInt(2, 0)) * T_MAT * _lower(-ONE),
    translation(ONE) * _lower(ONE) * translation(-ONE),
    translation(ONE) * S_MAT * translation(ONE),
    _lower(GoldenInt(2, 1)) * translation(GoldenInt(-1, 1)),
    S_MAT * translation(GoldenInt(5, 0)) * S_MAT * power(T_MAT, 3)
    * translation(GoldenInt(-2, 0)),
], ids=["L(1)", "U(1+L)", "T^2.U(3).S", "L(2).T.L(-1)", "U(1).L(1).U(-1)",
        "U(1).S.U(1)", "L(2+L).U(-1+L)", "S.U(5).S.T^3.U(-2)"])
def test_non_members_rejected_at_the_terminal_form(m):
    """Each step multiplies m on the left by a member, so m is a member iff
    the terminal triangular matrix is, that is, iff it is +-T^j."""
    with pytest.raises(NotInG5Error, match="^terminal "):
        decompose(m)


def test_translation():
    assert translation(LAMBDA) == T_MAT
    assert decompose(translation(LAMBDA * GoldenInt(3, 0))) == word([("T", 3)])
    with pytest.raises(NotInG5Error):
        decompose(translation(GoldenInt(1, 1)))


def test_projective_sign_canonical():
    """-T and T are two GMats, one element of G5: only a projective
    quotient's keys choose the sign."""
    assert same_up_to_sign(-T_MAT, T_MAT) and -T_MAT != T_MAT
    q = build_quotient(Modulus.rational(5))
    assert q.key_of(-T_MAT) == q.key_of(T_MAT)


def test_omega_generators_members():
    gens = omega_2()
    assert len(gens) == 4
    for g in gens:
        decompose(g)  # must not raise


@pytest.mark.parametrize("m", [3, 5, 6])
def test_delta_words_are_members(m):
    gens = [eval_word(w) for w in delta_m_words(m)]
    assert len(gens) == 6
    for g in gens:
        decompose(g)


@pytest.mark.parametrize("m,p", [(3, 3), (6, 3), (5, 5)])
def test_delta_residues_match_table(m, p):
    mod = Modulus.rational(m * p)
    def proj_key(mat):
        red = mod.reduce_pair
        t = sum((red(x.a, x.b) for x in mat.entries()), ())
        n = sum((red(-a, -b) for a, b in zip(t[::2], t[1::2])), ())
        return min(t, n)
    got = {proj_key(eval_word(w)) for w in delta_m_words(m)}
    want = {proj_key(g) for g in elementary_generators(m)}
    assert got == want


def test_elementary_generators_shape():
    gens = elementary_generators(4)
    assert len(gens) == 6
    for g in gens:
        assert g.det() == ONE


@pytest.mark.parametrize("m", [1, 3])
def test_appendix_b_members(m):
    gens = [eval_word(w) for w in appendix_b_words(m)]
    assert len(gens) == 5
    for g in gens:
        decompose(g)


@pytest.mark.parametrize("family", [
    delta_m_words, appendix_b_words, appendix_c_words])
def test_appendix_words_letter_for_letter(family):
    """Each family's words for every m <= 24 it takes, against the record
    in tests/data, made before the three shared one builder."""
    record = json.loads((Path(__file__).parent / "data" /
                         "appendix_words.json").read_text())[family.__name__]
    assert {m: [str(w) for w in family(int(m))] for m in record} == record


def test_appendix_c_members():
    gens = [eval_word(w) for w in appendix_c_words(4)]
    assert len(gens) == 6
    for g in gens:
        decompose(g)
