from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monomial_index, power_sum_expansion
from hyperdefect import polynomials
from hyperdefect.fixtures import FIXTURES
from hyperdefect.polynomials import (
    DEFAULT_VARIABLES,
    MAX_PRODUCT_TERMS,
    ExpressionError,
    HomogeneousForm,
    NonHomogeneousError,
    Polynomial,
    PolynomialError,
    TermListError,
    ZeroPolynomialError,
    check_homogeneous,
    emit_term_list,
    parse_expression,
    parse_term_list,
)

SEGRE = "(x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3)"


def terms_of(poly):
    return dict(poly.items())


# -- expression parsing -------------------------------------------------------


def test_segre_expansion_matches_brute_force():
    # oracle: count raw orderings of (x+y+z+u+v)^3, then cancel the cubes
    expected = power_sum_expansion(5, 3)
    for j in range(5):
        key = tuple(3 if i == j else 0 for i in range(5))
        expected[key] -= 1
        if not expected[key]:
            del expected[key]
    poly = parse_expression(SEGRE)
    assert terms_of(poly) == expected
    assert len(poly) == 30
    assert set(expected.values()) == {3, 6}


def test_cancellation_gives_zero():
    assert parse_expression("x - x").is_zero
    assert parse_expression("x*y - y*x").is_zero


def test_subst_renames_simultaneously():
    assert parse_expression("subst(x*y, x, u, y, v)") == parse_expression("u*v")
    # simultaneous: both reads see the original, so a swap is a no-op here
    assert parse_expression("subst(x*y, x, y, y, x)") == parse_expression("x*y")
    # sequential substitution would collapse this to z^3
    assert parse_expression("subst(x^2*y, x, y, y, z)") == parse_expression("y^2*z")


def test_subst_accepts_expression_values():
    assert parse_expression("subst(x^2, x, y+z)") == parse_expression("(y+z)^2")
    assert parse_expression("subst(x*y+v, x, 0)") == parse_expression("v")


def test_unary_minus_at_head_and_inside_parens():
    assert parse_expression("-x^3+y^3") == parse_expression("y^3-x^3")
    assert parse_expression("(-x-y)^2") == parse_expression("(x+y)^2")


def test_precedence():
    assert parse_expression("2*x^3") == 2 * parse_expression("x^3")
    assert parse_expression("x+y*z") == parse_expression("x") + parse_expression("y*z")
    assert parse_expression("x^2^3") == parse_expression("x^6")  # (x^2)^3


def test_syntax_error_reports_position():
    with pytest.raises(ExpressionError) as info:
        parse_expression("x + * y")
    assert info.value.position == 4


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError, match="unknown variable 'w'"):
        parse_expression("x + w")


def test_exponent_bounds():
    with pytest.raises(ExpressionError, match="exponent overflow"):
        parse_expression("x^2147483648")
    with pytest.raises(ExpressionError, match="positive"):
        parse_expression("x^0")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x + y)")


def test_non_ascii_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x²")


def test_subst_needs_pairs():
    with pytest.raises(ExpressionError):
        parse_expression("subst(x)")
    with pytest.raises(ExpressionError):
        parse_expression("subst(x, x, y, x, z)")


# -- homogeneity --------------------------------------------------------------


def test_check_homogeneous_basic():
    poly = parse_expression("x^2*y + z^3", ("x", "y", "z"))
    assert check_homogeneous(poly) == 3


def test_check_homogeneous_rejects_mixed_degrees():
    with pytest.raises(NonHomogeneousError):
        check_homogeneous(parse_expression("x^2 + y"))


def test_check_homogeneous_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        check_homogeneous(parse_expression("x - x"))


def test_degree_five_example():
    poly = parse_expression("x*(x^4+y^4+z^4+u^4+v^4)+y*(x^4-2*y^4+3*z^4-4*u^4+5*v^4)")
    assert check_homogeneous(poly) == 5


def test_homogeneous_form_validates_declared_degree():
    poly = parse_expression("x^2+y^2")
    assert HomogeneousForm.from_polynomial(poly).degree == 2
    with pytest.raises(NonHomogeneousError):
        HomogeneousForm(poly, 3)


# -- differentiation ----------------------------------------------------------


def test_partial_derivative_power():
    assert parse_expression("x^5").partial(0) == parse_expression("5*x^4")


def test_partial_derivative_absent_variable():
    assert parse_expression("x^3").partial(4).is_zero


def test_partial_derivative_of_segre_matches_expansion():
    poly = parse_expression(SEGRE)
    assert poly.partial(0) == parse_expression("3*(x+y+z+u+v)^2-3*x^2")


def test_euler_identity_on_all_fixtures():
    for fixture in FIXTURES:
        form = fixture.build()
        total = Polynomial.zero(form.variables)
        for j, name in enumerate(form.variables):
            total = total + Polynomial.variable(form.variables, name) * form.poly.partial(j)
        assert total == form.degree * form.poly, fixture.name


def _random_poly(draw_terms):
    return Polynomial(DEFAULT_VARIABLES, draw_terms)


term_lists = st.lists(
    st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=4)] * 5),
        st.integers(min_value=-50, max_value=50),
    ),
    max_size=8,
)


@given(term_lists, term_lists, st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_differentiation_is_linear(terms_p, terms_q, j):
    p, q = _random_poly(terms_p), _random_poly(terms_q)
    assert (p + q).partial(j) == p.partial(j) + q.partial(j)


@given(term_lists, st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_differentiation_matches_termwise_oracle(terms, j):
    p = _random_poly(terms)
    expected: dict[tuple[int, ...], int] = {}
    for key, value in p.items():
        if key[j]:
            lowered = key[:j] + (key[j] - 1,) + key[j + 1 :]
            expected[lowered] = expected.get(lowered, 0) + key[j] * value
    expected = {k: v for k, v in expected.items() if v}
    assert terms_of(p.partial(j)) == expected


# -- term-list format ---------------------------------------------------------


def test_parse_single_term():
    poly = parse_term_list(b"3 0 0 0 2 4 /")
    assert terms_of(poly) == {(0, 0, 0, 2, 4): 3}


def test_parse_duplicates_cancel():
    assert parse_term_list(b"1 5 0 0 0 0 -1 5 0 0 0 0 /").is_zero


def test_parse_tolerates_separator_junk():
    # the screen format "coeff (e0,e1,e2,e3,e4)" reads fine
    poly = parse_term_list(b"3 (0,0,0,2,4)\n-1 (6,0,0,0,0) /")
    assert terms_of(poly) == {(0, 0, 0, 2, 4): 3, (6, 0, 0, 0, 0): -1}


def test_parse_missing_terminator():
    with pytest.raises(TermListError, match="missing '/'"):
        parse_term_list(b"3 0 0 0 2 4")


def test_parse_incomplete_term():
    with pytest.raises(TermListError, match="incomplete term"):
        parse_term_list(b"3 0 0 0 2 /")


def test_parse_degree_error():
    with pytest.raises(TermListError, match="degree error"):
        parse_term_list(b"1 5 0 0 0 0 1 1 0 0 0 0 /")


def test_parse_too_many_terms(monkeypatch):
    # a term list is held to the expansion budget: one term over it is refused
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_TERMS", 2)
    assert len(parse_term_list(b"1 1 0 0 0 0 2 0 1 0 0 0 /")) == 2
    with pytest.raises(TermListError, match="too many terms: 3 > 2"):
        parse_term_list(b"1 1 0 0 0 0 2 0 1 0 0 0 3 0 0 1 0 0 /")


def test_septic_term_list_round_trips():
    # every degree-7 monomial in 5 variables
    poly = parse_expression("(x+y+z+u+v)^7+x^7")
    assert len(poly) == comb(11, 4) == 330
    assert parse_term_list(emit_term_list(poly)) == poly


def test_product_over_the_term_budget_is_refused():
    names = ("x", "y")
    a = Polynomial(names, {(i, 0): 1 for i in range(1025)})
    b = Polynomial(names, {(0, j): 1 for j in range(1024)})
    assert len(a) * len(b) > MAX_PRODUCT_TERMS
    with pytest.raises(PolynomialError, match="product too large"):
        a * b
    with pytest.raises(PolynomialError, match="product too large"):
        parse_expression("(x+y+z+u+v)^60")
    # a degree-7 power, like every corpus fixture, stays inside the budget
    assert len(parse_expression("(x+y+z+u+v)^7")) == comb(11, 4)


def test_parse_rejects_negative_exponent():
    with pytest.raises(TermListError, match="negative exponent"):
        parse_term_list(b"3 -1 0 0 0 6 /")


def test_emit_examples():
    assert emit_term_list(Polynomial.zero(DEFAULT_VARIABLES)) == b"/"
    assert emit_term_list(parse_term_list(b"3 0 0 0 2 4 /")) == b"3 0 0 0 2 4 /"


def test_sorted_terms_follow_degree_then_monomial_rank():
    keys = [key for key, _ in parse_expression("(x+y+z+1)^4+(x-u+2*v)^3").sorted_terms()]
    assert keys == sorted(keys, key=lambda key: (sum(key), monomial_index(key)))


def test_emit_parse_emit_is_stable_on_fixtures():
    for fixture in FIXTURES:
        poly = fixture.build().poly
        once = emit_term_list(poly)
        assert parse_term_list(once) == poly
        assert emit_term_list(parse_term_list(once)) == once


homogeneous_terms = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=d), min_size=4, max_size=4),
            st.integers(min_value=-99, max_value=99).filter(bool),
        ),
        min_size=1,
        max_size=10,
    ).map(
        lambda pairs: [
            (tuple(head) + (d * 4 - sum(head),), coeff)
            for head, coeff in pairs
            # pad the last exponent so every term has degree 4*d
            if d * 4 - sum(head) >= 0
        ]
    )
)


@given(homogeneous_terms)
@settings(max_examples=100, deadline=None)
def test_term_list_round_trip(terms):
    poly = Polynomial(DEFAULT_VARIABLES, terms)
    assert parse_term_list(emit_term_list(poly)) == poly


# -- Polynomial construction ---------------------------------------------------


def test_constructor_sums_duplicates_and_drops_zeros():
    poly = Polynomial(("x", "y"), [((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
    assert terms_of(poly) == {(0, 1): 5}


def test_constructor_validates():
    with pytest.raises(PolynomialError):
        Polynomial(("x", "y"), [((1,), 1)])
    with pytest.raises(PolynomialError):
        Polynomial(("x", "y"), [((1, -1), 1)])
    with pytest.raises(PolynomialError):
        Polynomial(("x", "x"), [])
    with pytest.raises(PolynomialError):
        Polynomial(("x",), [])


def test_arithmetic_requires_matching_variables():
    with pytest.raises(PolynomialError):
        parse_expression("x+y", ("x", "y")) + parse_expression("x+y", ("x", "y", "z"))


def test_str_rendering():
    assert str(parse_expression("x - x")) == "0"
    assert str(parse_expression("x^2 - 3*y*v + 1")) == "1 + x^2 - 3*y*v"
