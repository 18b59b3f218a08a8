import io
from math import comb
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import compose, monomial_index, partial, power_sum_expansion
from hyperdefect import polynomials
from hyperdefect.fixtures import FIXTURES
from hyperdefect.polynomials import (
    DEFAULT_VARIABLES,
    MAX_POWER_BITS,
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


def nested(depth, inner="x"):
    return "(" * depth + inner + ")" * depth


def test_nesting_up_to_the_limit_parses():
    assert polynomials.MAX_NESTING == 100
    assert parse_expression(nested(100)) == parse_expression("x")
    assert parse_expression("subst(" * 50 + nested(50) + ", x, y)" * 50) == parse_expression("y")


@pytest.mark.parametrize(
    "text",
    [nested(101), "subst(" * 101 + "x" + ", x, y)" * 101],
    ids=["parentheses", "subst"],
)
def test_nesting_past_the_limit_is_refused_at_that_parenthesis(text):
    with pytest.raises(ExpressionError, match="nesting deeper than 100") as info:
        parse_expression(text)
    assert text[info.value.position] == "("
    assert text[: info.value.position].count("(") == 100


def test_subst_needs_pairs():
    with pytest.raises(ExpressionError):
        parse_expression("subst(x)")
    with pytest.raises(ExpressionError):
        parse_expression("subst(x, x, y, x, z)")


# Malformed expressions, their message and the position it names: the start
# of the offending token, or len(text) at the end of the input.
EXPRESSION_ERRORS = [
    ("x + * y", "expected a number, variable, or '('", 4),
    ("x +", "unexpected end of input", 3),
    ("x^", "expected an integer", 2),
    ("x^-2", "expected an integer", 2),
    ("x^2^", "expected an integer", 4),
    ("subst(x)", "subst needs at least one variable/value pair", 7),
    ("subst", "expected '('", 5),
    ("subst(x, x y)", "expected ','", 11),
    ("subst(x, x, y", "expected ')'", 13),
    ("subst(x,,y)", "expected a name", 8),
    ("subst(x, 2, y)", "expected a name", 9),
    ("subst(x,x,y,x,z)", "variable 'x' substituted twice", 12),
    ("(x", "expected ')'", 2),
    ("x)", "unexpected input ')'", 1),
    ("2x", "unexpected input 'x'", 1),
    ("x 23", "unexpected input '23'", 2),
    ("x^0", "exponent must be positive", 2),
    ("x^ 0", "exponent must be positive", 3),
    ("x^2147483648", "exponent overflow: 2147483648 > 2147483647", 2),
    ("x # y", "unexpected input '#'", 2),
    ("--x", "expected a number, variable, or '('", 1),
    ("x*-y", "expected a number, variable, or '('", 2),
    ("x + w", "unknown variable 'w'", 4),
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("x\u00b2", "expression must be ASCII", 0),
    ("subst(x y, x, z)", "subst needs at least one variable/value pair", 8),
    ("subst((x, x, y)", "expected ')'", 8),
    ("subst(x+, x, y z)", "expected a number, variable, or '('", 8),
]


@pytest.mark.parametrize("text, message, position", EXPRESSION_ERRORS)
def test_expression_error_message_and_position(text, message, position):
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_a_subst_target_is_expanded_under_its_bindings():
    # expanded in full, the target alone is over the term-pair budget
    with pytest.raises(PolynomialError, match="product too large"):
        parse_expression("(x+y+z+u+v)^24")
    zero_bound = "subst((x+y+z+u+v)^24, x, 0, y, 0, z, 0, u, 0)"
    assert parse_expression(zero_bound) == parse_expression("v^24")


def test_a_subst_is_refused_like_its_values_written_in():
    for text in ("subst((x+y)^1100, x, 2*z)", "(2*z+y)^1100"):
        with pytest.raises(PolynomialError, match="coefficients up to 2\\^2200 exceed"):
            parse_expression(text)
    # the whole text is read before any of it is expanded
    with pytest.raises(ExpressionError, match="unexpected end of input"):
        parse_expression("(x+y+z+u+v)^60 +")


# -- subst against the composition oracle --------------------------------------
#
# A generated expression is a (text, polynomial, degree bound) triple.  The
# polynomial is built beside the text by plain arithmetic, and for a subst by
# the `compose` oracle, never by the parser.  The bound is the degree of the
# text with every subst written out; a node past MAX_DEGREE is dropped before
# it is built, which keeps every expansion far inside both budgets.

NAMES = ("x", "y", "z")
MAX_DEGREE = 12
OPERATORS = {"+": add, "-": sub, "*": mul}


def _constant(c):
    return (f"({c})" if c < 0 else str(c)), Polynomial.constant(NAMES, c), 0


def _variable(name):
    return name, Polynomial.variable(NAMES, name), 1


def _binary(symbol, a, b):
    degree = a[2] + b[2] if symbol == "*" else max(a[2], b[2])
    if degree > MAX_DEGREE:
        return None
    return f"({a[0]}{symbol}{b[0]})", OPERATORS[symbol](a[1], b[1]), degree


def _power(a, n):
    if a[2] * n > MAX_DEGREE:
        return None
    return f"{a[0]}^{n}", a[1] ** n, a[2] * n


def _subst(target, pairs):
    degree = target[2] * max(1, *(value[2] for _, value in pairs))
    if degree > MAX_DEGREE:
        return None
    text = "".join(f",{name},{value[0]}" for name, value in pairs)
    expected = compose(target[1], {name: value[1] for name, value in pairs})
    return f"subst({target[0]}{text})", expected, degree


def _built(nodes):
    return nodes.filter(lambda node: node is not None)


def _pairs(values):
    return st.lists(
        st.tuples(st.sampled_from(NAMES), values), min_size=1, max_size=3, unique_by=lambda p: p[0]
    )


def _extend(children):
    return _built(
        st.one_of(
            st.builds(_binary, st.sampled_from(sorted(OPERATORS)), children, children),
            st.builds(_power, children, st.integers(min_value=1, max_value=3)),
            st.builds(_subst, children, _pairs(children)),
        )
    )


_leaves = st.one_of(
    st.integers(min_value=-3, max_value=3).map(_constant), st.sampled_from(NAMES).map(_variable)
)
_expressions = st.recursive(_leaves, _extend, max_leaves=6)
X, Y, Z = map(_variable, NAMES)


@given(_built(st.builds(_subst, _expressions, _pairs(_expressions))))
@example(_subst(_binary("*", X, Y), [("x", _constant(0))]))
@example(_subst(_binary("-", _power(X, 2), Z), [("x", _constant(2)), ("z", _constant(-3))]))
@example(_subst(_binary("*", _power(X, 2), Y), [("x", Y), ("y", _binary("+", X, Z))]))
@example(_subst(_subst(_binary("*", X, Y), [("x", _binary("+", Y, Z))]), [("y", Z)]))
@example(_subst(_power(X, 3), [("x", _subst(_binary("+", Y, Z), [("z", X)]))]))
@settings(max_examples=150, deadline=None)
def test_subst_matches_the_composition_oracle(node):
    # examples: a zero value, constant values, values naming replaced
    # variables, a subst nested in the target and one nested in a value
    text, expected, _ = node
    assert parse_expression(text, NAMES) == expected


# Texts over the expression alphabet.  Digits are 0 and 1 and texts are
# short, so chained powers of constants stay small enough to evaluate.
expression_texts = st.one_of(
    st.text(alphabet="xyw_s01+-*^(), \t#", max_size=12),
    st.lists(
        st.sampled_from(
            ["x", "y", "w", "_a", "x1", "subst", "(", ")", ",", "+", "-", "*", "^",
             "0", "1", "11", " ", "#"]
        ),
        max_size=12,
    ).map("".join),
)


@given(expression_texts)
@settings(max_examples=300, deadline=None)
def test_any_expression_text_parses_or_raises_an_input_error(text):
    try:
        parse_expression(text)
    except (PolynomialError, ValueError):
        pass


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


def test_from_polynomial_scans_the_terms_once(monkeypatch):
    calls = []

    def counting(poly):
        calls.append(poly)
        return check_homogeneous(poly)

    monkeypatch.setattr(polynomials, "check_homogeneous", counting)
    assert HomogeneousForm.from_polynomial(parse_expression(SEGRE)).degree == 3
    assert len(calls) == 1
    with pytest.raises(ZeroPolynomialError):
        HomogeneousForm.from_polynomial(parse_expression("x - x"))
    with pytest.raises(NonHomogeneousError, match="term x\\^2 has degree 2 but term y"):
        HomogeneousForm.from_polynomial(parse_expression("x^2 + y"))


# -- differentiation ----------------------------------------------------------


def test_partial_derivative_power():
    assert partial(parse_expression("x^5"), 0) == parse_expression("5*x^4")


def test_partial_derivative_absent_variable():
    assert partial(parse_expression("x^3"), 4).is_zero


def test_partial_derivative_of_segre_matches_expansion():
    poly = parse_expression(SEGRE)
    assert partial(poly, 0) == parse_expression("3*(x+y+z+u+v)^2-3*x^2")


def test_euler_identity_on_all_fixtures():
    for fixture in FIXTURES:
        form = fixture.build()
        total = Polynomial.zero(form.variables)
        for j, name in enumerate(form.variables):
            total = total + Polynomial.variable(form.variables, name) * partial(form.poly, j)
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
    assert partial(p + q, j) == partial(p, j) + partial(q, j)


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
    assert terms_of(partial(p, j)) == expected


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


def test_parse_stops_at_the_first_number_past_the_budget(monkeypatch):
    # refused before the missing terminator could be noticed
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_TERMS", 2)
    with pytest.raises(TermListError, match="too many terms"):
        parse_term_list(b"1 1 0 0 0 0 2 0 1 0 0 0 3 0 0 1 0 0")


term_list_bytes = st.one_of(
    st.binary(max_size=64),
    st.lists(
        st.sampled_from([b"0", b"1", b"2", b"7", b"12", b"-", b" ", b"\n", b"/", b"(", b",", b"x"]),
        max_size=40,
    ).map(b"".join),
)


@given(term_list_bytes)
@settings(max_examples=300, deadline=None)
def test_any_term_list_bytes_parse_or_raise_an_input_error(data):
    try:
        parse_term_list(data)
    except (PolynomialError, ValueError):
        pass


def _outcome(parse, data):
    try:
        return parse(data)
    except (PolynomialError, ValueError) as exc:
        return type(exc), str(exc)


@given(term_list_bytes, st.integers(min_value=1, max_value=5))
@settings(max_examples=200, deadline=None)
def test_a_term_list_stream_parses_like_its_bytes(data, size):
    # blocks of a few bytes split digit runs, signs and terminators everywhere
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_READ_SIZE", size)
        streamed = _outcome(parse_term_list, io.BytesIO(data))
    assert streamed == _outcome(parse_term_list, data)


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


def test_power_is_refused_before_its_coefficients_outgrow_the_budget():
    assert MAX_POWER_BITS == 2048
    assert parse_expression("2^2048") == Polynomial.constant(DEFAULT_VARIABLES, 2**2048)
    with pytest.raises(PolynomialError, match="coefficients up to 2\\^2049 exceed 2\\^2048"):
        parse_expression("2^2049")
    # nested powers multiply their bounds: 9^81 is below 2^257
    with pytest.raises(PolynomialError, match="2\\^2313 exceed"):
        parse_expression("9^9^9^9")
    # a unit coefficient never grows, nor does the zero polynomial
    assert len(parse_expression("x^100000")) == 1
    assert parse_expression("(x-x)^100000").is_zero


def test_product_is_refused_before_its_coefficients_outgrow_the_budget():
    with pytest.raises(PolynomialError, match="coefficients up to 2\\^4096 exceed 2\\^2048"):
        parse_expression("2^2048*2^2048")
    with pytest.raises(PolynomialError, match="coefficients up to 2\\^2049 exceed"):
        parse_expression("2^2048*(x+y)")
    assert parse_expression("2*2^2047") == parse_expression("2^2048")
    # a product may pass 2^2048 up to its larger operand: a literal times a
    # monomial, or times a unit, stays accepted, as in a term list
    literal = int("9" * 4300)
    form = parse_expression(f"{literal}*x^3*1+y^3")
    assert dict(form.items())[(3, 0, 0, 0, 0)] == literal
    with pytest.raises(PolynomialError, match="product too large"):
        parse_expression(f"{literal}*2")


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-9, max_value=9)),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_power_bound_holds(pairs, n):
    poly = Polynomial(("x", "y"), [((a, 3 - a), c) for a, c in pairs])
    total = sum(abs(c) for _, c in poly.items())
    bound = 2 ** (n * max(total - 1, 0).bit_length())
    assert all(abs(c) <= bound for _, c in (poly**n).items())


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
    # exponents and coefficients are integers, of any integer type
    cube = (0, 0, 0, 0, 3)
    for terms in ({cube: 0.5}, {cube: 1.0}, {(0, 0, 0, 0, 3.0): 1}, {(0, 0, 0, 0, "3"): 1}):
        with pytest.raises(PolynomialError, match="that is not an integer"):
            Polynomial(DEFAULT_VARIABLES, terms)
    poly = Polynomial(DEFAULT_VARIABLES, {(0, 0, 0, 0, np.int64(3)): np.int64(2)})
    assert poly == parse_expression("2*v^3")
    assert all(type(x) is int for key, c in poly.items() for x in (*key, c))
    # a name is an ASCII identifier, as the expression scanner reads one, other than subst
    for names in (("x", "y", "z", ""), ("x", "1"), ("x", "subst"), ("x", "y z"), ("x", "\u00e9")):
        with pytest.raises(PolynomialError, match="identifiers other than subst"):
            Polynomial(names)
    Polynomial(("_x1", "Y_"))


def test_integral_floats_are_refused_not_read_as_integers():
    p = parse_expression("x+y", ("x", "y"))
    # 0.0 is not read as the zero constant
    for value in (0.0, 1.0):
        with pytest.raises(PolynomialError, match="not an integer"):
            Polynomial.constant(p.variables, value)
        for op in (add, sub, mul):
            with pytest.raises(PolynomialError, match="not an integer"):
                op(p, value)
    assert Polynomial.constant(p.variables, 0).is_zero
    with pytest.raises(PolynomialError, match="exponent must be a non-negative integer"):
        p**2.0
    with pytest.raises(PolynomialError, match="degree must be an integer"):
        HomogeneousForm(p, 1.0)
    # an exponent of any integer type is taken, True as 1
    assert p ** np.int64(3) == p**3 and p**True == p


def test_an_integer_on_the_left_is_a_constant():
    p = parse_expression("x^2+3*y", ("x", "y"))
    assert 2 - p == -(p - 2) == parse_expression("2-x^2-3*y", ("x", "y"))
    assert np.int64(2) - p == 2 - p
    assert 2 + p == p + 2 and 2 * p == p * 2
    with pytest.raises(PolynomialError, match="not an integer"):
        2.5 - p


def test_arithmetic_requires_matching_variables():
    with pytest.raises(PolynomialError):
        parse_expression("x+y", ("x", "y")) + parse_expression("x+y", ("x", "y", "z"))


def test_str_rendering():
    assert str(parse_expression("x - x")) == "0"
    assert str(parse_expression("x^2 - 3*y*v + 1")) == "1 + x^2 - 3*y*v"
