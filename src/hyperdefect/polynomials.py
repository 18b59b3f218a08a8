"""Exact multivariate integer polynomials and their two input formats.

Polynomials are sparse maps from exponent tuples to nonzero arbitrary
precision integers, immutable after construction.  Two text formats are
supported: a small expression language (sums/products/powers/parentheses
plus a `subst` that expands its target once, under the new values), and a
whitespace-tolerant integer term stream terminated by '/' (one coefficient
and one exponent per variable per term).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd
from operator import add, index, itemgetter, mul, sub
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

DEFAULT_VARIABLES = ("x", "y", "z", "u", "v")
# a variable name, as the expression scanner reads one
_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)

MAX_EXPONENT = 2**31 - 1
# largest len(a) * len(b) a product of two polynomials may form, and the
# most terms a term list may hold
MAX_PRODUCT_TERMS = 2**20
# most parentheses, plain or of a subst call, an expression may nest
MAX_NESTING = 100
# largest power of 2 a power may bring its coefficients to: no coefficient
# of f^n exceeds 2**(n * ceil(log2(sum of |c| over f))).  A product f*g,
# whose coefficients are at most (sum over f) * (sum over g), may pass it
# only up to the larger of those two sums, so that a literal times a
# monomial stays a literal
MAX_POWER_BITS = 2**11
# bytes read at a time from a term-list stream
_READ_SIZE = 1 << 20


class PolynomialError(Exception):
    """Base class for polynomial input and validation failures."""


class ExpressionError(PolynomialError):
    """Syntax or semantic error in the expression language."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TermListError(PolynomialError):
    """Malformed term-list stream."""


class NonHomogeneousError(PolynomialError):
    """Terms of two different total degrees were found."""

    def __init__(self, term_a: str, degree_a: int, term_b: str, degree_b: int):
        super().__init__(
            f"not homogeneous: term {term_a} has degree {degree_a} "
            f"but term {term_b} has degree {degree_b}"
        )


class ZeroPolynomialError(PolynomialError):
    """The zero polynomial has no well-defined degree."""


class VariableCountError(PolynomialError):
    """Operation requires a different number of variables."""


def _merge(terms: dict, items: Iterable[tuple[tuple[int, ...], int]]) -> dict:
    """Add (exponents, coefficient) items into `terms`, dropping zero sums."""
    for key, value in items:
        new = terms.get(key, 0) + value
        if new:
            terms[key] = new
        elif key in terms:
            del terms[key]
    return terms


class Polynomial:
    """Sparse polynomial with integer coefficients over named variables.

    `terms` maps exponent tuples (one entry per variable) to nonzero
    integers.  Instances never mutate; all arithmetic returns new objects
    and is exact.  A product whose operands have more than
    MAX_PRODUCT_TERMS pairs of terms, or whose coefficients could outgrow
    MAX_POWER_BITS, is refused with a PolynomialError before it is formed.
    """

    __slots__ = ("variables", "_terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple[int, ...], int] | Iterable[tuple[tuple[int, ...], int]] = (),
    ):
        names = tuple(variables)
        if len(names) < 2:
            raise VariableCountError(f"need at least 2 variables, got {len(names)}")
        if len(set(names)) != len(names):
            raise VariableCountError(f"duplicate variable names in {names}")
        if "subst" in names or not all(map(_NAME.fullmatch, names)):
            raise PolynomialError(f"variable names must be identifiers other than subst: {names}")
        self.variables = names
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _merge({}, (self._checked(exponents, c) for exponents, c in items))

    def _checked(self, exponents: Iterable[int], coefficient: int) -> tuple[tuple[int, ...], int]:
        """One term, its exponents and coefficient taken through operator.index."""
        key = tuple(exponents)
        try:
            key, coefficient = tuple(map(index, key)), index(coefficient)
        except TypeError:
            raise PolynomialError(
                f"term {key}: {coefficient!r} has an exponent or coefficient that is not an integer"
            ) from None
        if len(key) != len(self.variables):
            raise PolynomialError(
                f"exponent vector {key} has length {len(key)}, expected {len(self.variables)}"
            )
        if any(a < 0 for a in key):
            raise PolynomialError(f"negative exponent in {key}")
        return key, coefficient

    # -- constructors ------------------------------------------------------

    def _with(self, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        """Polynomial in this ring with `terms` taken as they are: valid
        exponent vectors and nonzero coefficients, built by arithmetic on
        validated polynomials."""
        result = Polynomial.__new__(Polynomial)
        result.variables = self.variables
        result._terms = terms
        return result

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "Polynomial":
        names = tuple(variables)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Polynomial":
        names = tuple(variables)
        if name not in names:
            raise PolynomialError(f"unknown variable {name!r}")
        exponents = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exponents: 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Raw (exponents, coefficient) pairs in unspecified order."""
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: by total degree, then monomial rank
        (descending lexicographic, as in `monomials`)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), tuple(-a for a in kv[0])))

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise PolynomialError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._require_same_ring(other)
        return self._with(_merge(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._with({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(self.variables, other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._require_same_ring(other)
        if len(self._terms) * len(other._terms) > MAX_PRODUCT_TERMS:
            raise PolynomialError(
                f"product too large: {len(self._terms)} x {len(other._terms)} terms "
                f"exceeds {MAX_PRODUCT_TERMS} term pairs"
            )
        sums = [sum(map(abs, p._terms.values())) for p in (self, other)]
        bound = sums[0] * sums[1]
        if bound > max(2**MAX_POWER_BITS, *sums):
            raise PolynomialError(
                f"product too large: coefficients up to 2^{(bound - 1).bit_length()} "
                f"exceed 2^{MAX_POWER_BITS}"
            )
        products = (
            (tuple(map(add, ka, kb)), va * vb)
            for ka, va in self._terms.items()
            for kb, vb in other._terms.items()
        )
        return self._with(_merge({}, products))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        try:
            n = index(exponent)
        except TypeError:
            n = -1
        if n < 0:
            raise PolynomialError(f"exponent must be a non-negative integer, got {exponent!r}")
        total = sum(abs(v) for v in self._terms.values())
        bits = n * max(total - 1, 0).bit_length()
        if bits > MAX_POWER_BITS:
            raise PolynomialError(
                f"power too large: coefficients up to 2^{bits} exceed 2^{MAX_POWER_BITS}"
            )
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- rendering -----------------------------------------------------------

    def _render_monomial(self, exponents: tuple[int, ...]) -> str:
        parts = []
        for name, a in zip(self.variables, exponents):
            if a == 1:
                parts.append(name)
            elif a > 1:
                parts.append(f"{name}^{a}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exponents, coefficient in self.sorted_terms():
            monomial = self._render_monomial(exponents)
            magnitude = abs(coefficient)
            if monomial:
                body = monomial if magnitude == 1 else f"{magnitude}*{monomial}"
            else:
                body = str(magnitude)
            if not pieces:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coefficient > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {len(self._terms)} terms)"


def check_homogeneous(poly: Polynomial) -> int:
    """Return the common total degree of all terms, or raise.

    Raises ZeroPolynomialError on the zero polynomial and
    NonHomogeneousError (naming two offending terms) otherwise.
    """
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no degree")
    first_key = None
    degree = None
    for key, _ in poly.items():
        e = sum(key)
        if degree is None:
            first_key, degree = key, e
        elif e != degree:
            render = poly._render_monomial
            raise NonHomogeneousError(render(first_key) or "1", degree, render(key) or "1", e)
    assert degree is not None
    return degree


@dataclass(frozen=True)
class HomogeneousForm:
    """A polynomial certified homogeneous of the stated integer degree."""

    poly: Polynomial
    degree: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "degree", index(self.degree))
        except TypeError:
            raise PolynomialError(f"degree must be an integer, got {self.degree!r}") from None
        d = check_homogeneous(self.poly)
        if d != self.degree:
            raise NonHomogeneousError(str(self.poly), d, "<declared degree>", self.degree)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "HomogeneousForm":
        # declare the first term's degree; __post_init__ checks every term
        return cls(poly, next((sum(key) for key, _ in poly.items()), 0))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.poly.variables

    @property
    def variable_count(self) -> int:
        return len(self.poly.variables)


def variable_classes(poly: Polynomial) -> tuple[tuple[int, ...], ...]:
    """The variables of equal signature, in classes of at least two.

    The signature of variable i is the multiset of (exponent of i,
    coefficient) over the terms.  A permutation of the variables that
    fixes the polynomial maps each variable to one of equal signature,
    so it permutes every class and fixes every variable outside them;
    without a class, only the identity fixes it.
    """
    classes: dict[tuple, list[int]] = {}
    for i in range(len(poly.variables)):
        signature = tuple(sorted((key[i], c) for key, c in poly._terms.items()))
        classes.setdefault(signature, []).append(i)
    return tuple(tuple(group) for group in classes.values() if len(group) > 1)


def variable_symmetries(poly: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Permutations of the variables that fix the polynomial, each checked
    exactly on its terms.

    A permutation is the tuple (s(0), ..., s(m-1)): it moves variable i to
    s(i), so it sends the term c*x^t to c*x^u with u[s(i)] = t[i], and it
    fixes the polynomial when every such image is a term with the same
    coefficient.  Only permutations within one of `variable_classes` are
    tried.  In each class c_0 < ... < c_(n-1) these are the
    transpositions (c_a c_b), skipped once the kept ones join c_a and
    c_b, and, unless the kept transpositions join the whole class, the
    rotations c_a -> c_((a+r) mod n), skipped once the kept rotations
    generate them.  So at most m(m+1)/2 - 1 candidates are checked, in
    O(m) per term each, and at most m - 1 transpositions are kept.  Their
    group can be smaller than the whole symmetry group of the polynomial
    (a product of two transpositions is never tried, say); every
    permutation returned fixes it all the same.
    """
    terms = poly._terms
    m = len(poly.variables)

    def fixes(image: list[int]) -> bool:
        source = [0] * m
        for i, target in enumerate(image):
            source[target] = i
        return all(terms.get(tuple(key[i] for i in source)) == c for key, c in terms.items())

    found = []
    for group in variable_classes(poly):
        n = len(group)
        joined = list(range(n))  # union-find over the class, every root its least member

        def root(a: int) -> int:
            while joined[a] != a:
                a = joined[a]
            return a

        for a, b in combinations(range(n), 2):
            low, high = sorted((root(a), root(b)))
            if low == high:
                continue
            image = list(range(m))
            image[group[a]], image[group[b]] = group[b], group[a]
            if fixes(image):
                joined[high] = low
                found.append(tuple(image))
        if not any(root(a) for a in range(n)):
            continue  # the kept transpositions generate every permutation of the class
        step = n  # the kept rotations generate those by multiples of step
        for r in range(1, n):
            if r % step == 0:
                continue
            image = list(range(m))
            for a in range(n):
                image[group[a]] = group[(a + r) % n]
            if fixes(image):
                step = gcd(step, r)
                found.append(tuple(image))
    return tuple(found)


# -- expression language ------------------------------------------------------
#
#   expression := ['-'] term (('+'|'-') term)*
#   term       := factor ('*' factor)*
#   factor     := atom ('^' POSINT)*
#   atom       := INTEGER | VAR | '(' expression ')'
#               | 'subst' '(' expression (',' VAR ',' expression)+ ')'


# one token: a digit run, a name, or any single non-space symbol
_EXPRESSION_TOKEN = re.compile(rf"[0-9]+|{_NAME.pattern}|\S", re.ASCII)
# a parsed subexpression: its expansion under given variable bindings
_Evaluate = Callable[[dict], Polynomial]


def _literal(value) -> _Evaluate:
    return lambda bindings: value


def _fold(first: _Evaluate, steps: list[tuple[Callable, _Evaluate]]) -> _Evaluate:
    """`first`, then each (operator, operand) step applied in turn."""
    if not steps:
        return first

    def evaluate(bindings: dict) -> Polynomial:
        result = first(bindings)
        for operator, operand in steps:
            result = operator(result, operand(bindings))
        return result

    return evaluate


class _ExpressionParser:
    """Recursive descent that reads the whole text before any arithmetic.

    Each rule returns its subexpression as a function of the bindings, a
    dict from each variable name to the polynomial it stands for.  `parse`
    calls the result once, every variable bound to itself, so each
    subexpression, a `subst` target included, is expanded exactly once.
    """

    def __init__(self, text: str, variables: tuple[str, ...]):
        # (token, start) pairs, closed by an empty end token at len(text)
        self.tokens = [(m.group(), m.start()) for m in _EXPRESSION_TOKEN.finditer(text)]
        self.tokens.append(("", len(text)))
        self.index = 0
        self.depth = 0
        self.variables = variables

    def fail(self, message: str):
        """Raise at the start of the current token."""
        raise ExpressionError(message, self.tokens[self.index][1])

    def peek(self) -> str:
        return self.tokens[self.index][0]

    def accept(self, symbol: str) -> bool:
        if self.peek() == symbol:
            self.index += 1
            return True
        return False

    def expect(self, symbol: str) -> None:
        if not self.accept(symbol):
            self.fail(f"expected {symbol!r}")

    def open(self) -> None:
        """Consume '(', refusing it past MAX_NESTING open parentheses."""
        if self.peek() == "(" and self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} parentheses")
        self.expect("(")
        self.depth += 1

    def close(self) -> None:
        self.expect(")")
        self.depth -= 1

    def parse(self) -> Polynomial:
        evaluate = self.expression()
        if self.peek():
            self.fail(f"unexpected input {self.peek()!r}")
        names = self.variables
        return evaluate({name: Polynomial.variable(names, name) for name in names})

    def expression(self) -> _Evaluate:
        negate = self.accept("-")
        first = self.term()
        if negate:
            first = _fold(_literal(Polynomial.zero(self.variables)), [(sub, first)])
        steps = []
        while operator := (add if self.accept("+") else sub if self.accept("-") else None):
            steps.append((operator, self.term()))
        return _fold(first, steps)

    def term(self) -> _Evaluate:
        first = self.factor()
        steps = []
        while self.accept("*"):
            steps.append((mul, self.factor()))
        return _fold(first, steps)

    def factor(self) -> _Evaluate:
        base = self.atom()
        steps = []
        while self.accept("^"):
            token = self.peek()
            if not token.isdigit():
                self.fail("expected an integer")
            n = int(token)
            if n < 1:
                self.fail("exponent must be positive")
            if n > MAX_EXPONENT:
                self.fail(f"exponent overflow: {n} > {MAX_EXPONENT}")
            self.index += 1
            steps.append((pow, _literal(n)))
        return _fold(base, steps)

    def atom(self) -> _Evaluate:
        token = self.peek()
        if token == "(":
            self.open()
            inner = self.expression()
            self.close()
            return inner
        if token.isdigit():
            self.index += 1
            return _literal(Polynomial.constant(self.variables, int(token)))
        if token == "subst":
            self.index += 1
            return self.subst_call()
        if token.isidentifier():
            if token not in self.variables:
                self.fail(f"unknown variable {token!r}")
            self.index += 1
            return itemgetter(token)
        self.fail("expected a number, variable, or '('" if token else "unexpected end of input")

    def subst_call(self) -> _Evaluate:
        """The target under each named variable bound to its value; the
        values read the enclosing bindings, so all are replaced at once."""
        self.open()
        target = self.expression()
        replacements: dict[str, _Evaluate] = {}
        while self.accept(","):
            name = self.peek()
            if not name.isidentifier():
                self.fail("expected a name")
            if name not in self.variables:
                self.fail(f"unknown variable {name!r}")
            if name in replacements:
                self.fail(f"variable {name!r} substituted twice")
            self.index += 1
            self.expect(",")
            replacements[name] = self.expression()
        if not replacements:
            self.fail("subst needs at least one variable/value pair")
        self.close()
        return lambda bindings: target(
            {**bindings, **{name: value(bindings) for name, value in replacements.items()}}
        )


def parse_expression(text: str, variables: Iterable[str] = DEFAULT_VARIABLES) -> Polynomial:
    """Parse and fully expand an expression over the given variables.

    The grammar supports integer literals, variables, +, -, *, ^ with a
    positive integer exponent, parentheses, a leading unary minus, and
    subst(expr, var, expr, ...) performing simultaneous substitution.
    All arithmetic is exact over the integers.  The budgets bound the
    arithmetic of the expansion, so a `subst` is refused exactly when the
    expression with its values written in is; a syntax error anywhere in
    the text is reported first.
    """
    if not text.isascii():
        raise ExpressionError("expression must be ASCII", 0)
    return _ExpressionParser(text, tuple(variables)).parse()


# -- term-list format ---------------------------------------------------------


# the tokens of a term list: a sign, a digit run, or the terminator
_TERM_TOKEN = re.compile(rb"-|[0-9]+|/")


def _blocks(stream: BinaryIO) -> Iterator[bytes]:
    """The bytes of a binary stream, _READ_SIZE at a time, cut so that no
    digit run is split between two blocks."""
    carry = b""
    while block := stream.read(_READ_SIZE):
        block = carry + block
        cut = len(block.rstrip(b"0123456789"))
        carry = block[cut:]
        yield block[:cut]
    yield carry


def parse_term_list(
    data: bytes | str | BinaryIO, variables: Iterable[str] = DEFAULT_VARIABLES
) -> Polynomial:
    """Parse the '/'-terminated integer term stream.

    Each term is one signed coefficient followed by one exponent per
    variable; any characters other than digits, '-' and '/' act as
    separators and are otherwise ignored.  All terms must share one total
    degree; duplicate exponent vectors are summed.  A list of more than
    MAX_PRODUCT_TERMS terms is refused at the first number past that
    budget, as an expression whose expansion would need that many term
    pairs is.  A binary stream is read a block at a time, and no further
    than that number or the terminator.
    """
    names = tuple(variables)
    if isinstance(data, str):
        data = data.encode("ascii", errors="replace")
    blocks = _blocks(data) if hasattr(data, "read") else [data]
    width = len(names) + 1
    numbers: list[int] = []
    negative = False
    for match in chain.from_iterable(map(_TERM_TOKEN.finditer, blocks)):
        token = match.group()
        if token == b"/":
            break
        if token == b"-":
            negative = True
            continue
        if len(numbers) == MAX_PRODUCT_TERMS * width:
            raise TermListError(f"too many terms: {MAX_PRODUCT_TERMS + 1} > {MAX_PRODUCT_TERMS}")
        value = int(token)
        numbers.append(-value if negative else value)
        negative = False
    else:
        raise TermListError("unexpected end of stream: missing '/' terminator")
    if negative:
        raise TermListError("dangling '-' with no following number")
    if len(numbers) % width != 0:
        raise TermListError(
            f"incomplete term before '/': got {len(numbers)} numbers, "
            f"expected a multiple of {width}"
        )
    terms = []
    degree = None
    for k in range(0, len(numbers), width):
        coefficient = numbers[k]
        exponents = tuple(numbers[k + 1 : k + width])
        if any(a < 0 for a in exponents):
            raise TermListError(f"negative exponent in term {numbers[k:k + width]}")
        e = sum(exponents)
        if degree is None:
            degree = e
        elif e != degree:
            raise TermListError(f"degree error: term {numbers[k:k + width]} has degree {e}, expected {degree}")
        terms.append((exponents, coefficient))
    return Polynomial(names, terms)


def emit_term_list(poly: Polynomial) -> bytes:
    """Serialize to the term-list format, terms in canonical order.

    Round-trips exactly through parse_term_list.
    """
    lines = [
        " ".join([str(coefficient), *map(str, exponents)])
        for exponents, coefficient in poly.sorted_terms()
    ]
    text = "\n".join(lines) + (" /" if lines else "/")
    return text.encode("ascii")
