"""Monomial trees: canonical form, parsing, formatting, enumeration."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from peirce_lab import magma
from peirce_lab.magma import (
    MAX_ENUMERATION_DEGREE,
    Monomial,
    MonomialSyntaxError,
    atom,
    enumerate_monomials,
    format_monomial,
    parse_monomial,
    plenary_power,
    power,
    principal_power,
    product,
)


def wedderburn_etherington(n_max):
    # Independent oracle: a(1)=1; a(2n-1) = sum_{i<n} a(i)a(2n-1-i);
    # a(2n) = a(n)(a(n)+1)/2 + sum_{i<n} a(i)a(2n-i).
    a = [0, 1]
    for n in range(2, n_max + 1):
        total = sum(a[i] * a[n - i] for i in range(1, (n + 1) // 2))
        if n % 2 == 0:
            h = a[n // 2]
            total += h * (h + 1) // 2
        a.append(total)
    return a


def test_enumeration_counts_match_recurrence():
    oracle = wedderburn_etherington(10)
    for d in range(1, 11):
        assert len(enumerate_monomials(d)) == oracle[d]


def test_enumeration_counts_small():
    assert [len(enumerate_monomials(d)) for d in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]


def test_enumeration_no_duplicates_and_degrees():
    for d in range(1, 10):
        ms = enumerate_monomials(d)
        assert len(set(ms)) == len(ms)
        assert all(m.degree == d for m in ms)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_monomials(0)
    with pytest.raises(ValueError):
        enumerate_monomials(MAX_ENUMERATION_DEGREE + 1)
    assert len(enumerate_monomials(15, max_degree=15)) > 0


def test_atom_singleton_and_equality():
    assert atom() is atom()
    assert atom() == parse_monomial("z")
    assert atom().degree == 1
    assert atom().is_atom


def test_product_commutative():
    z = atom()
    z2 = product(z, z)
    left = product(z2, z)
    right = product(z, z2)
    assert left == right
    assert hash(left) == hash(right)


def test_powers():
    assert principal_power(1) == atom()
    assert principal_power(4).degree == 4
    assert plenary_power(4).degree == 8
    assert plenary_power(1) == atom()
    assert plenary_power(2) == principal_power(2)
    assert plenary_power(3) == product(principal_power(2), principal_power(2))
    assert power(atom(), 3) == principal_power(3)
    with pytest.raises(ValueError):
        power(atom(), 0)
    with pytest.raises(ValueError):
        plenary_power(0)


def test_parse_examples():
    assert parse_monomial("z") == atom()
    assert parse_monomial("z^2") == product(atom(), atom())
    assert parse_monomial("z*z") == principal_power(2)
    assert parse_monomial("z^[3]") == plenary_power(3)
    assert parse_monomial("(z^2)*(z^2)") == plenary_power(3)
    assert parse_monomial("z^2*z^2") == plenary_power(3)
    assert parse_monomial(" z ^ 4 ") == principal_power(4)
    assert parse_monomial("(z*z^2)*z") == product(product(atom(), principal_power(2)), atom())


def test_parse_nonassociativity_matters():
    # z*(z*(z*z)) vs ((z*z)*z)*z: degree 4 has two distinct shapes
    right_comb = parse_monomial("z*(z*(z*z))")
    left_comb = parse_monomial("((z*z)*z)*z")
    assert left_comb == right_comb  # both are principal z^4 up to commutativity
    assert parse_monomial("(z*z)*(z*z)") != left_comb


def test_parse_errors_carry_position():
    for bad in ["", "z*", "z^", "z^0", "(z", "z)", "z^[0]", "x", "z z", "z^[2", "*z"]:
        with pytest.raises(MonomialSyntaxError):
            parse_monomial(bad)
    try:
        parse_monomial("z*&")
    except MonomialSyntaxError as exc:
        assert exc.position == 2


def test_format_sugar():
    assert format_monomial(atom()) == "z"
    assert format_monomial(principal_power(5)) == "z^5"
    assert format_monomial(plenary_power(4)) == "z^[4]"
    assert format_monomial(plenary_power(2)) == "z^2"  # z^[2] == z^2, principal wins
    m = product(product(atom(), principal_power(2)), atom())
    assert parse_monomial(format_monomial(m)) == m


def test_format_parse_round_trip_full_enumeration():
    for d in range(1, 11):
        for m in enumerate_monomials(d):
            assert parse_monomial(format_monomial(m)) == m


@given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
def test_random_tree_canonical_invariance(degree, rng):
    def build(d):
        if d == 1:
            return atom()
        split = rng.randint(1, d - 1)
        a, b = build(split), build(d - split)
        return product(a, b) if rng.random() < 0.5 else product(b, a)

    m = build(degree)
    assert m.degree == degree
    assert parse_monomial(format_monomial(m)) == m


def test_equal_monomials_built_along_different_paths_hash_equal():
    z = atom()
    z2 = product(z, z)
    # (z^2 * z) * z^2 built with the factors in either order, or parsed
    paths = [
        product(product(z2, z), z2),
        product(z2, product(z, z2)),
        parse_monomial("z^2*(z*z^2)"),
        parse_monomial("(z*z)*(z^2*z)"),
    ]
    assert len({id(m) for m in paths}) == 1
    for m in paths:
        assert m == paths[0]
        assert hash(m) == hash(paths[0])
    assert len(set(paths)) == 1
    assert hash(plenary_power(4)) == hash(product(plenary_power(3), plenary_power(3)))
    assert hash(principal_power(6)) == hash(power(atom(), 6))


def test_principal_power_builds_in_linear_time():
    # hashing the whole nested key made each new node cost its depth, so the
    # build was quadratic; at O(1) per node it takes milliseconds
    start = time.perf_counter()
    m = principal_power(5000)
    assert time.perf_counter() - start < 0.2
    assert m.degree == 5000


def old_key(m):
    # the recursive tuple key that ordered monomials before they were interned
    return (1,) if m.is_atom else (m.degree, old_key(m.left), old_key(m.right))


def test_order_matches_the_recursive_key_up_to_degree_10():
    ms = [m for d in range(1, 11) for m in enumerate_monomials(d)]
    random.Random(0).shuffle(ms)
    assert sorted(ms) == sorted(ms, key=old_key)


def test_enumeration_is_in_the_order_of_the_recursive_key():
    for d in range(1, 13):
        ms = enumerate_monomials(d)
        assert ms == sorted(ms, key=old_key)


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=12),
       st.randoms(use_true_random=False))
def test_order_matches_the_recursive_key_on_random_monomials(degrees, rng):
    def build(d):
        if d == 1:
            return atom()
        split = rng.randint(1, d - 1)
        return product(build(split), build(d - split))

    ms = [build(d) for d in degrees]
    assert sorted(ms) == sorted(ms, key=old_key)
    for a in ms:
        for b in ms:
            assert (a < b) == (old_key(a) < old_key(b))
            assert (a <= b) == (old_key(a) <= old_key(b))


def left_chain(base, factors):
    # base*z*z*...*z as the parser reads it: each step multiplies by z
    return parse_monomial(format_monomial(base) + "*z" * (factors - 1))


def test_deep_monomials_compare_without_recursion():
    assert principal_power(3000) == principal_power(3000)
    assert principal_power(3000) is principal_power(3000)
    a, b = principal_power(3000), left_chain(plenary_power(3), 2997)
    assert a.degree == b.degree == 3000
    # they first differ at the bottom: z^4 = z*z^3 against z^[3] = z^2*z^2
    assert a < b and not b < a and a != b


def test_deep_left_chain_formats_without_recursion():
    m = left_chain(plenary_power(3), 3000)
    assert format_monomial(m) == "z*(" * 2998 + "z*z^[3]" + ")" * 2998


def test_deep_left_chain_round_trips():
    # 2998 nested parentheses, far past the default recursion limit
    m = left_chain(plenary_power(3), 3000)
    assert parse_monomial(format_monomial(m)) is m


class RecursiveParser:
    """The recursive-descent parser the iterative one replaced: the oracle
    for its results, error messages and error positions."""

    def __init__(self, text):
        self.text = text
        self.tokens = magma._tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def expect(self, tok):
        if self.peek() != tok:
            raise MonomialSyntaxError(f"expected {tok!r}", self.pos())
        self.i += 1

    def integer(self):
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise MonomialSyntaxError("expected an integer", self.pos())
        if int(tok) == 0:
            raise MonomialSyntaxError("exponent 0 is not allowed", self.pos())
        self.i += 1
        return int(tok)

    def expression(self):
        out = self.factor()
        while self.peek() == "*":
            self.i += 1
            out = product(out, self.factor())
        return out

    def factor(self):
        out = self.primary()
        while self.peek() == "^":
            self.i += 1
            if self.peek() == "[":
                self.i += 1
                n = self.integer()
                self.expect("]")
                for _ in range(n - 1):
                    out = product(out, out)
            else:
                out = power(out, self.integer())
        return out

    def primary(self):
        tok = self.peek()
        if tok == "z":
            self.i += 1
            return atom()
        if tok == "(":
            self.i += 1
            out = self.expression()
            self.expect(")")
            return out
        raise MonomialSyntaxError("expected 'z' or '('", self.pos())

    def parse(self):
        if not self.tokens:
            raise MonomialSyntaxError("empty input", 0)
        out = self.expression()
        if self.peek() is not None:
            raise MonomialSyntaxError(f"trailing input {self.peek()!r}", self.pos())
        return out


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except MonomialSyntaxError as exc:
        return str(exc), exc.position


@settings(max_examples=400)
@given(st.lists(st.sampled_from(["z", "z", "*", "(", ")", "^", "[", "]", "0", "2", "3", " ", "x"]), max_size=14))
def test_parser_agrees_with_recursive_oracle(pieces):
    text = "".join(pieces)
    want = _parse_outcome(lambda t: RecursiveParser(t).parse(), text)
    assert _parse_outcome(parse_monomial, text) == want


@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda d: st.sampled_from(enumerate_monomials(d))))
def test_parser_agrees_with_recursive_oracle_on_formatted_text(m):
    # well-formed text with parentheses, powers and plenary sugar
    text = format_monomial(product(m, atom())) + "*(z^2*z)^[2]"
    assert parse_monomial(text) is RecursiveParser(text).parse()
