"""The result records: dataclass behaviour without dataclasses, and start-up.

Each immutable record is checked against a test-local frozen dataclass with
the same name and fields, the code the records replaced."""

import copy
import dataclasses
import json
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import peirce_lab
from peirce_lab.algebras import (
    PeirceDecomposition,
    StructureAlgebra,
    VerificationReport,
    algebra_from_json,
    algebra_to_json,
    build_algebra,
    builder_names,
)
from peirce_lab.identities import (
    FusionTable,
    IdentityTerm,
    SpectrumReport,
    WeightDescriptor,
    WeightedIdentity,
    constant_weight,
    identity_from_json,
    identity_to_json,
    make_identity,
)
from peirce_lab.magma import enumerate_monomials
from peirce_lab.poly import Poly1

FIELDS = {
    WeightDescriptor: ("baric_exp", "bilinear_args"),
    IdentityTerm: ("coeff", "monomial", "weight"),
    WeightedIdentity: ("terms", "name"),
    SpectrumReport: ("peirce_poly", "roots", "residual", "degenerate"),
    FusionTable: ("spectrum", "entries", "mode", "refinements_applied"),
    PeirceDecomposition: (
        "idempotent", "char_poly", "eigenvalues", "eigenbases", "residual", "semisimple",
    ),
    VerificationReport: ("ok", "subject", "failures"),
}
REAL = {cls: cls for cls in FIELDS}
ORACLE = {
    cls: dataclasses.make_dataclass(
        cls.__name__, names, frozen=True, order=cls is WeightDescriptor
    )
    for cls, names in FIELDS.items()
}

# small domains, so that equal values are drawn often
monomials = st.integers(1, 5).flatmap(lambda d: st.sampled_from(enumerate_monomials(d)))
fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
polys = st.builds(Poly1, st.dictionaries(st.integers(0, 2), fractions, max_size=2))
vectors = st.lists(fractions, min_size=2, max_size=2).map(tuple)
names = st.sampled_from([None, "a", "b"])
weights = st.tuples(
    st.integers(0, 2), st.lists(monomials, max_size=2).map(lambda ms: tuple(sorted(ms)))
)
terms = st.tuples(fractions, monomials, weights)
# a WeightedIdentity stores its terms in normal form, which the dataclass
# oracle does not make, so the records are compared on normal-form terms:
# at least one, with distinct monomial and weight, nonzero and sorted
normal_terms = st.lists(terms.filter(lambda t: t[0]), min_size=1, max_size=3, unique_by=lambda t: t[1:]).map(
    lambda ts: tuple(sorted(ts, key=lambda t: t[1:]))
)

STRATEGIES = {
    WeightDescriptor: weights,
    IdentityTerm: terms,
    WeightedIdentity: st.tuples(normal_terms, names),
    SpectrumReport: st.tuples(
        polys, st.lists(st.tuples(fractions, st.integers(1, 2)), max_size=2).map(tuple),
        polys, st.booleans(),
    ),
    FusionTable: st.tuples(
        st.lists(fractions, max_size=2).map(tuple),
        st.dictionaries(st.tuples(fractions, fractions), st.frozensets(fractions, max_size=2),
                        max_size=2),
        st.sampled_from(["generic", "metrized_orthogonal"]),
        st.sampled_from([(), ("b-orthogonal Peirce components",)]),
    ),
    PeirceDecomposition: st.tuples(
        vectors, polys, st.lists(fractions, max_size=2).map(tuple),
        st.dictionaries(fractions, st.lists(vectors, max_size=2).map(tuple), max_size=2),
        polys, st.booleans(),
    ),
    VerificationReport: st.tuples(
        st.booleans(), st.sampled_from(["identity", "fusion"]),
        st.lists(st.sampled_from(["x", "y"]), max_size=2).map(tuple),
    ),
}


def build(classes, cls, raw):
    """The record (classes=REAL) or its oracle (classes=ORACLE) from raw
    field values; nested records are built from the same family."""
    if cls is IdentityTerm:
        coeff, monomial, weight = raw
        return classes[cls](coeff, monomial, build(classes, WeightDescriptor, weight))
    if cls is WeightedIdentity:
        terms, name = raw
        return classes[cls](tuple(build(classes, IdentityTerm, t) for t in terms), name)
    return classes[cls](*raw)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception's kind and text are what is compared
        # a frozen dataclass raises FrozenInstanceError, an AttributeError
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return "raises", kind, str(exc)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_records_behave_like_frozen_dataclasses(cls, data):
    raw_a, raw_b = data.draw(STRATEGIES[cls]), data.draw(STRATEGIES[cls])
    a, b = build(REAL, cls, raw_a), build(REAL, cls, raw_b)
    oa, ob = build(ORACLE, cls, raw_a), build(ORACLE, cls, raw_b)
    assert (a == b) == (oa == ob) and (a != b) == (oa != ob)
    assert a == build(REAL, cls, raw_a)
    assert repr(a) == repr(oa)
    assert outcome(hash, a) == outcome(hash, oa)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        assert outcome(op, a, b) == outcome(op, oa, ob)
    for name in FIELDS[cls] + ("not_a_field",):
        assert outcome(setattr, a, name, 0) == outcome(setattr, oa, name, 0)
        assert outcome(delattr, a, name) == outcome(delattr, oa, name)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_records_survive_copy_and_pickle(cls, data):
    record = build(REAL, cls, data.draw(STRATEGIES[cls]))
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == repr(record)
        assert outcome(hash, clone) == outcome(hash, record)


def test_identity_term_defaults_to_the_constant_weight():
    (m,) = enumerate_monomials(1)
    term = IdentityTerm(Fraction(1), m)
    assert term.weight == constant_weight() == WeightDescriptor()
    assert term == IdentityTerm(coeff=Fraction(1), monomial=m, weight=constant_weight())


ALGEBRA_FIELDS = ("dim", "structure", "bilinear_form", "weight", "idempotents", "name")
AlgebraOracle = dataclasses.make_dataclass("StructureAlgebra", ALGEBRA_FIELDS)


def test_structure_algebra_is_an_immutable_hashable_record():
    alg = build_algebra("hsiang_sym3")
    oracle = AlgebraOracle(*(getattr(alg, name) for name in ALGEBRA_FIELDS))
    assert repr(alg) == repr(oracle)
    same = build_algebra("hsiang_sym3")
    assert alg == same and not alg != same
    assert hash(alg) == hash(same)
    # no field can be changed under the integer copies that multiply reads
    for name in ALGEBRA_FIELDS + ("_den", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(alg, name, 0)
        with pytest.raises(AttributeError):
            delattr(alg, name)
    # the integer copies are not compared
    object.__setattr__(same, "_den", same._den * 7)
    assert alg == same and hash(alg) == hash(same)
    for clone in (copy.copy(alg), copy.deepcopy(alg), pickle.loads(pickle.dumps(alg))):
        assert type(clone) is StructureAlgebra and clone == alg and hash(clone) == hash(alg)
        assert clone.multiply(alg.idempotents[0], alg.idempotents[0]) == alg.idempotents[0]
    renamed = StructureAlgebra(*(getattr(alg, name) for name in ALGEBRA_FIELDS[:-1]), name="renamed")
    assert alg != renamed and renamed.name == "renamed"
    assert alg != oracle


# a name of the wrong type is drawn too, since a constructor must refuse
# what the JSON form cannot hold
drawn_names = st.sampled_from([5, None, ""]) | st.text(max_size=3)


@st.composite
def structure_algebra_args(draw):
    """Arguments for StructureAlgebra: a built-in algebra's fields, or a
    commutative structure on at most 3 basis vectors with no form or a zero
    one; dim may be True when it is 1."""
    if draw(st.booleans()):
        alg = build_algebra(draw(st.sampled_from(builder_names())))
        n, structure, form, weight, idempotents = (getattr(alg, name) for name in ALGEBRA_FIELDS[:-1])
    else:
        n = draw(st.integers(1, 3))
        row = st.lists(fractions, min_size=n, max_size=n).map(tuple)
        upper = {(i, j): draw(row) for i in range(n) for j in range(i, n)}
        structure = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
        form = draw(st.sampled_from([None, ((Fraction(0),) * n,) * n]))
        weight = draw(st.none() | row)
        idempotents = tuple(draw(st.lists(row, max_size=2)))
    return draw(st.sampled_from([n, True] if n == 1 else [n])), structure, form, weight, idempotents, draw(drawn_names)


@st.composite
def identity_args(draw):
    """Terms for an identity, the last one drawn so that the coefficients
    sum to zero, with weights whose bilinear arguments come in any order."""
    weights = st.builds(WeightDescriptor, st.integers(0, 2), st.lists(monomials, max_size=2))
    terms = draw(st.lists(st.tuples(fractions, monomials, weights), min_size=1, max_size=3))
    terms.append((-sum(t[0] for t in terms), draw(monomials), draw(weights)))
    return terms, draw(drawn_names)


@given(algebra=structure_algebra_args(), identity=identity_args())
def test_what_a_constructor_accepts_comes_back_through_json(algebra, identity):
    # StructureAlgebra(True, ...) used to write "dim": true and name=5
    # "name": 5, which algebra_from_json refuses, and name=None to read back as "";
    # WeightedIdentity used to store its terms unmerged, which read back merged
    for build_record, to_json, from_json, args in ((StructureAlgebra, algebra_to_json, algebra_from_json, algebra),
                                                   (make_identity, identity_to_json, identity_from_json, identity),
                                                   (WeightedIdentity, identity_to_json, identity_from_json, identity)):
        try:
            record = build_record(*args)
        except (TypeError, ValueError):  # refused: a name of the wrong type, a form that is not associating, ...
            continue
        assert from_json(json.dumps(to_json(record))) == record


def _modules_after_importing(module):
    """The modules loaded by importing `module` with the package and tests/ on the path."""
    # under -S no site hook runs, so a host's .pth file cannot load a module first
    path = os.pathsep.join([os.path.dirname(os.path.dirname(peirce_lab.__file__)), os.path.dirname(__file__)])
    code = f"import {module}, sys; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True,
                         capture_output=True, text=True)
    modules = set(out.stdout.split())
    assert module in modules
    return modules


def test_import_loads_neither_dataclasses_nor_inspect():
    assert {"dataclasses", "inspect"} & _modules_after_importing("peirce_lab.cli") == set()


def test_import_does_not_load_typing():
    # annotations name collections.abc types, so the package needs no typing at run time
    assert "typing" not in _modules_after_importing("peirce_lab.cli")


def test_the_reference_oracles_load_no_peirce_lab_module():
    # tests/reference.py checks the package, so it must not be computed by it
    assert {m for m in _modules_after_importing("reference") if m.startswith("peirce_lab")} == set()
