import itertools

import numpy as np
import pytest

from comblevy.structures import (
    Permutation,
    Signature,
    Structure,
    _Formatter,
    _Parser,
    _cell_lists,
    _cells,
    _set_bits,
    agreement_level,
    empty_structure,
    increment,
    parse,
    relabel,
    restrict,
    serialize,
    serialize_cells,
)
from comblevy.rng import make_rng

from helpers import (
    naive_increment,
    naive_relabel,
    naive_restrict,
    random_permutation,
    random_structure,
)

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG12 = Signature((1, 2))
SIG3 = Signature((3,))

ALL_SIGS = [SIG1, SIG2, SIG12, SIG3]


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


class TestSignature:
    def test_parse_roundtrip(self):
        for text in ["(1)", "(2)", "(1,2)", "(0,1,3)", "()"]:
            assert str(Signature.parse(text)) == text

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Signature((2, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Signature((-1,))

    def test_rejects_malformed_text(self):
        for text in ["1,2", "(1,2", "(a)", ""]:
            with pytest.raises(ValueError):
                Signature.parse(text)


class TestEmptyStructure:
    def test_set(self):
        m = empty_structure(SIG1, 3)
        assert m.n == 3 and m.tuples(0) == []

    def test_graph(self):
        assert empty_structure(SIG2, 2).tuples(0) == []

    def test_degenerate_n0(self):
        m = empty_structure(SIG12, 0)
        assert m.n == 0 and m.is_empty()

    def test_negative_n(self):
        with pytest.raises(ValueError):
            empty_structure(SIG1, -1)


class TestIncrement:
    def test_symmetric_difference(self):
        a = S(SIG1, 3, {1, 2})
        b = S(SIG1, 3, {2, 3})
        assert increment(a, b) == S(SIG1, 3, {1, 3})

    def test_self_inverse(self):
        m = S(SIG2, 3, {(1, 2), (3, 3)})
        assert increment(m, m) == empty_structure(SIG2, 3)

    def test_identity(self):
        m = S(SIG1, 4, {2, 4})
        assert increment(m, empty_structure(SIG1, 4)) == m

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            increment(S(SIG1, 2, {1}), S(SIG1, 3, {1}))
        with pytest.raises(ValueError):
            increment(S(SIG1, 2, {1}), empty_structure(SIG2, 2))

    def test_against_naive(self):
        rng = make_rng(101)
        for sig in ALL_SIGS:
            for _ in range(10):
                n = int(rng.integers(1, 5))
                a = random_structure(rng, sig, n)
                b = random_structure(rng, sig, n)
                assert increment(a, b) == naive_increment(a, b)


class TestRestrict:
    def test_edges(self):
        m = S(SIG2, 3, {(1, 2), (2, 3)})
        assert restrict(m, 2) == S(SIG2, 2, {(1, 2)})

    def test_identity(self):
        m = S(SIG2, 3, {(1, 2), (2, 3)})
        assert restrict(m, 3) == m

    def test_to_zero(self):
        m = S(SIG1, 3, {1, 2})
        assert restrict(m, 0) == empty_structure(SIG1, 0)

    def test_rejects_growth(self):
        with pytest.raises(ValueError):
            restrict(S(SIG1, 2, {1}), 3)

    def test_against_naive(self):
        rng = make_rng(102)
        for sig in ALL_SIGS:
            for _ in range(10):
                n = int(rng.integers(1, 5))
                m = random_structure(rng, sig, n)
                k = int(rng.integers(0, n + 1))
                assert restrict(m, k) == naive_restrict(m, k)


class TestRelabel:
    def test_set_swap(self):
        # sigma swaps 1 and 2; sigma(2) = 1 is in A, so 2 is in the image
        m = S(SIG1, 2, {1})
        swap = Permutation(2, (2, 1))
        assert relabel(m, swap) == S(SIG1, 2, {2})

    def test_identity(self):
        m = S(SIG2, 3, {(1, 2)})
        assert relabel(m, Permutation.identity(3)) == m

    def test_three_cycle(self):
        # sigma: 1->2, 2->3, 3->1 on the edge set {(1,2)}; enumerating all
        # nine cells, the only (a,b) with (sigma(a),sigma(b)) = (1,2) is (3,1)
        m = S(SIG2, 3, {(1, 2)})
        cycle = Permutation(3, (2, 3, 1))
        expected = S(SIG2, 3, {(3, 1)})
        assert relabel(m, cycle) == expected
        assert naive_relabel(m, cycle) == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            relabel(S(SIG1, 2, {1}), Permutation.identity(3))

    def test_against_naive(self):
        rng = make_rng(103)
        for sig in ALL_SIGS:
            for _ in range(10):
                n = int(rng.integers(1, 5))
                m = random_structure(rng, sig, n)
                sigma = random_permutation(rng, n)
                assert relabel(m, sigma) == naive_relabel(m, sigma)

    def test_composition_convention_exhaustive(self):
        # (M^sigma)^tau = M^{sigma o tau} with (sigma o tau)(i) = sigma(tau(i)),
        # checked over every permutation pair at n = 3
        rng = make_rng(104)
        m = random_structure(rng, SIG2, 3)
        perms = [
            Permutation(3, img) for img in itertools.permutations((1, 2, 3))
        ]
        for sigma in perms:
            for tau in perms:
                lhs = relabel(relabel(m, sigma), tau)
                assert lhs == relabel(m, sigma.compose(tau))

    def test_composition_random_n4(self):
        rng = make_rng(105)
        for _ in range(25):
            m = random_structure(rng, SIG12, 4)
            sigma = random_permutation(rng, 4)
            tau = random_permutation(rng, 4)
            assert relabel(relabel(m, sigma), tau) == relabel(m, sigma.compose(tau))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(3, (1, 1, 2))

    def test_inverse(self):
        sigma = Permutation(4, (3, 1, 4, 2))
        assert sigma.compose(sigma.inverse()) == Permutation.identity(4)
        assert sigma.inverse().compose(sigma) == Permutation.identity(4)


class TestAgreementLevel:
    def test_equal(self):
        m = S(SIG1, 3, {1, 2})
        assert agreement_level(m, m) == 3

    def test_spec_case(self):
        # restrictions agree at size 1 ({1} both) and differ at size 2
        a = S(SIG1, 3, {1, 2})
        b = S(SIG1, 3, {1, 3})
        assert agreement_level(a, b) == 1

    def test_difference_touching_one(self):
        a = S(SIG1, 3, {1})
        b = empty_structure(SIG1, 3)
        assert agreement_level(a, b) == 0

    def test_matches_restriction_scan(self):
        rng = make_rng(106)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = random_structure(rng, SIG12, n)
            b = random_structure(rng, SIG12, n)
            level = agreement_level(a, b)
            expected = max(
                (m for m in range(n + 1) if restrict(a, m) == restrict(b, m)),
                default=-1,
            )
            assert level == expected
            assert (level == n) == (a == b)

    def test_arity_zero_disagreement(self):
        sig0 = Signature((0, 1))
        a = Structure.from_tuples(sig0, 2, [[()], []])
        b = Structure.from_tuples(sig0, 2, [[], []])
        assert agreement_level(a, b) == -1


class TestGroupLaws:
    def test_laws_random(self):
        rng = make_rng(107)
        for sig in ALL_SIGS:
            for _ in range(25):
                n = int(rng.integers(1, 6))
                a = random_structure(rng, sig, n)
                b = random_structure(rng, sig, n)
                c = random_structure(rng, sig, n)
                empty = empty_structure(sig, n)
                assert increment(a, b) == increment(b, a)
                assert increment(increment(a, b), c) == increment(a, increment(b, c))
                assert increment(a, a) == empty
                assert increment(a, empty) == a

    def test_restriction_homomorphism(self):
        rng = make_rng(108)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = random_structure(rng, SIG12, n)
            b = random_structure(rng, SIG12, n)
            for m in range(n + 1):
                assert restrict(increment(a, b), m) == increment(
                    restrict(a, m), restrict(b, m)
                )

    def test_relabeling_homomorphism(self):
        rng = make_rng(109)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = random_structure(rng, SIG2, n)
            b = random_structure(rng, SIG2, n)
            sigma = random_permutation(rng, n)
            assert relabel(increment(a, b), sigma) == increment(
                relabel(a, sigma), relabel(b, sigma)
            )


class TestSerialization:
    def test_empty_set(self):
        assert serialize(empty_structure(SIG1, 2)) == "L=(1)|n=2|R1={}"

    def test_sorted_edges(self):
        m = S(SIG2, 2, {(2, 1), (1, 2)})
        assert serialize(m) == "L=(2)|n=2|R1={(1,2);(2,1)}"

    def test_community_structure(self):
        m = Structure.from_tuples(SIG12, 2, [{1}, {(2, 1)}])
        assert serialize(m) == "L=(1,2)|n=2|R1={(1)}|R2={(2,1)}"

    def test_roundtrip_random(self):
        rng = make_rng(110)
        for sig in ALL_SIGS:
            for _ in range(25):
                n = int(rng.integers(0, 6))
                m = random_structure(rng, sig, n)
                assert parse(serialize(m)) == m

    def test_parse_rejects_malformed(self):
        bad = [
            "",
            "L=(1)",
            "L=(1)|n=x|R1={}",
            "L=(1)|n=2|R1={(3)}",          # entry out of range
            "L=(1)|n=2|R1={(1,2)}",        # wrong arity
            "L=(2)|n=2|R1={(2,1);(1,2)}",  # not sorted
            "L=(1)|n=2|R1={(1);(1)}",      # duplicate
            "L=(1)|n=2|R1={}|R2={}",       # extra relation
            "L=(1)|n=2",                   # missing relation
            "L=(1)|n=-1|R1={}",
            # non-canonical labels and heads
            "L=(2)|n=3|R1={(1, 2)}",
            "L=(2)|n=3|R1={(+1,2)}",
            "L=(2)|n=3|R1={(01,2)}",
            "L=(1)|n=20|R1={(1_0)}",
            "L=(1)|n=20|R1={(\u0663)}",   # Arabic-Indic digit three
            "L=( 2)|n=3|R1={(1,2)}",
            "L=(2)|n=+3|R1={(1,2)}",
            "L=(2)|n=03|R1={(1,2)}",
        ]
        for text in bad:
            with pytest.raises(ValueError):
                parse(text)

    def test_arity_zero_tuple(self):
        sig0 = Signature((0,))
        m = Structure.from_tuples(sig0, 1, [[()]])
        assert serialize(m) == "L=(0)|n=1|R1={()}"
        assert parse(serialize(m)) == m


class TestParser:
    """The per-file parser against the set-bit decode and the serializer."""

    def test_matches_decode(self):
        rng = make_rng(123)
        for sig in (Signature((0, 1)), SIG2, SIG12, SIG3, Signature((0, 1, 2, 3))):
            for n in (0, 1, 3, 11):
                if n**sig.max_arity > 1500:
                    continue
                parser = _Parser(sig, n)
                states = [empty_structure(sig, n)]
                states.append(Structure(sig, n, tuple((1 << n**a) - 1 for a in sig.arities)))
                states += [
                    random_structure(rng, sig, n, density=d)
                    for d in (0.05, 0.3, 0.5, 0.3, 0.95)
                ]
                texts = [serialize(m) for m in states]
                cells, counts = parser.batch(texts)
                assert _cell_lists(cells, counts) == [_cells(m) for m in states]
                for m, text in zip(states, texts):
                    assert parse(text) == m

    def test_rejects_other_shape(self):
        parser = _Parser(SIG12, 3)
        for text in ("L=(1,2)|n=4|R1={}|R2={}", "L=(2)|n=3|R1={}", "L=(1,2)|n=3|R1={}"):
            with pytest.raises(ValueError):
                parser.batch([text])
        cells, counts = parser.batch(["L=(1,2)|n=3|R1={(3)}|R2={(1,1)}"])
        assert _cell_lists(cells, counts) == [[[2], [0]]]


    def test_batch_check_agrees_with_piecewise_check(self):
        # single-character edits of canonical texts: the batch check accepts
        # exactly the texts in which the piecewise check finds no defect,
        # rejects the others with that defect, and reads each accepted text
        # back to itself
        rng = make_rng(124)
        alphabet = "0123456789(),;|{}=LRn "
        for sig, n in [(SIG1, 12), (SIG12, 3), (Signature((0, 2)), 4)]:
            parser = _Parser(sig, n)
            for _ in range(200):
                text = serialize(random_structure(rng, sig, n, density=0.2))
                i = int(rng.integers(0, len(text)))
                c = alphabet[int(rng.integers(0, len(alphabet)))]
                for edited in (text[:i] + c + text[i:], text[:i] + c + text[i + 1:], text[:i] + text[i + 1:]):
                    defect = parser._defect(edited)
                    try:
                        cells, counts = parser.batch([text, edited, text])
                    except ValueError as exc:
                        assert (exc.index, str(exc)) == (1, defect)
                    else:
                        assert defect is None
                        assert serialize_cells(sig, n, _cell_lists(cells, counts)[1]) == edited


class TestFromTuples:
    def test_validates_entries(self):
        with pytest.raises(ValueError):
            S(SIG1, 2, {3})
        with pytest.raises(ValueError):
            S(SIG2, 2, {(1, 2, 1)})
        with pytest.raises(ValueError):
            Structure.from_tuples(SIG1, 2, [[], []])

    def test_arity_three_backing(self):
        m = Structure.from_tuples(SIG3, 2, [{(1, 2, 1), (2, 2, 2)}])
        assert m.tuples(0) == [(1, 2, 1), (2, 2, 2)]
        assert m.tuple_count(0) == 2
        assert parse(serialize(m)) == m


def _scan(mask: int, n: int, arity: int) -> list[tuple[int, ...]]:
    """Brute-force membership scan: every tuple over [n] in lexicographic
    order, kept when the bit at its mixed-radix index is set."""
    present = []
    for t in itertools.product(range(1, n + 1), repeat=arity):
        idx = sum((a - 1) * n ** (arity - 1 - pos) for pos, a in enumerate(t))
        if mask >> idx & 1:
            present.append(t)
    return present


def _scan_text(m: Structure) -> str:
    """Canonical text built from the membership scan alone."""
    fields = [f"L={m.signature}", f"n={m.n}"]
    for j, (arity, mask) in enumerate(zip(m.signature.arities, m.relations), start=1):
        body = ";".join(
            "(" + ",".join(str(a) for a in t) + ")" for t in _scan(mask, m.n, arity)
        )
        fields.append(f"R{j}={{{body}}}")
    return "|".join(fields)


class TestLinearDecode:
    """The set-bit decode and the cached-token formatter against a
    brute-force membership scan."""

    CASES = [(1, 1), (1, 9), (1, 64), (2, 1), (2, 5), (2, 12), (3, 2), (3, 5)]

    def _masks(self, rng, n, arity):
        width = n**arity
        full = (1 << width) - 1
        random = [int(sum(1 << int(i) for i in np.flatnonzero(rng.random(width) < d)))
                  for d in (0.05, 0.5, 0.95)]
        return [0, full, 1, 1 << (width - 1)] + random

    def test_decode_matches_scan(self):
        rng = make_rng(120)
        for arity, n in self.CASES:
            for mask in self._masks(rng, n, arity):
                m = Structure(Signature((arity,)), n, (mask,))
                assert m.tuples(0) == _scan(mask, n, arity)
                assert _set_bits(mask) == [
                    i for i in range(n**arity) if mask >> i & 1
                ]

    def test_formatter_matches_scan(self):
        rng = make_rng(121)
        sig = Signature((0, 1, 2, 3))
        for n in (1, 2, 3, 4):
            text = _Formatter(sig, n)  # one formatter: later states hit its cache
            for _ in range(6):
                m = random_structure(rng, sig, n, density=float(rng.random()))
                assert serialize(m) == _scan_text(m)
                assert text(_cells(m)) == _scan_text(m)
        for m in (empty_structure(sig, 3), Structure(sig, 2, (1, 3, 15, 255))):
            assert serialize(m) == _scan_text(m)

    def test_dense_graph_n300(self):
        rng = make_rng(122)
        n = 300
        mask = int.from_bytes(rng.bytes(n * n // 8), "little")
        m = Structure(SIG2, n, (mask,))
        scanned = _scan(mask, n, 2)
        assert len(scanned) > n * n // 3
        assert m.tuples(0) == scanned
        assert serialize(m) == _scan_text(m)
        sigma = random_permutation(rng, n)
        inv = sigma.inverse()
        relabeled = set(relabel(m, sigma).tuples(0))
        assert relabeled == {(inv(a), inv(b)) for a, b in scanned}
