"""The Macaulay dual certificate GradedIdeal._certify.

artinian_bound walks the degrees on row rank profiles mod p (the field's
own prime, or CERTIFICATE_PRIME over QQ).  Where the walk meets a value 1
in degree s >= 2 with H(1) >= 2, one exact piece, the socle-degree one,
gives the dual form F, and catalecticant ranks mod p prove I = Ann(F):
every Hilbert value and the socle {s: 1}.  Degree s + 1 is then full by a
theorem (R_1 * Ann(F)_s = R_{s+1} unless F is a divided power of a linear
form), so no profile or piece above s is built.  With H(1) = 1, or when
that try fails, the walk goes on to the first piece full mod p and falls
back to exact pieces degree by degree.  socle_report tries the certificate
once more on the exact Hilbert values of any complete ideal the walk did
not certify (colons, annihilators, walks that fell back), so a Gorenstein
one builds no multiplication map.  The answers must equal those of the
exact route (the library's own with the certificate switched off) and of
oracles.socle_by_field_rref, over every field and modulo any prime.
"""

import random

import pytest

import gor3.ideals
import gor3.linalg
from gor3 import GradedIdeal, MultiPoly, parse_poly
from gor3.apolarity import InverseForm, NotGorensteinError, annihilator, macaulay_inverse
from gor3.cases import monomial_tower_ideal, random_quadrics
from gor3.fields import GF, QQ
from gor3.ideals import NotArtinianError, pure_power_ideal, variable_power_ideal
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.pfaffians import generic_power_model
from gor3.pieces import catalecticant, vector_to_poly

from oracles import macaulay_inverse_by_tuples, socle_by_field_rref

FIELDS = [QQ, GF(32003), GF(7), GF(2)]

NOT_GORENSTEIN = [
    # H = 1, 3, 1 with socle {1: 1, 2: 1}: H(s) = 1, but x is a socle element
    ["x^2", "x*y", "x*z", "y^2", "z^2"],
    # H(s) = H(2) = 2
    ["x^2", "y^2", "z^2", "x*y"],
    # the monomial tower of degree 3, socle {2: 1, 3: 3}
    ["y^2*z", "x*y*z", "x^2*z", "x^3", "x^2*y", "y^3", "z^3"],
]

NOT_ARTINIAN = ["x*y", "x*z", "y*z", "x^2 - z^2"]


def _random_dual_form(rng, field):
    s = rng.randint(1, 5)
    terms = {e: field.of(rng.randint(-3, 3)) for e in monomials_of_degree(3, s)
             if rng.random() < 0.6}
    terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
    return InverseForm(3, terms or {(s, 0, 0): field.one}, field)


def _gorenstein_candidates(field):
    """(kind, ideal) for seeded ideals given by generators: Pfaffian models
    (5, 1) and (5, 2), annihilators of random dual forms and random quadric
    sets."""
    gens = []
    for r, dp in ((5, 1), (5, 2)):
        for seed in (1, 2):
            try:
                model = generic_power_model(r, dp, 3, seed, field)
            except RuntimeError:
                continue    # no Artinian specialization over a tiny field
            gens.append((f"model-{dp}", model.generators))
    rng = random.Random(24)
    for _ in range(6):
        gens.append(("annihilator",
                     annihilator(_random_dual_form(rng, field)).generators))
    for seed in range(6):
        gens.append(("quadrics", random_quadrics(seed, field)))
    return [(kind, GradedIdeal(3, g, field)) for kind, g in gens]


def _fresh(I):
    return GradedIdeal(I.n, I.generators, I.field)


def _quartic_ideal(field):
    """(Ann F)_4 alone for a quartic F with H_F = 1, 3, 6, 3, 1: the ideal
    has H = 1, 3, 6, 10, 1 and socle {3: 7, 4: 1}."""
    rng = random.Random(4)
    F = InverseForm(3, {e: field.of(rng.randint(1, 9))
                        for e in monomials_of_degree(3, 4)}, field)
    quartics = annihilator(F).graded_piece(4).int_rows
    return GradedIdeal(3, [vector_to_poly(3, 4, r, field) for r in quartics], field)


def _profile_shapes(monkeypatch):
    """The (rows, columns) of every nonempty rank_profile_mod call from now
    on, in a list the caller may clear."""
    shapes = []
    profile = gor3.linalg.rank_profile_mod

    def recorded(rows, p, limit):
        if rows:
            shapes.append((len(rows), len(rows[0])))
        return profile(rows, p, limit)

    monkeypatch.setattr(gor3.linalg, "rank_profile_mod", recorded)
    return shapes


def _certified(I):
    """The Hilbert values of I once _certify has held, else None."""
    return I._walk.tried[0] if I._walk.tried[1] else None


def _answers(I):
    """(answers, certified) of a fresh copy of I (_report_answers)."""
    return _report_answers(_fresh(I))


def _report_answers(J):
    """(answers, certified) of J: the Artinian bound, the Hilbert table and
    the socle report, or the NotArtinianError text."""
    try:
        bound = J.artinian_bound()
    except NotArtinianError as e:
        return str(e), _certified(J) is not None
    return (bound, J.hilbert_series_table(), J.socle_report().as_dict()), \
        _certified(J) is not None


def _exact_answers(I, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(GradedIdeal, "_certify", lambda self, upper: False)
        return _answers(I)[0]


def _oracle_answers(I):
    bound, hilbert, socle = socle_by_field_rref(I)
    if bound is None:
        return None
    return bound, hilbert, {
        "socle_dims": {str(k): v for k, v in sorted(socle.items())},
        "socle_degree": max(socle),
        "is_gorenstein": sum(socle.values()) == 1,
        "artinian_bound": bound,
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_certified_answers_equal_the_exact_route(field, monkeypatch):
    certified = 0
    for kind, I in _gorenstein_candidates(field):
        got, was_certified = _answers(I)
        assert got == _exact_answers(I, monkeypatch), I
        if field == QQ and kind == "model-2":
            # the Fraction Gauss-Jordan takes seconds on a (5, 2) model over
            # QQ; the GF(p) runs check those against the oracle
            oracle = got
        else:
            oracle = _oracle_answers(I)
        if oracle is None:
            # random quadrics over GF(2) can miss the Artinian ones
            assert got.startswith("not Artinian") and not was_certified
            continue
        assert got == oracle, I
        # over GF(p) the walk's values are exact, over QQ the prime is lucky
        # for these seeds: the certificate fires exactly on Gorenstein input
        assert was_certified == got[2]["is_gorenstein"], I
        certified += was_certified
    assert certified >= 6


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_non_gorenstein_ideals_fall_back(field, monkeypatch):
    expected = [(3, [1, 3, 1], {"1": 1, "2": 1}),
                (3, [1, 3, 2], {"2": 2}),
                (4, [1, 3, 6, 3], {"2": 1, "3": 3})]
    for texts, (bound, table, socle) in zip(NOT_GORENSTEIN, expected):
        I = GradedIdeal.from_strings(texts, field=field)
        got, was_certified = _answers(I)
        assert not was_certified
        assert got == _exact_answers(I, monkeypatch) == _oracle_answers(I)
        assert got[:2] == (bound, table) and got[2]["socle_dims"] == socle
    # the ranks of Cat_t(F) meet the walk's values for t <= 2, but
    # H(3) = 10 > H(1)
    I = _quartic_ideal(field)
    got, was_certified = _answers(I)
    assert not was_certified
    assert got == _exact_answers(I, monkeypatch) == _oracle_answers(I)
    assert got[:2] == (5, [1, 3, 6, 10, 1]) and got[2]["socle_dims"] == {"3": 7, "4": 1}
    I = GradedIdeal.from_strings(NOT_ARTINIAN, field=field)
    message = "not Artinian within cap (no vanishing Hilbert value up to t=24)"
    assert _answers(I) == (message, False)
    assert _exact_answers(I, monkeypatch) == message
    assert _oracle_answers(I) is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_certified_ideals_build_nothing_above_the_socle_degree(field, monkeypatch):
    """Every candidate certified here has H(1) >= 2 (the divided power
    below has H(1) = 1), so the rows of degree s + 1 are never profiled."""
    shapes = _profile_shapes(monkeypatch)
    certified = 0
    for _, I in _gorenstein_candidates(field):
        shapes.clear()
        try:
            bound = I.artinian_bound()
        except NotArtinianError:
            continue
        if _certified(I) is None:
            continue
        s = bound - 1
        assert _certified(I)[1] >= 2, I
        assert sorted(I._pieces) == [s] and I.graded_piece(s + 1).is_full, I
        assert max(cols for _, cols in shapes) == monomial_count(3, s), I
        certified += 1
    assert certified >= 6


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_line_is_not_artinian_though_its_degree_two_piece_certifies(field):
    """(y, z) has H = 1, 1, 1, ...: the certificate at s = 2 holds, with
    F = X^[2], but H(1) = 1, so it says nothing about degree 3."""
    I = GradedIdeal.from_strings(["y", "z"], field=field)
    assert _fresh(I)._certify([1, 1, 1])
    with pytest.raises(NotArtinianError):
        I.artinian_bound()
    # over QQ the only exact piece is the one in degree n(D-1)+1 = 1, the
    # proof; over GF(p) the walk's values are exact and build none
    assert sorted(I._pieces) == ([1] if field == QQ else [])
    # a redundant y^2 raises D, so the walk itself reads 1, 1, 1 up to
    # degree 2 and must not stop there
    I = GradedIdeal.from_strings(["y", "z", "y^2"], field=field)
    with pytest.raises(NotArtinianError):
        I.artinian_bound()
    assert _certified(I) is None
    assert sorted(I._pieces) == ([4] if field == QQ else [])


def _no_maps(self, t):
    raise AssertionError("a multiplication map was built")


def _report_and_oracle(I):
    """The answers of I from its socle report (taken first) and from
    oracles.socle_by_field_rref."""
    report = I.socle_report().as_dict()
    return (I.artinian_bound(), I.hilbert_series_table(), report), _oracle_answers(I)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_divided_power_is_certified_at_the_full_piece(field, monkeypatch):
    """(y, z, x^5) = Ann(X^[4]) has H(1) = 1 and a generator in degree
    s + 1 = 5, so the walk does not try the certificate: it profiles degree
    5 and finds it full.  Over QQ it then builds only I_5, from that full
    profile, and the exact piece I_4 below it; over GF(p) its values are
    exact and it builds no piece.  socle_report then certifies the exact
    values, with the full piece I_5 as the bound, and builds no
    multiplication map."""
    shapes = _profile_shapes(monkeypatch)
    I = GradedIdeal.from_strings(["y", "z", "x^5"], field=field)
    assert I.artinian_bound() == 5
    assert sorted(I._pieces) == ([4, 5] if field == QQ else [])
    assert _certified(I) is None
    assert max(cols for _, cols in shapes) == monomial_count(3, 5)
    monkeypatch.setattr(GradedIdeal, "multiplication_maps", _no_maps)
    got, oracle = _report_and_oracle(I)
    assert got[2]["socle_dims"] == {"4": 1} and got[2]["is_gorenstein"]
    assert _certified(I) == [1, 1, 1, 1, 1]
    assert got == oracle


def _form(text, field):
    return parse_poly(text, ["x", "y", "z"], field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_complete_gorenstein_ideals_build_no_multiplication_map(field, monkeypatch):
    """Colons and annihilators are Ann(F) and never walked: socle_report
    certifies them from their exact Hilbert values and the one piece I_s."""
    cubic = _form("x^3 + y^3 + z^3", field)
    lines = [_form(t, field) for t in ("x", "x + y", "x + y + z")]
    ideals = [
        # pure-power colons, Ann(f o X^[m-1]); the second is the registry's
        # non-equigen-xyz colon, with H = 1, 3, 6, 9, 6, 3, 1
        variable_power_ideal(3, 4, field).colon(_form("x*y + y*z - z^2", field)),
        variable_power_ideal(3, 4, field).colon(cubic),
        # the annihilator of a dual quadric, H = 1, 3, 1
        annihilator(InverseForm(3, {(2, 0, 0): field.one, (0, 1, 1): field.one},
                                field)),
        # a kernel-route colon of a Gorenstein base that is no pure powers
        pure_power_ideal(lines, [3, 3, 3]).colon(_form("x*y + z^2", field)),
    ]
    monkeypatch.setattr(GradedIdeal, "multiplication_maps", _no_maps)
    for I in ideals:
        got, oracle = _report_and_oracle(I)
        assert got == oracle, I
        assert got[2]["is_gorenstein"] and _certified(I) == got[1], I


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_complete_non_gorenstein_ideals_reach_the_maps(field, monkeypatch):
    """A complete ideal the certificate fails on, walked or not, gets its
    socle from the multiplication maps: the NOT_GORENSTEIN ideals, copies
    of them made from their pieces (the first with the symmetric values
    1, 3, 1, so its catalecticant rank falls short) and a kernel-route
    colon of the monomial tower."""
    ideals = []
    for texts in NOT_GORENSTEIN:
        I = GradedIdeal.from_strings(texts, field=field)
        ideals.append(I)
        pieces = [I.graded_piece(t) for t in range(I.artinian_bound() + 1)]
        ideals.append(GradedIdeal.from_pieces(3, pieces, field))
    tower = GradedIdeal.from_strings(NOT_GORENSTEIN[2], field=field)
    ideals.append(tower.colon(_form("z", field)))
    calls, maps = [], GradedIdeal.multiplication_maps
    monkeypatch.setattr(GradedIdeal, "multiplication_maps",
                        lambda self, t: calls.append(t) or maps(self, t))
    for I in ideals:
        before = len(calls)
        got, oracle = _report_and_oracle(I)
        assert got == oracle, I
        assert not got[2]["is_gorenstein"] and _certified(I) is None, I
        assert len(calls) > before, I


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_socle_report_repeats_no_failed_walk_try(field, monkeypatch):
    """(x^2, xy, xz, y^2, z^2) has H = 1, 3, 1 and is not Gorenstein: the
    walk's try at s = 2 fails on Cat_1, and socle_report's try on the same
    exact values is answered from the walk record with no catalecticant."""
    degrees = []
    monkeypatch.setattr(gor3.ideals, "catalecticant",
                        lambda n, s, F, t: degrees.append(t) or catalecticant(n, s, F, t))
    report = GradedIdeal.from_strings(NOT_GORENSTEIN[0], field=field).socle_report()
    assert report.socle_dims == {1: 1, 2: 1} and not report.is_gorenstein
    assert degrees == [0, 1]


def test_certify_remembers_an_answer_only_for_its_values():
    """Ann(X^[2] + Y^[2] + Z^[2]) has H = 1, 3, 1: a failed try on other
    values does not answer for these."""
    I = GradedIdeal.from_strings(["x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"])
    assert not I._certify([1, 3, 2])
    assert I._certify([1, 3, 1]) and _certified(I) == [1, 3, 1]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_asymmetric_walk_builds_no_exact_piece(field, monkeypatch):
    """The quartic ideal's walk reads 1, 3, 6, 10, 1: the certificate tried
    at s = 4 fails on the asymmetric values before any elimination, and the
    walk does not try it again at the full piece of degree 5."""
    tries = []
    certify = GradedIdeal._certify

    def recorded(self, upper):
        held = certify(self, upper)
        exact = sorted(t for t, piece in self._pieces.items() if not piece.is_full)
        tries.append((list(upper), held, exact))
        return held

    monkeypatch.setattr(GradedIdeal, "_certify", recorded)
    I = _quartic_ideal(field)
    assert I.artinian_bound() == 5
    assert tries == [([1, 3, 6, 10, 1], False, [])]


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_no_certified_answer_depends_on_the_prime(prime, monkeypatch):
    """Over QQ with CERTIFICATE_PRIME patched to a tiny prime, some walks
    see ranks drop and some catalecticant ranks fall short: those fall back,
    and every answer stays the one at the default prime.  The colon and the
    annihilator below are Ann(F) for F = 2X^[2] + 3Y^[2] + 5Z^[2], whose
    Cat_1 = diag(2, 3, 5) has rank 2 mod 2, 3 and 5.  GradedIdeal.from_dual
    builds them certified by Macaulay duality, with exact kernels and no
    rank mod p, so they no longer fall back, and the answers are equal."""
    ideals = [I for _, I in _gorenstein_candidates(QQ)] + [
        GradedIdeal.from_strings(texts) for texts in NOT_GORENSTEIN]
    built = [
        lambda: variable_power_ideal(3, 3).colon(
            _form("5*x^2*y^2 + 3*x^2*z^2 + 2*y^2*z^2", QQ)),
        lambda: annihilator(InverseForm(3, {(2, 0, 0): 2, (0, 2, 0): 3,
                                            (0, 0, 2): 5})),
    ]
    expected = [_answers(I)[0] for I in ideals]
    built_expected = [_report_answers(build()) for build in built]
    assert all(certified for _, certified in built_expected)
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", prime)
    missed = 0
    for I, answer in zip(ideals, expected):
        got, was_certified = _answers(I)
        assert got == answer, I
        missed += answer[2]["is_gorenstein"] and not was_certified
    assert missed >= 1
    for build, (answer, _) in zip(built, built_expected):
        assert _report_answers(build()) == (answer, True)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_one_exact_piece_for_a_certified_ideal(field, monkeypatch):
    calls = []
    for name in ("rref_int", "rref_mod"):
        kernel = getattr(gor3.linalg, name)
        monkeypatch.setattr(gor3.linalg, name,
                            lambda *a, kernel=kernel: calls.append(a) or kernel(*a))
    I = generic_power_model(5, 2, 3, 1, field)
    rep = I.socle_report()
    s = rep.socle_degree
    assert rep.is_gorenstein and _certified(I) is not None
    # the socle-degree piece is exact, the one above it full by the
    # certificate (H(1) = 3), without a profile or a piece
    assert sorted(I._pieces) == [s]
    assert len(calls) == 1
    # macaulay_inverse reads the cached piece: no elimination at all
    F = macaulay_inverse(I)
    assert len(calls) == 1
    assert F.to_vector(s) == macaulay_inverse_by_tuples(_fresh(I))
    # the pieces below, built later from the walk's cached profiles, are
    # the exact ones
    for t in range(s):
        assert I.graded_piece(t) == _fresh(I).graded_piece(t)
    assert I._walk.rows == {}


def test_macaulay_inverse_error_text_is_unchanged():
    tower = monomial_tower_ideal(3)
    with pytest.raises(NotGorensteinError) as info:
        macaulay_inverse(tower)
    assert str(info.value) == ("dual socle generator is not unique "
                               "(kernel dimension 3 in degree 3)")
    # H(s) = 1 without Gorenstein: the one orthogonal form is still read
    I = GradedIdeal.from_strings(NOT_GORENSTEIN[0])
    assert macaulay_inverse(I) == InverseForm(3, {(0, 1, 1): 1})
    x = MultiPoly.variable(0, 1)
    assert macaulay_inverse(GradedIdeal(1, [x ** 5])) == InverseForm(1, {(4,): 1})
