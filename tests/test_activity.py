"""Activity profiles, Crapo decompositions, broken circuits, nbc sets, and
the ground-set guard on masks."""

import signal

import pytest

from activita.activity import (
    activity_profile,
    activity_profile_by_exchange,
    broken_circuits,
    crapo_decompose_subset,
    is_nbc,
    nbc_sets,
    related_basis,
)
from activita.bitsets import parse_subset, subset_str
from activita.complexes import facet_G
from activita.errors import NotABasis, NotIndependent, RankOutOfRange
from activita.matroid import from_bases, uniform
from activita.orders import boolean_interval, compare_bases, meet_join_ind
from activita.shelling import exchange_down_basis

ps5 = lambda s: parse_subset(s, 5)

# the eight bases of the five-point matroid with their activity sets
M5_ACTIVITY_TABLE = [
    ("345", "", "12", "345", ""),
    ("135", "", "24", "35", "1"),
    ("245", "", "13", "45", "2"),
    ("235", "", "14", "5", "23"),
    ("125", "3", "4", "5", "12"),
    ("134", "5", "2", "3", "14"),
    ("234", "5", "1", "", "234"),
    ("124", "35", "", "", "124"),
]


@pytest.mark.parametrize("basis,ea,ep,ia,ip", M5_ACTIVITY_TABLE)
def test_m5_activity_table(m5_matroid, basis, ea, ep, ia, ip):
    prof = activity_profile(m5_matroid, ps5(basis))
    assert subset_str(prof.ea, 5) == ea
    assert subset_str(prof.ep, 5) == ep
    assert subset_str(prof.ia, 5) == ia
    assert subset_str(prof.ip, 5) == ip


def test_m5_nonbasis_rows(m5_matroid):
    prof = activity_profile(m5_matroid, ps5("124"))
    assert (prof.ea, prof.ip) == (ps5("35"), ps5("124"))
    prof = activity_profile(m5_matroid, ps5("345"))
    assert (prof.ep, prof.ia) == (ps5("12"), ps5("345"))


@pytest.mark.parametrize("mask", [1 << 5, -1])
def test_a_mask_outside_the_ground_set_raises(m5_matroid, mask):
    with pytest.raises(RankOutOfRange, match=r"outside ground set 1\.\.5$"):
        activity_profile(m5_matroid, mask)


OUT_OF_GROUND = {  # each hung on the mask −1, or answered for a mask outside 1..5
    "related_basis": lambda m: related_basis(m, -1),
    "meet_join_ind": lambda m: meet_join_ind(m, -1, 0),
    "boolean_interval": lambda m: boolean_interval(m, -1, -1),
    "compare_bases": lambda m: compare_bases(m, "ext", -1, 0),
    "exchange_down_basis": lambda m: exchange_down_basis(m, -1, 1),
    "fundamental_circuit": lambda m: m.fundamental_circuit(-1, 1),
    "is_nbc": lambda m: is_nbc(m, 1 << 40),
    "rank_of-negative": lambda m: m.rank_of(-1),
    "rank_of-past-n": lambda m: m.rank_of(1 << 40),
    "subset_str": lambda m: subset_str(-1, 5),
    "facet_G-past-n": lambda m: facet_G(m, 1 << 5),
}


@pytest.mark.parametrize("call", OUT_OF_GROUND.values(), ids=OUT_OF_GROUND)
def test_a_mask_outside_the_ground_set_raises_at_once(m5_matroid, call):
    # without the guard an error text iterates the bits of a negative mask,
    # which never ends, so an alarm bounds each call
    def alarm(signum, frame):
        raise TimeoutError("no error within 2 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(2)
    try:
        with pytest.raises(RankOutOfRange, match=r"^subset -?0b\d+ outside ground set 1\.\.5$"):
            call(m5_matroid)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_uniform_example():
    m = uniform(2, 4)
    prof = activity_profile(m, parse_subset("34", 4))
    assert prof.ea == 0
    assert prof.ia == parse_subset("34", 4)


def test_partitions_exhaustive(corpus):
    for m in corpus.values():
        full = m.full_mask
        for s in range(1 << m.n):
            prof = activity_profile(m, s)
            assert prof.ea | prof.ep == full & ~s and not prof.ea & prof.ep
            assert prof.ia | prof.ip == s and not prof.ia & prof.ip


def test_duality_both_directions(corpus):
    for m in corpus.values():
        full = m.full_mask
        for s in range(1 << m.n):
            prof = activity_profile(m, s)
            dprof = activity_profile(m.dual, full & ~s)
            assert prof.ia == dprof.ea
            assert prof.ea == dprof.ia


def test_exchange_characterization_matches(corpus):
    for m in corpus.values():
        for b in m.bases:
            assert activity_profile(m, b) == activity_profile_by_exchange(m, b)


def test_exchange_characterization_rejects_non_basis(m5_matroid):
    with pytest.raises(NotABasis, match="1 is not a basis"):
        activity_profile_by_exchange(m5_matroid, ps5("1"))


def test_loop_always_externally_active():
    m = from_bases(3, [parse_subset("23", 3)])  # element 1 is a loop
    for s in range(1 << 3):
        prof = activity_profile(m, s)
        if not s & 1:
            assert prof.ea & 1


class TestCrapo:
    def test_subset_examples(self, m5_matroid):
        # 23 = 235∖5, 12345 = 124 ∪ 35, and a basis is its own
        for s, b in (("23", "235"), ("12345", "124"), ("345", "345")):
            assert crapo_decompose_subset(m5_matroid, ps5(s)) == ps5(b)

    def test_one_subset_scans_the_bases_and_marks_no_table(self, m5_matroid, monkeypatch):
        # one decomposition costs O(B) profile lookups; only crapo_decompositions
        # pays for the table of all 2^n subsets
        import activita.activity as activity

        monkeypatch.setattr(activity, "submasks", None)
        assert crapo_decompose_subset(m5_matroid, ps5("23")) == ps5("235")
        with pytest.raises(TypeError):
            activity.crapo_decompositions(m5_matroid)

    def test_independent_examples(self, m5_matroid):
        # I = B∖Y with B the related basis and Y = B∖I
        for i, b, y in (("14", "134", "3"), ("2", "245", "45")):
            basis = related_basis(m5_matroid, ps5(i))
            assert (basis, basis & ~ps5(i)) == (ps5(b), ps5(y))
        for b in m5_matroid.bases:
            assert related_basis(m5_matroid, b) == b

    def test_not_independent(self, m5_matroid):
        with pytest.raises(NotIndependent):
            related_basis(m5_matroid, ps5("123"))

    def test_guards_fire_on_broken_structure(self, monkeypatch):
        # bypassing validation with a non-matroid makes the guards trip
        import activita.activity as activity
        from activita.errors import DecompositionNotFound, DecompositionNotUnique
        from activita.matroid import Matroid
        from test_oracles import externally_active_by_circuits

        broken = Matroid(4, [0b0011, 0b1100])
        # by closure, 1 lies in no interval [B∖IA(B), B∪EA(B)]: 12 is [12, 1234], 34 is [∅, 34]
        with pytest.raises(DecompositionNotFound, match="^no Crapo decomposition of 1$"):
            for s in range(16):
                crapo_decompose_subset(broken, s)
        # by the circuit definition every element of the family is a loop (each
        # fundamental circuit is a singleton), so ∅ lies in the intervals of
        # both bases, and is named as ∅
        monkeypatch.setattr(activity, "externally_active", externally_active_by_circuits)
        broken = Matroid(4, [0b0011, 0b1100])
        with pytest.raises(DecompositionNotUnique, match="^2 Crapo decompositions of ∅$"):
            crapo_decompose_subset(broken, 0)

    def test_partition_of_all_subsets(self, corpus):
        # interval sizes must add up, and every subset decomposes uniquely
        for m in corpus.values():
            total = 0
            for b in m.bases:
                prof = activity_profile(m, b)
                total += 1 << (prof.ia.bit_count() + prof.ea.bit_count())
            assert total == 1 << m.n
            for s in range(1 << m.n):
                b = crapo_decompose_subset(m, s)
                prof = activity_profile(m, b)
                assert not s & ~b & ~prof.ea and not b & ~s & ~prof.ia

    def test_partition_of_independent_sets(self, corpus):
        for m in corpus.values():
            total = 0
            for b in m.bases:
                total += 1 << activity_profile(m, b).ia.bit_count()
            assert total == len(m.independent_sets)
            for i in m.independent_sets:
                b = related_basis(m, i)
                assert not i & ~b and not b & ~i & ~activity_profile(m, b).ia  # Y ⊆ IA(B)

    def test_related_sets_share_activities(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                b = related_basis(m, i)
                pi = activity_profile(m, i)
                pb = activity_profile(m, b)
                assert pi.ea == pb.ea
                assert pi.ip == pb.ip
                assert ((i & ~pi.ia) | pi.ea) == ((b & ~pb.ia) | pb.ea)
                assert (i | pi.ep) == (b | pb.ep)


class TestBrokenCircuits:
    def test_m5(self, m5_matroid):
        assert [subset_str(c, 5) for c in broken_circuits(m5_matroid)] == ["12", "14", "234"]

    def test_free_matroid(self):
        assert broken_circuits(uniform(3, 3)) == ()

    def test_uniform(self):
        assert [subset_str(c, 4) for c in broken_circuits(uniform(2, 4))] == [
            "12",
            "13",
            "23",
        ]


class TestNBC:
    def test_examples(self, m5_matroid):
        assert not is_nbc(m5_matroid, ps5("12"))
        assert is_nbc(m5_matroid, ps5("135"))
        assert is_nbc(m5_matroid, 0)

    def test_independent_iff_no_external_activity(self, corpus):
        for m in corpus.values():
            for i in m.independent_sets:
                assert is_nbc(m, i) == (activity_profile(m, i).ea == 0)

    def test_dependent_sets_never_nbc(self, corpus):
        for m in corpus.values():
            ind = set(m.independent_sets)
            for s in range(1 << m.n):
                if s not in ind:
                    assert not is_nbc(m, s)

    def test_m5_count(self, m5_matroid):
        assert len(nbc_sets(m5_matroid)) == 18
