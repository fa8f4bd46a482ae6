"""Reflection maps: CSV ingestion, state selection, coding sets."""

import cmath
import math
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planemirage.errors import (
    DuplicateStateError,
    EmptyMapError,
    InfeasibleCodingSetError,
    MapFormatError,
    MissingFrequencyError,
    ValidationError,
)
from planemirage.unitcell import (
    MAP_HEADER,
    CodingSet,
    ReflectionMap,
    UnitCellRecord,
    build_coding_set,
    load_reflection_map,
    load_sample_map,
    select_state,
    wrapped_phase_distance,
)


def _rec(f, r, c, rho):
    return UnitCellRecord(f_ghz=f, r_ohm=r, c_pf=c, rho=rho)


def _ring(phases_deg, amplitudes=None, f=5.0):
    amplitudes = amplitudes or [1.0] * len(phases_deg)
    return ReflectionMap(
        records=tuple(
            _rec(f, 10.0 + k, 0.5, a * cmath.exp(1j * math.radians(p)))
            for k, (p, a) in enumerate(zip(phases_deg, amplitudes))
        )
    )


def test_header_is_the_documented_contract():
    assert MAP_HEADER == "f_ghz,r_ohm,c_pf,rho_re,rho_im"


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("freq,r,c,re,im\n5.0,10,0.5,0.1,0.2\n")
    with pytest.raises(MapFormatError, match="header"):
        load_reflection_map(path)


def test_load_refuses_a_map_that_is_not_utf8(tmp_path):
    path = tmp_path / "map.csv"
    path.write_bytes(b"\xff" + MAP_HEADER.encode() + b"\n5.0,10,0.5,0.1,0.2\n")
    with pytest.raises(MapFormatError) as raised:
        load_reflection_map(str(path))
    assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte at byte 0)"


def test_load_reports_malformed_line_numbers(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(MAP_HEADER + "\n5.0,10,0.5,0.1,0.2\n5.0,10,0.5,0.1\n")
    with pytest.raises(MapFormatError, match=":3"):
        load_reflection_map(path)
    path.write_text(MAP_HEADER + "\n5.0,ten,0.5,0.1,0.2\n")
    with pytest.raises(MapFormatError, match=":2"):
        load_reflection_map(path)
    path.write_text(MAP_HEADER + "\n5.0,-10,0.5,0.1,0.2\n")
    with pytest.raises(MapFormatError, match=":2"):
        load_reflection_map(path)


def test_load_rejects_duplicates_and_empty(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(MAP_HEADER + "\n5.0,10,0.5,0.1,0.2\n5.0,10,0.5,0.3,0.4\n")
    with pytest.raises(DuplicateStateError):
        load_reflection_map(path)
    path.write_text(MAP_HEADER + "\n")
    with pytest.raises(EmptyMapError):
        load_reflection_map(path)


def test_load_tolerates_trailing_blank_line(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(MAP_HEADER + "\n5.0,10,0.5,0.1,0.2\n\n")
    loaded = load_reflection_map(path)
    assert len(loaded.records) == 1
    assert loaded.records[0].rho == 0.1 + 0.2j


def test_record_validation():
    with pytest.raises(ValidationError):
        _rec(0.0, 10.0, 0.5, 0.1)
    with pytest.raises(ValidationError):
        _rec(5.0, -1.0, 0.5, 0.1)
    with pytest.raises(ValidationError):
        _rec(5.0, 10.0, 0.5, complex(float("nan"), 0.0))


def test_missing_frequency():
    m = ReflectionMap(records=(_rec(5.0, 10, 0.5, 0.5),))
    assert m.frequencies == (5.0,)
    with pytest.raises(MissingFrequencyError):
        m.records_at(6.0)


def test_select_state_tie_breaks():
    # equidistant reflections: smaller R wins
    m = ReflectionMap(records=(_rec(5.0, 33, 1.0, 0.5), _rec(5.0, 27, 1.0, -0.5)))
    assert select_state(m, 5.0, 0j).r_ohm == 27.0
    # same R: smaller C wins
    m = ReflectionMap(records=(_rec(5.0, 27, 2.0, 0.5), _rec(5.0, 27, 1.0, -0.5)))
    assert select_state(m, 5.0, 0j).c_pf == 1.0


def test_select_state_order_invariance():
    records = (
        _rec(5.0, 10, 0.5, 0.3 + 0.1j),
        _rec(5.0, 22, 0.5, -0.2 + 0.6j),
        _rec(5.0, 47, 0.8, 0.7 - 0.4j),
    )
    target = 0.65 - 0.35j
    keys = {
        select_state(ReflectionMap(records=perm), 5.0, target).key
        for perm in permutations(records)
    }
    assert keys == {(5.0, 47.0, 0.8)}


def test_select_state_phase_only():
    a = _rec(5.0, 10, 0.5, 0.88 * cmath.exp(1j * math.radians(170.0)))
    b = _rec(5.0, 20, 0.5, 0.30 * cmath.exp(1j * math.radians(180.0)))
    m = ReflectionMap(records=(a, b))
    target = 0.9 * cmath.exp(1j * math.radians(180.0))
    assert select_state(m, 5.0, target).key == a.key
    assert select_state(m, 5.0, target, phase_only=True).key == b.key


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_wrapped_phase_distance_properties(a, b):
    d = wrapped_phase_distance(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert abs(d - wrapped_phase_distance(b, a)) < 1e-12
    assert wrapped_phase_distance(a, a) == 0.0
    assert abs(wrapped_phase_distance(a + 2.0 * math.pi, b) - d) < 1e-12


def test_wrapped_phase_distance_crosses_the_cut():
    assert abs(wrapped_phase_distance(-math.pi + 0.1, math.pi - 0.1) - 0.2) < 1e-12


def test_coding_set_validation():
    recs = tuple(_rec(5.0, 10 + k, 0.5, cmath.exp(1j * k)) for k in range(4))
    phases = tuple(k * math.pi / 2.0 for k in range(4))
    CodingSet(n_bit=2, states=recs, target_phases=phases)  # well formed
    with pytest.raises(ValidationError, match="needs exactly 4 states and phases, got 3/4"):
        CodingSet(n_bit=2, states=recs[:3], target_phases=phases)
    with pytest.raises(ValidationError):
        CodingSet(n_bit=2, states=recs, target_phases=(0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        CodingSet(n_bit=2, states=recs[:3] + recs[:1], target_phases=phases)
    with pytest.raises(ValidationError):
        CodingSet(n_bit=0, states=(), target_phases=())


def test_coding_set_exact_octagon():
    m = _ring([45.0 * k for k in range(8)])
    cs = build_coding_set(m, 5.0, n_bit=2)
    assert cs.target_phases[0] == cmath.phase(m.records[0].rho)
    picked = [rec.key for rec in cs.states]
    assert picked == [m.records[k].key for k in (0, 2, 4, 6)]
    worst = max(
        wrapped_phase_distance(cmath.phase(rec.rho), phi)
        for rec, phi in zip(cs.states, cs.target_phases)
    )
    assert worst < 1e-12


def test_coding_set_greedy_matches_brute_force():
    # 20-degree ring: slots at 90 and 270 degrees are 10 degrees off-grid
    m = _ring([20.0 * k for k in range(18)])
    cs = build_coding_set(m, 5.0, n_bit=2)
    greedy_worst = max(
        wrapped_phase_distance(cmath.phase(rec.rho), phi)
        for rec, phi in zip(cs.states, cs.target_phases)
    )
    assert greedy_worst < 2.0 * math.pi / 4.0  # always under the slot spacing
    targets = cs.target_phases
    best = math.inf
    for combo in permutations(m.records, 4):
        worst = max(
            wrapped_phase_distance(cmath.phase(rec.rho), phi)
            for rec, phi in zip(combo, targets)
        )
        best = min(best, worst)
    assert abs(greedy_worst - best) < 1e-12


def test_coding_set_amplitude_filter():
    phases = [0.0, 180.0, 170.0]
    amplitudes = [1.0, 0.2, 0.8]
    m = _ring(phases, amplitudes)
    cs = build_coding_set(m, 5.0, n_bit=1)
    assert [rec.r_ohm for rec in cs.states] == [10.0, 12.0]  # weak state excluded
    cs = build_coding_set(m, 5.0, n_bit=1, min_amplitude=0.1)
    assert [rec.r_ohm for rec in cs.states] == [10.0, 11.0]  # now the exact phase wins


def test_coding_set_infeasible():
    m = _ring([10.0 * k for k in range(8)], amplitudes=[1.0] * 7 + [0.1])
    with pytest.raises(InfeasibleCodingSetError, match=r"^need 8 states .* found 7$"):
        build_coding_set(m, 5.0, n_bit=3)
    with pytest.raises(MissingFrequencyError):
        build_coding_set(m, 6.0, n_bit=1)
    with pytest.raises(ValidationError):
        build_coding_set(m, 5.0, n_bit=0)


def test_an_oversized_coding_set_is_refused_without_writing_out_its_count():
    # 2^(10^6) has some 301,030 digits, past the 4,300 that str() of an int may give
    with pytest.raises(InfeasibleCodingSetError, match=r"^need 2\^1000000 states .* found 56$"):
        build_coding_set(load_sample_map(), 5.0, 10**6)
    recs = tuple(_rec(5.0, 10 + k, 0.5, cmath.exp(1j * k)) for k in range(4))
    with pytest.raises(ValidationError, match=r"needs exactly 2\^1000000 states and phases, got 4/4"):
        CodingSet(n_bit=10**6, states=recs, target_phases=(0.0,) * 4)


def test_sample_map_contents():
    m = load_sample_map()
    assert len(m.records) == 216
    assert m.frequencies == (4.5, 5.0, 5.5)
    assert all(abs(rec.rho) < 1.0 for rec in m.records)


def test_sample_map_anchor_selection():
    m = load_sample_map()
    target = 0.5 * cmath.exp(1j * math.radians(64.0))
    rec = select_state(m, 4.5, target)
    assert (rec.r_ohm, rec.c_pf) == (27.0, 0.35)
    assert abs(rec.rho - target) == 0.0  # the anchor state is stored exactly


def test_sample_map_coding_sets_feasible():
    m = load_sample_map()
    for f in m.frequencies:
        for n_bit in (1, 2, 3):
            cs = build_coding_set(m, f, n_bit)
            assert len(cs.states) == 2**n_bit
            assert all(abs(rec.rho) >= 0.3 for rec in cs.states)
