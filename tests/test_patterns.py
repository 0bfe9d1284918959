from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corona_packing.closed_form import TABLE1, TABLE1_DEFAULTS
from corona_packing.graphs import CoronaLayout, corona, distances, find_corona_conflict
from corona_packing.patterns import (
    Pattern,
    PatternError,
    PatternToken,
    apply_pattern,
    compose,
    is_compatible,
    is_valid_pattern,
    parse_pattern,
    pattern_layout,
    render_pattern,
)
from corona_packing.solver import is_packing_coloring


def test_parse_linear_with_lists():
    pat = parse_pattern("21(3)41(2)")
    assert not pat.circular and len(pat) == 4
    assert pat.tokens[1] == PatternToken(1, (3,))
    assert pat.tokens[3] == PatternToken(1, (2,))
    assert pat.tokens[0].pendant_colors is None


def test_parse_circular_whitespace():
    pat = parse_pattern("[23425 62342 57]")
    assert pat.circular and len(pat) == 12
    assert all(tok.pendant_colors is None for tok in pat.tokens)


@pytest.mark.parametrize("text", [
    "1(2", "2(3)", "(2)3", "", "[]", "[12", "12]", "1(23",
    "1()", "1(0)", "102", "1((2))",
])
def test_parse_errors(text):
    with pytest.raises(PatternError):
        parse_pattern(text)


def test_render_roundtrip_examples():
    for text in ["21(3)41(2)", "[1(23)423526]", "2", "[234]"]:
        assert render_pattern(parse_pattern(text)) == text


@st.composite
def patterns(draw):
    toks = []
    for _ in range(draw(st.integers(1, 8))):
        color = draw(st.integers(1, 9))
        pend = None
        if color == 1 and draw(st.booleans()):
            pend = tuple(draw(st.lists(st.integers(1, 9), min_size=1,
                                       max_size=4)))
        toks.append(PatternToken(color, pend))
    return Pattern(tuple(toks), draw(st.booleans()))


@given(patterns())
def test_render_parse_identity(pat):
    assert parse_pattern(render_pattern(pat)) == pat


def test_apply_small_corona_exactly():
    colors = apply_pattern(parse_pattern("21(3)41(2)"), 4, 1)
    assert colors == (2, 1, 4, 1, 1, 3, 1, 2)
    g = corona("path", 4, 1)
    assert is_packing_coloring(distances(g), colors)


def test_apply_circular_no_ones():
    colors = apply_pattern(parse_pattern("[234]"), 3, 4)
    layout = CoronaLayout("cycle", 3, 4)
    assert find_corona_conflict(layout, colors) is None
    assert len(set(colors)) == 4
    assert colors[:3] == (2, 3, 4) and set(colors[3:]) == {1}


def test_apply_with_defaults():
    pat = parse_pattern(f"[{TABLE1[23]}]")
    colors = apply_pattern(pat, 23, 3, TABLE1_DEFAULTS)
    assert find_corona_conflict(CoronaLayout("cycle", 23, 3), colors) is None
    assert len(set(colors)) == 6


def test_apply_errors():
    pat = parse_pattern("21(3)41(2)")
    with pytest.raises(PatternError):
        apply_pattern(pat, 5, 1)  # token count mismatch
    with pytest.raises(PatternError):
        apply_pattern(parse_pattern("1"), 1, 1)  # no list, no default
    with pytest.raises(PatternError):
        apply_pattern(parse_pattern("1(2)"), 1, 2)  # list shorter than p
    with pytest.raises(PatternError):
        apply_pattern(parse_pattern("1(23)"), 1, 1)  # longer needs the flag
    assert apply_pattern(parse_pattern("1(23)"), 1, 1, allow_prefix=True) == (1, 2)
    with pytest.raises(PatternError):
        apply_pattern(parse_pattern("2(3)"), 1, 1)


def test_token_invariants():
    with pytest.raises(PatternError):
        PatternToken(2, (3,))
    with pytest.raises(PatternError):
        PatternToken(0)
    with pytest.raises(PatternError):
        Pattern(())


def test_is_valid_pattern_examples():
    assert is_valid_pattern(parse_pattern("[23425324678]"), 4)
    assert not is_valid_pattern(parse_pattern("[2]"), 1)
    assert is_valid_pattern(parse_pattern("[1(24)3251(24)3267]"), 2)


def test_is_valid_pattern_does_not_hide_internal_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("corona_packing.patterns.apply_pattern", broken)
    with pytest.raises(ValueError, match="internal bug"):
        is_valid_pattern(parse_pattern("[23425324678]"), 4)


def test_is_compatible_examples():
    u = parse_pattern("[23425367]")
    v = parse_pattern("2342532467")
    assert is_compatible(u, v, 4)
    a = parse_pattern(f"[{TABLE1[14]}]")
    b = parse_pattern(TABLE1[29])
    assert is_compatible(a, b, 3, TABLE1_DEFAULTS)


def test_triangle_pattern_not_self_compatible():
    # [234234] puts the two 3s at cycle distance exactly three, which a
    # packing coloring forbids, so [234] does not compose with itself.
    u = parse_pattern("[234]")
    v = parse_pattern("234")
    assert not is_compatible(u, v, 1)
    joined = apply_pattern(Pattern(u.tokens + v.tokens, True), 6, 1)
    conflict = find_corona_conflict(CoronaLayout("cycle", 6, 1), joined)
    assert conflict is not None and conflict[2] == 3


def test_is_compatible_argument_shapes():
    u = parse_pattern("[234]")
    with pytest.raises(PatternError):
        is_compatible(parse_pattern("234"), parse_pattern("234"), 1)
    with pytest.raises(PatternError):
        is_compatible(u, u, 1)


def test_compose_lengths():
    base = parse_pattern(f"[{TABLE1[14]}]")
    tail = parse_pattern(TABLE1[23])
    pat = compose(base, 2, [Pattern(tail.tokens)])
    assert pat.circular and len(pat) == 51
    only_tail = compose(base, 0, [Pattern(tail.tokens)])
    assert len(only_tail) == 23 and only_tail.circular
    with pytest.raises(PatternError):
        compose(base, -1, [])


def test_pattern_layout_natural_graph():
    assert pattern_layout(parse_pattern("[234]"), 2).family == "cycle"
    assert pattern_layout(parse_pattern("234"), 2).family == "path"
