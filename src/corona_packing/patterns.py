"""Coloring-pattern notation for coronae of paths and cycles.

A pattern is a digit string of spine colors; a color 1 may carry the colors
of its pendant neighbors in parentheses, e.g. "21(3)41(2)".  Brackets mark
a circular pattern, applied around a cycle instead of along a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Coloring, CoronaLayout, GraphError, find_corona_conflict


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class PatternToken:
    spine_color: int
    pendant_colors: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not 1 <= self.spine_color <= 9:
            raise PatternError(f"color {self.spine_color} out of range 1..9")
        if self.pendant_colors is not None:
            if self.spine_color != 1:
                raise PatternError("pendant list is only allowed after color 1")
            if not self.pendant_colors:
                raise PatternError("empty pendant list")
            for c in self.pendant_colors:
                if not 1 <= c <= 9:
                    raise PatternError(f"pendant color {c} out of range 1..9")


@dataclass(frozen=True)
class Pattern:
    tokens: tuple[PatternToken, ...]
    circular: bool = False

    def __post_init__(self):
        if not self.tokens:
            raise PatternError("empty pattern")

    def __len__(self) -> int:
        return len(self.tokens)


def parse_pattern(text: str) -> Pattern:
    s = "".join(text.split())
    circular = False
    if s.startswith("["):
        if not s.endswith("]"):
            raise PatternError("unbalanced brackets")
        circular = True
        s = s[1:-1]
    if "[" in s or "]" in s:
        raise PatternError("stray bracket")
    tokens: list[PatternToken] = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isdigit():
            if ch == "0":
                raise PatternError("color 0 is not a color")
            tokens.append(PatternToken(int(ch)))
            i += 1
        elif ch == "(":
            j = s.find(")", i)
            if j < 0:
                raise PatternError("unbalanced parentheses")
            inner = s[i + 1:j]
            if not inner or not inner.isdigit() or "0" in inner:
                raise PatternError(f"bad pendant list {inner!r}")
            if not tokens:
                raise PatternError("pendant list with no preceding color")
            prev = tokens.pop()
            if prev.pendant_colors is not None:
                raise PatternError("duplicate pendant list")
            tokens.append(PatternToken(prev.spine_color,
                                       tuple(int(c) for c in inner)))
            i = j + 1
        else:
            raise PatternError(f"unexpected character {ch!r}")
    return Pattern(tuple(tokens), circular)


def render_pattern(pat: Pattern) -> str:
    parts = []
    for tok in pat.tokens:
        parts.append(str(tok.spine_color))
        if tok.pendant_colors is not None:
            parts.append("(" + "".join(map(str, tok.pendant_colors)) + ")")
    body = "".join(parts)
    return f"[{body}]" if pat.circular else body


def pattern_layout(pat: Pattern, p: int) -> CoronaLayout:
    """The corona a pattern naturally colors: its own length as n."""
    family = "cycle" if pat.circular else "path"
    return CoronaLayout(family, len(pat), p)


def apply_pattern(
    pat: Pattern,
    n: int,
    p: int,
    default_pendants: Optional[Sequence[int]] = None,
    allow_prefix: bool = False,
) -> Coloring:
    """Color P_n/C_n with p pendants per spine vertex from a pattern.

    Spine vertex i takes token i's color.  Pendants of a non-1 vertex are
    all colored 1; pendants of a 1 take the token's list, or
    default_pendants when the token carries none.  Lists must match p
    exactly unless allow_prefix permits taking the first p entries.
    """
    if len(pat) != n:
        raise PatternError(f"pattern length {len(pat)} != n = {n}")
    layout = CoronaLayout("cycle" if pat.circular else "path", n, p)
    colors = [0] * layout.vertex_count
    default = tuple(default_pendants) if default_pendants is not None else None
    for i, tok in enumerate(pat.tokens):
        colors[i] = tok.spine_color
        if p == 0:
            if tok.pendant_colors is not None:
                raise PatternError("pendant list given but p = 0")
            continue
        if tok.spine_color != 1:
            pend = (1,) * p
        else:
            source = tok.pendant_colors if tok.pendant_colors is not None else default
            if source is None:
                raise PatternError(
                    f"token {i} has color 1 but no pendant list or default"
                )
            if len(source) < p or (len(source) > p and not allow_prefix):
                raise PatternError(
                    f"pendant list of length {len(source)} does not cover p = {p}"
                )
            pend = tuple(source[:p])
        for j in range(p):
            colors[layout.pendant(i, j)] = pend[j]
    return tuple(colors)


def is_valid_pattern(
    pat: Pattern, p: int, default_pendants: Optional[Sequence[int]] = None
) -> bool:
    """True iff the pattern yields a packing coloring of its natural corona."""
    try:
        layout = pattern_layout(pat, p)
        colors = apply_pattern(pat, len(pat), p, default_pendants)
    except (PatternError, GraphError):
        return False
    return find_corona_conflict(layout, colors) is None


def is_compatible(
    u: Pattern,
    v: Pattern,
    p: int,
    default_pendants: Optional[Sequence[int]] = None,
) -> bool:
    """True iff the circular concatenation [uv] is itself a valid pattern."""
    if not u.circular:
        raise PatternError("u must be circular")
    if v.circular:
        raise PatternError("v must be linear")
    joined = Pattern(u.tokens + v.tokens, circular=True)
    return is_valid_pattern(joined, p, default_pendants)


def compose(
    base: Pattern, repetitions: int, tails: Iterable[Pattern]
) -> Pattern:
    """Circular pattern: base repeated, then the tails flattened in order."""
    if repetitions < 0:
        raise PatternError("repetitions must be >= 0")
    tokens: list[PatternToken] = []
    tokens.extend(base.tokens * repetitions)
    for tail in tails:
        tokens.extend(tail.tokens)
    return Pattern(tuple(tokens), circular=True)
