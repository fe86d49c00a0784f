"""Northeast lattice path representations and exact conversions.

A path built from unit steps E = (1, 0) and N = (0, 1) has three equivalent
encodings:

* word: the step letters in order, e.g. ``"EENEN"``;
* heights: ``p[i]`` is the y-value of the path over [i, i+1], a nondecreasing
  tuple with one entry per E step;
* differences: ``v[i]`` counts the N steps taken at x = i.

The height form drops any N steps after the last E, so converting heights
back to a word needs the terminal height as an extra argument.

Textual forms (shared with the CLI): ``w:EENEN``, ``h:0,0,1,3``, ``d:1,0,2``.
The empty path renders as ``w:`` / ``h:`` / ``d:``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index

Heights = tuple[int, ...]
Diffs = tuple[int, ...]
Point = tuple[int, ...]
Word = str

__all__ = [
    "delta",
    "format_heights",
    "heights_to_word",
    "in_polytope",
    "is_restricted_by",
    "parse_path_spec",
    "sigma",
    "validate_heights",
    "word_to_heights",
]

# characters of a refused spec, entry or value that the error message shows
SHOWN_CHARS = 20


def _shown(value) -> str:
    """``value`` as ``repr`` shows it, cut to its first ``SHOWN_CHARS`` characters.

    A string is cut before it is quoted.  An int too long to show is cut before it is
    converted: floor division by 10**k drops only digits that are not shown, and its quotient
    is short, so no huge int is converted whole and Python's digit limit is never met.  A tuple
    shows its first entries, each as this shows it.
    """
    if type(value) is str:
        return repr(value) if len(value) <= SHOWN_CHARS else repr(value[:SHOWN_CHARS]) + "..."
    if type(value) is tuple:
        text = "(" + ", ".join(map(_shown, value[:SHOWN_CHARS])) + ("," if len(value) == 1 else "") + ")"
        return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."
    # 0.30102 < log10 2, so k is under the digit count of an int less SHOWN_CHARS
    k = (value.bit_length() - 1) * 30102 // 100000 - SHOWN_CHARS if type(value) is int else 0
    try:
        text = repr(value) if k <= 0 else ("-" if value < 0 else "") + str(abs(value) // 10**k)
    except ValueError:  # the repr of some other type, such as a Fraction, met the digit limit
        text = type(value).__name__ + "(...)"
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."


def _int_refusal(text: str) -> str:
    """Why ``int`` refused ``text``: a well-formed literal has too many digits, anything else is no integer."""
    import re  # only a refusal pays for the import
    return "has too many digits" if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text) else "is not an integer"


def as_integer(x, what: str) -> int:
    """Return ``x`` as an int, refusing what ``operator.index`` refuses.

    A float, string or ``Fraction`` raises ``ValueError`` naming it, so that no engine
    silently counts below a non-integer path.  Every refusal here and in
    :func:`validate_heights` and :func:`validate_diffs` shows the value through
    ``_shown``, at most ``SHOWN_CHARS`` characters of it.
    """
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {_shown(x)} is not an integer") from None


def as_nonnegative(x, what: str) -> int:
    """Return ``x`` as an int, refused as :func:`as_integer` refuses it or when negative."""
    x = as_integer(x, what)
    if x < 0:
        raise ValueError(f"{what} {_shown(x)} is negative")
    return x


def as_integers(values, what: str) -> tuple[int, ...]:
    """Return ``values`` as a tuple of ints, each checked by :func:`as_integer`."""
    return tuple(as_integer(x, what) for x in values)


def validate_heights(p) -> Heights:
    """Return ``p`` as a tuple of ints, rejecting non-integer, negative or decreasing entries."""
    p = tuple(p)
    prev = 0
    for h in p:
        if type(h) is not int:  # convert every entry, or refuse a non-integer, then check again
            return validate_heights(as_integers(p, "height"))
        if h < prev:  # prev >= 0, so a negative height lands here too
            if h < 0:
                raise ValueError(f"height {_shown(h)} is negative")
            raise ValueError(f"heights must be nondecreasing (found {_shown(prev)} followed by {_shown(h)})")
        prev = h
    return p


def validate_diffs(v) -> Diffs:
    """Return ``v`` as a tuple of ints, rejecting non-integer or negative entries."""
    v = tuple(v)
    for d in v:
        if type(d) is not int:
            return validate_diffs(as_integers(v, "difference"))
        if d < 0:
            raise ValueError(f"difference {_shown(d)} is negative")
    return v


def delta(p: Heights) -> Diffs:
    """Difference sequence (p_1, p_2 - p_1, ..., p_n - p_{n-1})."""
    out = []
    prev = 0
    for h in p:
        out.append(h - prev)
        prev = h
    return tuple(out)


def sigma(v: Diffs) -> Heights:
    """Partial sums; the inverse of :func:`delta`."""
    return tuple(accumulate(v))


def word_to_heights(w: Word) -> Heights:
    """Height tuple of a step word: N steps seen before each E.

    N steps after the last E do not appear in the result; recover them with
    :func:`heights_to_word` and the word's total N count.
    """
    heights = []
    seen_n = 0
    for ch in w:
        if ch == "E":
            heights.append(seen_n)
        elif ch == "N":
            seen_n += 1
        else:
            raise ValueError(f"invalid step {ch!r} (expected E or N)")
    return tuple(heights)


def heights_to_word(p: Heights, m: int) -> Word:
    """Step word for the height tuple ``p`` ending at height ``m``."""
    p, m = validate_heights(p), as_integer(m, "terminal height")
    top = p[-1] if p else 0
    if m < top:
        raise ValueError(f"terminal height {_shown(m)} is below the last height {_shown(top)}")
    parts = []
    prev = 0
    for h in p:
        parts.append("N" * (h - prev))
        parts.append("E")
        prev = h
    parts.append("N" * (m - prev))
    return "".join(parts)


def is_restricted_by(q: Heights, p: Heights) -> bool:
    """True iff the path ``q`` stays weakly below ``p`` (componentwise q <= p)."""
    if len(q) != len(p):
        raise ValueError(f"cannot compare paths of lengths {len(q)} and {len(p)}")
    return all(a <= b for a, b in zip(q, p))


def in_polytope(x: Point, v: Diffs) -> bool:
    """True iff every prefix sum of ``x`` is bounded by the matching prefix sum of ``v``."""
    if len(x) != len(v):
        raise ValueError(f"cannot compare tuples of lengths {len(x)} and {len(v)}")
    sx = 0
    sv = 0
    for a, b in zip(x, v):
        sx += a
        sv += b
        if sx > sv:
            return False
    return True


def parse_path_spec(spec: str) -> Heights:
    """Parse a ``w:`` / ``h:`` / ``d:`` path spec into a height tuple.

    The entries are checked by :func:`word_to_heights`, :func:`validate_heights` and
    :func:`validate_diffs`.  An ``h:`` or ``d:`` entry that ``int`` refuses is named by its
    1-based position and ``_int_refusal``'s reason.  That refusal and a bad prefix show at most
    ``SHOWN_CHARS`` characters of the spec, so their messages stay short however long it is.
    """
    form, body = spec[:2], spec[2:]
    if form == "w:":
        return word_to_heights(body)
    if form not in ("h:", "d:"):
        raise ValueError(f"path spec {_shown(spec)} must start with w:, h:, or d:")
    entries = body.split(",") if body else []
    values = []
    try:
        values.extend(map(int, entries))  # keeps the entries read before a refusal
    except ValueError:
        i = len(values)
        raise ValueError(f"{form} entry {i + 1} {_int_refusal(entries[i])}: {_shown(entries[i])}") from None
    return sigma(validate_diffs(values)) if form == "d:" else validate_heights(values)


def format_heights(p: Heights) -> str:
    """Render a height tuple in the ``h:`` textual form."""
    return "h:" + ",".join(str(h) for h in p)
