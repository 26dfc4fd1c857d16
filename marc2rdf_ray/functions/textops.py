"""Byte-exact scalar text operations of the reference's object pipeline.

Reimplements (from public-source reading of the reference, NOT a code copy):

- ``replacecharacters`` / ``urlize``: /root/reference/lib/string_replace.rb:19-83
  (the CHAR_MAPPING accent-fold table is configuration data: ISO-8859-1-ish
  codepoints -> ASCII replacements).
- ``generate_objects``: /root/reference/lib/rdfmodeler.rb:49-135 -- the ordered
  object pipeline substr -> regex_split -> regex_substitute -> combine ->
  regex_strip -> urlize.
- ``generate_uri`` strict scheme+host check: /root/reference/lib/rdfmodeler.rb:35-47.

Ruby regex dialect notes (load-bearing for byte-exactness, covered by tests):

- Ruby's ``\\w``/``\\W``/``\\d``/``\\D``/``\\s`` are ASCII-only even on UTF-8
  strings; Python's are Unicode-aware.  All mapping-supplied patterns are
  therefore compiled with ``re.ASCII``.
- ``"abcdef".split(/(\\w{2})/)`` keeps capture groups; Python ``re.split``
  does the same, and the reference drops empty strings afterwards
  (rdfmodeler.rb:91), so the results align.
- ``scan`` applies every non-overlapping match left-to-right; the reference
  reassigns the object on each match, so the LAST match wins, and when there
  is NO match the (normalized) input passes through unchanged -- the
  ``default`` key of ``regex_substitute`` is dead in this path (it is live in
  the *conditions* path, rules.py).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Optional
from urllib.parse import urlparse

# Accent-fold table, ISO-8859-1 + a few combining-free Latin Extended points.
# Data mirrors string_replace.rb:19-52 (CHAR_MAPPING); replacement can be
# multi-char ("Ae", "Th", ...).
_CHAR_MAPPING: dict[str, list[int]] = {
    "E": [200, 201, 202, 203, 274],
    "e": [232, 233, 234, 235, 275],
    "A": [192, 193, 194, 195, 256],
    "a": [224, 225, 226, 227, 257],
    "C": [199],
    "c": [231],
    "O": [210, 211, 212, 213, 332],
    "o": [242, 243, 244, 245, 333],
    "I": [204, 205, 206, 207, 298],
    "i": [236, 237, 238, 239, 299],
    "U": [217, 218, 219, 220, 362],
    "u": [249, 250, 251, 252, 363],
    "N": [209],
    "n": [241],
    "Y": [221, 562],
    "y": [253, 255, 563],
    "Ae": [196, 198],
    "ae": [228, 230],
    "Oe": [214, 216],
    "oe": [246, 248],
    "Aa": [197],
    "aa": [229],
    "S": [7778],
    "s": [7779],
    "H": [7716],
    "h": [7717],
    "T": [7788],
    "t": [7789],
    "D": [7696],
    "d": [7697],
    "Th": [208, 222],
    "th": [240, 254],
}

# str.translate table: codepoint -> replacement string (one pass, no regex).
_TRANSLATE_TABLE: dict[int, str] = {
    cp: repl for repl, cps in _CHAR_MAPPING.items() for cp in cps
}

# Ruby String#strip strips ASCII whitespace and NUL only.
_RUBY_STRIP_CHARS = " \t\n\r\f\v\x00"

_DEFAULT_URLIZE_REGEXP = r"[^-_A-Za-z0-9]"


def ruby_strip(s: str) -> str:
    """Ruby String#strip (ASCII whitespace + NUL, not Unicode whitespace)."""
    return s.strip(_RUBY_STRIP_CHARS)


def replace_characters(s: str) -> str:
    """Accent-fold via the CHAR_MAPPING table (string_replace.rb:55-63)."""
    return s.translate(_TRANSLATE_TABLE)


@lru_cache(maxsize=4096)
def _compile(pattern: str) -> re.Pattern:
    """Compile a mapping-supplied pattern with Ruby-equivalent ASCII classes."""
    return re.compile(pattern, re.ASCII)


def urlize(
    s: str,
    downcase: bool = False,
    convert_spaces: bool = False,
    regexp: str = _DEFAULT_URLIZE_REGEXP,
) -> str:
    """Slugify like string_replace.rb:74-83.

    strip -> accent-fold -> optional downcase -> optional ' '->'_' ->
    delete chars matching ``regexp``.
    """
    out = replace_characters(ruby_strip(s))
    if downcase:
        out = out.lower()
    if convert_spaces:
        out = out.replace(" ", "_")
    return _compile(regexp).sub("", out)


def generate_objects(
    o: str,
    *,
    marcfield: Optional[Any] = None,
    regex_split: Optional[str] = None,
    urlize_opt: Any = None,
    no_downcase: bool = False,
    no_convert_spaces: bool = False,
    urlize_regexp: Optional[str] = None,
    regex_strip: Optional[str] = None,
    regex_substitute: Optional[dict] = None,
    substr_offset: Optional[int] = None,
    substr_length: Optional[int] = None,
    combine: Optional[list] = None,
    combinestring: Optional[str] = None,
) -> list[str]:
    """The ordered object pipeline of rdfmodeler.rb:49-135.

    ``marcfield`` is any object with an iterable ``subfields`` of
    ``(code, value)`` pairs (used only by ``combine``).
    Returns the list of generated object strings (may contain empties --
    emission-time guards are the caller's job, as in the reference).
    """
    objects: list[str] = []

    # 1) substring (whole-value), else regex split, else whole value.
    #    rdfmodeler.rb:82-94
    if substr_offset is not None:
        if substr_length is not None and len(o) >= substr_offset + substr_length:
            piece = o[substr_offset : substr_offset + substr_length]
            if ruby_strip(piece):
                objects.append(piece)
    elif regex_split is not None:
        # Ruby split keeps capture groups; empties dropped after.
        objects = [p for p in _compile(regex_split).split(o) if p]
    else:
        objects.append(o)

    # 2) regex_substitute: normalize (ASCII \W+ removal + downcase), then
    #    scan orig; last match wins; NO match -> normalized value through.
    #    rdfmodeler.rb:96-104
    if regex_substitute is not None and objects:
        orig_re = _compile(regex_substitute.get("orig", ""))
        subs = regex_substitute.get("subs", {})
        out = []
        for obj in objects:
            norm = _compile(r"[\W]+").sub("", obj).lower()
            last = None
            for m in orig_re.finditer(norm):
                last = m.group(0)
            if last is not None:
                val = subs.get(last)
                if val is None:
                    continue  # subs miss -> Ruby nil object; drop
                out.append(val)
            else:
                out.append(norm)
        objects = out

    # 3) combine: replace each object with the join of listed sibling
    #    subfield values (ALL occurrences, combine-list order).
    #    rdfmodeler.rb:106-117
    if combine is not None and objects:
        parts: list[str] = []
        subfields = list(getattr(marcfield, "subfields", marcfield or []))
        for code in combine:
            for sf_code, sf_value in subfields:
                if code == sf_code and sf_value is not None:
                    parts.append(sf_value)
        joined = (combinestring or "").join(parts)
        objects = [joined for _ in objects]

    # 4) regex_strip.  rdfmodeler.rb:119-121
    if regex_strip is not None and objects:
        strip_re = _compile(regex_strip)
        objects = [strip_re.sub("", obj) for obj in objects]

    # 5) urlize.  rdfmodeler.rb:123-131 (downcase/convert_spaces default ON).
    if urlize_opt and objects:
        objects = [
            urlize(
                obj,
                downcase=not no_downcase,
                convert_spaces=not no_convert_spaces,
                regexp=urlize_regexp or _DEFAULT_URLIZE_REGEXP,
            )
            for obj in objects
        ]

    return objects


# Ruby URI.parse (RFC2396) rejects characters outside the reserved+unreserved
# sets; this is what makes "http://x/a b" or "http:||x" fall back to Literal.
_RFC2396_OK = re.compile(r"\A[A-Za-z0-9;/?:@&=+$,\-_.!~*'()%#\[\]]*\Z")


@lru_cache(maxsize=65536)
def generate_uri(s: str, prefix: str = "") -> tuple[str, str]:
    """Strict URI check of rdfmodeler.rb:35-47.

    Returns ``(value, kind)`` where kind is ``'uri'`` when the parsed value
    has both a scheme and a host, else ``'literal'``.
    """
    full = f"{prefix}{s}"
    if not _RFC2396_OK.match(full):
        return full, "literal"
    try:
        parsed = urlparse(full)
    except ValueError:
        return full, "literal"
    if parsed.scheme and parsed.netloc:
        return full, "uri"
    return full, "literal"


def condition_normalize(s: str) -> str:
    """Predicate-condition normalization: gsub(/[.\\-]+/,'').downcase
    (rdfmodeler.rb:208)."""
    return _compile(r"[\.\-]+").sub("", s).lower()


def scan_last_match(pattern: str, s: str) -> Optional[str]:
    """Ruby ``scan`` loop where each match overwrites the result: the last
    non-overlapping match, or None (rdfmodeler.rb:209-211, 221-228)."""
    last = None
    for m in _compile(pattern).finditer(s):
        last = m.group(0)
    return last


def split_inverted_name(s: str) -> tuple[Optional[str], Optional[str], str]:
    """A5 derived-attribute normalization: split a catalogue name at the
    FIRST comma into (lastName, firstName, name), mirroring the reference's
    normalize_creatornames.isql:10-22 bif: expressions exactly:

    - lastName  = left(s, strchr(s, ','))          (before the comma, untrimmed)
    - firstName = trim(subseq(s, pos+1))           (after the comma, trimmed)
    - name      = trim(subseq(s,pos+1) + ' ' + left(s,pos))  (note: the
      after-part is NOT individually trimmed inside the concat)

    Names without a comma get only ``name = s`` (isql:29-43, the
    'Chinese, Icelandic, etc.' fallback).  ``trim`` strips spaces only,
    like Virtuoso's bif:trim default."""
    if "," in s:
        i = s.index(",")
        before, after = s[:i], s[i + 1:]
        return before, after.strip(" "), (after + " " + before).strip(" ")
    return None, None, s


def compile_object_pipeline(
    *,
    regex_split: Optional[str] = None,
    urlize_opt: Any = None,
    no_downcase: bool = False,
    no_convert_spaces: bool = False,
    urlize_regexp: Optional[str] = None,
    regex_strip: Optional[str] = None,
    regex_substitute: Optional[dict] = None,
    substr_offset: Optional[int] = None,
    substr_length: Optional[int] = None,
    combine: Optional[list] = None,
    combinestring: Optional[str] = None,
):
    """Compile a generate_objects option set to a specialized closure
    ``fn(o, marcfield=None) -> list[str]``.

    The rule-set compiler calls this ONCE per rule entry per worker
    (rules.py _opts_entry); the per-field hot loop then runs only the
    steps the rule actually uses, with every regex prebound -- no
    9-kwarg call, no per-call option dispatch, no _compile cache lookups
    (the ~0.25 ms/page of generate_objects dispatch found by
    perfbench/run.py --trace 1).  Semantics are byte-identical
    to :func:`generate_objects` by construction and by differential
    test (tests/test_textops.py runs both over the option lattice);
    generate_objects stays as the readable spec mirror of
    rdfmodeler.rb:49-135.
    """
    split_re = _compile(regex_split) if regex_split is not None else None
    if regex_substitute is not None:
        orig_re = _compile(regex_substitute.get("orig", ""))
        subs = regex_substitute.get("subs", {})
        norm_re = _compile(r"[\W]+")
    strip_re = _compile(regex_strip) if regex_strip is not None else None
    u_regexp = _compile(urlize_regexp or _DEFAULT_URLIZE_REGEXP)
    do_down = not no_downcase
    do_spaces = not no_convert_spaces

    def fn(o: str, marcfield: Optional[Any] = None) -> list[str]:
        # 1) substring (whole-value), else regex split, else whole value
        if substr_offset is not None:
            objects = []
            if (
                substr_length is not None
                and len(o) >= substr_offset + substr_length
            ):
                piece = o[substr_offset: substr_offset + substr_length]
                if ruby_strip(piece):
                    objects.append(piece)
        elif split_re is not None:
            objects = [p for p in split_re.split(o) if p]
        else:
            objects = [o]

        # 2) regex_substitute: normalize, scan orig, last match wins
        if regex_substitute is not None and objects:
            out = []
            for obj in objects:
                norm = norm_re.sub("", obj).lower()
                last = None
                for m in orig_re.finditer(norm):
                    last = m.group(0)
                if last is not None:
                    val = subs.get(last)
                    if val is None:
                        continue
                    out.append(val)
                else:
                    out.append(norm)
            objects = out

        # 3) combine: join listed sibling subfield values
        if combine is not None and objects:
            parts: list[str] = []
            subfields = list(getattr(marcfield, "subfields", marcfield or []))
            for code in combine:
                for sf_code, sf_value in subfields:
                    if code == sf_code and sf_value is not None:
                        parts.append(sf_value)
            joined = (combinestring or "").join(parts)
            objects = [joined for _ in objects]

        # 4) regex_strip
        if strip_re is not None and objects:
            objects = [strip_re.sub("", obj) for obj in objects]

        # 5) urlize (downcase/convert_spaces default ON)
        if urlize_opt and objects:
            out = []
            for obj in objects:
                u = replace_characters(ruby_strip(obj))
                if do_down:
                    u = u.lower()
                if do_spaces:
                    u = u.replace(" ", "_")
                out.append(u_regexp.sub("", u))
            objects = out

        return objects

    return fn
