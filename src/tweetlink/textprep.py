"""Deterministic text normalization and the three long-text strategies.

`clean_words` applies a fixed, ordered rule list to a batch of texts in one
pass, so the same raw text always maps to the same words (and cleaning twice
changes nothing); `clean` is its one-text form. Tokens are whitespace-delimited
units after cleaning; no subword model is involved because downstream
encoders consume feature vectors, not token ids.
"""

from __future__ import annotations

import re
import unicodedata
from .config import ChunkingConfig, CleaningConfig
from .errors import EmptyInputError, MalformedLineError, open_utf8

TokenSeq = list[str]
LemmaMap = dict[str, str]

# A URL or mention starts a token: at the start of the text or after
# whitespace. Each pattern opens with its literal first character and only
# then looks back past it ((?<!\Sh): no non-space before the "h"), so re
# scans for that character instead of trying a lookbehind at every position.
_URL_RE = re.compile(r"(?:h(?<!\Sh)ttps?://|w(?<!\Sw)ww\.)\S*")
_MENTION_RE = re.compile(r"@(?<!\S@)\S+")
_ALIAS_RE = re.compile(r"(:[a-z0-9_]+:)")

# Common emoji blocks; modifiers that only alter a neighboring glyph are
# always dropped, never aliased.
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1FA70, 0x1FAFF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x1F1E6, 0x1F1FF),
)
_EMOJI_MODIFIERS = {0xFE0E, 0xFE0F, 0x200D}


class _CharFilter(dict):
    """str.translate table that keeps letters, whitespace and `extra`.

    Each code point is classified with str.isalpha / str.isspace on first
    sight and remembered. The answer depends on the code point alone, so the
    table is safe to share, and it never holds more than the characters seen.
    """

    def __init__(self, extra: str = ""):
        super().__init__({ord(ch): ch for ch in extra})

    def __missing__(self, cp: int) -> str | None:
        ch = chr(cp)
        kept = ch if ch.isalpha() or ch.isspace() else None
        self[cp] = kept
        return kept


_KEEP_LETTERS_AND_HASH = _CharFilter("#")
# Once only letters, whitespace and '#' are left, a '#' whose left neighbour
# is not whitespace does not start its token, so only token-leading '#'s stay.
_INNER_HASH_RE = re.compile(r"(?<=\S)#")

_EMOJI_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES)
_MODIFIER_CLASS = "".join(chr(cp) for cp in sorted(_EMOJI_MODIFIERS))
_EMOJI_OR_MODIFIER_RE = re.compile(f"[{_EMOJI_CLASS}{_MODIFIER_CLASS}]")


def _emoji_alias(ch: str) -> str:
    name = unicodedata.name(ch, "emoji").lower()
    name = re.sub(r"[^a-z0-9]+", "_", name).strip("_")
    return f" :{name or 'emoji'}: "


def _alias_or_drop(m: re.Match) -> str:
    ch = m.group()
    return "" if ord(ch) in _EMOJI_MODIFIERS else _emoji_alias(ch)


def _handle_emoji(text: str, mode: str) -> str:
    return _EMOJI_OR_MODIFIER_RE.sub(_alias_or_drop if mode == "alias" else "", text)


def _filter_chars(segment: str) -> str:
    # Drops digits, punctuation and symbols; keeps letters and whitespace,
    # and a token-leading '#' (one strip_hashes left), so hashtags stay marked.
    kept = segment.translate(_KEEP_LETTERS_AND_HASH)
    return _INNER_HASH_RE.sub("", kept) if "#" in kept else kept


def _strip_digits_punct(text: str) -> str:
    # ':name:' emoji aliases, the odd parts of the split, pass through untouched.
    parts = _ALIAS_RE.split(text)
    parts[::2] = map(_filter_chars, parts[::2])
    return "".join(parts)


def clean_words(texts: list[str], cfg: CleaningConfig = CleaningConfig()) -> list[TokenSeq]:
    """The words of each text after the fixed rule order, one list per text.

    lowercase -> drop URLs -> drop @-mentions -> strip '#' (optional) ->
    emoji per mode -> drop digits/punctuation -> drop short words.

    The texts are cleaned as one string: each text's newlines become spaces,
    the texts are joined with newlines, each rule runs once over the join, and
    the result is split at its newlines again. No rule tells a newline from a
    space (both are \\s, str.isspace and str.split() separators, and neither is
    cased or case-ignorable to lower()'s final sigma) or matches across one,
    so every text gets the words it would get alone.

    A rule that cannot match is skipped: the URL rule when the text holds
    neither "://" nor "www.", and the emoji rule when it is all ASCII, since
    every emoji and modifier lies above U+007F.
    """
    if not texts:
        return []
    t = "\n".join([text.replace("\n", " ") for text in texts]).lower()
    if "://" in t or "www." in t:
        t = _URL_RE.sub(" ", t)
    t = _MENTION_RE.sub(" ", t)
    if cfg.strip_hashes:
        t = t.replace("#", "")
    if not t.isascii():
        t = _handle_emoji(t, cfg.emoji_mode)
    t = _strip_digits_punct(t)
    n = cfg.min_word_len
    return [[w for w in line.split() if len(w) >= n] for line in t.split("\n")]


def clean(text: str, cfg: CleaningConfig = CleaningConfig()) -> str:
    """One text's words after clean_words, joined by single spaces."""
    return " ".join(clean_words([text], cfg)[0])


def tokenize_lemmatize(text: str, lemmas: LemmaMap | None = None) -> TokenSeq:
    """Whitespace-split cleaned text, mapping each token through the lemma table."""
    lemmas = lemmas or {}
    return [lemmas.get(tok, tok) for tok in text.split()]


def load_lemmas(path) -> LemmaMap:
    """Read a token<TAB>lemma table."""
    table: LemmaMap = {}
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2 or not cols[0] or not cols[1]:
                raise MalformedLineError(str(path), line_no, "expected 'token<TAB>lemma'")
            table[cols[0]] = cols[1]
    return table


def truncate(tokens: TokenSeq, limit: int) -> TokenSeq:
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return tokens[:limit]


def chunk(tokens: TokenSeq, cfg: ChunkingConfig) -> list[TokenSeq]:
    """Split into sentinel-wrapped chunks of identical length.

    Every chunk is [bos, <content_len tokens>, eos], the last one padded out
    with the pad sentinel, so chunk embeddings can be averaged elementwise.
    """
    if not tokens:
        raise EmptyInputError("cannot chunk an empty token sequence")
    chunks = []
    for start in range(0, len(tokens), cfg.content_len):
        body = tokens[start : start + cfg.content_len]
        body = body + [cfg.pad] * (cfg.content_len - len(body))
        chunks.append([cfg.bos, *body, cfg.eos])
    return chunks


def augment_split(tokens: TokenSeq, cfg: ChunkingConfig) -> tuple[TokenSeq, list[TokenSeq]]:
    """Header (first header_len tokens) plus consecutive part_len pieces.

    Concatenating header and parts reproduces the input exactly; each piece
    later forms its own positive training pair.
    """
    if not tokens:
        raise EmptyInputError("cannot split an empty token sequence")
    header = tokens[: cfg.header_len]
    rest = tokens[cfg.header_len :]
    parts = [rest[i : i + cfg.part_len] for i in range(0, len(rest), cfg.part_len)]
    return header, parts
