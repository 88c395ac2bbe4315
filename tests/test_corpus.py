import json
import re

import numpy as np
import pytest

from reference import load_pairs_reference
from tweetlink import corpus
from tweetlink.errors import (
    ConfigInvalidError,
    ConflictingLabelError,
    DuplicateIdError,
    EmptyArticleError,
    MalformedLineError,
    MissingFieldError,
    UnknownIdError,
    open_utf8,
)


def _write_lines(path, objs):
    with open(path, "w") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


class TestLoadDocuments:
    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_lines(path, [
            {"id": "t1", "kind": "tweet", "text": "a", "created_at": 1},
            {"id": "t2", "kind": "tweet", "text": "b", "created_at": 2},
        ])
        docs = corpus.load_documents(path)
        assert [d.id for d in docs] == ["t1", "t2"]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_lines(path, [
            {"id": "t1", "kind": "tweet", "text": "a", "created_at": 1},
            {"id": "t1", "kind": "tweet", "text": "b", "created_at": 2},
        ])
        with pytest.raises(DuplicateIdError, match=re.escape(f"{path}:2: duplicate id 't1'")) as err:
            corpus.load_documents(path)
        assert err.value.doc_id == "t1"
        assert isinstance(err.value, MalformedLineError)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_lines(path, [
            {"id": "t1", "kind": "tweet", "text": "a", "created_at": 1},
            {"id": "t2", "kind": "tweet", "text": "b", "created_at": 2},
            {"id": "t3", "kind": "tweet", "created_at": 3},
        ])
        with pytest.raises(MissingFieldError) as err:
            corpus.load_documents(path)
        assert err.value.field == "text"
        assert err.value.line_no == 3
        assert str(err.value) == f"{path}:3: missing required field 'text'"
        assert isinstance(err.value, MalformedLineError)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "t1", "kind": "tweet"\n')
        with pytest.raises(MalformedLineError):
            corpus.load_documents(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("created_at", 3.9, "created_at must be an integer, got a number with a fraction"),
            ("created_at", 3.0, "created_at must be an integer, got a number with a fraction"),
            ("created_at", True, "created_at must be an integer, got a boolean"),
            ("created_at", "5", "created_at must be an integer, got a string"),
            ("created_at", float("inf"), "created_at must be an integer"),  # written 1e400
            ("text", 7, "text must be a string, got an integer"),
            ("text", None, "text must be a string, got null"),
            ("text", ["a"], "text must be a string, got an array"),
            ("summary", 5, "summary must be a string or null, got an integer"),
            ("id", None, "id must be a string or an integer, got null"),
            ("id", False, "id must be a string or an integer, got a boolean"),
            ("id", {"n": 1}, "id must be a string or an integer, got an object"),
            ("parent_id", [1], "parent_id must be a string, an integer or null, got an array"),
            ("parent_id", True, "parent_id must be a string, an integer or null, got a boolean"),
            ("parent_id", 1.5, "parent_id must be a string, an integer or null, got a number"),
            ("kind", 3, "kind must be one of 'tweet', 'article', got an integer"),
            ("kind", "blog", "kind must be one of 'tweet', 'article', got 'blog'"),
            ("parent_kind", 3, "parent_kind must be one of 'none', 'reply', 'quote', got an integer"),
            ("parent_kind", None, "parent_kind must be one of 'none', 'reply', 'quote', got null"),
            ("parent_kind", "reply", "document 'a2': parent_kind must match parent_id presence"),
        ],
    )
    def test_ill_typed_field_names_file_and_line(self, tmp_path, field, value, message):
        path = tmp_path / "d.jsonl"
        good = {"id": "a1", "kind": "article", "text": "x", "created_at": 1}
        text = json.dumps(good) + "\n" + json.dumps({**good, "id": "a2", field: value}) + "\n"
        path.write_text(text.replace("Infinity", "1e400"))
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}:2: {message}")):
            corpus.load_documents(path)

    def test_well_typed_fields_load_as_written(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ms = 1_700_000_000_000_000  # past the int32 bound of config integers
        path.write_text(
            json.dumps({"id": 12, "kind": "article", "text": "x", "created_at": ms,
                        "summary": None}) + "\n"
            + json.dumps({"id": "a2", "kind": "article", "text": "y", "created_at": -3,
                          "summary": "s"}) + "\n"
        )
        docs = corpus.load_documents(path)
        assert [(d.id, d.created_at, d.summary) for d in docs] == [("12", ms, None), ("a2", -3, "s")]

    def test_integer_parent_id_loads_as_its_string(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_lines(path, [
            {"id": 7, "kind": "tweet", "text": "x", "created_at": 1},
            {"id": "t8", "kind": "tweet", "text": "y", "created_at": 2, "parent_id": 7,
             "parent_kind": "reply"},
        ])
        assert [d.parent_id for d in corpus.load_documents(path)] == [None, "7"]

    def test_number_past_the_int_digit_limit_is_malformed(self, tmp_path):
        # json.loads raises a plain ValueError for it, not a JSONDecodeError.
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a1", "kind": "article", "text": "x", "created_at": 1}\n'
                        '{"id": "a2", "kind": "article", "text": "x", "created_at": 1'
                        + "0" * 5000 + "}\n")
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}:2: Exceeds the limit")):
            corpus.load_documents(path)

    def test_parent_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        docs = [
            corpus.Document(id="t1", kind="tweet", text="root", created_at=1),
            corpus.Document(id="t2", kind="tweet", text="re", created_at=2,
                            parent_id="t1", parent_kind="reply"),
        ]
        corpus.write_documents(docs, path)
        assert corpus.load_documents(path) == docs


class TestDocumentInvariants:
    def test_article_with_parent_rejected(self):
        with pytest.raises(ValueError):
            corpus.Document(id="a1", kind="article", text="x", created_at=1,
                            parent_id="t0", parent_kind="reply")

    def test_parent_kind_consistency(self):
        with pytest.raises(ValueError):
            corpus.Document(id="t1", kind="tweet", text="x", created_at=1, parent_kind="reply")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            corpus.Document(id="", kind="tweet", text="x", created_at=1)


class TestExtractSummary:
    def test_lead_paragraph(self):
        art = corpus.Document(id="a", kind="article", text="Lead para.\n\nBody...", created_at=1)
        assert corpus.extract_summary(art) == "Lead para."

    def test_summary_field_wins(self):
        art = corpus.Document(id="a", kind="article", text="Lead.\n\nBody", created_at=1,
                              summary="S")
        assert corpus.extract_summary(art) == "S"

    def test_empty_article(self):
        art = corpus.Document(id="a", kind="article", text="", created_at=1)
        with pytest.raises(EmptyArticleError):
            corpus.extract_summary(art)

    def test_max_chars(self):
        art = corpus.Document(id="a", kind="article", text="x" * 100, created_at=1)
        assert corpus.extract_summary(art, max_chars=10) == "x" * 10

    def test_prefix_property(self):
        rng = np.random.default_rng(0)
        words = ["alpha", "beta", "gamma"]
        for _ in range(50):
            parts = [
                " ".join(words[rng.integers(0, 3)] for _ in range(rng.integers(1, 6)))
                for _ in range(rng.integers(1, 4))
            ]
            text = "\n\n".join(parts)
            art = corpus.Document(id="a", kind="article", text=text, created_at=1)
            out = corpus.extract_summary(art, max_chars=int(rng.integers(1, 80)))
            assert text.startswith(out)
            assert out

    def test_tweet_rejected(self):
        doc = corpus.Document(id="t", kind="tweet", text="x", created_at=1)
        with pytest.raises(ValueError):
            corpus.extract_summary(doc)


class TestKeywordFilter:
    KW = corpus.KeywordList(("putin", "#ukraine", "war"))

    def _doc(self, text):
        return corpus.Document(id="t", kind="tweet", text=text, created_at=1)

    def test_plain_word(self):
        assert corpus.keyword_filter([self._doc("Putin speaks")], self.KW)

    def test_hashtag(self):
        assert corpus.keyword_filter([self._doc("#Ukraine update")], self.KW)

    def test_unrelated_dropped(self):
        assert corpus.keyword_filter([self._doc("weather today")], self.KW) == []

    def test_idempotent(self, small_corpus):
        kws = corpus.KeywordList(("aaaaaa", "aabaab", "nomatch"))
        once = corpus.keyword_filter(small_corpus["docs"], kws)
        assert corpus.keyword_filter(once, kws) == once

    def test_keywords_must_be_lowercase(self):
        with pytest.raises(ValueError):
            corpus.KeywordList(("Upper",))
        with pytest.raises(ValueError):
            corpus.KeywordList(())


class TestGroundTruth:
    def test_single_match(self):
        gt = corpus.build_ground_truth(
            [corpus.LinkedPair("t1", "a1", "match")], ["t1", "t2"], ["a1", "a2"]
        )
        assert gt.values.tolist() == [[1, 0], [0, 0]]

    def test_match_and_no_match(self):
        gt = corpus.build_ground_truth(
            [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair("t1", "a2", "no_match")],
            ["t1"], ["a1", "a2"],
        )
        assert gt.values.tolist() == [[1, -1]]

    def test_unknown_article(self):
        with pytest.raises(UnknownIdError):
            corpus.build_ground_truth(
                [corpus.LinkedPair("t1", "missing", "match")], ["t1"], ["a1"]
            )

    def test_conflicting_labels_rejected(self):
        pairs = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair("t1", "a1", "no_match")]
        with pytest.raises(ConflictingLabelError):
            corpus.build_ground_truth(pairs, ["t1"], ["a1"])

    def test_unknown_label_maps_to_zero(self):
        gt = corpus.build_ground_truth(
            [corpus.LinkedPair("t1", "a1", "unknown")], ["t1"], ["a1"]
        )
        assert gt.values.tolist() == [[0]]

    def test_value_set_and_match_count(self, small_corpus):
        pairs = small_corpus["pairs"]
        tweets = [d.id for d in small_corpus["docs"] if d.kind == "tweet"]
        articles = [d.id for d in small_corpus["docs"] if d.kind == "article"]
        gt = corpus.build_ground_truth(pairs, tweets, articles)
        assert set(np.unique(gt.values)) <= {-1, 0, 1}
        n_match = sum(1 for p in pairs if p.label == "match")
        assert int((gt.values == 1).sum()) == n_match


class TestSynthFixture:
    def test_deterministic(self):
        a = corpus.synth_fixture(3, 2, 4, 3, 10)
        b = corpus.synth_fixture(3, 2, 4, 3, 10)
        assert a == b

    def test_disjoint_vocab(self):
        docs, _ = corpus.synth_fixture(1, 2, 4, 3, 10)
        words_by_topic = {}
        for d in docs:
            if d.kind == "article":
                topic = int(d.id.split("-")[1]) % 2
                words_by_topic.setdefault(topic, set()).update(d.text.split())
        assert not (words_by_topic[0] & words_by_topic[1])

    def test_counts(self):
        docs, pairs = corpus.synth_fixture(0, 2, 4, 3, 10)
        tweets = [d for d in docs if d.kind == "tweet"]
        assert len(tweets) == 12
        assert len(pairs) == 12 * 4

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            corpus.synth_fixture(0, 0, 4, 3, 10)


class TestOtherLoaders:
    def test_pairs_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        pairs = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair("t2", "a1", "unknown")]
        corpus.write_pairs(pairs, path)
        assert corpus.load_pairs(path) == pairs

    def test_non_ascii_pairs_roundtrip(self, tmp_path):
        """Ids are written in UTF-8; a line holding a lone surrogate, which
        UTF-8 cannot hold, is written escaped."""
        path = tmp_path / "p.jsonl"
        pairs = [corpus.LinkedPair("tw\u00e9-1", "\u65b0\u805e", "match"),
                 corpus.LinkedPair("\ud800", "a\u00e9", "no_match")]
        corpus.write_pairs(pairs, path)
        assert path.read_bytes().splitlines() == [
            '{"tweet_id": "tw\u00e9-1", "article_id": "\u65b0\u805e", "label": "match"}'.encode(),
            b'{"tweet_id": "\\ud800", "article_id": "a\\u00e9", "label": "no_match"}',
        ]
        assert corpus.load_pairs(path) == pairs

    def test_pair_table_columns(self, tmp_path):
        path = tmp_path / "p.jsonl"
        _write_lines(path, [
            {"tweet_id": "t1", "article_id": "a1", "label": "match"},
            {"tweet_id": 7, "article_id": "a2", "label": "unknown"},
        ])
        table = corpus.load_pair_table(path)
        assert table.tweet_ids == ("t1", "7")
        assert table.article_ids == ("a1", "a2")
        assert table.labels == ("match", "unknown")
        assert list(table) == corpus.load_pairs(path)

    def test_pair_table_select(self):
        table = corpus.PairTable(("t1", "t2", "t1"), ("a1", "a1", "a2"), ("match",) * 3)
        assert table.select({"t1"}).article_ids == ("a1", "a2")
        assert table.select({"t1", "t2"}, {"a1"}).tweet_ids == ("t1", "t2")
        assert len(table.select(article_ids=set())) == 0

    def test_pair_table_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            corpus.PairTable(("t1",), ("a1", "a2"), ("match",))
        with pytest.raises(ValueError):
            corpus.PairTable(("t1",), ("a1",), ("maybe",))

    def test_bad_pair_label(self, tmp_path):
        path = tmp_path / "p.jsonl"
        _write_lines(path, [{"tweet_id": "t", "article_id": "a", "label": "maybe"}])
        with pytest.raises(MalformedLineError):
            corpus.load_pairs(path)

    @pytest.mark.parametrize("line, message", [
        ({"tweet_id": True, "article_id": [1], "label": "match"},
         "tweet_id must be a string or an integer, got a boolean"),
        ({"tweet_id": "t", "article_id": [1], "label": "match"},
         "article_id must be a string or an integer, got an array"),
        ({"tweet_id": None, "label": "match"}, "tweet_id must be a string or an integer, got null"),
        ({"tweet_id": "t", "article_id": 2.5, "label": "maybe"},
         "article_id must be a string or an integer, got a number"),
    ])
    def test_ill_typed_pair_id_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "p.jsonl"
        _write_lines(path, [{"tweet_id": 1, "article_id": "a", "label": "match"}, line])
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}:2: {message}")):
            corpus.load_pair_table(path)

    def test_integer_pair_ids_load_as_their_strings(self, tmp_path):
        path = tmp_path / "p.jsonl"
        _write_lines(path, [{"tweet_id": 1, "article_id": -2, "label": "match"}])
        assert corpus.load_pairs(path) == [corpus.LinkedPair("1", "-2", "match")]

    def test_pair_table_decodes_on_access(self):
        labels = ("match", "no_match", "unknown")
        table = corpus.PairTable(("t2", "t1", "t2"), ("a1", "a1", "a2"), labels)
        assert table.distinct_tweet_ids == ("t2", "t1")
        assert table.tweet_codes.tolist() == [0, 1, 0]
        assert table.label_values.tolist() == [1, -1, 0]
        assert table.labels == labels
        assert table[1] == corpus.LinkedPair("t1", "a1", "no_match")
        assert list(table.select(labels={"no_match", "unknown"})) == [table[1], table[2]]


    def test_annotations_duplicate(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rec = {"tweet_id": "t", "article_id": "a", "annotator_id": "u1", "verdict": "match"}
        _write_lines(path, [rec, rec])
        with pytest.raises(DuplicateIdError, match=re.escape(f"{path}:2: duplicate id 't/a/u1'")):
            corpus.load_annotations(path)

    @pytest.mark.parametrize("name, value, kind", [
        ("tweet_id", [1], "an array"), ("article_id", {}, "an object"),
        ("annotator_id", None, "null"), ("annotator_id", False, "a boolean"),
    ])
    def test_ill_typed_annotation_id_names_file_and_line(self, tmp_path, name, value, kind):
        path = tmp_path / "ann.jsonl"
        rec = {"tweet_id": "t", "article_id": 3, "annotator_id": "u1", "verdict": "match"}
        _write_lines(path, [rec])
        assert corpus.load_annotations(path) == [corpus.AnnotationRecord("t", "3", "u1", "match")]
        _write_lines(path, [rec, {**rec, name: value}])
        message = f"{path}:2: {name} must be a string or an integer, got {kind}"
        with pytest.raises(MalformedLineError, match=re.escape(message)):
            corpus.load_annotations(path)

    @pytest.mark.parametrize("verdict, got", [("maybe", "'maybe'"), (1, "an integer"),
                                              (None, "null")])
    def test_annotation_verdict_outside_its_set(self, tmp_path, verdict, got):
        path = tmp_path / "ann.jsonl"
        _write_lines(path, [{"tweet_id": "t", "article_id": "a", "annotator_id": "u1",
                             "verdict": verdict}])
        message = f"{path}:1: verdict must be one of 'match', 'no_match', 'skip', got {got}"
        with pytest.raises(MalformedLineError, match=re.escape(message)):
            corpus.load_annotations(path)
        _write_lines(path, [{"tweet_id": "t", "article_id": "a", "annotator_id": "u1"}])
        with pytest.raises(MissingFieldError, match=re.escape(f"{path}:1: missing required")):
            corpus.load_annotations(path)

    def test_keywords_file(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("putin\n#ukraine\n\nwar\n")
        assert corpus.load_keywords(path).entries == ("putin", "#ukraine", "war")

    def test_keywords_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("putin\n\n  Aaaaab \n")
        with pytest.raises(MalformedLineError, match=re.escape(f"{path}:3: keyword 'Aaaaab'")):
            corpus.load_keywords(path)
        path.write_text("\n \n")
        with pytest.raises(ConfigInvalidError, match=re.escape(f"{path} holds no keywords")):
            corpus.load_keywords(path)


def _synth_pairs():
    """432 pairs: 36 tweets by 12 articles."""
    return corpus.synth_fixture(2, 2, 12, 3, 5)[1]


@pytest.fixture
def line_parsed_blocks(monkeypatch):
    """The first line number of each block load_pair_table parses line by line."""
    starts = []
    parse = corpus._parse_jsonl

    def spy(path, lines, start):
        starts.append(start)
        return parse(path, lines, start)

    monkeypatch.setattr(corpus, "_parse_jsonl", spy)
    return starts


class TestPairTableLoader:
    """load_pair_table codes a block of write_pairs lines with array
    operations on its bytes and parses any other block line by line, with
    one outcome either way."""

    def test_write_pairs_file_over_many_blocks(self, tmp_path, monkeypatch, line_parsed_blocks):
        path = tmp_path / "p.jsonl"
        pairs = _synth_pairs()
        corpus.write_pairs(pairs, path)
        monkeypatch.setattr(corpus, "_PAIR_BLOCK_CHARS", 200)  # 3 or 4 lines a block
        assert list(corpus.load_pair_table(path)) == pairs
        assert line_parsed_blocks == []

    def test_one_odd_line_sends_only_its_block_to_the_line_parser(
        self, tmp_path, monkeypatch, line_parsed_blocks
    ):
        path = tmp_path / "p.jsonl"
        pairs = _synth_pairs()
        corpus.write_pairs(pairs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[299] = lines[299].replace('", "', '",  "', 1)  # line 300 re-spaced
        path.write_text("".join(lines))
        monkeypatch.setattr(corpus, "_PAIR_BLOCK_CHARS", 1000)
        assert list(corpus.load_pair_table(path)) == pairs
        # Only the odd line's block, about 14 lines of 70-odd characters, is parsed by line.
        [block_start] = line_parsed_blocks
        assert 300 - 15 < block_start <= 300

    @pytest.mark.parametrize(
        "tweet_id", ['say "hi"', "back\\slash", "tab\there", "nul\x00", "caf\u00e9", "\u2028"]
    )
    def test_escaped_ids_take_the_line_parser(self, tmp_path, tweet_id, line_parsed_blocks):
        path = tmp_path / "p.jsonl"
        pairs = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair(tweet_id, "a1", "unknown")]
        # json.dumps escapes a quote, a backslash, a control character and
        # every non-ASCII character.
        _write_lines(path, [vars(p) for p in pairs])
        assert b"\\" in path.read_bytes()
        assert list(corpus.load_pair_table(path)) == pairs
        assert line_parsed_blocks == [1]

    @pytest.mark.parametrize("tweet_id", ["tw\u00e9-1", "\u2028", "\u65b0\U0001F600"])
    def test_write_pairs_writes_non_ascii_ids_as_utf8(self, tmp_path, tweet_id,
                                                      line_parsed_blocks):
        path = tmp_path / "p.jsonl"
        pairs = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair(tweet_id, "a1", "unknown")]
        corpus.write_pairs(pairs, path)
        assert tweet_id.encode() in path.read_bytes()
        assert list(corpus.load_pair_table(path)) == pairs
        assert line_parsed_blocks == []  # the array path codes every block

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_bad_utf8_byte_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, end):
        """In open_utf8's words, with the line counted as text mode counts it."""
        path = tmp_path / "p.jsonl"
        pairs = _synth_pairs()
        corpus.write_pairs(pairs, path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(end.join(lines) + end)
        monkeypatch.setattr(corpus, "_PAIR_BLOCK_CHARS", 1000)  # about 14 lines a block
        assert list(corpus.load_pair_table(path)) == pairs
        lines[299] = lines[299].replace(b"twt", b"tw\xff", 1)
        path.write_bytes(end.join(lines) + end)
        message = re.escape(f"{path}:300: byte 0xff is not UTF-8")
        with pytest.raises(MalformedLineError, match=message) as info:
            corpus.load_pair_table(path)
        assert info.value.line_no == 300
        with pytest.raises(MalformedLineError, match=message), open_utf8(path) as fh:
            fh.read()

    @pytest.mark.parametrize("first_end", [b"\r", b"\n"])
    def test_lone_cr_line_ends_are_read_in_blocks(self, tmp_path, monkeypatch,
                                                  line_parsed_blocks, first_end):
        """Lines that end in a lone "\\r", after a first line that may end in
        "\\n": each block is cut after a lone "\\r", so the file is coded a
        block at a time, every block by arrays."""
        path = tmp_path / "p.jsonl"
        corpus.write_pairs(_synth_pairs(), path)
        first, *rest = path.read_bytes().splitlines()
        path.write_bytes(first + first_end + b"\r".join(rest) + b"\r")
        monkeypatch.setattr(corpus, "_PAIR_BLOCK_CHARS", 1000)  # about 14 lines a block
        code = corpus._code_pair_block
        blocks = []
        monkeypatch.setattr(corpus, "_code_pair_block", lambda b: blocks.append(b) or code(b))
        assert list(corpus.load_pair_table(path)) == load_pairs_reference(path)
        # A block is one read and the unended line the read before it left.
        longest = max(map(len, path.read_bytes().split(b"\r")))
        assert len(blocks) > 1 and max(map(len, blocks)) <= 1000 + longest
        assert line_parsed_blocks == []

    def test_raw_non_ascii_ids_parse_in_bulk(self, tmp_path, line_parsed_blocks):
        path = tmp_path / "p.jsonl"
        pairs = [corpus.LinkedPair("caf\u00e9", "\u65b0\u805e", "no_match")]
        path.write_text(
            json.dumps({"tweet_id": "caf\u00e9", "article_id": "\u65b0\u805e", "label": "no_match"},
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        assert list(corpus.load_pair_table(path)) == pairs
        assert line_parsed_blocks == []

    @pytest.mark.parametrize(
        "text, bulk",
        [
            ("{0}\r\n{1}\r\n", True),  # read with universal newlines
            ("{0}\n{1}", False),  # no final newline
            ("{0}\n\n  \n{1}\n", False),  # blank lines
            ('{0}\n{{"label": "match", "article_id": "a2", "tweet_id": "t2"}}\n', False),
            ('{0}\n{{"tweet_id":"t2","article_id":"a2","label":"match"}}\n', False),
        ],
    )
    def test_other_line_forms(self, tmp_path, text, bulk, line_parsed_blocks):
        path = tmp_path / "p.jsonl"
        rows = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair("t2", "a2", "match")]
        lines = [json.dumps({"tweet_id": p.tweet_id, "article_id": p.article_id, "label": p.label})
                 for p in rows]
        path.write_text(text.format(*lines), encoding="utf-8", newline="")
        assert list(corpus.load_pair_table(path)) == rows
        assert line_parsed_blocks == ([] if bulk else [1])

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ('{"tweet_id": "t", "article_id": "a", "label": "maybe"}', MalformedLineError,
             "label must be one of 'match', 'no_match', 'unknown', got 'maybe'"),
            ('{"tweet_id": "t", "label": "match"}', MissingFieldError, "'article_id'"),
            ('{"tweet_id": "t", "article_id": "a", "label": "match"', MalformedLineError,
             "Expecting ',' delimiter"),
        ],
    )
    def test_bad_line_deep_in_a_write_pairs_file(self, tmp_path, monkeypatch, bad, error, message):
        path = tmp_path / "p.jsonl"
        pairs = _synth_pairs()
        corpus.write_pairs(pairs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(300, bad + "\n")
        path.write_text("".join(lines))
        monkeypatch.setattr(corpus, "_PAIR_BLOCK_CHARS", 1000)
        with pytest.raises(error, match=message) as info:
            corpus.load_pair_table(path)
        assert info.value.line_no == 301
