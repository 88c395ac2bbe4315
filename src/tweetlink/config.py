"""Every run config dataclass, each key's rule declared once on its field.

A run reads one JSON config (RunConfig.from_dict): top-level keys and four
sections, `cleaning`, `chunking`, `lda` and `train`, one dataclass each. A
key's JSON type is its annotation; a range (">= 1", "> 0", "[0, 1)") or a
tuple of choices is its field's "rule" metadata. Each dataclass's
__post_init__ checks every field against both (errors.check_types), so a
config read from JSON, a sweep-hp grid point and one built in Python meet the
same rules and the same wording: `<section>.<key> must be <want>, got
<value>`, a top-level key bare. Only rules that join two fields are written
out by hand.

`contrast` (the dual encoder) and `cascade` run only in the commands that
need them, and re-export TrainConfig, STRATEGIES and AGGREGATIONS as the same
objects; `cli` and `textprep` re-export the rest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import ConfigInvalidError, check_types, read_json

MODELS = ("tfidf", "lda", "dual")
FEATURES = ("tfidf", "lda", "external")
# How the dual encoder reads a long article (contrast.train).
STRATEGIES = ("truncate", "mean_chunks", "augment")
# How a cascade's per-tweet similarity rows combine into one (cascade.aggregate).
AGGREGATIONS = ("mean", "median", "max")
NONLINEARITIES = ("none", "tanh")
EMOJI_MODES = ("drop", "alias")


def _key(default, rule):
    """A config key with a default and a rule (errors.check_types)."""
    return field(default=default, metadata={"rule": rule})


class _Section:
    """Checks each field of a config dataclass on construction, naming it
    after the dataclass's `section` (ConfigInvalidError)."""

    section = ""

    def __post_init__(self):
        check_types(type(self), vars(self), f"{self.section}." if self.section else "")


@dataclass(frozen=True)
class CleaningConfig(_Section):
    """How textprep.clean reduces text to words."""

    section = "cleaning"

    min_word_len: int = _key(3, ">= 1")
    emoji_mode: str = _key("drop", EMOJI_MODES)
    strip_hashes: bool = True


@dataclass(frozen=True)
class ChunkingConfig(_Section):
    """Token lengths and sentinels for truncation, chunking and the augment split."""

    section = "chunking"

    content_len: int = _key(510, ">= 1")
    bos: str = "<s>"
    eos: str = "</s>"
    pad: str = "<pad>"
    truncate_limit: int = _key(512, ">= 1")
    header_len: int = _key(256, ">= 1")
    part_len: int = _key(256, ">= 1")

    def __post_init__(self):
        super().__post_init__()
        if len({self.bos, self.eos, self.pad}) != 3:
            raise ConfigInvalidError(
                "chunking.bos, chunking.eos and chunking.pad must be pairwise distinct"
            )


@dataclass(frozen=True)
class LdaParams(_Section):
    """The config's lda section: topic count, Dirichlet priors and Gibbs sweeps."""

    section = "lda"

    n_topics: int = _key(10, ">= 1")
    alpha: float | None = _key(None, "> 0")
    beta: float = _key(0.01, "> 0")
    iters: int = _key(100, ">= 1")
    infer_iters: int = _key(50, ">= 1")


@dataclass(frozen=True)
class TrainConfig(_Section):
    """Dual-encoder training hyperparameters (contrast.train)."""

    section = "train"

    neg_ratio: float = _key(1.0, "> 0")
    lr: float = _key(0.1, "> 0")
    epochs: int = _key(100, ">= 0")
    batch_size: int = _key(32, ">= 1")
    seed: int = _key(0, ">= 0")
    margin: float = _key(0.0, "[0, 1)")
    nonlinearity: str = _key("none", NONLINEARITIES)
    momentum: float = _key(0.0, "[0, 1)")
    joint_dim: int = _key(64, ">= 1")


@dataclass(frozen=True)
class RunConfig(_Section):
    """One run's config document (from_dict, from_file)."""

    documents: str
    pairs: str
    model: str = _key("tfidf", MODELS)
    features: str = _key("tfidf", FEATURES)
    strategy: str = _key("truncate", STRATEGIES)
    aggregation: str = _key("mean", AGGREGATIONS)
    seed: int = _key(0, ">= 0")
    threshold: float | None = None
    out_dir: str = "out"
    train_pairs: str | None = None
    annotations: str | None = None
    embeddings: str | None = None
    lemmas: str | None = None
    keywords: str | None = None
    summary_articles: bool | None = None  # None: summaries for tfidf, full text otherwise
    max_summary_chars: int = _key(600, ">= 1")
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    lda: LdaParams = field(default_factory=LdaParams)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.model != "dual" and (self.features, self.strategy) != ("tfidf", "truncate"):
            raise ConfigInvalidError(
                f"features and strategy choose the dual encoder's input; model {self.model!r} "
                f"reads neither, so they must keep their defaults (got features="
                f"{self.features!r}, strategy={self.strategy!r})"
            )
        if self.features == "external":
            if not self.embeddings:
                raise ConfigInvalidError("features=external requires an embeddings path")
            if self.strategy != "truncate":
                raise ConfigInvalidError(
                    "external embeddings carry no token structure; use strategy=truncate"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> RunConfig:
        """The RunConfig of a parsed config document. Each section that is an
        object is built as its dataclass; an unknown key or a missing
        required one raises ConfigInvalidError naming `<section>.<key>`."""
        data = dict(raw)  # sections are read, never changed
        unknown = [key for key in data if key not in cls.__dataclass_fields__]
        for name, section_cls in _SECTIONS.items():
            if isinstance(data.get(name), dict):
                known = section_cls.__dataclass_fields__
                unknown += [f"{name}.{key}" for key in data[name] if key not in known]
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
        missing = [name for name in ("documents", "pairs") if name not in data]
        if missing:
            raise ConfigInvalidError(f"missing config keys: {missing}")
        for name, section_cls in _SECTIONS.items():
            if isinstance(data.get(name), dict):
                data[name] = section_cls(**data[name])
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> RunConfig:
        return cls.from_dict(read_json(path, "config", dict))

    def with_overrides(self, dotted: dict) -> RunConfig:
        """Apply {'train.lr': 0.5, 'lda.n_topics': 4, ...} onto a copy."""
        data = asdict(self)
        for key, value in dotted.items():
            *sections, name = key.split(".")
            target = data
            for part in sections:
                if not isinstance(target.get(part), dict):
                    raise ConfigInvalidError(f"unknown config section in override {key!r}")
                target = target[part]
            target[name] = value
        return RunConfig.from_dict(data)


_SECTIONS = {cls.section: cls for cls in (CleaningConfig, ChunkingConfig, LdaParams, TrainConfig)}
