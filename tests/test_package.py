"""The package's public names, which resolve on first access from their home modules."""

import ast
import importlib
import json
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import tweetlink
from tweetlink import cascade, cli, config, contrast, textprep

# Each public name and the module it comes from.
HOMES = {
    "cascade": "AGGREGATIONS Cascade CascadeMember aggregate build_cascades cut",
    "contrast": (
        "STRATEGIES AffineMap DualEncoder TrainConfig cosine_embedding_loss encode "
        "encode_batch load_encoder loss_gradient sample_negatives save_encoder train"
    ),
    "corpus": (
        "AnnotationRecord Document EmbeddingTable KeywordList LinkedPair PairTable "
        "build_ground_truth extract_summary keyword_filter load_annotations load_documents "
        "load_embeddings load_keywords load_pair_table load_pairs synth_fixture"
    ),
    "evalx": (
        "MetricsReport average_precision binary_metrics evaluate_masked fleiss_kappa "
        "masked_pairs"
    ),
    "linker": "calibrate_threshold classify cosine score_matrix",
    "matrices": "ClassificationMatrix CsrRows GroundTruthMatrix SimilarityMatrix",
    "textprep": (
        "ChunkingConfig CleaningConfig augment_split chunk clean clean_words "
        "load_lemmas tokenize_lemmatize truncate"
    ),
    "vectorize": (
        "LdaModel TfidfModel Vocabulary lda_fit lda_infer tfidf_fit tfidf_transform "
        "tfidf_transform_batch"
    ),
}
PUBLIC = [(name, module) for module, names in HOMES.items() for name in names.split()]


def test_public_names_are_counted():
    assert len(PUBLIC) == 65
    assert sorted(tweetlink.__all__) == sorted(name for name, _module in PUBLIC)


@pytest.mark.parametrize("name, module", PUBLIC, ids=[name for name, _ in PUBLIC])
def test_public_name_is_its_home_module_object(name, module):
    assert getattr(tweetlink, name) is getattr(importlib.import_module(f"tweetlink.{module}"), name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from tweetlink import *", namespace)
    names = {name for name, _module in PUBLIC}
    assert names <= namespace.keys()
    assert names <= set(dir(tweetlink))
    assert "__version__" in dir(tweetlink)


def test_version():
    assert tweetlink.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tweetlink.no_such_name
    assert not hasattr(tweetlink, "no_such_name")


def _private_reads(source: str, modules: set[str]) -> list[str]:
    """Each import of a `_`-prefixed name from a tweetlink module, and each
    read of one through a name in `modules` (names bound to tweetlink modules)."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tweetlink")):
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)):
            found.append(f"{node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_private_reads_are_found():
    source = "from .corpus import _read_fields, load_documents\nx = evalx._sweep(y._z)\n"
    assert _private_reads(source, {"evalx"}) == ["1: imports _read_fields", "2: reads evalx._sweep"]


def test_no_module_reads_another_modules_private_names():
    """Every rule is reached through its owner module's public names: no
    tweetlink module imports or reads a `_`-prefixed name of another."""
    package = Path(tweetlink.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"tweetlink.{path.stem}".removesuffix(".__init__"))
        # Names bound to package modules, lazily loaded ones (cli's) included.
        submodules = {id(m) for name, m in sys.modules.items() if name.startswith("tweetlink.")}
        modules = {name for name, value in vars(module).items() if id(value) in submodules}
        found += [f"{path.name}:{hit}" for hit in _private_reads(path.read_text("utf-8"), modules)]
    assert found == []


def test_config_names_are_the_layers_names():
    """config declares every config dataclass, and RunConfig checks these
    without running contrast or cascade; the layers re-export the same objects."""
    assert cli.RunConfig is config.RunConfig and cli.LdaParams is config.LdaParams
    assert cli.MODELS is config.MODELS and cli.FEATURES is config.FEATURES
    assert textprep.CleaningConfig is config.CleaningConfig
    assert textprep.ChunkingConfig is config.ChunkingConfig
    assert contrast.TrainConfig is config.TrainConfig
    assert contrast.STRATEGIES is config.STRATEGIES
    assert cascade.AGGREGATIONS is config.AGGREGATIONS


_JSON_TYPES = {"int": "integer", "float": "number", "bool": "true or false", "str": "string"}


def _declared_rows(cls, prefix=""):
    """(key, JSON type, default, rule) of each non-section field of `cls`, as
    README's config table words them."""
    for f in fields(cls):
        if isinstance(f.default_factory, type):  # a section: its own rows follow
            continue
        kind, _, optional = f.type.partition(" | ")
        rule = f.metadata.get("rule", "")
        yield (
            f"`{prefix}{f.name}`",
            _JSON_TYPES[kind] + (" or null" if optional else ""),
            "required" if f.default is MISSING else f"`{json.dumps(f.default)}`",
            ", ".join(f"`{c}`" for c in rule) if isinstance(rule, tuple) else rule,
        )


def test_readme_config_table_matches_the_declarations():
    """README lists every config key with the type, default and rule that its
    field in tweetlink.config declares."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = [tuple(cell.strip() for cell in row.split("|")[1:5])
             for row in re.findall(r"^\| `\w+(?:\.\w+)?` \|.*$", readme, re.M)
             if row.count("|") == 6]
    want = [*_declared_rows(config.RunConfig)]
    for section, cls in config._SECTIONS.items():
        want += _declared_rows(cls, f"{section}.")
    assert table == want
