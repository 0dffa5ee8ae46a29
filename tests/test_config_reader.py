"""The config reader: numeric blocks cast directly give PyYAML's document, or PyYAML reads the file.

Every case compares ``ExperimentConfig.from_file`` (and the document it
reads) with plain ``yaml.load`` of the same file followed by ``from_dict``:
the same document, the same config bit for bit, or the same ``ConfigInvalid``
message.  A block the reader casts to one array stands where PyYAML builds
rows of floats and strings, never ints, and holds the bits ``_cast_block``
makes of those rows.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import config as config_module
from weylscale.config import ExperimentConfig, _cast_block, _load_yaml, _take_rows, parse_complex
from weylscale.errors import ConfigInvalid, WeylscaleError
from weylscale.spectral import OperatorSpec

ROOT = Path(__file__).resolve().parents[1]

def _reference(path):
    """What the file gave before the fast reader: PyYAML on the open file, then from_dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.load(handle, Loader=config_module._YAML_LOADER)
    except yaml.YAMLError as exc:
        return "error", f"config file: invalid YAML ({exc})"
    return "document", document


def _outcome(read):
    try:
        return "config", _fingerprint(read())
    except ConfigInvalid as exc:
        return "error", str(exc)


def _operator_bytes(spec):
    if spec is None:
        return None
    return (spec.matrix.tobytes(), spec.matrix.dtype.str) if spec.is_matrix else repr(spec.atoms)


def _fingerprint(config):
    """Every field of a config, floats and arrays by their bits."""
    vectors = config.vectors_explicit
    return (
        _operator_bytes(config.operator),
        _operator_bytes(config.hamiltonian),
        repr(config.beta),
        config.dimension,
        None if vectors is None else [(v.tobytes(), v.dtype.str) for v in vectors],
        (config.random_count, config.random_sets, config.seed),
        repr(config.h_values),
        config.t_grid.tobytes(),
        repr(config.tolerances),
        config.output_format,
        config.cutoff,
    )


def assert_same_document(read, reference):
    """``read`` is PyYAML's ``reference``, but that a block the reader cast is an
    array where PyYAML builds rows of floats and strings, never ints, with the
    bits ``_cast_block`` makes of those rows."""
    if isinstance(read, np.ndarray):
        assert type(reference) is list and reference and all(type(row) is list for row in reference)
        assert all(type(x) in (float, str) for row in reference for x in row)
        expected = _cast_block(reference, "block")
        assert (read.dtype, read.shape, read.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    elif isinstance(read, (dict, list)):
        assert type(read) is type(reference) and len(read) == len(reference)
        if isinstance(read, dict):
            assert list(read) == list(reference)
            read, reference = list(read.values()), list(reference.values())
        for item, expected in zip(read, reference):
            assert_same_document(item, expected)
    else:
        assert repr(read) == repr(reference)


def assert_reads_like_pyyaml(path):
    text = Path(path).read_text(encoding="utf-8")
    kind, reference = _reference(path)
    if kind == "document":
        assert_same_document(_load_yaml(text, str(path)), reference)
        expected = _outcome(lambda: ExperimentConfig.from_dict(reference or {}))
    else:
        with pytest.raises(yaml.YAMLError) as info:
            _load_yaml(text, str(path))
        assert f"config file: invalid YAML ({info.value})" == reference
        expected = ("error", reference)
    assert _outcome(lambda: ExperimentConfig.from_file(path)) == expected


# ---------------------------------------------------------------------------
# table: inputs the reader must hand to PyYAML, or cast exactly as PyYAML does

BASE = """operator:
  kms:
    beta: 1.0
    matrix:
      - [1.5, 0.25]
      - [0.25, 2.0]
vectors:
  explicit: [[0.5, 1.0], [1.0, 0.0]]
h_values: [0.5, 1.0]
"""

QUIRK_TOKENS = ["1e-05", "1.5e10", "012", "0x1F", "1_000", "190:20", ".inf", ".5", "+1", "-0"]

#: the quirk tokens float() reads as PyYAML's document has them: the one-pass cast takes them
TAKEN_QUIRKS = ("1e-05", "1.5e10", ".5")

CASES = {
    **{f"matrix-{token}": BASE.replace("[1.5, 0.25]", f"[1.5, {token}]") for token in QUIRK_TOKENS},
    **{f"symmetric-{token}": BASE.replace("0.25", token) for token in QUIRK_TOKENS},
    **{f"explicit-{token}": BASE.replace("[1.0, 0.0]]", f"[1.0, {token}]]") for token in QUIRK_TOKENS},
    "fast-path": BASE,
    "comment-on-row": BASE.replace("- [0.25, 2.0]", "- [0.25, 2.0]  # second row"),
    "comment-after-explicit": BASE.replace("0.0]]", "0.0]]  # two vectors"),
    "comment-between-rows": BASE.replace("      - [0.25", "      # second\n      - [0.25"),
    "anchored-row": BASE.replace("- [1.5, 0.25]", "- &a [1.5, 0.25]") + "t_grid: *a\n",
    "anchored-second-row": BASE.replace("- [0.25, 2.0]", "- &a [0.25, 2.0]")
    + "h_grid: {start: 0.5, stop: 1.0, count: 2}\nt_grid: *a\n",
    "aliased-mapping": BASE.replace("  kms:\n", "  kms: &k\n") + "experiment: *k\n",
    "block-scalar": "experiment: |\n  matrix:\n    - [1.0, 2.0]\n  explicit: [[1.0]]\n" + BASE,
    "folded-scalar": BASE + "experiment: >\n  matrix:\n    - [1.0, 2.0]\n",
    "two-matrix-keys": BASE.replace("  kms:\n", "  matrix:\n    - [3.0]\n  kms:\n"),
    "duplicate-matrix-key": BASE.replace("      - [0.25, 2.0]\n", "      - [0.25, 2.0]\n    matrix:\n      - [2.0]\n"),
    "row-at-key-indent": BASE.replace("      - [", "    - ["),
    "row-less-than-key": BASE.replace("      - [", "  - ["),
    "rows-of-two-indents": BASE.replace("      - [0.25", "        - [0.25"),
    "empty-row": BASE.replace("- [0.25, 2.0]", "- []"),
    "empty-explicit-row": BASE.replace("[1.0, 0.0]]", "[]]"),
    "syntax-error-below-rows": BASE + "t_grid: [1.0, 2.0\n",
    "syntax-error-above-rows": "h_grid: {start: 1\n" + BASE,
    "tab-in-row": BASE.replace("- [1.5, 0.25]", "- [1.5,\t0.25]"),
    "row-pair": BASE.replace("[1.0, 0.0]]", "[[1.0, 0.5], 0.0]]"),
    "row-no-space": BASE.replace("- [1.5, 0.25]", "- [1.5,0.25]"),
    "row-trailing-space": BASE.replace("- [1.5, 0.25]", "- [1.5, 0.25] "),
    "quoted-expression": BASE.replace("[1.0, 0.0]]", '["ln2", 0.0]]'),
    "single-quoted": BASE.replace("[1.0, 0.0]]", "['1.0', 0.0]]"),
    "flow-mapping": 'operator: {kms: {beta: 1.0,\n  matrix:\n    - [1.5]\n  }}\nh_values: [1.0]\n',
    "flow-explicit": "operator: {matrix: [[2.0]]}\nvectors: {a: 1,\n  explicit: [[1.0]]\n  }\n",
    "placeholder-text": BASE + 'experiment: !weylscale-rows ["0"]\n',
    "tag-directive": "%TAG !w! !weylscale-\n---\n" + BASE + 'experiment: !w!rows ["x"]\n',
    "tagged-mapping": BASE + "experiment: !weylscale-rows {a: 1}\n",
    "escaped-quote": BASE.replace("[1.0, 0.0]]", '["\\x31.5", 0.0]]'),
    "multi-document": BASE + "---\nh_values: [1.0]\n",
    "top-level-list": "- matrix:\n    - [1.0]\n",
    "block-in-list": BASE + "experiment:\n  -\n    matrix:\n      - [1.0]\n",
    "key-with-comment": BASE.replace("    matrix:\n", "    matrix:  # H\n"),
    "big-int": BASE.replace("[1.0, 0.0]]", "[1" + "0" * 400 + ", 0.0]]"),
    "signed-zeros": BASE.replace("[1.0, 0.0]]", "[-0.0, +0.0], [-0, +0]]"),
    "crlf": BASE.replace("\n", "\r\n"),
}


def test_every_case_but_the_fast_path_edits_the_base():
    # a replace that no longer matches would leave its case testing BASE
    assert [name for name, text in CASES.items() if text == BASE] == ["fast-path"]


@pytest.mark.parametrize("name", list(CASES))
def test_reader_agrees_with_pyyaml(tmp_path, name):
    path = tmp_path / "config.yaml"
    path.write_bytes(CASES[name].encode("utf-8"))
    assert_reads_like_pyyaml(path)


@pytest.mark.parametrize(
    "token, taken",
    # "+1" and "-0" are ints among bare floats: PyYAML reads the file whole
    [(token, token in TAKEN_QUIRKS) for token in QUIRK_TOKENS]
    + [("00", False), ("1.0 # c", False), ("'1.0'", False), ("~", False), ("true", False)]
    + [("010", False), ("1_0", False), ("e5", False), ("1e", False)]
    # a quoted literal among bare floats
    + [('"1e-05-2.0j"', False)]
    + [("1.0e5", True), ("-.5", True), ("1.e+5", True), ("-2.5E-3", True)]
    + [("5e-324", True), ("1e+16", True), ("-2E5", True), ("+7e0", True)],
)
def test_only_the_strict_grammar_is_taken_out(token, taken):
    assert (_take_rows(BASE.replace("[1.5, 0.25]", f"[1.5, {token}]")) is not None) == taken


@pytest.mark.parametrize(
    "name",
    [
        "comment-on-row",
        "comment-after-explicit",
        "key-with-comment",
        "anchored-row",
        "tab-in-row",
        "row-pair",
        "row-no-space",
        "row-trailing-space",
        "empty-row",
        "empty-explicit-row",
        "escaped-quote",
    ],
)
def test_other_layouts_send_the_whole_text_to_pyyaml(name):
    assert _take_rows(CASES[name]) is None


@pytest.mark.parametrize("name", ["placeholder-text", "tag-directive", "tagged-mapping"])
def test_a_tagged_node_of_the_file_sends_the_whole_text_to_pyyaml(yaml_inputs, name):
    # the blocks are taken, but a node of the file's own under the stand-ins' tag
    # stops the read of the rest; PyYAML then reads the file whole, and refuses the tag
    text = CASES[name]
    stripped, _ = _take_rows(text)
    with pytest.raises(yaml.constructor.ConstructorError, match="could not determine a constructor"):
        _load_yaml(text, "config.yaml")
    assert yaml_inputs == [stripped, text]


def test_a_block_under_a_list_item_takes_the_cast(yaml_inputs):
    text = CASES["block-in-list"]
    stripped, _ = _take_rows(text)
    document = _load_yaml(text, "config.yaml")
    assert yaml_inputs == [stripped]
    rows = document["experiment"][0]["matrix"]
    assert isinstance(rows, np.ndarray) and rows.tolist() == [[1.0]]
    assert_same_document(document, yaml.load(text, Loader=config_module._YAML_LOADER))


# ---------------------------------------------------------------------------
# the block reader's checks: what each keeps out of the one-pass cast, and what it lets in


def _blocks_with(tmp_path, old, new):
    """The blocks the reader takes from BASE with ``old`` replaced by ``new``,
    or None; the file reads as PyYAML reads it either way."""
    text = BASE.replace(old, new)
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_pyyaml(path)
    taken = _take_rows(text)
    return None if taken is None else list(taken[1].values())


def test_guard_exponent_sign(tmp_path):
    # YAML 1.1 reads an exponent without its sign as a string, which parse_number reads as float() does
    for token in ("1.0e5", "1.e5", "1.5E10", "1.5e+0", "2.5E-1"):
        matrix, _ = _blocks_with(tmp_path, "[1.5, 0.25]", f"[1.5, {token}]")
        assert isinstance(matrix, np.ndarray)


def test_guard_digit_before_the_dot(tmp_path):
    # ".5" is a YAML 1.1 float and "-.5", "+.5" are strings: all three read as float() reads them
    for token in (".5", "-.5", "+.5"):
        matrix, _ = _blocks_with(tmp_path, "[1.5, 0.25]", f"[1.5, {token}]")
        assert isinstance(matrix, np.ndarray)


def test_guard_dotless_exponent(tmp_path):
    # a float that repr writes without a dot is a string to YAML 1.1, read as float() reads it
    for row in ("[1.5, 1e-05]", "[1.5, 5e-324]", "[1.5, 1e+16]", "[1.5, -2E5]", "[1.0e5, 1e5]", "[1e5, 1.5E5]"):
        matrix, _ = _blocks_with(tmp_path, "[1.5, 0.25]", row)
        assert isinstance(matrix, np.ndarray)
    # digits alone are a YAML 1.1 int, "010" the octal 8 and "-0" +0.0, so they stay off the cast
    for row in ("[1.5, 1e-05, 10]", "[1e-05, 010]", "[1e-05, 1_0]", "[1e-05, -0]", "[1e-05, +1]"):
        assert _blocks_with(tmp_path, "[1.5, 0.25]", row) is None


def test_guard_comma_and_space_separators(tmp_path):
    for row in ("[1.5,  0.25]", "[1.5 , 0.25]", "[1.5,0.25]", '["1.5+1j",  "0.25j"]'):
        assert _blocks_with(tmp_path, "[1.5, 0.25]", row) is None


def test_guard_quote_count(tmp_path):
    # without the outer quotes, stripping the ends would cast "j" and "2": PyYAML fails on the row
    rows = "[1.5, 0.25]\n      - [0.25, 2.0]"
    assert _blocks_with(tmp_path, rows, '[1j", "2j]') is None
    matrix, _ = _blocks_with(tmp_path, rows, '["1.5+0j", "0.25+1j"]\n      - ["0.25-1j", "2.0+0j"]')
    assert isinstance(matrix, np.ndarray)


def test_guard_equal_row_width(tmp_path):
    # three ragged rows of six entries would fill a 3 x 2 array
    assert _blocks_with(tmp_path, "[[0.5, 1.0], [1.0, 0.0]]", "[[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]") is None
    vectors = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(ConfigInvalid, match=r"^vectors\.explicit: rows of unequal length$"):
        ExperimentConfig.from_dict({"vectors": {"explicit": vectors}})


# ---------------------------------------------------------------------------
# property test: documents mixing accepted and fallback tokens


_ACCEPTED = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)).map(
        lambda z: f'"{z[0]!r}{"" if z[1] < 0 or repr(z[1]).startswith("-") else "+"}{z[1]!r}j"'
    ),
)
_FALLBACK = st.sampled_from(
    QUIRK_TOKENS + ["ln2", '"ln(2)"', "[1.0, 0.5]", "'2.0'", "~", "true", ".nan", "-.inf", "1.0  # c", "&x 1.0", "00", '"\\x31.5"']
)
_TOKENS = st.integers(0, 9).flatmap(lambda k: _FALLBACK if k == 9 else _ACCEPTED)


@st.composite
def config_texts(draw):
    dim = draw(st.integers(1, 3))
    key_pad = draw(st.sampled_from(["  ", "    "]))
    row_pad = key_pad + draw(st.sampled_from(["  ", "  ", "    ", ""]))
    lines = ["operator:"]
    if draw(st.booleans()):
        lines += ["  kms:", f"    beta: {draw(st.sampled_from(['1.0', '0.5', 'ln2', '1e-05']))}"]
        key_pad, row_pad = "  " + key_pad, "  " + row_pad
    lines.append(f"{key_pad}matrix:")
    for _ in range(dim):
        lines.append(f"{row_pad}- [{', '.join(draw(_TOKENS) for _ in range(dim))}]")
    count = draw(st.integers(1, 3))
    vectors = ", ".join(f"[{', '.join(draw(_TOKENS) for _ in range(dim))}]" for _ in range(count))
    lines += ["vectors:", f"  explicit: [{vectors}]"]
    lines.append(f"h_values: [{', '.join(draw(_TOKENS) for _ in range(draw(st.integers(1, 3))))}]")
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\nt_grid: [1.0, 2.0\n"]))


@settings(max_examples=200)
@given(config_texts())
def test_mixed_documents_read_like_pyyaml(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mixed") / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_pyyaml(path)


# ---------------------------------------------------------------------------
# large blocks: the one-pass cast, with a YAML 1.1 quirk token drawn into it

#: tokens where float() and YAML 1.1 disagree: ".5" is a float to both, the others text to YAML
BLOCK_QUIRKS = [".5", "-.5", "+.5", "1.0e5", "1.e5", "1.5E10"]


def _literal(z):
    return f'"{z.real!r}{"" if repr(z.imag).startswith("-") else "+"}{z.imag!r}j"'


@st.composite
def quirk_blocks(draw):
    """A 40 x 40 Hermitian matrix and 40 vectors of 40 entries, all plain floats or
    all quoted literals, with one quirk token, bare or quoted, in one of the two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quoted = draw(st.booleans())
    size = 40
    entries = rng.standard_normal((size, size)) * 10.0 ** rng.integers(-3, 4, (size, size))
    if quoted:
        entries = entries + 1j * rng.standard_normal((size, size))
    matrix = (entries + entries.conj().T) / 2
    vectors = rng.standard_normal((size, size)) + (1j * rng.standard_normal((size, size)) if quoted else 0)
    texts = {
        name: [[_literal(complex(z)) if quoted else repr(float(z.real)) for z in row] for row in block]
        for name, block in (("matrix", matrix), ("explicit", vectors))
    }
    block = draw(st.sampled_from(["matrix", "explicit"]))
    token = draw(st.sampled_from(BLOCK_QUIRKS))
    texts[block][draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = (
        f'"{token}"' if draw(st.booleans()) else token
    )
    rows = "".join(f"      - [{', '.join(row)}]\n" for row in texts["matrix"])
    explicit = ", ".join(f"[{', '.join(row)}]" for row in texts["explicit"])
    return f"operator:\n  kms:\n    beta: 1.0\n    matrix:\n{rows}vectors:\n  explicit: [{explicit}]\n"


@settings(max_examples=40)
@given(quirk_blocks())
def test_quirk_tokens_in_large_blocks_read_like_pyyaml(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("quirk") / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_pyyaml(path)


#: floats written without a dot, which the one-pass cast takes, and YAML 1.1 ints it leaves
DOTLESS_TOKENS = ["1e-05", "5e-324", "1e+16", "-2E5", "+7e0", "1e300", "1e400"]
DOTLESS_INTS = ["010", "1_0"]


@st.composite
def dotless_blocks(draw):
    """A 40 x 40 Hermitian float matrix and 40 float vectors of 40 entries, written
    by repr, with one drawn token in place of one entry (and of its mirror, in
    the matrix); and the token."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 40
    entries = rng.standard_normal((size, size)) * 10.0 ** rng.integers(-3, 4, (size, size))
    texts = {
        "matrix": [[repr(float(x)) for x in row] for row in (entries + entries.T) / 2],
        "explicit": [[repr(float(x)) for x in row] for row in rng.standard_normal((size, size))],
    }
    block = draw(st.sampled_from(["matrix", "explicit"]))
    token = draw(st.sampled_from(DOTLESS_TOKENS + DOTLESS_INTS))
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    texts[block][i][j] = token
    if block == "matrix":
        texts[block][j][i] = token
    rows = "".join(f"      - [{', '.join(row)}]\n" for row in texts["matrix"])
    explicit = ", ".join(f"[{', '.join(row)}]" for row in texts["explicit"])
    return f"operator:\n  kms:\n    beta: 1.0\n    matrix:\n{rows}vectors:\n  explicit: [{explicit}]\n", token


@settings(max_examples=40)
@given(dotless_blocks())
def test_dotless_tokens_in_large_blocks_take_the_cast_and_read_like_pyyaml(tmp_path_factory, drawn):
    text, token = drawn
    path = tmp_path_factory.mktemp("dotless") / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_pyyaml(path)
    taken = _take_rows(text)
    if token in DOTLESS_INTS:
        assert taken is None
    else:
        assert all(isinstance(block, np.ndarray) for block in taken[1].values())


#: float texts as repr, %.17g and %.17e write them
_FLOAT_TEXTS = st.lists(
    st.floats(allow_nan=False).flatmap(lambda x: st.sampled_from([repr(x), "%.17g" % x, "%.17e" % x])),
    min_size=1,
    max_size=20,
)


def _bits(values, dtype):
    return np.array(values, dtype=dtype).view(np.uint64).tolist()


@settings(max_examples=200)
@given(_FLOAT_TEXTS)
def test_numpy_casts_float_texts_as_float_does(texts):
    expected = _bits([float(t) for t in texts], float)
    assert _bits(texts, float) == expected
    assert _bits([t.encode() for t in texts], float) == expected


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=20))
def test_numpy_casts_complex_literals_as_complex_does(pairs):
    texts = [_literal(complex(*pair)).strip('"') for pair in pairs]
    assert _bits(texts, complex) == _bits([complex(t) for t in texts], complex)


@settings(max_examples=300)
@given(st.text(alphabet="0123456789.eE+-j", max_size=8))
def test_numpy_refuses_the_texts_float_and_complex_refuse(text):
    # the float cast reads bytes tokens, the complex cast str ones
    for dtype, token in ((float, text.encode()), (complex, text)):
        try:
            expected = _bits([dtype(text)], dtype)
        except ValueError:
            with pytest.raises(ValueError):
                np.array([token], dtype=dtype)
        else:
            assert _bits([token], dtype) == expected


# ---------------------------------------------------------------------------
# numeric blocks: one array when every entry casts directly, else entry by entry


def _per_entry_rows(block, where):
    """The rows of equal length, each as parse_complex reads its entries."""
    if any(len(row) != len(block[0]) for row in block):
        raise ConfigInvalid(f"{where}: rows of unequal length")
    return tuple(
        np.array([parse_complex(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)], dtype=complex)
        for i, row in enumerate(block)
    )


def _per_entry_vectors(explicit):
    """The vectors as the per-entry parser reads them: rows of equal length,
    parse_complex on every entry, then each vector checked finite."""
    vectors = _per_entry_rows(explicit, "vectors.explicit")
    for i, vec in enumerate(vectors):
        if not np.all(np.isfinite(vec)):
            raise ConfigInvalid(f"vectors.explicit[{i}]: NaN or infinite entries")
    return vectors


def _per_entry_operator(rows):
    """The operator the per-entry parser gives: its rows, then a model error as a config error."""
    entries = _per_entry_rows(rows, "operator.matrix")
    try:
        return OperatorSpec.from_matrix(entries)
    except WeylscaleError as exc:
        raise ConfigInvalid(f"operator.matrix: {exc}") from exc


def _vectors_outcome(read, explicit):
    try:
        return "vectors", [(v.tobytes(), v.dtype.str, v.shape) for v in read(explicit)]
    except ConfigInvalid as exc:
        return "error", str(exc)


def _operator_outcome(read, rows):
    try:
        return "operator", _operator_bytes(read(rows))
    except ConfigInvalid as exc:
        return "error", str(exc)


def _from_dict_vectors(explicit):
    vectors = ExperimentConfig.from_dict({"vectors": {"explicit": explicit}}).vectors_explicit
    assert isinstance(vectors, np.ndarray) and vectors.ndim == 2
    return vectors


def _from_dict_operator(rows):
    return ExperimentConfig.from_dict({"operator": {"matrix": rows}}).operator


#: key -> (reading from_dict, per-entry reference, outcome of a block)
READERS = {
    "vectors.explicit": (_from_dict_vectors, _per_entry_vectors, _vectors_outcome),
    "operator.matrix": (_from_dict_operator, _per_entry_operator, _operator_outcome),
}

#: name: (vectors.explicit, "vectors" or the error it gives); a ragged block is
#: refused before any entry is read
EXPLICIT_LAYOUTS = {
    "quoted-complex": ([["0.5+0.5j", "1.0-0.25j"], ["-3e-05+2j", "7j"]], "vectors"),
    "int": ([[1, -2], [0, 10**20 + 1]], "vectors"),
    "float": ([[1.5, -0.0], [2.5e-300, 1e300]], "vectors"),
    "mixed": ([["1+2j", 3], [4.5, "-0.0-0.0j"]], "vectors"),
    "spaces-at-the-ends": ([[" 1+2j", "(1-2j) ", "( 3j )", "\t4j\n"]], "vectors"),
    "underscores": ([["1_0.5j", 1.0]], "vectors"),
    "bool": ([[1.0, True]], "vectors.explicit[0][1]: expected a number, got a boolean"),
    "upper-J": ([["1+2J", 1.0]], "vectors.explicit[0][0]: cannot parse number '1+2J'"),
    "inner-spaces": ([["1 + 2j", 1.0]], "vectors"),
    "expression": ([["ln(2)", 1.0]], "vectors"),
    "string-without-j": ([["1.5", "2.5j"]], "vectors"),
    "inf": ([[1.0, 1.0], [float("inf"), 1.0]], "vectors.explicit[1]: NaN or infinite entries"),
    "nan": ([[1.0], [float("nan")]], "vectors.explicit[1]: NaN or infinite entries"),
    "nanj": ([["nanj", 1.0]], "vectors.explicit[0]: NaN or infinite entries"),
    "overflowing-literal": ([["1e400j"]], "vectors.explicit[0]: NaN or infinite entries"),
    "pairs": ([[[1.0, 2.0], [0.5, "ln(2)"]]], "vectors"),
    "pair-of-three": ([[[1.0, 2.0, 3.0]]], "vectors.explicit[0][0]: complex pair needs exactly two entries"),
    "ragged": ([[1.0, 2.0], [3.0]], "vectors.explicit: rows of unequal length"),
    "ragged-as-many-entries": ([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]], "vectors.explicit: rows of unequal length"),
    "int-beyond-float": ([[10**400, 1.0]], "vectors.explicit[0][0]: 1" + "0" * 400 + " is too large for a float"),
    "two-js": ([["1jj", 1.0]], "vectors.explicit[0][0]: cannot parse complex '1jj'"),
    "null": ([[None]], "vectors.explicit[0][0]: cannot parse number None"),
    "parse-error-before-nan": ([[float("nan")], ["x"]], "vectors.explicit[1][0]: cannot parse number 'x'"),
}

#: name: (operator.matrix, "operator" or the error it gives)
MATRIX_LAYOUTS = {
    "matrix-numbers": ([[2, -0.0], [-0.0, 10**20 + 1]], "operator"),
    "matrix-quoted-complex": ([[2.0, "0.5+0.5j"], ["0.5-0.5j", 3]], "operator"),
    "matrix-expression": ([["ln(2)", 0], [0, "sqrt(2)"]], "operator"),
    "matrix-pairs": ([[2, [0.5, 1]], [[0.5, -1], 3]], "operator"),
    "matrix-bool": ([[2, True], [True, 2]], "operator.matrix[0][1]: expected a number, got a boolean"),
    "matrix-int-beyond-float": ([[10**400]], "operator.matrix[0][0]: 1" + "0" * 400 + " is too large for a float"),
    "matrix-inf": ([[float("inf")]], "operator.matrix: matrix has NaN or infinite entries"),
    "matrix-not-hermitian": ([[1, "1j"], ["1j", 1]], "operator.matrix: conjugate-symmetry residual 2.000e+00 exceeds 1e-12"),
    "matrix-not-square": ([[1, 2]], "operator.matrix: matrix input must be square, got shape (1, 2)"),
    "matrix-ragged": ([[1, "2"], [3]], "operator.matrix: rows of unequal length"),
}

BLOCK_LAYOUTS = [("vectors.explicit", name) for name in EXPLICIT_LAYOUTS] + [
    ("operator.matrix", name) for name in MATRIX_LAYOUTS
]


@pytest.mark.parametrize("where, name", BLOCK_LAYOUTS, ids=[name for _, name in BLOCK_LAYOUTS])
def test_explicit_vectors_read_as_entry_by_entry(where, name):
    block, outcome = {**EXPLICIT_LAYOUTS, **MATRIX_LAYOUTS}[name]
    read, reference, outcome_of = READERS[where]
    expected = outcome_of(reference, block)
    if outcome in ("vectors", "operator"):
        assert expected[0] == outcome
    else:
        assert expected == ("error", outcome)
    assert outcome_of(read, block) == expected


_ENTRIES = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.tuples(st.floats(), st.floats()).map(lambda z: repr(complex(*z)).strip("()")),
    st.sampled_from([True, None, "1+2J", "1 + 2j", " 2j", "ln(2)", "1.5", "pi", "jj", "infj", "-nanj", "1e400j"]),
    st.lists(st.floats(-2, 2), min_size=1, max_size=3),
)


#: one to four vectors of n or n + 1 entries, so some blocks are ragged
_EXPLICIT = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n + 1), min_size=1, max_size=4)
)


@settings(max_examples=200)
@given(_EXPLICIT)
def test_explicit_vectors_of_mixed_entries(explicit):
    assert _vectors_outcome(_from_dict_vectors, explicit) == _vectors_outcome(_per_entry_vectors, explicit)


# ---------------------------------------------------------------------------
# the benchmark's layout takes the fast path


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def yaml_inputs(monkeypatch):
    """The text of every ``yaml.load`` call the config module makes."""
    seen = []
    load = yaml.load

    def recording_load(stream, Loader):
        seen.append(stream if isinstance(stream, str) else stream.getvalue())
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", recording_load)
    return seen


def test_benchmark_layout_sends_only_the_other_lines_to_pyyaml(tmp_path, yaml_inputs):
    workloads = _workloads()
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 3.0, 128)
    hamiltonian = workloads.block_rotated(values, rng, 4)
    vectors = workloads.complex_vectors(rng, 160, 6, 0.3)
    covariance = workloads.dense_hermitian(rng.uniform(1.5, 3.0, 6), rng)
    documents = {
        "kms": {
            "operator": {"kms": {"beta": 1.0, "matrix": hamiltonian.tolist()}},
            "vectors": {"random": {"count": 1, "seed": 3}},
            "h_values": [0.7, 1.0, 2.0],
        },
        "positivity": {
            "operator": {"matrix": covariance.tolist()},
            "vectors": {"explicit": vectors.tolist()},
            "h_values": [0.5, 1.5],
        },
    }
    for name, document in documents.items():
        path = tmp_path / f"{name}.yaml"
        workloads.write_config(str(path), document)
        text = path.read_text(encoding="utf-8")
        yaml_inputs.clear()
        config = ExperimentConfig.from_file(path)
        (seen,) = yaml_inputs
        assert len(seen.splitlines()) == len(text.splitlines()) - (128 if name == "kms" else 6) + 1
        assert seen.count(config_module._ROWS_TAG) == 1 + (name == "positivity")
        assert len(seen) < 300 < len(text) / 100
        yaml_inputs.clear()
        assert _fingerprint(config) == _fingerprint(ExperimentConfig.from_dict(yaml.load(text, Loader=yaml.SafeLoader)))
    for workload in workloads.WORKLOADS:
        for seed in (7, 11):
            for job in workloads.build(workload, seed, str(tmp_path / f"{workload}-{seed}")):
                text = Path(job.config).read_text(encoding="utf-8")
                count = text.count("matrix:") + text.count("explicit:")
                yaml_inputs.clear()
                config = ExperimentConfig.from_file(job.config)
                (seen,) = yaml_inputs
                if count:
                    # every block cast in one pass: none as lists, no whole-file read
                    stripped, blocks = _take_rows(text)
                    assert seen == stripped and len(blocks) == count, job.name
                    assert seen.count(config_module._ROWS_TAG) == count, job.name
                    assert all(isinstance(block, np.ndarray) for block in blocks.values()), job.name
                else:
                    assert seen == text, job.name
                yaml_inputs.clear()
                reference = ExperimentConfig.from_dict(yaml.load(text, Loader=config_module._YAML_LOADER))
                assert _fingerprint(config) == _fingerprint(reference), job.name
