"""Hypothesis properties of the sampler, the generators, the classifiers
(and which verdicts survive a Kraus remix), dephasing, the JSON formats,
the entropy gap, the dilation and the command line's exit contract."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from blockcoh import serialize  # noqa: E402
from blockcoh.cli import main  # noqa: E402
from blockcoh.blockcore import BlockPartition, block_dephase  # noqa: E402
from blockcoh.channels import (  # noqa: E402
    KrausSet,
    _kraus_from_block_patterns,
    classifier_report,
    gen_pattern_violating,
    gen_random,
)
from blockcoh.measures import rel_entropy_block_coherence  # noqa: E402
from blockcoh.naimark import Povm, dilate  # noqa: E402
from blockcoh.sampling import (  # noqa: E402
    haar_unitary,
    random_density_matrices,
    random_density_matrix,
    random_povm,
)
from test_cli import grid_outcomes, layouts  # noqa: E402
from test_naimark import reference_dilate  # noqa: E402

SEEDS = st.integers(min_value=0, max_value=2**63)
# d = 1, all-ones partitions, the unbalanced (1, 15), and small mixed ones
PARTITIONS = st.one_of(
    st.just((1,)),
    st.just((1, 15)),
    st.integers(2, 6).map(lambda k: (1,) * k),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
).map(BlockPartition)


def block_unitary(partition, rng):
    # Haar unitary on each diagonal block, zero across blocks
    u = np.zeros((partition.total, partition.total), dtype=complex)
    for b, size in enumerate(partition.dims):
        sl = partition.block_slice(b)
        u[sl, sl] = haar_unitary(size, rng)
    return u


def same_bits(a, b):
    # equal values and signed zeros: both show in the JSON output
    return np.array_equal(a, b) and np.array_equal(np.signbit(a.view(float)),
                                                   np.signbit(b.view(float)))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), seeds=st.lists(SEEDS, min_size=1, max_size=12))
def test_stacked_sampler_equals_per_seed_states(dim, seeds):
    want = np.stack([random_density_matrix(dim, s) for s in seeds])
    assert np.array_equal(random_density_matrices(dim, seeds), want)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["bio", "sbio", "pbio", "unitary"]),
       dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       seed=SEEDS)
def test_gen_random_is_deterministic(kind, dims, seed):
    p = BlockPartition(dims)
    first, second = gen_random(kind, p, seed), gen_random(kind, p, seed)
    assert np.array_equal(first.operators, second.operators)
    # signed zeros too: they show in the generator's JSON output
    assert np.array_equal(np.signbit(first.operators.view(float)),
                          np.signbit(second.operators.view(float)))


@settings(max_examples=30, deadline=None)
@given(p=PARTITIONS, strict=st.booleans(), extra=st.integers(0, 2), data=st.data())
def test_structural_implies_semantic(p, strict, extra, data):
    # fill a random legal block pattern: each operator sends each column
    # block into one row block, and into distinct row blocks when strict;
    # with at least d operators every such pattern can be completed
    k = p.num_blocks
    blocks = st.permutations(range(k)) if strict else st.lists(
        st.integers(0, k - 1), min_size=k, max_size=k)
    rows = data.draw(st.lists(blocks, min_size=p.total + extra, max_size=p.total + extra))
    patterns = [[[r] for r in op] for op in rows]
    seed = data.draw(SEEDS)
    ks = KrausSet(p, _kraus_from_block_patterns(p, patterns, np.random.default_rng(seed)))
    report = classifier_report(ks)
    assert report["cptp"] and report["bio_structural"]
    assert report["bio_semantic"] and report["mbio"]
    if strict:
        assert report["sbio_structural"] and report["sbio_semantic"]


@settings(max_examples=30, deadline=None)
@given(p=PARTITIONS,
       kind=st.sampled_from(["bio", "sbio", "pbio", "unitary", "bio-violator", "sbio-violator"]),
       seed=SEEDS, phase=st.floats(0.0, 2 * np.pi))
def test_verdicts_invariant_under_block_unitaries_and_phase(p, kind, seed, phase):
    if kind.endswith("-violator"):
        assume(p.num_blocks >= 2)
        ks = gen_pattern_violating(kind.split("-")[0], p, seed)
    else:
        ks = gen_random(kind, p, seed)
    rng = np.random.default_rng(seed)
    u, w = block_unitary(p, rng), block_unitary(p, rng)
    moved = KrausSet(p, np.exp(1j * phase) * (u @ ks.operators @ w))
    assert classifier_report(moved) == classifier_report(ks)


def choi(ks):
    # sum_n vec(K_n) vec(K_n)^dag: the same for every Kraus set of the channel
    vecs = ks.operators.reshape(ks.n_operators, -1)
    return vecs.T @ vecs.conj()


@settings(max_examples=30, deadline=None)
@given(dims=st.sampled_from([(2, 3), (1, 1, 1), (2, 2), (1, 2, 2)]),
       kind=st.sampled_from(["bio", "sbio", "pbio"]), seed=SEEDS)
def test_channel_keys_survive_a_kraus_remix(dims, kind, seed):
    # K'_m = sum_n U_mn K_n is another Kraus set of the same channel; the
    # branch-level keys judge the set as given and may change, these may not
    ks = gen_random(kind, BlockPartition(dims), seed)
    u = haar_unitary(ks.n_operators, seed)
    remixed = KrausSet(ks.partition, np.tensordot(u, ks.operators, axes=1))
    assert np.max(np.abs(choi(remixed) - choi(ks))) <= 1e-12
    before, after = classifier_report(ks), classifier_report(remixed)
    assert (after["cptp"], after["mbio"]) == (before["cptp"], before["mbio"]) == (True, True)


@settings(max_examples=40, deadline=None)
@given(p=PARTITIONS, seeds=st.lists(SEEDS, min_size=1, max_size=4))
def test_block_dephase_is_idempotent(p, seeds):
    rhos = random_density_matrices(p.total, seeds)
    once = block_dephase(p, rhos)
    assert np.array_equal(block_dephase(p, once), once)
    assert np.array_equal(block_dephase(p, block_dephase(p, rhos[0])), once[0])


@settings(max_examples=30, deadline=None)
@given(p=PARTITIONS, kind=st.sampled_from(["bio", "sbio", "pbio", "unitary"]),
       n=st.integers(1, 4), seed=SEEDS)
def test_json_round_trips_are_the_identity(p, kind, n, seed):
    def through_text(obj):
        return json.loads(serialize.dumps(obj))

    ks = gen_random(kind, p, seed)
    back = serialize.kraus_from_json(through_text(serialize.kraus_to_json(ks)))
    assert back.partition == p and same_bits(back.operators, ks.operators)

    rho = random_density_matrix(p.total, seed)
    state = {"dim": p.total, "matrix": serialize.matrix_to_json(rho)}
    assert same_bits(serialize.state_from_json(through_text(state)), rho)

    povm = Povm(random_povm(p.total, n, seed))
    back = serialize.povm_from_json(through_text(serialize.povm_to_json(povm)))
    assert same_bits(back.effects, povm.effects)


@settings(max_examples=30, deadline=None)
@given(p=PARTITIONS, seed=SEEDS)
def test_entropy_gap_invariant_under_block_unitaries(p, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(p.total, rng)
    u = block_unitary(p, rng)
    moved = u @ rho @ u.conj().T
    gap = rel_entropy_block_coherence(p, rho)
    assert abs(rel_entropy_block_coherence(p, moved) - gap) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), n=st.integers(1, 6), seed=SEEDS)
def test_dilation_matches_loop_and_is_unitary(d, n, seed):
    povm = Povm(random_povm(d, n, seed))
    v = dilate(povm).global_unitary
    # a different skip would move a column by O(1)
    assert np.max(np.abs(v - reference_dilate(povm))) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(d * n))) <= 1e-9


# JSON numbers as json.loads returns them: floats (signed zeros, NaN and
# infinities included) and ints (a JSON -0 is int 0); huge ints, some past the
# float range, are one of the defects
JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0, 1, -1]),
    st.integers(),
)
HUGE_INTS = st.integers(min_value=2**1000, max_value=2**1100).map(lambda v: v * (-1) ** v)
NOT_NUMBERS = st.one_of(st.booleans(), st.none(), st.sampled_from(["1.0", "-0", "nan", ""]),
                        st.text(max_size=2), st.just({}), st.just([1.0]))


@st.composite
def json_matrices(draw):
    """Well-formed matrices, and matrices with one defect of the schema."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair = st.lists(JSON_NUMBERS, min_size=2, max_size=2)
    obj = draw(st.lists(st.lists(pair, min_size=c, max_size=c), min_size=r, max_size=r))
    defect = draw(st.sampled_from(["none", "none", "number", "entry", "row", "matrix"]))
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
    if defect == "number":
        obj[i][j][draw(st.integers(0, 1))] = draw(st.one_of(NOT_NUMBERS, HUGE_INTS))
    elif defect == "entry":
        obj[i][j] = draw(st.one_of(JSON_NUMBERS, NOT_NUMBERS,
                                   st.lists(JSON_NUMBERS, max_size=3)))
    elif defect == "row":
        obj[i] = draw(st.one_of(NOT_NUMBERS, st.lists(pair, max_size=c + 1)))
    elif defect == "matrix":
        obj = draw(st.one_of(st.just([]), NOT_NUMBERS, JSON_NUMBERS))
    return obj


def decoded(decode, obj):
    try:
        return decode(obj)
    except serialize.SchemaError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(obj=json_matrices())
def test_flat_decode_equals_entry_loop(obj):
    loop = decoded(lambda o: serialize._matrix_from_entries(o, "operator 3"), obj)
    full = decoded(lambda o: serialize.matrix_from_json(o, "operator 3"), obj)
    if isinstance(loop, str):
        # rejected by both, with the loop's message naming the first bad entry
        assert full == loop
    else:
        assert same_bits(full, loop) and full.shape == loop.shape
    # the text path, in each layout, reads every matrix that the loop decodes
    # to at least one column, bit for bit, and declines all the others
    decodable = not isinstance(loop, str) and loop.shape[1] > 0
    for text in layouts(obj):
        fast, old = grid_outcomes(text)
        assert fast == old
        assert (fast is not None) == decodable


# Documents for the streaming reader: a Kraus set or a POVM in one of the
# layouts that json accepts, or broken in one of the ways that it rejects.
HUGE_401 = "1" + "0" * 400


@st.composite
def square_matrices(draw, d):
    pair = st.lists(st.one_of(st.floats(-1e100, 1e100),
                              st.sampled_from([0.0, -0.0, 0, 1, -1])), min_size=2, max_size=2)
    return draw(st.lists(st.lists(pair, min_size=d, max_size=d), min_size=d, max_size=d))


@st.composite
def json_documents(draw):
    """(text, schema function): a document, its layout and at most one defect."""
    d, seed = draw(st.integers(1, 3)), draw(SEEDS)
    key = draw(st.sampled_from(serialize.MATRIX_ARRAYS))
    if draw(st.booleans()):  # a valid set of the schema
        if key == "kraus":
            obj = serialize.kraus_to_json(gen_random("bio", BlockPartition((1,) * d), seed))
        else:
            obj = serialize.povm_to_json(Povm(random_povm(d, draw(st.integers(1, 3)), seed)))
    else:
        obj = {"dim": d, key: draw(st.lists(st.one_of(square_matrices(d), json_matrices()),
                                            max_size=3))}
        if key == "kraus":
            obj["partition"] = draw(st.sampled_from([[d], [1] * d]))
    defect = draw(st.sampled_from([
        "none", "none", "none", "string", "boolean", "nan", "huge", "ragged",
        "truncated", "trailing", "comma", "bom", "not-object",
    ]))
    matrices = obj[key]
    if defect in ("string", "boolean", "nan", "huge", "ragged") and matrices:
        mat = matrices[draw(st.integers(0, len(matrices) - 1))]
        if isinstance(mat, list) and mat and all(isinstance(r, list) and r for r in mat):
            r = draw(st.integers(0, len(mat) - 1))
            if defect == "ragged":
                mat[r] = mat[r] + mat[r][:1]
            elif isinstance(mat[r][0], list) and mat[r][0]:
                mat[r][0][0] = {"string": "1.0", "boolean": True, "nan": float("nan"),
                                "huge": "HUGE"}[defect]
    if draw(st.booleans()):  # extra keys, one of them a matrix array the schema ignores
        obj["note"] = "extra"
        obj[next(k for k in serialize.MATRIX_ARRAYS if k != key)] = [[[[1, 0]]], "x"]
    if draw(st.booleans()):
        obj = dict(reversed(list(obj.items())))
    layout = draw(st.sampled_from(["compact", "gen", "crlf-tabs"]))
    if layout == "compact":
        text = json.dumps(obj, separators=(",", ":"))
    elif layout == "gen":
        text = serialize.dumps(obj)
    else:
        text = json.dumps(obj, indent="\t").replace("\n", "\r\n")
    text = text.replace('"HUGE"', HUGE_401)
    if draw(st.booleans()):  # a repeated key: its first place, its last value
        first = draw(st.sampled_from([f'"{key}": [[[[2, 0]]]]', f'"{key}": 7', '"dim": 9']))
        text = text.replace("{", "{" + first + ", ", 1)
    if defect == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif defect == "trailing":
        text += draw(st.sampled_from([" x", "{}", "]", " 0", "\n,"]))
    elif defect == "comma" and "," in text:
        commas = [i for i, c in enumerate(text) if c == ","]
        i = commas[draw(st.integers(0, len(commas) - 1))]
        text = text[:i] + text[i + 1:]
    elif defect == "bom":
        text = "\ufeff" + text
    elif defect == "not-object":
        text = draw(st.sampled_from([json.dumps(matrices), "42", '"kraus"', "null", "[]"]))
    schema = serialize.kraus_from_json if key == "kraus" else serialize.povm_from_json
    return text, schema


def read_outcome(load, schema, text):
    """What the command line makes of ``text``: the decoded bits, or the error."""
    try:
        value = schema(load(text))
    except Exception as exc:  # the type and message are what the error line prints
        return type(exc), str(exc)
    ops = value.operators if isinstance(value, KrausSet) else value.effects
    return value.__class__, ops.shape, ops.tobytes()


@settings(max_examples=400, deadline=None)
@given(doc=json_documents())
def test_streaming_reader_equals_json_loads(doc):
    text, schema = doc
    assert read_outcome(serialize.load_json, schema, text) == read_outcome(json.loads, schema, text)


# Array elements for the text path of the reader (serialize._grid_matrix):
# a grid of [re, im] pairs in one of three layouts, then at most one token
# replaced, one bracket or comma deleted, doubled or moved anywhere, or the
# bracket or comma next to a number moved over it (which keeps the grid's
# skeleton, the text without numbers and whitespace).
GRID_TOKENS = ["-0", "-0.0", "0", "1E+2", "2.5e-3", "1e-400", "+1", "1.", ".5", "01", "-",
               "NaN", "Infinity", "-Infinity", "1e400", HUGE_401, '"1.0"', "true", "null",
               "1 2", "1,2", "", "[1]", "[]"]


@st.composite
def grid_texts(draw):
    """(text, position of the element, whether it is a well-formed grid)."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, -0.0, 0, 5e-324]), st.integers(-10**20, 10**20))
    pair = st.lists(number, min_size=2, max_size=2)
    grid = draw(st.lists(st.lists(pair, min_size=c, max_size=c), min_size=r, max_size=r))
    layout = draw(st.sampled_from(["compact", "indent-2", "crlf-tabs"]))
    if layout == "compact":
        text = json.dumps(grid, separators=(",", ":"))
    elif layout == "indent-2":
        text = json.dumps(grid, indent=2)
    else:
        text = json.dumps(grid, indent="\t").replace("\n", "\r\n")
    mutation = draw(st.sampled_from(["none", "token", "mark", "hop"]))
    numbers = [m.span() for m in re.finditer(r"[0-9.eE+-]+", text)]
    i, j = numbers[draw(st.integers(0, len(numbers) - 1))]
    if mutation == "token":
        text = text[:i] + draw(st.sampled_from(GRID_TOKENS)) + text[j:]
    elif mutation == "mark":
        marks = [k for k, ch in enumerate(text) if ch in "[],"]
        k = marks[draw(st.integers(0, len(marks) - 1))]
        rest = text[:k] + text[k + 1:]
        action = draw(st.sampled_from(["delete", "double", "move"]))
        if action == "double":
            rest = text[:k] + text[k] + text[k:]
        elif action == "move":
            to = draw(st.integers(0, len(rest)))
            rest = rest[:to] + text[k] + rest[to:]
        text = rest
    elif mutation == "hop" and draw(st.booleans()):  # the mark before number i:j to after it
        k = max(text.rfind("[", 0, i), text.rfind(",", 0, i))
        text = text[:k] + text[k + 1:j] + text[k] + text[j:]
    elif mutation == "hop":  # the mark after it to before it
        k = min(x for x in (text.find(",", j), text.find("]", j)) if x >= 0)
        text = text[:i] + text[k] + text[i:k] + text[k + 1:]
    prefix = draw(st.sampled_from(["", "[", '{"kraus": [']))
    suffix = draw(st.sampled_from(["", "]}", ", [[[1, 2]]]]", "]]", "\n"]))
    return prefix + text + suffix, len(prefix), mutation == "none"


@settings(max_examples=600, deadline=None)
@given(case=grid_texts())
def test_grid_text_path_equals_raw_decode(case):
    # the same bits (signed zeros included) and end position, or both decline
    text, pos, well_formed = case
    fast, old = grid_outcomes(text, pos)
    assert fast == old
    if well_formed:
        assert fast is not None


# commands that write no file, their flags, two abbreviations, and values of
# every kind the flags see: valid, non-ASCII or underscored digits, signed,
# spaced, not a number, and a file that does not exist
CLI_COMMANDS = ["gen", "bound", "classify", "dilate", "measure"]
CLI_FLAGS = ["--class", "--partition", "--seed", "--tol", "--state", "--measure", "--se", "--par"]
CLI_VALUES = ["bio", "2,3", "\u0663", "1_0", "+7", "-1", " 3 ", "nan", "abc",
              str(Path(__file__).parent / "data" / "no-such-file.json")]


@st.composite
def cli_argv(draw):
    """Any tokens in any order, or a command with flag-value pairs (most often a run)."""
    tokens = st.sampled_from(CLI_COMMANDS + CLI_FLAGS + CLI_VALUES)
    if draw(st.booleans()):
        return draw(st.lists(tokens, max_size=6))
    argv = [draw(st.sampled_from(CLI_COMMANDS))]
    if draw(st.booleans()):
        argv += ["--class", "bio"]
    for flag, value in draw(st.lists(st.tuples(st.sampled_from(CLI_FLAGS),
                                               st.sampled_from(CLI_VALUES)), max_size=3)):
        argv += [flag, value]
    return argv + draw(st.lists(tokens, max_size=2))


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_main_returns_its_exit_code_and_reports_each_error_once(argv):
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # main reports every error and returns
            raised = exc
    assert raised is None, f"main({argv!r}) raised {raised!r}"
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1, (argv, err.getvalue())
        assert set(json.loads(lines[0])) == {"error", "kind"}
