"""End-to-end tests of the command line interface, run in process."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola import cli
from ennola.bruteforce import MAX_Q
from ennola.cli import cyc_text, float_text, main, mp_text, qpoly_text
from ennola.exactnum import Cyclotomic, QPoly
from ennola.multipartitions import MultiPartition, enumerate_mp


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ text helpers


def test_mp_text_empty_and_blocks():
    assert mp_text(MultiPartition("phi", 2, ())) == "()"
    labels = [mp_text(mu) for mu in enumerate_mp(2, "phi", 2)]
    assert "(1,0):1.1" in labels
    assert "(1,0):1|(1,1):1" in labels
    assert len(set(labels)) == len(labels)


def test_cyc_text_values():
    assert cyc_text(Cyclotomic.from_rational(5)) == "5"
    assert cyc_text(Cyclotomic.from_rational(Fraction(-2, 3))) == "-2/3"
    z = Cyclotomic.root(3)
    assert cyc_text(z) == "z3"
    assert cyc_text(z * 2) == "2*z3"
    assert cyc_text(z * z) == "-1-z3"
    assert cyc_text(Cyclotomic.root(9) ** 2 * -1) == "-z9^2"
    # each term in lowest terms, over the value's common denominator
    assert cyc_text(Cyclotomic(3, {0: 1, 1: 2}, 4)) == "1/4+1/2*z3"
    assert cyc_text(Cyclotomic(4, {0: 3, 1: -2}, 6)) == "1/2-1/3*z4"
    assert cyc_text(Cyclotomic(5, {2: -5, 3: 1}, 5)) == "-z5^2+1/5*z5^3"


def test_qpoly_text_values():
    assert qpoly_text(QPoly()) == "0"
    assert qpoly_text(QPoly({0: 1})) == "1"
    assert qpoly_text(QPoly({1: 1, 0: -1})) == "q-1"
    assert qpoly_text(QPoly({3: 2, 1: -1, 0: 7})) == "2*q^3-q+7"


def test_float_text_rounding():
    assert float_text(complex(0.9999999999999998, 1e-13)) == "1"
    assert float_text(complex(-0.5, 0.8660254037844387)) == "-0.5+0.8660254038i"
    assert float_text(complex(0.0, -1.0)) == "0-1i"
    assert float_text(complex(-0.0, 0.0)) == "0"



# ------------------------------------------------------------- json writer


def emitted(doc: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(doc)
    return out.getvalue()


_KEYS = st.text() | st.integers(-(10**20), 10**20) | st.floats() | st.booleans() | st.none()
_SCALARS = (
    st.integers(-(10**30), 10**30)
    | st.text()
    | st.sampled_from(["", "\u00e9\u4e2d\U0001f600", '"\\\n\x00\x7f'])
    | st.booleans()
    | st.none()
    | st.floats()
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, kids, max_size=4),
        max_leaves=25,
    )


@st.composite
def _documents(draw):
    # one dict object that the document holds at several positions and depths
    shared = draw(st.dictionaries(st.text(), _nested(_SCALARS), max_size=3))
    values = _nested(_SCALARS | st.just(shared) | st.just({}) | st.just([]))
    return draw(st.dictionaries(_KEYS, values, max_size=6))


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_json_writer_matches_json_dumps(doc):
    assert emitted(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_writer_encodes_a_shared_dict_once(monkeypatch):
    coeffs = [[1, 2], [0, 1]]
    shared = {"N": 3, "coeffs": coeffs}
    doc = {"values": [[shared] * 50 for _ in range(4)], "one": shared}
    seen = []
    encode = cli._json_text

    def counting(o, level, memo, keep=True):
        if o is coeffs:
            seen.append(level)
        return encode(o, level, memo, keep)

    monkeypatch.setattr(cli, "_json_text", counting)
    assert emitted(doc) == json.dumps(doc, indent=2) + "\n"
    # once inside the grid's cells, once under the top-level entry
    assert seen == [4, 2]


@pytest.mark.parametrize("doc", [{"a": Fraction(1, 2)}, {"a": {(1, 2): 3}}, {"a": [{1j: 0}]}])
def test_json_writer_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        emitted(doc)


# ------------------------------------------------------------ data commands


def test_chartable_1_2_is_the_cyclic_cube_root_table(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "1", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "chartable"
    assert len(doc["rows"]) == 3 and len(doc["cols"]) == 3
    assert doc["class_sizes"] == [1, 1, 1]
    # first row and first column are identically 1
    for v in doc["values"][0]:
        assert v["coeffs"][0] == [1, 1] and v["coeffs"][1] == [0, 1]
    for row in doc["values"]:
        assert row[0]["coeffs"] == [[1, 1], [0, 1]]
    # the middle entry is a primitive cube root of unity
    assert doc["values"][1][1] == {"N": 3, "coeffs": [[0, 1], [1, 1]]}


def test_chartable_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "chartable", "--n", "2", "--q", "2")
    _, second, _ = run(capsys, "chartable", "--n", "2", "--q", "2")
    assert first == second


def test_chartable_json_stdout_is_pinned(capsys):
    # the document carries each value's conductor ("N"), so this also pins
    # the conductor at which every entry is written
    code, out, _ = run(capsys, "chartable", "--n", "3", "--q", "2", "--format", "json")
    assert code == 0
    data = out.encode()
    assert len(data) == 236200
    assert (
        hashlib.sha256(data).hexdigest()
        == "e5c5cb7d733a17ea7c90823a2caa02b0dc105c46374100b9307b099dd8d88101"
    )


@pytest.mark.parametrize(
    "fmt, size, digest",
    [
        ("csv", 15747, "c3b7e63dd994e58da58a5c9a16b63ef6d0f8c1c1e99b8cd12b40400f611bf82f"),
        ("pretty", 56027, "41779e1dd4c5704c1d1bbcaa9f046018d44f45f92774631f34a984e9c622a2da"),
    ],
)
def test_chartable_text_stdout_is_pinned(capsys, fmt, size, digest):
    # exact cyclotomic text (csv) and the float embedding (pretty) at conductor 56
    code, out, _ = run(capsys, "chartable", "--n", "3", "--q", "3", "--format", fmt)
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_chartable_4_3_pretty_stdout_is_pinned(capsys):
    # 188 rows of float text at conductor 560, each distinct entry rendered once
    code, out, _ = run(capsys, "chartable", "--n", "4", "--q", "3", "--format", "pretty")
    assert code == 0
    data = out.encode()
    assert len(data) == 700099
    assert (
        hashlib.sha256(data).hexdigest()
        == "981495523c57ef68f814c9c622fa75c3c636523a364aab1696431390dd73ab6a"
    )


def test_chartable_5_2_csv_stdout_is_pinned(capsys):
    # 141 rows at conductor 495, read off the p_theta to P transition
    code, out, _ = run(capsys, "chartable", "--n", "5", "--q", "2", "--format", "csv")
    assert code == 0
    data = out.encode()
    assert len(data) == 152891
    assert (
        hashlib.sha256(data).hexdigest()
        == "84a35dd71b57e11f73c2f4c2bbb946cc544fd0180f3e1011ba21a9ca13804e1e"
    )


@pytest.mark.parametrize(
    "n, q, size, digest",
    [
        (4, 3, 238275, "53d4fa4f6dcdb2c42f8e3104653128d4ed2c8ce1c223153f2e486446120f8663"),
        (3, 4, 244582, "210b59ac96d7d2aa058eff22aad3a80d873693c415531c8deeebcbdbce057eed"),
        (6, 2, 2323212, "85fb02448bcf391e858655c9c844cd16b0a63e46fe725f11a5c466062169c711"),
    ],
)
def test_chartable_csv_at_the_common_conductor_is_pinned(capsys, n, q, size, digest):
    # entries are stored at their column conductors and lifted to the common
    # conductor (560, 195, 63) only to be written; the digests were recorded
    # when every entry was computed at the common conductor
    code, out, _ = run(capsys, "chartable", "--n", str(n), "--q", str(q), "--format", "csv")
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_chartable_csv_grid(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "2", "--q", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 10 and all(len(r) == 10 for r in rows)
    assert rows[0][0] == ""
    identity_col = rows[0].index("(1,0):1.1")
    degrees = sorted(r[identity_col] for r in rows[1:])
    assert degrees == ["1"] * 6 + ["2"] * 3


def test_chartable_pretty_prints_rounded_floats(capsys):
    code, out, _ = run(capsys, "chartable", "--n", "1", "--q", "2", "--format", "pretty")
    assert code == 0
    assert "-0.5+0.8660254038i" in out
    assert "order 3" in out


def test_classes_4_9_csv_stdout_is_pinned(capsys):
    # 8390 classes over some 1600 point orbits: the enumeration recurses once
    # per chosen orbit, not once per orbit
    code, out, _ = run(capsys, "classes", "--n", "4", "--q", "9", "--format", "csv")
    assert code == 0
    data = out.encode()
    assert len(data) == 323113
    assert (
        hashlib.sha256(data).hexdigest()
        == "c639b91516ae5829c625c126332f37f05fbdc42e2864965d801cd26e65266db0"
    )


def test_classes_json_tiles_group_order(capsys):
    code, out, _ = run(capsys, "classes", "--n", "2", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 96
    assert doc["count"] == 16 == len(doc["classes"])
    assert sum(c["size"] for c in doc["classes"]) == 96
    for c in doc["classes"]:
        assert c["centralizer"] * c["size"] == 96


def test_orbits_counts_match_level_orders(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert [c["orbits"] for c in doc["counts"]] == [3, 0, 2]
    assert [c["level_order"] for c in doc["counts"]] == [3, 3, 9]
    assert len(doc["theta"]) == len(doc["phi"]) == 5


def test_degrees_json_and_csv(capsys):
    code, out, _ = run(capsys, "degrees", "--m", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree_sum"] == 12
    assert sorted(r["degree"] for r in doc["records"]) == [1] * 6 + [2] * 3
    polys = {r["text"]: r["polynomial"] for r in doc["records"]}
    assert polys["(1,0):1.1"] == "1"
    assert polys["(1,0):2"] == "q"
    assert polys["(1,0):1|(1,1):1"] == "q-1"
    code, out, _ = run(capsys, "degrees", "--m", "2", "--q", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["label", "degree", "tau_parity", "height", "odd_conjugate", "polynomial"]
    assert len(rows) == 10


# ------------------------------------------------------------ every format


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (
            ("orbits", "--n", "4", "--q", "2"),
            1755,
            "3b7553c79fc56b76fcc62ea9dad55d00e5639dc2c5d6cace0a7741926f5ed977",
        ),
        (
            ("orbits", "--n", "4", "--q", "2", "--format", "csv"),
            162,
            "49451341d10a0ffff3807aa71dc2e6f13085877a6522033a9f155a5ec7e90cb0",
        ),
        (
            ("orbits", "--n", "4", "--q", "2", "--format", "pretty"),
            444,
            "e6f16fc9d334b0d397477b7d41fca5fc4d4023a810a1cae1d6b25b2b5b3a4014",
        ),
        (
            ("classes", "--n", "3", "--q", "2"),
            9748,
            "494b53d966c5c087f8cc48d3430d1132f05b297f5f4a8ea2f509069e595f4a13",
        ),
        (
            ("classes", "--n", "3", "--q", "2", "--format", "csv"),
            544,
            "f166d2ebdf85377a87b4f6f0a81cfad34495c37fc75afa334402d687f0985b09",
        ),
        (
            ("classes", "--n", "3", "--q", "2", "--format", "pretty"),
            1097,
            "a6c95bcab44a040e5db7249d0e84df05c03248743aa4b84ac5b15d25ea506210",
        ),
        (
            ("degrees", "--m", "3", "--q", "3"),
            28351,
            "2011be5e893a524f426833272180c8a678a7fee57962282e00121c1da5bd7b32",
        ),
        (
            ("degrees", "--m", "3", "--q", "3", "--format", "pretty"),
            4461,
            "227a0feb47a7ade7f40ed58d384da7d8a69beb10f1784690b51a42f4d8a391e8",
        ),
        (
            ("decompose", "model", "--m", "4", "--q", "3", "--format", "pretty"),
            7594,
            "269b27837a2ff54bf04938d5044bbde9a22aa9a97fa9c01593670883db054386",
        ),
        (
            ("decompose", "gelfand-graev", "--m", "3", "--q", "3", "--format", "csv"),
            792,
            "7f0823d3ee35ba7896e59075d1e85fd6d472951d7db328f36357b60e2833421c",
        ),
        (
            ("decompose", "gelfand-graev", "--m", "3", "--q", "3", "--format", "pretty"),
            1632,
            "eb1fcefe8ed46907d33802818268ab7d0f7c86615e6cff84fee5c07ab8264fa5",
        ),
        (
            ("decompose", "sp-induction", "--r", "2", "--q", "3"),
            6408,
            "1370e7f3c8e4f7e04b82b4c9e0f6abee509c50c85bb5953c9bf5fff8614783be",
        ),
        (
            ("decompose", "sp-induction", "--r", "2", "--q", "3", "--format", "csv"),
            372,
            "fca64f0ac42deda1bcc2823c3ad4edaa54d49acf40ad4804545982ff9d240b86",
        ),
        (
            ("decompose", "sp-induction", "--r", "2", "--q", "3", "--format", "pretty"),
            719,
            "0f072b1b302db8112f44baf4e7e5bb2f716ff0f1be362a3b162fa8322dbba82f",
        ),
        (
            ("bruteforce", "--n", "2", "--q", "3"),
            5781,
            "183c25d0ce067817d478895f45baed2e436529a89f7dc098a288abb49eb7c9f0",
        ),
        (
            ("bruteforce", "--n", "2", "--q", "3", "--format", "csv"),
            261,
            "54c8388132e541fdb404dd3906bdf78587170ac0bfbefd41386bd23d8e6001aa",
        ),
        (
            ("bruteforce", "--n", "2", "--q", "3", "--format", "pretty"),
            442,
            "14d213ecc8d9afc344794eda9de39c4fe320b6a029607bcf46de10261d2e2a47",
        ),
        (
            ("chartable", "--n", "2", "--q", "2", "--format", "pretty"),
            1876,
            "ba19cb27ad5a2e203d3aaedf94100e43e7d1d77d63c69aafff1f87199e8c64f4",
        ),
    ],
)
def test_format_stdout_is_pinned(capsys, argv, size, digest):
    # one document per (command, format), recorded before the formats were
    # chosen in a single writer
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
def test_text_formats_never_build_the_json_document(capsys, monkeypatch, fmt):
    from ennola.charmap import CharTable

    def refuse(self):
        raise AssertionError("json document built for a text format")

    monkeypatch.setattr(CharTable, "to_json", refuse)
    code, out, _ = run(capsys, "chartable", "--n", "2", "--q", "2", "--format", fmt)
    assert code == 0 and out
    with pytest.raises(AssertionError):
        run(capsys, "chartable", "--n", "2", "--q", "2")


# -------------------------------------------------------------- decompose


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (
            ("decompose", "model", "--m", "4", "--q", "3"),
            81443,
            "eb9b4caef781621541d9981e3f3c995c66737f80010d882db2e3d55a7ae284ca",
        ),
        (
            ("degrees", "--m", "4", "--q", "3", "--format", "csv"),
            8827,
            "ec97617053cb10063802278264b76b88db02c624bde2c351f9a8cf80c9c3af30",
        ),
        (
            ("decompose", "model", "--m", "6", "--q", "3", "--format", "csv"),
            63208,
            "ab96731647c20e2ef2c4bdef666b5e549b0e5a8093db0954e2b74eaaba7448d2",
        ),
        (
            ("decompose", "gelfand-graev", "--m", "4", "--q", "3"),
            52202,
            "9d4b6b9e3d660517e0936b7f282f86598e83bc974248f29aa851132849e3884f",
        ),
    ],
)
def test_degree_stdout_is_pinned(capsys, argv, size, digest):
    # every row carries a hook degree; the digests were recorded with the
    # degrees computed by polynomial long division
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_decompose_gelfand_graev(capsys):
    code, out, _ = run(capsys, "decompose", "gelfand-graev", "--m", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "gelfand-graev"
    assert doc["count"] == 6
    assert doc["value_at_identity"] == 9
    assert all(c["multiplicity"] == 1 for c in doc["constituents"])


def test_decompose_sp_induction(capsys):
    code, out, _ = run(capsys, "decompose", "sp-induction", "--r", "1", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["value_at_identity"] == 4
    assert all(c["degree"] == 1 for c in doc["constituents"])


def test_decompose_model(capsys):
    code, out, _ = run(capsys, "decompose", "model", "--m", "2", "--q", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree_sum"] == 36
    sizes = {part["r"]: len(part["labels"]) for part in doc["parts"]}
    assert sizes == {0: 12, 1: 4}


def test_decompose_csv_round_trip(capsys):
    code, out, _ = run(
        capsys, "decompose", "model", "--m", "2", "--q", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "label", "degree"]
    assert len(rows) == 17


# -------------------------------------------------------------- bruteforce


def test_bruteforce_json_document(capsys):
    code, out, _ = run(capsys, "bruteforce", "--n", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 18
    assert len(doc["classes"]) == 9
    assert sum(c["size"] for c in doc["classes"]) == 18
    assert doc["symmetric_count"] == 12
    assert len(doc["fs_indicators"]) == 9
    assert set(doc["fs_indicators"].values()) == {1}


def test_bruteforce_csv_skips_the_counts_it_does_not_print(capsys, monkeypatch):
    from ennola import cli

    _, expected, _ = run(capsys, "bruteforce", "--n", "2", "--q", "2", "--format", "csv")

    def unused(*args, **kwargs):
        raise AssertionError("csv output does not print this count")

    monkeypatch.setattr(cli, "symmetric_count", unused)
    monkeypatch.setattr(cli, "twisted_fs", unused)
    code, out, _ = run(capsys, "bruteforce", "--n", "2", "--q", "2", "--format", "csv")
    assert code == 0
    assert out == expected


# ------------------------------------------------------------------ verify


def test_verify_degree_sum_example(capsys):
    code, out, _ = run(capsys, "verify", "degree-sum", "--m", "2", "--q", "2")
    assert code == 0
    assert out.startswith("PASS degree-sum:")
    assert "value 12" in out


@pytest.mark.parametrize("check", ["divsum", "even-sum", "all"])
def test_verify_size_graded_checks_take_m(capsys, check):
    code, out, _ = run(capsys, "verify", check, "--n", "2", "--q", "2", "--m", "2")
    assert code == 0
    assert out.startswith("PASS ")


def test_verify_all_small(capsys):
    code, out, err = run(capsys, "verify", "all", "--n", "2", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines)
    names = [line.split()[1].rstrip(":") for line in lines]
    assert names == [
        "divsum",
        "class-equation",
        "orthogonality",
        "degree-sum",
        "even-sum",
        "sameprod",
        "dl",
        "unsym",
        "fs",
    ]
    assert "total:" in err


def test_verify_all_skips_brute_checks_off_model(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "1", "--q", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(line.startswith("SKIP ") for line in lines) == 0
    code, out, _ = run(
        capsys, "verify", "all", "--n", "2", "--q", "5", "--max-group-order", "500"
    )
    assert code == 0
    skipped = [line for line in out.strip().splitlines() if line.startswith("SKIP ")]
    assert len(skipped) == 2


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    from ennola import cli

    def broken(args):
        return False, "discrepancy 7 at the seeded spot"

    monkeypatch.setitem(cli._CHECKS, "divsum", broken)
    code, out, _ = run(capsys, "verify", "divsum", "--q", "2")
    assert code == 1
    assert out == "FAIL divsum: discrepancy 7 at the seeded spot\n"


def test_verify_orthogonality_detects_a_perturbed_entry(capsys, monkeypatch):
    from ennola import cli
    from ennola.charmap import CharTable

    real = cli.char_table

    def perturbed(n, q):
        table = real(n, q)
        values = [list(row) for row in table.values]
        k = next(k for k, v in enumerate(values[-1]) if v)
        values[-1][k] = values[-1][k] * 2
        return CharTable(
            table.n,
            table.q,
            table.rows,
            table.cols,
            tuple(tuple(row) for row in values),
            table.class_sizes,
        )

    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "2", "--q", "3")
    assert code == 0
    monkeypatch.setattr(cli, "char_table", perturbed)
    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "2", "--q", "3")
    assert code == 1
    last = mp_text(real(2, 3).rows[-1].lam)
    assert out.startswith("FAIL orthogonality: rows ") and last in out
    # the inner product is written as exact text, not as the dense repr of
    # its coordinates at the common conductor; the first pair that fails is
    # the first row against the perturbed one, which should be orthogonal
    detail = out.splitlines()[0]
    assert "Cyclotomic(" not in detail and detail.endswith(", expected 0")


def test_verify_sameprod_4_2_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "sameprod", "--n", "4", "--q", "2")
    assert code == 0
    assert out == "PASS sameprod: Ennola and induction products agree on 288 class pairs\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "55d9791d02e303e970cde03cb46317857b0612d4a0703122797dce0a3b090ae3"
    )


def test_verify_sameprod_detects_a_perturbed_coefficient(capsys, monkeypatch):
    from ennola import cli
    from ennola.charmap import SymElement

    real = cli.circ_product
    calls = []

    def perturbed(a, b):
        product = real(a, b)
        calls.append(1)
        if len(calls) != 5:
            return product
        coeffs = dict(product.coeffs)
        first = next(iter(coeffs))
        coeffs[first] = coeffs[first] + 1
        return SymElement(product.q, product.n, product.basis, coeffs)

    monkeypatch.setattr(cli, "circ_product", perturbed)
    code, out, _ = run(capsys, "verify", "sameprod", "--n", "3", "--q", "2")
    assert code == 1
    assert out.startswith("FAIL sameprod: products differ at ")


def test_verify_converts_internal_assertions_to_fail(capsys, monkeypatch):
    from ennola import cli

    def exploding(args):
        raise AssertionError("routes disagree by 3")

    monkeypatch.setitem(cli._CHECKS, "dl", exploding)
    code, out, _ = run(capsys, "verify", "dl", "--q", "2")
    assert code == 1
    assert "FAIL dl: internal invariant failed: routes disagree by 3" in out


# ----------------------------------------------------------- configuration


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--n", "2", "--q", "6"],
        ["classes", "--n", "2", "--q", "0"],
        ["classes", "--n", "2", "--q", "12"],
        ["classes", "--n", "0", "--q", "2"],
        ["chartable", "--n", "1", "--q", "1"],
        ["bruteforce", "--n", "4", "--q", "2"],
        ["decompose", "model", "--m", "2", "--q", "2"],
        ["decompose", "gelfand-graev", "--q", "2"],
        ["decompose", "sp-induction", "--q", "3"],
        # each valid without its last flag, which belongs to another kind
        ["decompose", "gelfand-graev", "--m", "2", "--q", "2", "--r", "3"],
        ["decompose", "model", "--m", "2", "--q", "3", "--r", "1"],
        ["decompose", "sp-induction", "--r", "1", "--q", "3", "--m", "2"],
        ["decompose", "gelfand-graev", "--m", "2", "--q", "2", "--allow-even-q"],
        ["verify", "unsym", "--n", "3", "--q", "3"],
        # each reads only --n
        ["verify", "class-equation", "--n", "2", "--q", "2", "--m", "9"],
        ["verify", "orthogonality", "--n", "2", "--q", "2", "--m", "9"],
        ["verify", "sameprod", "--n", "2", "--q", "2", "--m", "9"],
        ["verify", "dl", "--n", "2", "--q", "2", "--m", "9"],
        ["verify", "unsym", "--n", "2", "--q", "2", "--m", "9"],
        ["verify", "fs", "--n", "2", "--q", "2", "--m", "9"],
        # none reads the group-order bound of the brute-force model
        ["verify", "divsum", "--max-group-order", "5"],
        ["verify", "orthogonality", "--max-group-order", "5"],
        ["verify", "degree-sum", "--max-group-order", "5"],
        ["verify", "even-sum", "--max-group-order", "5"],
        ["verify", "sameprod", "--max-group-order", "5"],
        ["verify", "dl", "--max-group-order", "5"],
    ],
)
def test_invalid_configuration_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["schema"] == 1 and doc["error"]


def test_bruteforce_large_size_needs_no_flag(capsys):
    code, out, _ = run(capsys, "bruteforce", "--n", "3", "--q", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 25
    assert sum(int(r[1]) for r in rows[1:]) == 648


@pytest.mark.parametrize(
    "argv,error",
    [
        (
            ["bruteforce", "--n", "4", "--q", "2"],
            "(n, q) = (4, 2): tower field of 2^24 elements exceeds MAX_FIELD_ORDER = 65536",
        ),
        (
            ["bruteforce", "--n", "3", "--q", "3"],
            "(n, q) = (3, 3): tower field of 3^12 elements exceeds MAX_FIELD_ORDER = 65536",
        ),
        (
            ["verify", "unsym", "--n", "4", "--q", "2"],
            "(n, q) = (4, 2): tower field of 2^24 elements exceeds MAX_FIELD_ORDER = 65536",
        ),
        (
            ["verify", "fs", "--n", "4", "--q", "2"],
            "(n, q) = (4, 2): tower field of 2^24 elements exceeds MAX_FIELD_ORDER = 65536",
        ),
        (
            ["verify", "fs", "--n", "3", "--q", "3"],
            "(n, q) = (3, 3): tower field of 3^12 elements exceeds MAX_FIELD_ORDER = 65536",
        ),
        (
            ["bruteforce", "--n", "2", "--q", "5", "--max-group-order", "500"],
            "(n, q) = (2, 5): group order 720 exceeds max_order = 500 (--max-group-order)",
        ),
    ],
)
def test_brute_refusals_exit_two_at_once_and_name_their_bound(capsys, argv, error):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == error


def test_a_large_prime_q_is_validated_at_once(capsys):
    q = 10**18 + 3
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "divsum", "--q", str(q), "--m", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == f"PASS divsum: sum of r*d_r equals q^m - (-1)^m for m up to 1 at q={q}\n"


@pytest.mark.parametrize("q", [MAX_Q, 10**40 + 1])
def test_q_from_the_prime_power_bound_on_exits_two_and_names_it(capsys, q):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "divsum", "--q", str(q), "--m", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    error = json.loads(err.strip().splitlines()[-1])["error"]
    assert f"MAX_Q = {MAX_Q}" in error


def test_verify_all_names_the_bound_on_its_skip_lines(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "3", "--q", "3")
    assert code == 0
    lines = out.splitlines()
    refusal = "(n, q) = (3, 3): tower field of 3^12 elements exceeds MAX_FIELD_ORDER = 65536"
    assert lines[-2:] == [f"SKIP unsym: {refusal}", f"SKIP fs: {refusal}"]
    # class-equation leaves out its census clause on the same refusal
    assert lines[1] == "PASS class-equation: 56 class sizes tile the group order 24192"


def test_unknown_command_raises_system_exit():
    with pytest.raises(SystemExit) as info:
        main(["nosuch"])
    assert info.value.code == 2
