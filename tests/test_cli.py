"""CLI surface: spec parsing, subcommands, determinism, exit codes."""

import hashlib
import json
import time

import pytest
from click.testing import CliRunner

import activita.matroid as matroid
import activita.shelling as shelling
from activita.cli import main
from activita.corpus import builtin_corpus
from activita.complexes import COMPLEX_KINDS
from activita.errors import NotPrime, ParseError, UnequalCardinality
from activita.specio import matroid_from_dict, parse_spec, spec_dict

M5_SPEC = {
    "type": "bases",
    "n": 5,
    "bases": ["345", "135", "245", "235", "125", "134", "234", "124"],
}


VERIFY_SEED0_SHA256 = "aa36b876a19da83bd0ef8a8421b2d271a5f7bf4f5a0f4a5620d6bde8f81a99d0"
TWICE_M5_SHA256 = "42d414d6818db52235db0e24c2bb0ac657c953942f23e9d87eb8b1f6c3b655fc"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def m5_path(tmp_path):
    path = tmp_path / "m5.json"
    path.write_text(json.dumps(M5_SPEC))
    return str(path)


class TestSpecParsing:
    def test_uniform(self):
        m = parse_spec(b'{"type": "uniform", "r": 2, "n": 4}')
        assert len(m.bases) == 6

    def test_m5(self, m5_matroid):
        assert parse_spec(json.dumps(M5_SPEC)).bases == m5_matroid.bases

    def test_unequal_cardinality_forwarded(self):
        with pytest.raises(UnequalCardinality):
            parse_spec('{"type": "bases", "n": 2, "bases": ["1", "12"]}')

    def test_bad_json_position(self):
        with pytest.raises(ParseError) as err:
            parse_spec("{nope}")
        assert "line" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            matroid_from_dict({"type": "uniform", "r": 2})

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            matroid_from_dict({"type": "mystery"})

    def test_dual_and_graphic_and_linear(self, m5_matroid):
        dual = matroid_from_dict({"type": "dual", "of": M5_SPEC})
        assert dual.bases == m5_matroid.dual.bases
        tri = matroid_from_dict(
            {"type": "graphic", "vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
        )
        assert len(tri.bases) == 3
        lin = matroid_from_dict({"type": "linear", "p": 2, "matrix": [[1, 0], [0, 1]]})
        assert len(lin.bases) == 1

    def test_roundtrip(self, m5_matroid):
        assert matroid_from_dict(spec_dict(m5_matroid)).bases == m5_matroid.bases


class TestActivityCommand:
    def test_basis_row(self, runner, m5_path):
        result = runner.invoke(main, ["activity", m5_path, "124"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"EA": "35", "EP": "", "IA": "", "IP": "124"}

    def test_empty_subset(self, runner, m5_path):
        result = runner.invoke(main, ["activity", m5_path, ""])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["IA"] == "" and data["EP"] == "12345"

    def test_bad_subset(self, runner, m5_path):
        result = runner.invoke(main, ["activity", m5_path, "9"])
        assert result.exit_code == 2


class TestOrderCommand:
    def test_dot_export(self, runner, m5_path, tmp_path):
        out = tmp_path / "h.dot"
        result = runner.invoke(
            main, ["order", m5_path, "--kind", "extint-bases", "--dot", str(out)]
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert text.count("->") == 10
        assert "rank=same" in text

    def test_json(self, runner, m5_path):
        result = runner.invoke(main, ["order", m5_path, "--kind", "extint-ind", "--json"])
        data = json.loads(result.output)
        assert len(data["elements"]) == 24
        assert len(data["covers"]) == 33


class TestComplexCommand:
    def test_ea_table(self, runner, m5_path):
        result = runner.invoke(main, ["complex", m5_path, "--kind", "ea", "--json"])
        data = json.loads(result.output)
        assert len(data["facets"]) == 8
        rows = {row["I"]: (row["x"], row["z"]) for row in data["facets"]}
        assert rows["124"] == ("124", "12345")
        assert all(row["y"] == "" for row in data["facets"])

    def test_augmented(self, runner, m5_path):
        result = runner.invoke(main, ["complex", m5_path, "--json"])
        data = json.loads(result.output)
        assert data["dimension"] == 7
        assert len(data["facets"]) == 24
        assert data["h"][:4] == [1, 5, 10, 8]


class TestShellCommand:
    def test_report_and_determinism(self, runner, m5_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["shell", m5_path, "--complex", "augmented-ea", "--order-seed", "7",
                 "--report", str(out)],
            )
            assert result.exit_code == 0, result.output
        assert out1.read_bytes() == out2.read_bytes()
        data = json.loads(out1.read_text())
        assert data["verdict"] is True
        assert data["property_h"] is True
        assert data["h_complex"] is True
        assert len(data["restrictions"]) == 24

    def test_flip_order(self, runner, m5_path):
        result = runner.invoke(
            main, ["shell", m5_path, "--order", "flip", "--order-seed", "3"]
        )
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_other_kinds(self, runner, m5_path):
        for kind in ("ea", "nbc", "augmented-nbc"):
            # the nbc complex's order keeps only the maximal nbc sets
            result = runner.invoke(main, ["shell", m5_path, "--complex", kind])
            assert (result.exit_code, result.output) == (0, "shelling: ok\n")

    def test_flip_order_on_another_complex_is_a_usage_error(self, runner, m5_path):
        result = runner.invoke(main, ["shell", m5_path, "--complex", "ea", "--order", "flip"])
        assert result.exit_code == 2
        assert "--order flip applies to the augmented-ea complex" in result.output


class TestTutteCommand:
    def test_text(self, runner, m5_path):
        result = runner.invoke(main, ["tutte", m5_path])
        assert result.output.strip() == "q^3 + 2*q^2 + 2*q*t + q + t^2 + t"

    def test_json(self, runner, m5_path):
        result = runner.invoke(main, ["tutte", m5_path, "--json"])
        terms = json.loads(result.output)["terms"]
        assert [3, 0, 1] in terms


# 65 ground elements; the path of 32 edges taken twice gives the graphic one rank 32
OVERSIZED = {
    "uniform": {"type": "uniform", "r": 30, "n": 65},
    "graphic": {"type": "graphic", "vertices": 33,
                "edges": [[i, i + 1] for i in range(1, 33)] * 2 + [[1, 33]]},
    "linear": {"type": "linear", "p": 2, "matrix": [[1] * 65]},
}


@pytest.mark.parametrize("spec", OVERSIZED.values(), ids=OVERSIZED)
def test_an_oversized_ground_set_is_refused_before_any_enumeration(
    runner, tmp_path, monkeypatch, spec
):
    def enumerated(*args):
        raise AssertionError("the constructor enumerated subsets of 65 elements")

    monkeypatch.setattr(matroid, "combinations", enumerated)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    started = time.monotonic()
    result = runner.invoke(main, ["tutte", str(path)])
    assert time.monotonic() - started < 1.0
    assert result.exit_code == 2
    assert "ground set size 65 outside 1..64" in result.output


def linear_spec(p: str) -> str:
    return f'{{"type": "linear", "p": {p}, "matrix": [[1, 1]]}}'


HOSTILE = {  # spec text, the error parse_spec raises, the message the CLI prints
    "p-10^400": (linear_spec(str(10**400)), NotPrime, "is not a prime at most 13"),
    "p-10^18+3": (linear_spec(str(10**18 + 3)), NotPrime, "is not a prime at most 13"),
    "p-of-5001-digits": (linear_spec("1" + "0" * 5000), ParseError, "invalid JSON: Exceeds"),
    "dual-100000-deep": (
        '{"type": "dual", "of": ' * 100_000 + '{"type": "uniform", "r": 1, "n": 2}' + "}" * 100_000,
        ParseError, "spec nested too deeply",
    ),
}


@pytest.mark.parametrize("text,error,message", HOSTILE.values(), ids=HOSTILE)
def test_a_hostile_spec_is_refused_at_once(runner, tmp_path, text, error, message):
    with pytest.raises(error, match=message):
        parse_spec(text)
    path = tmp_path / "hostile.json"
    path.write_text(text)
    started = time.monotonic()
    result = runner.invoke(main, ["tutte", str(path)])
    assert time.monotonic() - started < 1.0
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "{m5}", "--dot", "{tmp}/missing/h.dot"],
        ["shell", "{m5}", "--report", "{tmp}"],  # a directory
        ["verify", "{m5}", "--no-builtin", "--cap", "3", "--report", "{tmp}/missing/r.json"],
        ["corpus", "--dir", "{m5}"],  # an existing file
    ],
    ids=["order-dot", "shell-report", "verify-report", "corpus-dir"],
)
def test_an_unwritable_output_is_a_usage_error(runner, m5_path, tmp_path, argv):
    result = runner.invoke(main, [a.format(m5=m5_path, tmp=tmp_path) for a in argv])
    assert result.exit_code == 2, result.output
    assert "Error: cannot write " in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m5.json"]  # no directory made


class TestVerifyCommand:
    def test_single_matroid(self, runner, m5_path, tmp_path):
        report = tmp_path / "findings.json"
        result = runner.invoke(
            main,
            ["verify", m5_path, "--no-builtin", "--cap", "5", "--report", str(report)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads(report.read_text())
        assert data["ok"] is True
        assert data["matroids"] == ["m5"]
        assert all(f["ok"] for f in data["findings"])
        assert "PASS m5: shelling-extint" in result.output

    def test_environment_does_not_extend_the_corpus(self, runner, m5_path, tmp_path, monkeypatch):
        # matroids come only from the arguments and --builtin
        extra = tmp_path / "extra"
        extra.mkdir()
        (extra / "u12.json").write_text('{"type": "uniform", "r": 1, "n": 2}')
        argv = ["verify", m5_path, "--no-builtin", "--cap", "3"]
        unset = runner.invoke(main, argv)
        monkeypatch.setenv("ACTIVITA_CORPUS_DIR", str(extra))
        result = runner.invoke(main, argv)
        assert result.exit_code == unset.exit_code == 0, result.output
        assert result.output == unset.output

    def test_no_matroids_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--no-builtin"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "spec,args",
        [
            ('{"type": "bases", "n": 2, "bases": ["1", "12"]}', []),
            ('{"type": "uniform", "r": true, "n": 3}', []),
            ('{"type": "graphic", "vertices": 2, "edges": [[1.9, 2]]}', []),
            ('{"type": "bases", "n": 2, "bases": [3]}', []),
            ('{"type": "linear", "p": 2, "matrix": [[1, "a"]]}', []),
            ('{"type": "linear", "p": 2, "matrix": [[1, 1.5]]}', []),
            ('{"type": "uniform", "r": 1, "n": 2}', ["--cap", "0"]),
            ('{"type": "uniform", "r": 1, "n": 2}', ["--cap", "-1"]),
            # a second matroid named "bad", and m5 beside the built-in m5
            ('{"type": "uniform", "r": 1, "n": 2}', ["{tmp}/other/bad.json"]),
            ('{"type": "uniform", "r": 1, "n": 2}', ["{tmp}/m5.json", "--builtin"]),
        ],
        ids=[
            "unequal-cardinality", "bool-int", "float-vertex", "int-subset",
            "str-entry", "float-entry", "cap-zero", "cap-negative",
            "duplicate-file-name", "duplicate-builtin-name",
        ],
    )
    def test_bad_spec_is_usage_error(self, runner, tmp_path, spec, args):
        bad = tmp_path / "bad.json"
        (tmp_path / "other").mkdir()
        for path in (bad, tmp_path / "other" / "bad.json", tmp_path / "m5.json"):
            path.write_text(spec)
        argv = ["verify", str(bad), "--no-builtin", *(a.format(tmp=tmp_path) for a in args)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        if "{tmp}" in "".join(args):  # the error names the matroid and both sources
            if "--builtin" in args:
                name, sources = "m5", ("the built-in corpus", str(tmp_path / "m5.json"))
            else:
                name, sources = "bad", (str(bad), str(tmp_path / "other" / "bad.json"))
            assert f"duplicate matroid name {name!r}" in result.output
            assert all(source in result.output for source in sources)

    def test_full_corpus_default_settings_under_budget(self, runner):
        import time

        started = time.monotonic()
        result = runner.invoke(main, ["verify"])
        elapsed = time.monotonic() - started
        assert result.exit_code == 0, result.output
        assert elapsed < 60.0
        assert "FAIL" not in result.output

    def test_property_h_runs_at_most_once_per_matroid_and_shelling(self, runner, monkeypatch):
        # the suite checks property (H) once per restriction map of a sample
        calls = []
        real = shelling.property_H_check
        counted = lambda *args: calls.append(args) or real(*args)
        monkeypatch.setattr(shelling, "property_H_check", counted)
        result = runner.invoke(main, ["verify", "--cap", "200", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert 0 < len(calls) <= 4 * len(builtin_corpus())  # main, flip, ea and nbc shellings


# each command runs twice; "{m5}" is the m5 spec and "{out}" a fresh directory
TWICE = [
    ["activity", "{m5}", "23"],
    ["order", "{m5}", "--json"],
    ["order", "{m5}", "--kind", "extint-ind", "--dot", "{out}/hasse.dot"],
    *(["complex", "{m5}", "--kind", kind, "--json"] for kind in COMPLEX_KINDS),
    *(
        ["shell", "{m5}", "--complex", kind, "--seed", "3", "--report", "{out}/r.json"]
        for kind in COMPLEX_KINDS
    ),
    ["shell", "{m5}", "--order", "flip", "--seed", "3", "--report", "{out}/r.json"],
    ["tutte", "{m5}"],
    ["verify", "{m5}", "--no-builtin", "--report", "{out}/findings.json"],
    ["corpus", "--dir", "{out}/specs"],
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv", TWICE, ids=lambda argv: " ".join(a for a in argv if "{" not in a)
    )
    def test_same_bytes_twice(self, runner, m5_path, tmp_path, argv):
        runs = []
        for attempt in ("first", "second"):
            out = tmp_path / attempt
            out.mkdir()
            result = runner.invoke(main, [a.format(m5=m5_path, out=out) for a in argv])
            assert result.exit_code == 0, result.output
            written = {
                str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
            assert bool(written) == any("{out}" in a for a in argv)
            runs.append((result.output.replace(str(out), "{out}"), written))
        assert runs[0] == runs[1]

    def test_recorded_bytes(self, runner, m5_path, tmp_path):
        # one sha256 over every TWICE command on m5: the command, its stdout
        # and the files it writes, so a change of vertex layout or JSON shows
        digest = hashlib.sha256()
        for idx, argv in enumerate(TWICE):
            out = tmp_path / str(idx)
            out.mkdir()
            result = runner.invoke(main, [a.format(m5=m5_path, out=out) for a in argv])
            assert result.exit_code == 0, result.output
            digest.update(" ".join(argv).encode() + b"\0")
            digest.update(result.output.replace(str(out), "{out}").encode() + b"\0")
            for p in sorted(out.rglob("*")):
                if p.is_file():
                    digest.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes() + b"\0")
        assert digest.hexdigest() == TWICE_M5_SHA256


class TestGoldenOutput:
    def test_verify_stdout_digest(self, runner):
        # the recorded stdout of `activita verify --cap 200 --seed 0`
        result = runner.invoke(main, ["verify", "--cap", "200", "--seed", "0"])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == VERIFY_SEED0_SHA256


class TestCorpusCommand:
    def test_list_and_dump(self, runner, tmp_path):
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["corpus", "--dir", str(out)])
        assert result.exit_code == 0
        assert "m5: n=5 rank=3 bases=8" in result.output
        files = sorted(p.name for p in out.glob("*.json"))
        assert "k4.json" in files and len(files) == 7
        # dumped specs parse back to the same matroids
        for path in out.glob("*.json"):
            parse_spec(path.read_text())

    def test_dumped_specs_verify_like_the_builtin_corpus(self, runner, tmp_path):
        # the one route for extra matroids: `corpus --dir D`, then `verify --no-builtin D/*.json`
        out = tmp_path / "specs"
        assert runner.invoke(main, ["corpus", "--dir", str(out)]).exit_code == 0
        specs = [str(p) for p in sorted(out.glob("*.json"))]
        dumped = runner.invoke(main, ["verify", "--no-builtin", *specs, "--cap", "20"])
        builtin = runner.invoke(main, ["verify", "--cap", "20"])
        assert dumped.exit_code == builtin.exit_code == 0, dumped.output
        assert dumped.output.endswith("317/317 checks passed\n")
        assert set(dumped.output.splitlines()) == set(builtin.output.splitlines())
