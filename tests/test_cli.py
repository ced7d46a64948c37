"""CLI behaviour: exit codes, payload shapes, deterministic artifacts."""

import argparse
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hfl import cli, errors, hermlat
from hfl.curve import Slope, Vertical, curve_make

GOLDEN = Path(__file__).parent / "golden" / "table1_golden.csv"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


# -- exit codes -------------------------------------------------------------------


def test_unsupported_q(capsys):
    rc, _, err = run_cli(capsys, "export", "--kind", "lattice", "--q", "9")
    assert rc == 2
    assert "9" in err


def test_census_budget_refused(capsys):
    rc, _, err = run_cli(capsys, "export", "--kind", "census", "--q", "2", "--cap", "5")
    assert rc == 2
    assert "--cap" in err


def test_fixed_cap_refusal_names_no_budget(capsys):
    """A rank cap that --cap does not lift is refused with exit 2 and one
    line that does not point at it."""
    subset = ",".join(map(str, range(1, 14)))
    rc, out, err = run_cli(capsys, "group", "ls", "--moduli", "2,2,2,2", "--subset", subset)
    assert rc == 2 and out == ""
    assert err == "hfl: rank 13 > 12 for exact enumeration\n"
    assert "--cap" not in err


@pytest.mark.parametrize("cap", ["-3", "0", "zero"])
def test_budget_must_be_positive(capsys, monkeypatch, cap):
    """A bad --cap is a usage error, exit 2, refused before verify builds L."""
    monkeypatch.setattr(cli.hermlat, "build", lambda q: pytest.fail("built before the check"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--q", "2", "--cap", cap])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.startswith("usage: hfl verify") and "argument --cap" in err


@pytest.mark.parametrize("argv", [
    "field --p 4 --k 2",  # NonPrimeError
    "field --p 2 --k 9",  # DegreeOutOfRangeError
    "field --p 2 --k 16",
])
def test_library_refusal_is_one_line_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert err.startswith("hfl: ") and err.count("\n") == 1


ERROR_TYPES = sorted(
    (e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, errors.Error)),
    key=lambda e: e.__name__,
)


@pytest.mark.parametrize("exc", ERROR_TYPES, ids=[e.__name__ for e in ERROR_TYPES])
def test_every_library_error_exits_2_or_4(capsys, monkeypatch, exc):
    """Exit 1 means a verification mismatch and nothing else: a refusal
    exits 2, an internal defect 4."""

    def refuse(args):
        raise exc("refused")

    monkeypatch.setattr(cli, "cmd_field", refuse)
    rc, out, err = run_cli(capsys, "field", "--q", "2")
    assert rc == (4 if exc is errors.InternalIdentityViolationError else 2)
    assert out == "" and err.startswith("hfl: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", ERROR_TYPES, ids=[e.__name__ for e in ERROR_TYPES])
def test_refused_check_outcome(exc, monkeypatch, capsys, tmp_path):
    """One rule for a check that raises an hfl.errors.Error: a budget
    refusal is SKIP (exit 0), an internal defect ends the run (exit 4),
    and any other error is FAIL with the error as reason (exit 1).  The
    report is written unless the run ends, and only a budget refusal's
    reason names the flags that lift it."""

    def refuse(hl):
        raise exc("refused here")

    monkeypatch.setattr(hermlat, "generated_by_minimals", refuse)
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--q", "2", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if exc is errors.InternalIdentityViolationError:
        assert rc == 4 and not out.exists()
        assert [line for line in err if line.startswith("hfl:")] == [
            "hfl: internal defect: refused here"
        ]
        return
    report = json.loads(out.read_text())
    rec = next(r for r in report["checks"] if r["check_id"] == "minimal_step_span")
    hint = f" {cli.BUDGET_HINT}" if exc is errors.BudgetExceededError else ""
    assert rec["reason"] == "refused here" + hint and "actual" not in rec
    assert not any(line.startswith("hfl:") for line in err)
    if issubclass(exc, (errors.BudgetExceededError, errors.SearchInfeasibleError)):
        assert rc == 0 and rec["skipped"] is True and "pass" not in rec
        assert report["counts"] == {"passed": 17, "failed": 0, "skipped": 1}
        assert "[SKIP] minimal_step_span: refused here" in "\n".join(err)
    else:
        assert rc == 1 and rec["pass"] is False and "skipped" not in rec
        assert report["counts"] == {"passed": 17, "failed": 1, "skipped": 0}
        assert "[FAIL] minimal_step_span: refused here" in "\n".join(err)


def test_verify_q2_passes(capsys):
    rc, out, err = run_cli(capsys, "verify", "--q", "2")
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["counts"]["failed"] == 0
    assert report["counts"]["skipped"] == 0
    assert report["target"] == "herm q=2"
    ids = [c["check_id"] for c in report["checks"]]
    assert "census_size" in ids and "aut_order" in ids
    assert err.count("[PASS]") == len(ids)


@pytest.mark.parametrize("argv", [("verify", "--q", "2"), ("verify", "--q", "3")])
def test_verify_reports_build_time_and_peak_rss(capsys, argv):
    report = run_json(capsys, *argv)
    assert report["build_seconds"] > 0
    assert report["peak_rss_mb"] > 0


def test_group_verify_report_has_no_build_keys(capsys):
    report = run_json(capsys, "verify", "--group", "7")
    assert "build_seconds" not in report and "peak_rss_mb" not in report


def test_verify_group_golden_ok(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--group", "7", "--table1", "--golden", str(GOLDEN)
    )
    assert rc == 0
    report = json.loads(out)
    ids = {c["check_id"] for c in report["checks"]}
    assert ids == {
        "catalogue_rows",
        "catalogue_wr_rows",
        "catalogue_golden",
        "perm_correspondence",
    }


def test_verify_group_plain(capsys):
    report = run_json(capsys, "verify", "--group", "7")
    assert [c["check_id"] for c in report["checks"]] == ["perm_correspondence"]
    assert report["pass"] is True


def test_golden_requires_table1(capsys):
    rc, _, err = run_cli(capsys, "verify", "--group", "7", "--golden", str(GOLDEN))
    assert rc == 2
    assert "--table1" in err


def test_golden_mismatch_fails(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(GOLDEN.read_text().replace("98", "99"))
    rc, out, err = run_cli(
        capsys, "verify", "--group", "7", "--table1", "--golden", str(bad)
    )
    assert rc == 1
    assert json.loads(out)["pass"] is False
    assert "[FAIL] catalogue_golden" in err


def test_golden_missing_is_io_error(capsys, tmp_path):
    rc, _, _ = run_cli(
        capsys, "verify", "--group", "7", "--table1", "--golden", str(tmp_path / "no.csv")
    )
    assert rc == 3


def test_out_to_bad_dir(capsys, tmp_path):
    out = str(tmp_path / "nodir" / "x.json")
    rc, _, _ = run_cli(capsys, "export", "--kind", "lattice", "--q", "2", "--out", out)
    assert rc == 3


def test_verify_needs_target(capsys):
    rc, _, _ = run_cli(capsys, "verify")
    assert rc == 2


def test_group_ls_other_moduli_needs_subset(capsys):
    rc, _, err = run_cli(capsys, "group", "ls", "--moduli", "3,3")
    assert rc == 2
    assert "7" in err


def test_field_needs_args(capsys):
    rc, _, _ = run_cli(capsys, "field")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    "verify --q 2 --group 7",
    "verify --q 2 --table1",
    "verify --q 2 --golden tests/golden/table1_golden.csv",
    "verify --group 7 --cap 5",
    "export --kind lattice --q 2 --cap 5",  # only the census reads --cap
    "export --kind table1 --q 3",
    "field --q 3 --p 2 --k 2",
])
def test_unread_flags_are_refused(capsys, argv):
    """A flag that the chosen path never reads is refused, not ignored:
    exit 2 and one `hfl:` line, before any work."""
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert err.startswith("hfl: ") and err.count("\n") == 1 and "Traceback" not in err


# -- line spec parsing ------------------------------------------------------------


def test_parse_line_spec():
    assert cli.parse_line_spec("x-c:c=3") == cli.Vertical(3)
    assert cli.parse_line_spec("y+bx+c:b=1,c=2") == cli.Slope(1, 2)
    assert cli.parse_line_spec("y+bx+c: b=1, c=2") == cli.Slope(1, 2)
    for bad in ["x-c", "x-c:c=q", "x-c:b=1", "y+bx+c:b=1", "z:c=1", "x-c:c",
                "x-c:c=1,c=2", "y+bx+c:b=1,c=2,b=3"]:
        with pytest.raises(cli.UsageError):
            cli.parse_line_spec(bad)


def test_line_type():
    """Lines keep their reprs and stay apart by kind; every line's spec
    parses back to the line."""
    assert repr(Vertical(3)) == "Vertical(c=3)"
    assert repr(Slope(1, 2)) == "Slope(b=1, c=2)"
    assert Vertical(0) != Slope(0, 0)
    assert len({Vertical(0), Slope(0, 0), Vertical(0)}) == 2
    for line in curve_make(3).all_lines():
        assert cli.parse_line_spec(cli._line_str(line)) == line


def test_decompose_bad_specs(capsys):
    rc, _, _ = run_cli(capsys, "herm", "decompose", "--q", "2", "--line", "x-c")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "herm", "decompose", "--q", "2", "--line", "x-c:c=77")
    assert rc == 2  # encoding outside the field


def test_decompose_beta_on_tangent(capsys):
    rc, _, err = run_cli(
        capsys,
        "herm",
        "decompose",
        "--q",
        "2",
        "--line",
        "y+bx+c:b=0,c=0",
        "--beta",
        "0",
    )
    assert rc == 2
    assert "beta" in err


# -- payload shapes ---------------------------------------------------------------


def test_field_payload(capsys):
    data = run_json(capsys, "field", "--q", "2")
    assert data["p"] == 2 and data["k"] == 2 and data["order"] == 4
    assert data["q"] == 2 and "zeta_q_plus_1" in data
    data = run_json(capsys, "field", "--p", "3", "--k", "2")
    assert data["order"] == 9
    assert len(data["modulus_coeffs"]) == 3


def test_build_payload(capsys):
    data = run_json(capsys, "export", "--kind", "lattice", "--q", "2")
    assert data["n"] == 9 and data["rank"] == 8
    assert data["det"] == {"index": 9, "radicand": 9}
    assert [d for d in data["elementary_divisors"] if d != 1] == [3, 3]
    assert all(sum(row) == 0 for row in data["basis"])


def test_census_payload(capsys):
    data = run_json(capsys, "export", "--kind", "census", "--q", "2")
    assert data["count"] == 108 == len(data["vectors"])
    assert all(sum(x * x for x in v) == 4 for v in data["vectors"])


def test_decompose_payload(capsys):
    data = run_json(capsys, "herm", "decompose", "--q", "2", "--line", "y+bx+c:b=0,c=0")
    assert data["verified"] is True
    assert len(data["steps"]) == 7
    total = [0] * 9
    for s in data["steps"]:
        assert s["sign"] in (-1, 1)
        for i, x in enumerate(s["vector"]):
            total[i] += s["sign"] * x
    assert total == data["divisor"]


def test_group_ls_subset_payload(capsys):
    data = run_json(capsys, "group", "ls", "--moduli", "7", "--subset", "1,2,4")
    assert data["index"] == 7
    assert data["d_squared"] == 6
    assert data["minimal_count"] == 6
    assert data["well_rounded"] is True
    assert data["gen_by_min_index"] == 1
    assert data["subset_aut_count"] == 3
    assert data["correspondence"] is True


def test_group_ls_catalogue(capsys):
    data = run_json(capsys, "group", "ls", "--moduli", "7")
    assert len(data["rows"]) == 62
    assert sum(1 for r in data["rows"] if r["well_rounded"]) == 26


def test_aut_payload(capsys):
    data = run_json(capsys, "export", "--kind", "aut", "--q", "2")
    assert data["order"] == 216
    assert data["stabilizer_order"] == 24
    assert data["orbit_sizes"] == [9]
    assert data["lattice_check"] is True
    assert data["classgroup_injective"] is False


# -- artifacts --------------------------------------------------------------------


def test_table1_matches_golden(capsys):
    rc, out, _ = run_cli(capsys, "export", "--kind", "table1")
    assert rc == 0
    assert out == GOLDEN.read_text()


# sha256 of stdout: exports are byte-stable, so these must never drift.
PINNED_OUTPUTS = [
    ("export --kind lattice --q 2",
     "c1687bd79a234000c745d8d0c9e3d35a2e0254675828490ebe60db5a8e4c8978"),
    ("export --kind lattice --q 3",
     "cd2fcc4783303e8325bac8f1964d1d04aa98e91f8eb061ff74ef9595f83ac650"),
    ("export --kind lattice --q 4",
     "7ae548707dfeaf1a91a3d13456257fc3e1cd9a3535f8b6445e40fd77b775b278"),
    ("export --kind lattice --q 5",
     "7f5b773ebbbb0dcf49cf5db7fc41479a8510737a4a1395dcc078712348f53fe2"),
    ("export --kind census --q 2",
     "bf3dc8875a1704afb7db00bb53fea2a60be21c69cba37fe1c5c2d4ff4f9626c0"),
    ("export --kind census --q 3",
     "446863152ad7396b02f94bc2bdde55dba2d577fd1d9de82705359a2478031466"),
    ("export --kind census --q 4",
     "faf78fef694910d0f0cf37b60530daeadc381c6d44711f90deb0bc5d2c2283ce"),
    ("export --kind aut --q 2",
     "320c4062c739c5d5523e670ee345945f7416cfff8ed63df4bd7b58790c9c0708"),
    ("export --kind aut --q 3",
     "c95ea6b272656701c315f115c4c80bc3202b6954beef57073697f2a78bda2bf0"),
    ("herm decompose --q 3 --line x-c:c=3",
     "6a39a1680a472bc6c40acaa4258d1b222dd1c60760247b7509a05ab71dce2b31"),
    ("herm decompose --q 3 --line x-c:c=0",
     "6cffb6cc53f2c9e611bd43a2905165b398b1450da98e59c25d3e39d43f4e9420"),
    ("herm decompose --q 3 --line y+bx+c:b=1,c=2",  # a tangent
     "960d3a78fae2c7dd6d52099d3382ce947f4c6bebdc310db7a4bb63292081e1e2"),
    ("herm decompose --q 3 --line y+bx+c:b=1,c=3",  # a secant
     "e0f5ba9ad7ad29d778a4f5617ef919e83b8ac9461ce45c82f29ef6aebae9faa1"),
    ("herm decompose --q 3 --line y+bx+c:b=1,c=3 --beta 5",
     "577afb00f210d522035457d5d2a811a6c7a22ec462df65aa3d7c2997c240d3fd"),
    ("export --kind places --q 2",
     "f5caadc9108bc0921e57ec9a514bc8421b388b7d7a9c6cbc2fc0be71f93c07c5"),
    ("export --kind lines --q 2",
     "94cb92eee17d21fb5e2808e183b3e90e76936c28938be89050272621266223b2"),
    ("export --kind aut --q 4",
     "f31d0ca0c8d68c3f4ad3b8d8b8ceea2fdb38174d6215d7dcf779da755c9dfdb7"),
    ("export --kind aut --q 5",
     "b57e77837234033a25fb67a9dd1ce0e8dec7fb2f44d0f05686ea1084eff2513a"),
    ("export --kind aut --q 7",
     "a766841347d0e35472788335eb527a778927adc538192c717adf7ce6b7f72ba3"),
    ("export --kind aut --q 8",
     "3de0271280e5730f6b5d1a77c4c247c8c948724ed9299b9ca57097ae37263106"),
    ("group ls --moduli 7 --subset 1,2,4",
     "f042b2b483df0abeac57a6bdb875cebd0d85d6ab1dc67e8de7d36d707db62fee"),
    ("group ls --moduli 3,3 --subset 1,3,4",  # not well-rounded
     "1c2d8495e44e69aaa67b9066175111560e907e445456182c9fceec5ebd804289"),
    ("group ls --moduli 2,2,4 --subset 1,2,8",  # <S> = Z_2^3: no correspondence
     "387ed8ec1d4ff39c239e31441032425391d7337ae9efea78c4b9e0a0889f014c"),
    ("group ls --moduli 257 --subset 1,2,3,5",  # two-byte class words
     "72ceb4280e06b8bd4e45dc136da7ed79b326e66f5e503608b9c9f727c3b1e854"),
    ("group ls --moduli 7",  # the whole catalogue
     "68895c1ec712b18c5428695304bc5f847127df1cf2fe437c89f75753addf7e53"),
    ("field --q 2",
     "713f07d57bcda9012a1b7590e6eba0dad545f258955baaf05e656d59b571f62a"),
    ("field --q 3",
     "bde03c612728d793bd556a704e8c099b23160947e9d3efc839261046336e63e3"),
    ("field --q 4",
     "1bc4aad3c36f64ab6e37eec17b145496a14ab0950ee7580b89f2146820af368e"),
    ("field --q 5",
     "b915165cce654a33aca7fa2bce7c33b7c36812c3d895cf29caa73a3d416b3967"),
    ("field --q 7",
     "ee3f62ee3583de1810eceba60b9b09ad0062cb5ad6cb707939d8d6fcddc831f2"),
    ("field --q 8",
     "8b500de7d3b98d635575e6abd84b5ee677a3c9fd81f0e6ce2a03a9c6f6f42365"),
    ("field --p 2 --k 8",
     "dd65a859ba5abdda8c7183dd6a0a07ae3a71fbad171d9e129b20894536790afa"),
    ("field --p 3 --k 8",
     "1c3773bd502c4c53940d1ce7f344a16bd9066b314056e5e9093f157d67e4397c"),
    ("field --p 5 --k 8",
     "f1d875cea245fbc4fa2565797682f054a518934be07d79f0cc9f3c83919d9ed9"),
    ("field --p 7 --k 7",
     "537d6adbffaf50017aeadf8cf7fee29b696ecbb1f291ed22a61e53868ee37e31"),
]


@pytest.mark.parametrize("argv, sha", PINNED_OUTPUTS, ids=[c[0] for c in PINNED_OUTPUTS])
def test_output_bytes_pinned(capsys, argv, sha):
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of each `verify` report once the timing keys are dropped: the
# top-level seconds, build_seconds and peak_rss_mb, and each check's seconds
PINNED_REPORTS = [
    ("verify --q 2", "1c353f64ac23ca5ae505da9d8372aa885a9aefdcc8fb43b8b543234d7275fcb0"),
    ("verify --q 3", "bba60c009cb7983420093e7caa0219207d74edc84969c850b8e54ab7de116da0"),
    ("verify --q 4", "23d6bf071f1b3f96c23b7f25b8e088f9b82bd2b417b34237c60ae5e7b5507df9"),
    ("verify --q 5", "67685f974b0ff82f11d273f3f170158ef016c2114f1f0068f97de5519f57309e"),
]


@pytest.mark.parametrize("argv, sha", PINNED_REPORTS, ids=[c[0] for c in PINNED_REPORTS])
def test_verify_report_content_pinned(capsys, argv, sha):
    report = run_json(capsys, *argv.split())
    for key in ("seconds", "build_seconds", "peak_rss_mb"):
        del report[key]
    for rec in report["checks"]:
        del rec["seconds"]
    assert hashlib.sha256(cli._render(report).encode()).hexdigest() == sha


def test_parser_offers_one_command_per_output():
    """Every output has one command: the export kinds have no alias, and
    `verify` is the one report."""

    def commands(parser, prefix=""):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            if any(isinstance(a, argparse._SubParsersAction) for a in p._actions):
                yield from commands(p, f"{prefix}{name} ")
            else:
                yield prefix + name

    assert sorted(commands(cli.build_parser())) == [
        "export", "field", "group ls", "herm decompose", "verify"
    ]


def test_export_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "export", "--kind", "lattice", "--q", "2", "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == sorted(data)


def test_export_places_and_lines(capsys):
    places = run_json(capsys, "export", "--kind", "places", "--q", "2")
    assert places["n"] == 9 and places["genus"] == 1
    assert places["places"][0] == {"at_infinity": True, "index": 0}
    lines = run_json(capsys, "export", "--kind", "lines", "--q", "2")
    assert lines["count"] == 20
    assert sum(1 for l in lines["lines"] if l["tangent"]) == 8


def test_export_needs_q(capsys):
    rc, _, _ = run_cli(capsys, "export", "--kind", "lattice")
    assert rc == 2


def test_jsonify_big_ints():
    safe = 2**53 - 1
    data = cli._jsonify({"a": safe, "b": safe + 1, "c": [-(safe + 1), 1.5, None, True]})
    assert data["a"] == safe
    assert data["b"] == str(safe + 1)
    assert data["c"] == [str(-(safe + 1)), 1.5, None, True]
    assert json.loads(json.dumps(data))["b"] == "9007199254740992"


def test_console_script():
    exe = shutil.which("hfl")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "export", "--kind", "lattice", "--q", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 9


def test_console_script_names_cli_main():
    """The `hfl` console script that pyproject.toml declares resolves to
    cli.main, installed or not."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(cli.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"hfl": "hfl.cli:main"}
    module, _, attr = scripts["hfl"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_module_entry_point_refuses_unsupported_q():
    """python -m hfl needs no install: an unsupported q exits 2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hfl", "export", "--kind", "lattice", "--q", "9"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
