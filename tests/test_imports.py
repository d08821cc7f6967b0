"""What each subcommand imports, and the package's exports on first access.

`match` must load only the package, `cli`, `core` and `matching`; `certify`
adds `certify` alone, and `bench` the oracle, heuristic and multipartite
modules.  No command loads `dataclasses` or `inspect`, which cost a fresh
interpreter more than the package's own modules.  Each import set is read
in a fresh interpreter after `main()`.
"""

import importlib
import json
import subprocess
import sys

import pytest

import linematch

MATCH_MODULES = ["linematch", "linematch.cli", "linematch.core", "linematch.matching"]
ALL_MODULES = MATCH_MODULES + ["linematch.certify", "linematch.heuristics",
                               "linematch.multipartite", "linematch.oracle"]

PRINT_MODULES = """
import contextlib, io, json, sys
from linematch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "linematch")]))
"""


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "cohort.csv"
    path.write_text("id,score\n" + "".join(f"p{n},{n % 7}\n" for n in range(12)),
                    encoding="utf-8")
    return str(path)


def modules_after(argv):
    proc = subprocess.run([sys.executable, "-c", PRINT_MODULES, *argv],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    return modules


@pytest.mark.parametrize("options", [
    ["--k", "2"],
    ["--k", "4", "--weight", "sq", "--balance", "--format", "csv"],
], ids=["json", "balance_csv"])
def test_match_loads_only_core_and_matching(cohort, options):
    assert modules_after(["match", "--input", cohort, *options]) == MATCH_MODULES


@pytest.mark.parametrize("options", [["--k", "3"], ["--k", "2", "--weight", "sq"]])
def test_certify_adds_only_certify(options):
    assert modules_after(["certify", *options]) == sorted(
        MATCH_MODULES + ["linematch.certify"])


def test_bench_loads_all_but_certify():
    argv = ["bench", "--k", "2", "--line-sizes", "2", "--tri-sizes", "2",
            "--instances", "1"]
    assert modules_after(argv) == sorted(set(ALL_MODULES) - {"linematch.certify"})


STDLIB_AFTER = """
import contextlib, io, json, sys
from linematch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv", [
    ["match", "--k", "2"],
    ["match", "--k", "4", "--weight", "sq", "--balance", "--format", "csv"],
    ["certify", "--k", "3"],
    ["bench", "--k", "2", "--line-sizes", "2", "--tri-sizes", "2", "--instances", "1"],
], ids=["match_json", "match_balance_csv", "certify", "bench"])
def test_no_command_imports_dataclasses_or_inspect(cohort, argv):
    if argv[0] == "match":
        argv = [*argv, "--input", cohort]
    proc = subprocess.run([sys.executable, "-c", STDLIB_AFTER, *argv],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_exports_are_sorted_and_resolve_to_their_modules():
    assert linematch.__all__ == sorted(linematch.__all__)
    for name, module in linematch._EXPORTS.items():
        defined = importlib.import_module(f"linematch.{module}")
        assert getattr(linematch, name) is getattr(defined, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from linematch import *", namespace)
    for name in linematch.__all__:
        assert namespace[name] is getattr(linematch, name), name


def test_dir_lists_every_export():
    assert set(linematch.__all__) <= set(dir(linematch))
    assert "__version__" in dir(linematch)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        linematch.no_such_name


def test_cli_resolves_on_use_names_from_their_modules():
    from linematch import certify, cli, oracle

    assert cli.certify_abs is certify.certify_abs
    assert cli.iter_tuple_partitions is oracle.iter_tuple_partitions
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
    assert not hasattr(cli, "__path__")


def test_a_name_rebound_on_cli_is_the_one_called(monkeypatch, capsys):
    from linematch import cli, oracle

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return oracle.greedy_match(*args, **kwargs)

    monkeypatch.setattr(cli, "greedy_match", counting)
    assert cli.main(["bench", "--k", "2", "--line-sizes", "2", "--tri-sizes", "2",
                     "--instances", "2"]) == 0
    capsys.readouterr()
    assert calls == [2, 2]
