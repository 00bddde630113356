"""The reachability sweep sees fork children and flags test-only code."""

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO_ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def test_function_run_only_in_a_fork_child_is_reached(tmp_path):
    reach = load_reach()
    script = tmp_path / "fork_child.py"
    script.write_text(textwrap.dedent("""\
        import os
        import sys

        from repro.units import pretty_size

        with open(sys.argv[1], "w") as fh:
            fh.write(str(os.getpid()))
        pid = os.fork()
        if pid == 0:
            pretty_size(4096)
            os._exit(0)
        os.waitpid(pid, 0)
        """))
    parent_pid = tmp_path / "parent.pid"
    sites = reach.collect([[sys.executable, str(script), str(parent_pid)]],
                          REPO_ROOT / "src", tmp_path, log=lambda msg: None)

    fn, = [f for f in reach.list_functions(REPO_ROOT / "src")
           if f.path.name == "units.py" and f.qualname == "pretty_size"]
    site = (str(fn.path), fn.first_line)
    assert site in sites
    # Only the child's own log holds it: the parent never called it.
    line = "%s\t%d\n" % (fn.path, fn.first_line)
    logs = {int(log.stem): log.read_text()
            for log in (tmp_path / "reach-sites").glob("*.sites")}
    parent = int(parent_pid.read_text())
    assert line not in logs[parent]
    assert any(line in text for pid, text in logs.items() if pid != parent)


def test_function_named_only_under_tests_is_flagged_test_only(tmp_path):
    reach = load_reach()
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from repro.mod import lonely, used\n")
    (pkg / "mod.py").write_text(textwrap.dedent("""\
        def lonely():
            return 1


        def used():
            return lonely() + 1


        def caller():
            return used()
        """))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import caller\n\n"
        "def test_caller():\n    assert caller() == 2\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("Call `lonely()` first.\n")

    functions = reach.list_functions(tmp_path / "src")
    flagged = {fn.qualname for fn in reach.test_only(functions, tmp_path)}
    # caller: named only by its own def, the package re-export and a test.
    assert flagged == {"caller"}
    text = reach.report(functions, functions[1:],
                        reach.test_only(functions, tmp_path),
                        tmp_path / "src")
    assert text.splitlines()[0].startswith(
        "reached 1 of 3 src/repro functions; 2 unreached")
    assert "  caller (line 9, 1 lines)  test-only" in text
