"""Reachability census: the lab's real traffic enters every function that
`src/opalg` defines and runs every statement of their bodies.

The traffic is what the `opalg` command runs: the 13 experiments at their
defaults, as CSV at seed 0 and as JSON at seed 7, and the extra configs of
`extra_configs.txt`, which CI compares against the base commit.  It runs
once, in-process through `cli.main`, under a `sys.settrace` hook that
records the code object of every frame entered and, in the files of
`src/opalg`, the line of every line event; the tracer set before the run
(a coverage tool's or a debugger's) is set again after it.

Functions.  Counted are the module-level functions, class methods and
property getters of each module whose code lives in the module's own file;
the methods a dataclass generates live in `<string>` and are not counted.

Statements.  Counted is every statement of a function body, nested
functions' included, each under the innermost function around it; the
docstrings and the `raise` statements are left out.  A raise is a
validation refusal or a failure exit: tests pin each by its message, and no
config that runs through reaches one.  A statement is reached when a line
event falls on one of its lines, so a compound statement is reached when
its header or anything in its body runs, and each statement of its body is
counted on its own.

A function no traffic enters, or a statement no traffic runs, is a path no
report and no workload watches: it is either reached or deleted.
ALLOWLIST and STATEMENT_ALLOWLIST name the only exceptions, each with its
reason.  A statement's entry is keyed by "module.qualname" and the
statement's first source line, not by its line number, and its reason names
the test that runs it; where a function has several unreached statements
with one first line, the entry names one test for each, so that a new one
is not covered by an old entry.  An entry leaves its allowlist by being
reached or deleted, and nothing joins one to make this test pass.
"""

import ast
import collections
import inspect
import pathlib
import sys

import pytest

from opalg import cli, gauge, numkit, report, shift, volterra

MODULES = (cli, gauge, numkit, report, shift, volterra)

ALLOWLIST = {
    "numkit.svd_oracle": "the independent oracle: criterion 12 and the "
                         "oracle-crosscheck workload call it, no experiment does",
    "numkit.ConvergenceError.__init__": "runs only on a failure path, when an "
                                        "iterative kernel hits its cap",
}

STATEMENT_ALLOWLIST = {
    # the exits of a config that does not run through
    ("cli.main", 'print(f"numeric failure: {exc}", file=sys.stderr)'):
        "test_cli.py::TestValidation::test_iteration_cap_exits_three",
    ("cli.main", "return 3"): "test_cli.py::TestValidation::test_iteration_cap_exits_three",
    ("cli.main", 'print(f"validation error: {exc}", file=sys.stderr)'):
        "test_cli.py::TestValidation::test_unknown_experiment_exit_code",
    ("cli.main", 'print(f"cannot write {config.out}: {exc}", file=sys.stderr)'):
        "test_cli.py::TestCliProcess::test_unwritable_out",
    ("cli.main", "return 2"): ("test_cli.py::TestValidation::test_unknown_experiment_exit_code",
                               "test_cli.py::TestCliProcess::test_unwritable_out"),
    # the census writes every report to --out
    ("cli.main", "sys.stdout.buffer.write(payload)"):
        "test_cli.py::TestCliProcess::test_exit_zero_and_csv_on_stdout",
    ("cli.main", "sys.stdout.buffer.flush()"):
        "test_cli.py::TestCliProcess::test_exit_zero_and_csv_on_stdout",
    ("gauge.certify_no_gauge_linear_dependence", "return None"):
        "test_gauge.py::TestLinearDependenceCertificate::test_nilpotent_yields_none",
    # the two functions of ALLOWLIST
    ("numkit.ConvergenceError.__init__",
     'super().__init__(f"{message} (last iterate {last_value!r})")'):
        "test_numkit.py::TestCertifiedNorm::test_step_cap_raises",
    ("numkit.ConvergenceError.__init__", "self.last_value = last_value"):
        "test_numkit.py::TestCertifiedNorm::test_step_cap_raises",
    ("numkit.svd_oracle", "sigmas, _ = jacobi_svd(a, vectors=False)"):
        "test_acceptance.py::test_criterion_12_infrastructure",
    ("numkit.svd_oracle", "return float(sigmas[0]) if sigmas.size else 0.0"):
        "test_acceptance.py::test_criterion_12_infrastructure",
    ("numkit.jacobi_svd", "pq, wpq, apq, app, aqq, scale, g = ("):
        "test_acceptance.py::test_criterion_12_infrastructure",
    # power iteration meets no strided block
    ("numkit._row_norms", "x = np.ascontiguousarray(x)"):
        "test_numkit.py::TestNorm::test_same_bits_as_linalg_norm",
    ("numkit.certified_toeplitz_norm", "return 0.0, 0.0"):
        "test_numkit.py::TestCertifiedNorm::test_zero_matrix",
    # every rung's start is within 1% of its norm, and no step closes a bracket
    ("numkit.certified_toeplitz_norm", "t = lower + 8.0 * (t - lower)"):
        "test_numkit.py::TestCertifiedNorm::test_start_far_below_the_norm_widens_eightfold",
    ("numkit.certified_toeplitz_norm", "continue"):
        "test_numkit.py::TestCertifiedNorm::test_start_far_below_the_norm_widens_eightfold",
    ("numkit.certified_toeplitz_norm", "return lower, upper"):
        "test_numkit.py::TestCertifiedNorm::test_inverse_step_can_close_the_bracket",
    ("numkit.find_root", "return lo"):
        "test_numkit.py::TestFindRoot::test_exact_zero_at_a_bracket_end",
    ("numkit.find_root", "return hi"):
        "test_numkit.py::TestFindRoot::test_exact_zero_at_a_bracket_end",
    ("numkit.find_root", "return mid"): "test_numkit.py::TestFindRoot::test_linear",
    ("numkit.find_root", "break"): ("test_numkit.py::TestFindRoot::test_bracket_of_adjacent_floats",
                                    "test_numkit.py::TestFindRoot::test_steep_root_stops_at_resolution"),
    ("volterra.SampledKernel.support_start", "return 1.0"):
        "test_volterra.py::TestIdealRestriction::test_two_members_annihilate",
    ("volterra.kernel_step", "continue"):
        "test_volterra.py::TestKernelStep::test_matches_all_cells_reference_over_window_edges",
    # nilpotent-density's cutoff 1/nmax is at least one cell
    ("volterra.nilpotent_approximation", "return f, 0.0"):
        "test_volterra.py::TestNilpotentApproximation::test_zero_cutoff",
}

EXTRA_CONFIGS = pathlib.Path(__file__).with_name("extra_configs.txt")


def extra_configs():
    """(group, argv) for each config line of extra_configs.txt."""
    out = []
    for line in EXTRA_CONFIGS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            group, *argv = line.split()
            out.append((group, argv))
    return out


def defined_functions():
    """Code object -> "module.qualname" of every counted function."""
    found = {}
    for mod in MODULES:
        layer = mod.__name__.rsplit(".", 1)[-1]
        candidates = []
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                candidates += [member.fget if isinstance(member, property) else member
                               for member in vars(obj).values()]
            elif callable(obj):
                candidates.append(obj)
        for fn in map(inspect.unwrap, candidates):  # through functools.lru_cache
            if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                found[fn.__code__] = f"{layer}.{fn.__qualname__}"
    return found


def defined_statements():
    """("module.qualname", first source line, file, line range) of every
    counted statement."""
    found = []
    for mod in MODULES:
        layer = mod.__name__.rsplit(".", 1)[-1]
        source = pathlib.Path(mod.__file__).read_text()
        lines = source.splitlines()

        def walk(node, function, prefix):
            # function: the qualname the statements below belong to, None
            # outside any function; prefix: the qualname prefix of a def below
            for child in ast.iter_child_nodes(node):
                docstring = (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if function and isinstance(child, ast.stmt) and not (
                        docstring or isinstance(child, ast.Raise)):
                    found.append((f"{layer}.{function}", lines[child.lineno - 1].strip(),
                                  mod.__file__, range(child.lineno, child.end_lineno + 1)))
                if isinstance(child, ast.FunctionDef):
                    walk(child, prefix + child.name, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, None, f"{prefix}{child.name}.")
                else:
                    walk(child, function, prefix)

        walk(ast.parse(source), None, "")
    return found


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """Run the traffic under the hook once; return the code objects entered
    and the (file, line) pairs of the line events in MODULES' files."""
    tmp_path = tmp_path_factory.mktemp("census")
    runs = []
    for name in cli.EXPERIMENTS:
        runs.append([name])
        runs.append([name, "--format", "json", "--seed", "7"])
    runs += [argv for _, argv in extra_configs()]
    # a cached function returns without entering its body, so start cold
    for mod in MODULES:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    files = {mod.__file__ for mod in MODULES}
    entered, executed = set(), set()

    def line_hook(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line_hook

    def hook(frame, event, arg):
        entered.add(frame.f_code)
        # trace the lines of the lab's own frames; returning None traces none
        return line_hook if frame.f_code.co_filename in files else None

    failed = []
    outer = sys.gettrace()
    sys.settrace(hook)
    try:
        for argv in runs:
            # exit 1 is a failed assertion (unbounded-witness's, by design);
            # 2 or 3 would mean the config did not run through
            if cli.main([*argv, "--out", str(tmp_path / "report")]) not in (0, 1):
                failed.append(argv)
    finally:
        sys.settrace(outer)
    assert not failed, f"configs that did not run: {failed}"
    return entered, executed


def test_traffic_enters_every_function(traffic, capsys):
    defined = defined_functions()
    entered, _ = traffic
    unreached = sorted(name for code, name in defined.items() if code not in entered)
    with capsys.disabled():
        print(f"\ncensus: {len(defined)} functions, unreached: {', '.join(unreached)}")
    names = set(defined.values())
    assert set(ALLOWLIST) <= names, "an allowlisted function was deleted: drop its entry"
    reached = sorted(set(ALLOWLIST) - set(unreached))
    assert not reached, f"allowlisted but reached, drop the entries: {reached}"
    unlisted = [name for name in unreached if name not in ALLOWLIST]
    assert not unlisted, f"functions no traffic enters: {unlisted}"


def test_traffic_runs_every_statement(traffic, capsys):
    statements = defined_statements()
    _, executed = traffic
    unreached = collections.Counter(
        (name, text) for name, text, file, lines in statements
        if not any((file, line) in executed for line in lines))
    with capsys.disabled():
        print(f"\ncensus: {len(statements)} statements, {unreached.total()} unreached")
    listed = {key: (reasons,) if isinstance(reasons, str) else reasons
              for key, reasons in STATEMENT_ALLOWLIST.items()}
    keys = {(name, text) for name, text, _, _ in statements}
    deleted = sorted(set(listed) - keys)
    assert not deleted, f"allowlisted statements that were deleted, drop the entries: {deleted}"
    reached = sorted(key for key, reasons in listed.items() if unreached[key] < len(reasons))
    assert not reached, f"allowlisted but reached, drop the entries: {reached}"
    unlisted = sorted(key for key, count in unreached.items() if count > len(listed.get(key, ())))
    assert not unlisted, f"statements no traffic runs: {unlisted}"
