"""Reachability census: the lab's real traffic enters every function that
`src/opalg` defines.

The traffic is what the `opalg` command runs: the 13 experiments at their
defaults, as CSV at seed 0 and as JSON at seed 7, and the extra configs of
`extra_configs.txt`, which CI compares against the base commit.  It runs
in-process through `cli.main` under a call-only `sys.settrace` hook that
records the code object of every frame entered.

Counted are the module-level functions, class methods and property getters
of each module whose code lives in the module's own file; the methods a
dataclass generates live in `<string>` and are not counted.  A function that
no traffic enters is a path no report and no workload watches: it is either
reached or deleted.  ALLOWLIST names the only exceptions, each with its
reason.  A function leaves the allowlist by being reached or deleted, and
nothing joins it to make this test pass.
"""

import inspect
import pathlib
import sys

from opalg import cli, gauge, numkit, report, shift, volterra

MODULES = (cli, gauge, numkit, report, shift, volterra)

ALLOWLIST = {
    "numkit.svd_oracle": "the independent oracle: criterion 12 and the "
                         "oracle-crosscheck workload call it, no experiment does",
    "numkit.ConvergenceError.__init__": "runs only on a failure path, when an "
                                        "iterative kernel hits its cap",
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


def run_traffic(tmp_path) -> set:
    """Run the traffic under the hook; return the code objects entered."""
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
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)  # returning None traces no lines

    failed = []
    sys.settrace(hook)
    try:
        for argv in runs:
            # exit 1 is a failed assertion (unbounded-witness's, by design);
            # 2 or 3 would mean the config did not run through
            if cli.main([*argv, "--out", str(tmp_path / "report")]) not in (0, 1):
                failed.append(argv)
    finally:
        sys.settrace(None)
    assert not failed, f"configs that did not run: {failed}"
    return entered


def test_traffic_enters_every_function(tmp_path, capsys):
    defined = defined_functions()
    entered = run_traffic(tmp_path)
    unreached = sorted(name for code, name in defined.items() if code not in entered)
    with capsys.disabled():
        print(f"\ncensus: {len(defined)} functions, unreached: {', '.join(unreached)}")
    names = set(defined.values())
    assert set(ALLOWLIST) <= names, "an allowlisted function was deleted: drop its entry"
    reached = sorted(set(ALLOWLIST) - set(unreached))
    assert not reached, f"allowlisted but reached, drop the entries: {reached}"
    unlisted = [name for name in unreached if name not in ALLOWLIST]
    assert not unlisted, f"functions no traffic enters: {unlisted}"
