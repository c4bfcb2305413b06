"""The package holds only what a CLI verb, a check suite or a demo runs.

Every verb (each output format and subgroup, and the exit-2/3/4 paths),
``check --suite all`` and every demo run in-process under ``sys.setprofile``.
The functions of ``src/hypbranch`` that none of them enters must be exactly
``ALLOWED_UNREACHED`` plus dunder methods; anything else is either dead code
or a test oracle, and belongs under ``tests/``.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import runpy
import sys
from pathlib import Path

import hypbranch
from hypbranch.cli import main

MODULES = [importlib.import_module(f"hypbranch.{info.name}") for info in pkgutil.iter_modules(hypbranch.__path__)]
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))

# (argv, exit code)
VERBS = [
    (["fj", "--p", "4", "--q", "4", "--lambda-x2", "4"], 0),
    (["period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "10", "--subgroup", "g1"], 0),
    # a = 48: the g1 verdict reads the Gram table of its sphere rule
    (["period", "--p", "5", "--q", "4", "--lambda-x2", "97", "--target-x2", "98", "--subgroup", "g1"], 0),
    (["period", "--p", "4", "--q", "4", "--lambda-x2", "4", "--target-x2", "3", "--subgroup", "g2"], 0),
    (["period", "--p", "4", "--q", "6", "--lambda-x2", "8", "--target-x2", "5", "--subgroup", "g2", "--witness"], 0),
    (["branch", "--p", "5", "--q", "4", "--lambda-x2", "9", "--subgroup", "g1", "--max-target-x2", "12"], 0),
    (["branch", "--p", "4", "--q", "6", "--lambda-x2", "8", "--subgroup", "g2", "--max-target-x2", "12"], 0),
    (["branch", "--p", "5", "--q", "4", "--lambda-x2", "9", "--subgroup", "g1", "--max-target-x2", "12",
      "--format", "csv"], 0),
    (["branch", "--p", "4", "--q", "6", "--lambda-x2", "8", "--subgroup", "g2", "--max-target-x2", "12",
      "--format", "csv"], 0),
    (["packet", "--p", "4", "--q", "4", "--lambda-x2", "4"], 0),
    (["packet", "--p", "4", "--q", "6", "--inner-forms-only"], 0),
    (["check", "--suite", "all"], 0),
    (["fj", "--p", "4", "--q", "4", "--lambda-x2", "0"], 2),
    # a target degree past the checked range, refused by the g1 verdict before any Gram row
    (["period", "--p", "5", "--q", "4", "--lambda-x2", "9", "--target-x2", "100002", "--subgroup", "g1"], 2),
    (["check", "--suite", "harmonics", "--seed", "-1"], 2),
    (["period", "--p", "4", "--q", "4", "--lambda-x2", "-4", "--target-x2", "2", "--subgroup", "g2"], 3),
    (["fj", "--p", "400", "--q", "4", "--lambda-x2", "400"], 4),
]

# Kept although nothing above runs them: the console-script entry point, the
# public one-element wrappers and closed-form predicates that the tests call,
# the half-integer readers of `period_x2`, which `period` calls with its doubled
# ints, and of `FJParam.lam_x2`, which every verb and suite reads doubled, and
# `_converges`, which is the `converges_G1`/`converges_G2` alias.
ALLOWED_UNREACHED = {
    "cli.entry",
    "fjrep.lam",
    "harmonics.ktype_pairing_nonzero",
    "interlace.interlace_classify",
    "periods.branching_verdict",
    "periods.interlace_class_for_pair",
    "periods.nonvanishing_G1",
    "periods.nonvanishing_G2",
    "periods.period_integral_G1",
    "periods.period_integral_G2",
    "periods._converges",
}


def _defined_functions(module):
    """(filename, first line, name) of every def in the module's source, nested ones included."""
    path = module.__file__
    found, stack = {}, [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        # class bodies and comprehensions are not functions
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found[(code.co_filename, code.co_firstlineno, code.co_name)] = module.__name__.rsplit(".", 1)[1]
    return found


def _clear_caches():
    # a cache hit skips the cached function's frame, so start every cache cold
    for module in MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_every_src_function_is_reached(capsys):
    defined = {}
    for module in MODULES:
        defined.update(_defined_functions(module))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    _clear_caches()
    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in VERBS:
            codes.append(main(argv))
        for demo in DEMOS:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in VERBS]
    assert DEMOS

    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    unreached = {
        f"{module}.{name}" for (filename, line, name), module in defined.items()
        if (filename, line, name) not in reached and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreached == ALLOWED_UNREACHED, (
        f"never run by a verb, suite or demo: {sorted(unreached - ALLOWED_UNREACHED)}; "
        f"allowed but now run: {sorted(ALLOWED_UNREACHED - unreached)}"
    )
