"""Start-up cost: what importing ucc and running one verb loads.

Result records are NamedTuples and no class is a dataclass: building a
frozen dataclass generates and execs six methods, about 1 ms a class at
import, and a NamedTuple costs a fraction of that.  The field pins keep a
reordered field from silently changing positional construction.

Every verb runs in a process of its own, so start-up is paid per verdict.
``import ucc.cli`` loads only the parser and the report writer.  A handler
reads each library name as an attribute of ``ucc.cli``, which resolves it
through the package's table on first read, so each verb loads only the
modules it names.  ``ucc._EXPORTS`` is the one table of where each name
lives.  The probes below run in fresh interpreters and pin that closure,
and keep ``hashlib`` (which loads OpenSSL) and ``dataclasses`` out of it.
"""

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ucc
import ucc.cli
from ucc.analytic.certify import EdgeBounds
from tests.conftest import DATA_DIR

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC_DIR).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC_DIR / "ucc").rglob("*.py") if path.stem != "__main__")

RECORD_FIELDS = {
    ucc.DiagonalMinimum: ("x_star", "value"),
    ucc.GridCheck: ("min_margin", "argmin", "argmin_margin", "grid_points"),
    EdgeBounds: ("delta", "low_strip", "high_strip", "corner"),
    ucc.Certificate: ("threshold", "eta", "boxes_processed",
                      "max_depth_used", "verified", "status",
                      "accepted_boxes", "violation_boxes", "worst_box",
                      "boundary", "trace_digest"),
    ucc.FrequencyProfile: ("counts", "argmax", "max_freq"),
    ucc.UnionDistribution: ("support_size", "entropy_bits"),
    ucc.BoundReport: ("rhs_bits", "margin_bits", "satisfied", "applicable"),
    ucc.TheoremReport: ("delta", "applicable", "satisfied"),
    ucc.ExampleSpec: ("n", "k", "m"),
    ucc.ExampleStats: ("n", "k", "m", "log2_f1", "log2_f2",
                       "max_freq_exact", "closure_deficit",
                       "log2_inv_closure_deficit", "delta"),
}


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set[str]:
    """The ``ucc`` modules a fresh interpreter holds after running ``code``."""
    out = _probe(code + "\nimport json, sys\n"
                 "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'ucc']))")
    return set(json.loads(out.splitlines()[-1]))


def test_no_module_imports_dataclasses():
    assert "ucc.analytic.certify" in MODULES and "ucc.cli" in MODULES
    code = "".join(f"import {name}\n" for name in MODULES)
    out = _probe(code + "import sys; print('dataclasses' in sys.modules)")
    assert out == "False\n"


def test_import_leaves_hashlib_unloaded():
    # only `analytic certify` hashes, and imports hashlib when it does
    out = _probe("import sys, ucc.cli; print('hashlib' in sys.modules)")
    assert out == "False\n"


def test_import_cli_loads_only_the_parser_and_report():
    assert _loaded_after("import ucc.cli") == {"ucc", "ucc.cli", "ucc.report"}


def test_import_analytic_loads_no_submodule():
    assert _loaded_after("import ucc.analytic") == {"ucc", "ucc.analytic"}


# a verb's run, in a fresh interpreter, and modules it must never load
_RUN = "import contextlib, io\nfrom ucc.cli import run_cli\n" \
       "with contextlib.redirect_stdout(io.StringIO()):\n    assert run_cli({argv!r}) == 0\n"


@pytest.mark.parametrize("argv, never", [
    (["analytic", "certify", "--theta", "0.7", "--eta", "0.01"],
     {"ucc.setfamily", "ucc.entropy", "ucc.generators", "ucc.rng"}),
    (["check", str(DATA_DIR / "powerset3.uc")],
     {"ucc.analytic.certify", "ucc.generators", "ucc.rng"}),
], ids=["certify", "check"])
def test_verb_loads_only_its_own_modules(argv, never):
    loaded = _loaded_after(_RUN.format(argv=argv))
    assert "ucc.cli" in loaded and not loaded & never


def test_lazy_exports_match_their_home_modules():
    names = [name for name in ucc.__all__
             if name not in ("__version__", "CapExceededError")]
    assert sorted(names) == sorted(ucc._HOME)
    for name in names:
        home = importlib.import_module(f"ucc.{ucc._HOME[name]}")
        assert getattr(ucc, name) is getattr(home, name), name
    assert set(ucc.__all__) <= set(dir(ucc))
    star: dict = {}
    exec("from ucc import *", star)
    assert set(ucc.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        ucc.no_such_name
    # defined in the package, so ucc.cli catches it without loading setfamily
    setfamily = importlib.import_module("ucc.setfamily")
    assert ucc.CapExceededError is setfamily.CapExceededError


# the public surface: a name added to or removed from ucc.__all__ shows up
# here as a diff
PUBLIC_NAMES = [
    "BoundReport", "CapExceededError", "Certificate", "DiagonalMinimum",
    "ExampleSpec", "ExampleStats", "FrequencyProfile", "GridCheck",
    "HALF_INV_PHI", "Interval", "PHI", "PSI", "RANDOM_KINDS", "SetFamily",
    "SplitMix64", "TheoremReport", "UCFormatError", "UnionDistribution",
    "__version__", "binary_entropy", "certify_lower_bound",
    "chain_rule_check", "check_lower_bound", "check_theorem",
    "check_upper_bound", "closure_fraction_unordered",
    "corollary_grid_check", "corollary_margin", "derive_seed",
    "element_frequencies", "enumerate_union_closed", "f_ratio",
    "format_family", "g_of", "load_family", "minimize_diagonal",
    "parse_family", "random_families", "slice_example", "slice_stats",
    "union_closure", "union_distribution",
]


def test_public_names_pinned():
    assert sorted(ucc.__all__) == PUBLIC_NAMES


def test_only_the_package_maps_homes_to_names():
    modules = {name: importlib.import_module(name) for name in MODULES}
    assert sorted(name for name, module in modules.items()
                  if "__getattr__" in vars(module)) == ["ucc", "ucc.cli"]
    # ucc.cli resolves through the package's table
    assert ucc.cli._HOME is ucc._HOME


def test_cli_names_exist_in_their_homes(monkeypatch):
    # reading a package name through ucc.cli binds the package's object
    for name in ucc._HOME:
        monkeypatch.delitem(vars(ucc.cli), name, raising=False)
        assert getattr(ucc.cli, name) is getattr(ucc, name), name
    assert not hasattr(ucc.cli, "example_stats")


def test_cli_resolves_only_table_names():
    # a dunder passed on to the package would make ucc.cli look like one
    for name in ("__path__", "__wrapped__", "_EXPORTS", "example_stats"):
        assert getattr(ucc.cli, name, None) is None, name
    out = _probe("import ucc.cli; print(hasattr(ucc.cli, '__path__'))")
    assert out == "False\n"


@pytest.mark.parametrize("argv", [
    ["check", str(DATA_DIR / "powerset3.uc")],
    ["entropy", str(DATA_DIR / "powerset3.uc")],
    ["example", "--n", "1000"],
    ["enumerate", "--n", "2"],
    ["fuzz", "--n", "4", "--count", "6", "--seed", "1", "--entropy-checks"],
    ["analytic", "minimize"],
    ["analytic", "grid", "--grid", "101"],
    ["analytic", "certify", "--theta", "0.81", "--eta", "0.01"],
], ids=lambda argv: argv[1] if argv[0] == "analytic" else argv[0])
def test_verb_homes_cover_what_the_handler_reads(argv, monkeypatch, capsys):
    # one run with every library name unbound: a handler that reads a bare
    # global instead of resolving it through ucc.cli raises NameError, and
    # one that reads a name outside ucc._HOME raises AttributeError
    for name in ucc._HOME:
        monkeypatch.delitem(vars(ucc.cli), name, raising=False)
    assert ucc.cli.run_cli(argv) == 0


@pytest.mark.parametrize("record", list(RECORD_FIELDS),
                         ids=lambda r: r.__name__)
def test_record_fields_pinned(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[record]


# every parameter of these library functions is one that a caller sets: a
# knob re-added to one of them shows up here as a diff
LIBRARY_PARAMETERS = {
    "minimize_diagonal": (),
    "union_closure": ("family",),
    "slice_example": ("spec",),
    "derive_seed": ("seed", "index"),
    "certify_lower_bound": ("theta", "eta", "box_budget"),
    "corollary_grid_check": ("grid_points",),
    "random_families": ("n", "size", "count", "seed", "kind"),
    "slice_stats": ("spec",),
}


def test_library_parameters_pinned():
    got = {name: tuple(inspect.signature(getattr(ucc, name)).parameters)
           for name in LIBRARY_PARAMETERS}
    assert got == LIBRARY_PARAMETERS


def test_record_defaults():
    assert ucc.Certificate._field_defaults == {}
    assert ucc.BoundReport._field_defaults == {}
    # __new__ fills the default k and m into the tuple itself
    assert ucc.ExampleSpec(1000) == (1000, 482, 619)
