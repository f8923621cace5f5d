"""Static checks on the package source."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import panomerge

SRC = Path(__file__).resolve().parents[1] / "src" / "panomerge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detects_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def environment_reads(source: str) -> list[str]:
    """`os.environ` and `os.getenv` uses, also when imported by name."""
    names = {"environ", "getenv"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [a.name for a in node.names if a.name in names]
    return sorted(found)


def test_detects_environment_reads():
    source = (
        "import os\nfrom os import getenv\n"
        "os.environ.get('A'); os.getenv('B'); getenv('C')\n"
    )
    assert environment_reads(source) == ["environ", "getenv", "getenv"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_knobs(path):
    assert environment_reads(path.read_text()) == []


# numpy's legacy global-state draws; every draw must come from a seeded
# bit generator, or seeded runs stop being reproducible.
LEGACY_RANDOM = {
    "seed", "rand", "randn", "randint", "random", "choice", "shuffle", "permutation"
}


def unseeded_randomness(source: str) -> list[str]:
    """Uses of numpy's legacy global RNG (`np.random.rand` and kin, also when
    imported by name) and `default_rng()` calls without a seed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LEGACY_RANDOM:
            if ast.unparse(node.value) in ("np.random", "numpy.random"):
                found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            found += [a.name for a in node.names if a.name in LEGACY_RANDOM]
        elif isinstance(node, ast.Call):
            if ast.unparse(node.func).split(".")[-1] == "default_rng":
                seeds = [*node.args, *(k.value for k in node.keywords)]
                if all(isinstance(a, ast.Constant) and a.value is None for a in seeds):
                    found.append("default_rng")
    return sorted(found)


def test_detects_unseeded_randomness():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy.random import shuffle\n"
        "np.random.seed(0); np.random.rand(2); numpy.random.randn(2)\n"
        "np.random.randint(3); np.random.random(2); np.random.choice([1])\n"
        "np.random.permutation(3); draw = np.random.default_rng()\n"
        "np.random.default_rng(None); np.random.default_rng(seed=None)\n"
        "rng = np.random.default_rng(7); rng.random(2); rng.choice([1])\n"
        "np.random.Generator(np.random.PCG64(7)).permutation(3)\n"
        "np.random.default_rng(seed=7); np.random.PCG64(7).random_raw(2)\n"
    )
    assert unseeded_randomness(source) == sorted(
        ["shuffle", "seed", "rand", "randn", "randint", "random", "choice",
         "permutation", "default_rng", "default_rng", "default_rng"]
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_randomness_seeded(path):
    assert unseeded_randomness(path.read_text()) == []


def words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def dead_definitions(sources: list[str], exported=()) -> list[str]:
    """Functions, methods and classes (dunders aside) whose name appears
    nowhere in `sources` outside their own definition and is not exported.

    Any mention counts, docstrings and comments included, so a name that a
    docstring points readers to is kept.
    """
    seen = sum((words(s) for s in sources), Counter())
    dead = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if not isinstance(node, defines) or node.name in exported:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = words(ast.get_source_segment(source, node))
            if seen[node.name] == own[node.name]:
                dead.add(node.name)
    return sorted(dead)


def test_detects_dead_definition():
    source = (
        "def used(): pass\n"
        "def unused(): return unused()\n"
        "def public(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def idle(self): pass\n"
        "used(); K().method()\n"
    )
    assert dead_definitions([source], ["public"]) == ["idle", "unused"]


def test_no_dead_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_definitions(sources, panomerge.__all__) == []


def cached_properties(source: str) -> list[str]:
    """Each import of `functools.cached_property` and each `x.cached_property`
    read: a cached value is derived state stored beside the fields it derives
    from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "cached_property":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.alias) and node.name == "cached_property":
            found.append(node.name)
    return found


def test_detects_cached_property():
    source = (
        "import functools\nfrom functools import cached_property as cp\n"
        "class Cached:\n"
        "    @functools.cached_property\n"
        "    def index(self): pass\n"
        "class Derived:\n"
        "    @property\n"
        "    def index(self): pass\n"
    )
    assert cached_properties(source) == ["cached_property", "functools.cached_property"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cached_properties(path):
    assert cached_properties(path.read_text()) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Private names (`_name`) read from another panomerge module: imported by
    `from .m import _name`, or read as `alias._name` of an imported panomerge
    module or of a name imported from the package."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "panomerge":
                found += [a.name for a in node.names if is_private(a.name)]
                if node.module in (None, "panomerge"):  # `from . import io as pio`
                    modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "panomerge":
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            if ast.unparse(node.value) in modules:
                found.append(node.attr)
    return sorted(found)


def test_detects_private_reads():
    source = (
        "import numpy as np\nimport panomerge.io\nimport panomerge.masks as pm\n"
        "from . import io as pio\nfrom .masks import _support, SoftMaskSet\n"
        "from panomerge.qubo import _flip\n"
        "pio._write_files({}); pm._check(); panomerge.io._header(b'')\n"
        "pio.write_files({}); pio.__name__; np._core; self._cache\n"
        "def _own(): pass\n_own()\n"
    )
    assert private_reads(source) == sorted(
        ["_support", "_flip", "_write_files", "_check", "_header"]
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []


# Mask sets and label fields are validated where one is made or read, and
# nowhere else.
MASK_SET_ENTRIES = {("cli.py", "_load_mask_set"), ("synthgen.py", "generate_scene")}
LABEL_FIELD_ENTRIES = {("uplift.py", "uplift_labels"), ("cli.py", "cmd_render_labels")}


def constructions(source: str, cls: str) -> list[str]:
    """Names of the top-level functions that call `cls(`, with "<module>"
    for a call outside any function."""
    found = []
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                if ast.unparse(call.func).split(".")[-1] == cls:
                    found.append(name)
    return found


def test_detects_mask_set_construction():
    source = (
        "from panomerge import masks\n"
        "def load(v, p, t):\n"
        "    return SoftMaskSet(v, p, t)\n"
        "def sub(s):\n"
        "    return masks.SoftMaskSet(s.values[:1], s.class_probs[:1], s.class_table)\n"
        "def typed(s: SoftMaskSet) -> SoftMaskSet:\n"
        "    return s\n"
        "DEFAULT = SoftMaskSet(v, p, t)\n"
    )
    assert constructions(source, "SoftMaskSet") == ["load", "sub", "<module>"]


def test_detects_label_field_construction():
    source = (
        "from panomerge import uplift\n"
        "def read(a):\n"
        "    k = np.flatnonzero(a)\n"
        "    return SplatLabelField(a.shape, k, a.ravel()[k])\n"
        "def rebuilt(f):\n"
        "    return uplift.SplatLabelField(f.shape, [], [])\n"
        "def typed(f: SplatLabelField) -> SplatLabelField:\n"
        "    return f\n"
        "EMPTY = SplatLabelField((0, 1), [], [])\n"
    )
    assert constructions(source, "SplatLabelField") == ["read", "rebuilt", "<module>"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_mask_sets_built_only_at_entry_points(path):
    built = constructions(path.read_text(), "SoftMaskSet")
    assert {(path.name, n) for n in built} <= MASK_SET_ENTRIES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_label_fields_built_only_at_entry_points(path):
    built = constructions(path.read_text(), "SplatLabelField")
    assert {(path.name, n) for n in built} <= LABEL_FIELD_ENTRIES


def copied_defaults(source: str) -> list[str]:
    """The `default=` values of `add_argument` calls that read a name, such as
    `SceneSpec.num_views` or `DEFAULT_PENALTY`: a library default copied into
    the CLI. `argparse.SUPPRESS` leaves the default to the library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func).split(".")[-1] != "add_argument":
            continue
        for k in node.keywords:
            value = ast.unparse(k.value)
            if k.arg != "default" or value == "argparse.SUPPRESS":
                continue
            if any(isinstance(n, ast.Name) for n in ast.walk(k.value)):
                found.append(value)
    return found


def test_detects_copied_default():
    source = (
        "spec = SceneSpec\n"
        "p.add_argument('--views', type=int, default=SceneSpec.num_views)\n"
        "p.add_argument('--seed', type=int, default=spec.seed)\n"
        "p.add_argument('--lambda-p', type=float, default=DEFAULT_PENALTY)\n"
        "p.add_argument('--k', type=int, default=argparse.SUPPRESS)\n"
        "p.add_argument('--view', type=int, default=None)\n"
        "p.add_argument('--out', required=True)\n"
        "p.set_defaults(func=cmd_synth)\n"
    )
    assert copied_defaults(source) == [
        "SceneSpec.num_views", "spec.seed", "DEFAULT_PENALTY"
    ]


def test_cli_copies_no_library_default():
    assert copied_defaults((SRC / "cli.py").read_text()) == []


def default_reads(source: str) -> list[str]:
    """`DEFAULT_*` names that a module imports or reads, bare or as an
    attribute: a library default copied into the CLI."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name.startswith("DEFAULT_"):
            found.append(name)
    return sorted(found)


def test_detects_default_reads():
    source = (
        "from .qubo import DEFAULT_PENALTY, AnnealConfig\n"
        "from . import merging\n"
        "p = doc.get('penalty', DEFAULT_PENALTY)\n"
        "r = merging.DEFAULT_RATE\n"
        "q = doc.get('penalty', default_penalty)\n"
    )
    expected = ["DEFAULT_PENALTY", "DEFAULT_PENALTY", "DEFAULT_RATE"]
    assert default_reads(source) == expected


def test_cli_reads_no_library_default():
    assert default_reads((SRC / "cli.py").read_text()) == []


def hand_written_inits(source: str) -> list[str]:
    """Classes that define `__init__` themselves: a container's constructor
    is the one its dataclass generates, and `__post_init__` converts and
    checks what it stores."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    found.append(node.name)
    return found


def test_detects_hand_written_init():
    source = (
        "@dataclass(frozen=True, init=False)\n"
        "class Built:\n"
        "    shape: tuple\n"
        "    def __init__(self, shape, keys):\n"
        "        object.__setattr__(self, 'shape', shape)\n"
        "@dataclass(frozen=True)\n"
        "class Generated:\n"
        "    keys: InitVar[list]\n"
        "    def __post_init__(self, keys): pass\n"
        "def __init__(self): pass\n"
    )
    assert hand_written_inits(source) == ["Built"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_init(path):
    assert hand_written_inits(path.read_text()) == []


def alias_calls(source: str, alias: str) -> list[str]:
    """Each call of `alias`, bare or as an attribute, such as
    `PanopticMap.from_instances(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.split(".")[-1] == alias:
                found.append(name)
    return found


def test_detects_alias_call():
    source = (
        "from .masks import PanopticMap\n"
        "a = PanopticMap.from_instances(ids, to_class, table)\n"
        "b = masks.PanopticMap.from_instances(ids, to_class, table)\n"
        "c = PanopticMap(ids, to_class, table)\n"
        "def from_instances_like(): pass\n"
        "build = PanopticMap.from_instances\n"
    )
    assert alias_calls(source, "from_instances") == [
        "PanopticMap.from_instances", "masks.PanopticMap.from_instances"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_never_calls_from_instances(path):
    assert alias_calls(path.read_text(), "from_instances") == []


ARRAY_TYPES = {"ndarray", "MaskSupport"}


def array_dataclasses_with_eq(source: str) -> list[str]:
    """Dataclasses that annotate an attribute with an array type (`np.ndarray`
    or `MaskSupport`, also inside `tuple[...]` or `InitVar[...]`) but are not
    declared `eq=False`. A generated `__eq__` compares arrays elementwise and
    raises on any of two or more elements, and the generated `__hash__` always
    raises, so such a container compares and hashes by identity instead."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        calls = [d for d in node.decorator_list
                 if ast.unparse(getattr(d, "func", d)).split(".")[-1] == "dataclass"]
        if not calls:
            continue
        keywords = [k for d in calls for k in getattr(d, "keywords", [])]
        if any(k.arg == "eq" and ast.unparse(k.value) == "False" for k in keywords):
            continue
        annotations = [ast.unparse(s.annotation)
                       for s in node.body if isinstance(s, ast.AnnAssign)]
        if ARRAY_TYPES & set(words(" ".join(annotations))):
            found.append(node.name)
    return found


def test_detects_array_dataclass_with_eq():
    source = (
        "@dataclass(frozen=True)\n"
        "class Dense:\n"
        "    values: np.ndarray\n"
        "@dataclass\n"
        "class Sparse:\n"
        "    support: MaskSupport\n"
        "@dataclasses.dataclass(frozen=True, eq=True)\n"
        "class Nested:\n"
        "    support: tuple[np.ndarray, np.ndarray] = field(init=False)\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Held:\n"
        "    values: np.ndarray\n"
        "    keys: InitVar[np.ndarray]\n"
        "@dataclass(frozen=True)\n"
        "class Table:\n"
        "    names: tuple[str, ...]\n"
        "class Plain:\n"
        "    values: np.ndarray\n"
    )
    assert array_dataclasses_with_eq(source) == ["Dense", "Sparse", "Nested"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_dataclasses_compare_by_identity(path):
    assert array_dataclasses_with_eq(path.read_text()) == []


TIER1 = (
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
    "python -m pytest -q --continue-on-collection-errors"
)


def test_ci_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    root = SRC.parents[1]
    workflow = yaml.safe_load((root / ".github/workflows/tier1.yml").read_text())
    steps = [s for job in workflow["jobs"].values() for s in job["steps"]]
    assert [s["run"] for s in steps if "run" in s][-1] == TIER1
    assert f"`{TIER1}`" in (root / "ROADMAP.md").read_text()
