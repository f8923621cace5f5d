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


def unlocked_caches(source: str) -> list[str]:
    """Classes that define a functools.cached_property but whose __post_init__
    sets no `flags.writeable = False`: a cached index over arrays the caller
    can still write would go stale."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        caches = any(
            ast.unparse(d).split(".")[-1] == "cached_property"
            for n in methods
            for d in n.decorator_list
        )
        locks = any(
            isinstance(a, ast.Assign)
            and any(ast.unparse(t).endswith("flags.writeable") for t in a.targets)
            and isinstance(a.value, ast.Constant)
            and a.value.value is False
            for n in methods
            if n.name == "__post_init__"
            for a in ast.walk(n)
        )
        if caches and not locks:
            found.append(cls.name)
    return found


def test_detects_unlocked_cache():
    source = (
        "import functools\nfrom functools import cached_property\n"
        "class Locked:\n"
        "    def __post_init__(self):\n"
        "        self.values.flags.writeable = False\n"
        "    @cached_property\n"
        "    def index(self): pass\n"
        "class Unlocked:\n"
        "    def __post_init__(self):\n"
        "        self.values.flags.writeable = True\n"
        "    @functools.cached_property\n"
        "    def index(self): pass\n"
        "class Uncached:\n"
        "    @property\n"
        "    def index(self): pass\n"
    )
    assert unlocked_caches(source) == ["Unlocked"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cached_indices_have_locked_arrays(path):
    assert unlocked_caches(path.read_text()) == []


# Mask sets are validated where masks enter the program, and nowhere else.
MASK_SET_ENTRIES = {("cli.py", "_load_mask_set"), ("synthgen.py", "generate_scene")}


def mask_set_constructions(source: str) -> list[str]:
    """Names of the top-level functions that call `SoftMaskSet(`, with
    "<module>" for a call outside any function."""
    found = []
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                if ast.unparse(call.func).split(".")[-1] == "SoftMaskSet":
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
    assert mask_set_constructions(source) == ["load", "sub", "<module>"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_mask_sets_built_only_at_entry_points(path):
    built = mask_set_constructions(path.read_text())
    assert {(path.name, n) for n in built} <= MASK_SET_ENTRIES


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
